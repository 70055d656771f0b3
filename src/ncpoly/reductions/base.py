"""Reducibility objects and their application, conversion and verification.

Three notions, in increasing strength: a projection substitutes a variable
or scalar per variable; an indexed projection substitutes per (position,
variable); a matrix-substitution reduction substitutes a q x q matrix per
variable of the target polynomial and reads the source off the (1, q)
entry of the evaluated target.  The program applies a projection or an
indexed projection only after compiling it, with iproj_to_abp; applying
one letter by letter is the tests' oracle (tests/oracles.py).

Applying a matrix substitution to a target without a grammar is one
termwise walk over its terms, which the choice and permutation families
stream without realizing them.  A target family that declares its grammar in
meta["grammar"] (the balanced-word and palindrome families, whose supports
are exponentially large) is instead read as that grammar, S -> 1 | o S c S
by first return or P_n = sum_x x P_(n-1) x, and applied through one inside
sum over the product of grammar and automaton.  Its keys are (start
state, half-length[, depth budget]), and it makes three passes over
them: a Boolean pass builds, bottom up by half-length, the end states of
each nonempty key whose start state the automaton's start reaches in
time to use it, a top-down pass keeps only the end states on an
accepting derivation and records the joins that reach them, and a
polynomial pass replays those joins, each key's held until the key is
built.  The bit operations follow the nonempty keys of reachable states
and their (left, tail) joins, never an empty key; the exact arithmetic
follows the live joins times their intermediate terms, not the number of
parse trees.
The termwise route stays as the independent oracle, and the two are
cross-checked in the test suite.
"""

import time

from ..algebra import NCPoly, TableMismatchError, Var, VarTable, budget
from ..automata import (
    MatrixSubstitution,
    SubstAutomaton,
    automaton_to_substitution,
    path_order,
    product_cells,
)
from ..families import FamilyInstance


class ProjMap:
    """Per-variable substitution into variables or scalars."""

    __slots__ = ("input_table", "output_table", "mapping")

    def __init__(self, input_table: VarTable, output_table: VarTable, mapping: dict):
        self.input_table = input_table  # target polynomial's variables
        self.output_table = output_table  # source polynomial's variables
        self.mapping = mapping  # var id -> Var (of output table) or scalar
        for img in mapping.values():
            if isinstance(img, Var):
                if output_table.name(img.id) != img.name:
                    raise ValueError(f"image variable {img} not in the output table")


class IProjMap:
    """Per-(position, variable) substitution; positions are 1-based."""

    __slots__ = ("input_table", "output_table", "mapping")

    def __init__(self, input_table: VarTable, output_table: VarTable, mapping: dict):
        self.input_table = input_table
        self.output_table = output_table
        self.mapping = mapping  # (position, var id) -> Var or scalar


# ---------------------------------------------------------------------------
# Matrix-substitution reductions


class AbpReduction:
    """A matrix substitution with named source and target."""

    __slots__ = ("substitution", "source", "target", "kind")

    def __init__(self, substitution: MatrixSubstitution, source: str, target: str, kind: str = ""):
        self.substitution = substitution
        self.source = source  # descriptor: family spec, "circuit", or free-form
        self.target = target  # family spec string of the target instance
        self.kind = kind  # construction name, for serialization headers

    @property
    def dim(self) -> int:
        return self.substitution.dim


def apply_abp_reduction(r: AbpReduction, g: NCPoly | FamilyInstance) -> NCPoly:
    """Evaluate g termwise on the matrices and extract the (1, q) entry.

    g is a polynomial or a family instance, whose stream() is walked, so a
    streamed family is never realized.  See
    MatrixSubstitution.evaluate: one walk over the words in sorted order
    that steps into each live prefix of the support once, moves a
    one-column vector along unit cells without a product, and merges like
    words per column.  Variables without a matrix act as zero matrices and
    kill their words.
    """
    sub = r.substitution
    if g.table != sub.input_table:
        raise TableMismatchError("polynomial is not over the substitution's alphabet")
    return sub.evaluate(g if isinstance(g, NCPoly) else g.stream())


def _add_product(acc: dict, left: dict, right: dict, limit: int) -> None:
    """acc += left * right on {word: coefficient} maps.

    Raises TermBudgetError once acc holds more nonzero terms than limit,
    the term budget, so an exponential sum stops at the budget.
    """
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = w1 + w2
            s = acc.get(w)
            acc[w] = c1 * c2 if s is None else s + c1 * c2
        if len(acc) > limit:
            _prune_or_raise(acc)


def _drop_zeros(acc: dict) -> None:
    for w in [w for w, c in acc.items() if c == 0]:
        del acc[w]


def _prune_or_raise(acc: dict) -> None:
    _drop_zeros(acc)
    budget().check_terms(len(acc), "structured apply")


def _fact_room(sub: MatrixSubstitution, letters, half: int, with_tail: bool) -> list:
    """room[L]: the bitset of states where a key of half-length L can start
    in a target word read from the start state.

    For balanced words these are the states reached within 2 * (half - L)
    letters, found breadth first so that each state is expanded once; for
    palindromes, the states reached after exactly half - L letters.  The
    list runs to 2 * half, with no state beyond L = half.
    """
    successors: dict[int, int] = {}
    for v in letters:
        for j, cells in sub.rows(v).items():
            bits = successors.get(j, 0)
            for k, _, _ in cells:
                bits |= 1 << k
            successors[j] = bits

    def step(bits: int) -> int:
        after = 0
        while bits:
            j = bits.bit_length() - 1
            bits ^= 1 << j
            after |= successors.get(j, 0)
        return after

    room = [0] * (2 * half + 1)
    if with_tail:
        seen = frontier = 1
        for n in range(half, -1, -1):
            room[n] = seen
            for _ in range(2 if n else 0):
                frontier = step(frontier) & ~seen
                seen |= frontier
    else:
        room[half] = 1
        for n in range(half, 0, -1):
            room[n - 1] = step(room[n])
    return room


def _row_bits(rows: dict) -> int:
    """The bitset of the rows that hold a cell."""
    bits = 0
    for j in rows:
        bits |= 1 << j
    return bits


def _opener_cells(sub: MatrixSubstitution, pairs) -> dict:
    """The opener-cell index of a bracket grammar, built once per inside sum:
    state i -> {state k after o: (rows, [(coefficient, word, c, rows of c)])}
    over the cells i -> k of each pair's opener o, where rows is the bitset
    of the rows in which some closer c of the group has a cell."""
    opens: dict[int, dict] = {}
    for o, c in pairs:
        crow = sub.rows(c)
        bits = _row_bits(crow)
        for i, cells in sub.rows(o).items():
            by_k = opens.setdefault(i, {})
            for k, co, wo in cells:
                group = by_k.get(k)
                if group is None:
                    group = by_k[k] = [0, []]
                group[0] |= bits
                group[1].append((co, wo, c, crow))
    return opens


def _nonempty_facts(
    sub: MatrixSubstitution,
    pairs,
    opens: dict,
    half: int,
    with_tail: bool,
    depth_cap: int | None,
) -> tuple[dict, dict]:
    """The Boolean pass of _inside_sum: its grammar over the Boolean semiring.

    A fact (i, L, b) holds, as an int bitset, the states j such that some
    target word of half-length L and depth budget b has a nonzero-cell path
    from i to j.  Returns ends {(i, L, b): bitset}, whose keys come in
    order of increasing L, and found {(i, b): {L: bitset}} over the same
    facts.  Only nonempty facts are stored, and a fact (i, L) only when i
    is in room[L] of _fact_room, where a target word read from the start
    can use it.  Facts of half-length 0, {i}, are stored for the states an
    opener reaches.

    The facts are built by half-length, bottom up.  Once R(k, L, b-1) is
    final, each opener cell i -> k and its closer c give the left bits of
    o S_L c from i, the states after that prefix.  These join every tail
    R(k2, t, b) already stored for a left bit k2, and each tail stored
    later joins the left facts waiting at its start state.  So each
    (left, tail) pair is joined once, no empty fact is ever stored, and
    the cost is the nonempty facts plus their joins.  opens is the
    _opener_cells index of the pairs, from which the opener cells are read.
    """
    if half == 0:
        return {(0, 0, depth_cap): 1}, {(0, depth_cap): {0: 1}}
    room = _fact_room(sub, {v for pair in pairs for v in pair}, half, with_tail)
    starts = 0
    for bits in room[1:]:
        starts |= bits
    # into[k][c]: the starts i of the opener cells i -> k whose closer is c
    into: dict[int, dict] = {}
    for i, by_k in opens.items():
        if starts >> i & 1:
            for k, (_, cells) in by_k.items():
                for _, _, c, _ in cells:
                    into.setdefault(k, {}).setdefault(c, []).append(i)

    # closers[c]: the rows of closer c and the bitset of those rows
    closers = {c: (sub.rows(c), _row_bits(sub.rows(c))) for _, c in pairs}
    inner_budgets = [None] if depth_cap is None else range(depth_cap)
    pending: list = [{} for _ in range(half + 1)]
    for k in into:
        if room[0] >> k & 1:
            for b in inner_budgets:
                pending[0][(k, b)] = 1 << k
    ends: dict[tuple, int] = {}
    found: dict[tuple, dict] = {}
    # waiting[(k2, b)]: left facts (i, m1) with k2 among their left bits
    # that a tail of a later half-length may still join
    waiting: dict[tuple, list] = {}
    for s in range(half + 1):
        facts, pending[s] = pending[s], None
        for (i, b), bits in facts.items():
            ends[(i, s, b)] = bits
            found.setdefault((i, b), {})[s] = bits
        if s == half:
            break
        for (k2, b), tail in facts.items():
            for i, m1 in waiting.get((k2, b), ()):
                m = m1 + 1 + s
                if room[m] >> i & 1:
                    acc = pending[m]
                    acc[(i, b)] = acc.get((i, b), 0) | tail
        fit = room[s + 1]
        left: dict[tuple, int] = {}
        for (k, inner_b), inner in facts.items():
            if inner_b is not None and inner_b == depth_cap:
                continue
            b = None if inner_b is None else inner_b + 1
            for c, cell_starts in into.get(k, {}).items():
                crow, crow_bits = closers[c]
                after, bits = 0, inner & crow_bits
                while bits:
                    j = bits.bit_length() - 1
                    bits ^= 1 << j
                    for k2, _, _ in crow.get(j, ()):
                        after |= 1 << k2
                if after:
                    for i in cell_starts:
                        if fit >> i & 1:
                            left[(i, b)] = left.get((i, b), 0) | after
        nxt = pending[s + 1]
        for (i, b), after in left.items():
            nxt[(i, b)] = nxt.get((i, b), 0) | after  # the empty tail
            if not with_tail:
                continue
            later = room[2 * s + 2] >> i & 1
            bits = after
            while bits:
                k2 = bits.bit_length() - 1
                bits ^= 1 << k2
                for t, tail in found.get((k2, b), {}).items():
                    if not t:
                        continue
                    m = s + 1 + t
                    if not room[m] >> i & 1:
                        break
                    acc = pending[m]
                    acc[(i, b)] = acc.get((i, b), 0) | tail
                if later:
                    waiting.setdefault((k2, b), []).append((i, s))
    return ends, found


def _inside_sum(
    sub: MatrixSubstitution,
    pairs,
    half: int,
    with_tail: bool,
    depth_cap: int | None,
) -> NCPoly:
    """Inside sum of a bracket grammar through the substitution's automaton.

    The target is the grammar S_m = sum over pairs (o, c) and m1 < m of
    o S_m1 c S_(m-1-m1), with S_0 = 1 (first return: the balanced words
    of length 2m).  with_tail=False fixes m1 = m-1 and drops the tail,
    which gives the palindromes P_n = sum_x x P_(n-1) x.  A key (start
    state, half-length, depth budget) stands for one exact polynomial per
    end state, summed over all target words of that shape and all
    nonzero-cell paths between the two states; the depth budget is None
    unless the target caps nesting.  Three passes share the keys and one
    opener-cell index, built once:

    1. Boolean: _nonempty_facts runs the same recurrence over the Boolean
       semiring, bottom up by half-length from the states the start
       reaches, and stores each nonempty key's end states as an int
       bitset, in order of increasing half-length.
    2. Top-down: the keys walked backwards, from (start, half) to the
       accept state, mark per key the end states that lie on an
       accepting derivation (the usual trimming of useless nonterminals).
       Each marked key records its live joins, the (opener cell, inner
       end state, closer cell, split) whose tail reaches a marked end,
       and the marked keys they read; the consumers of each key are
       counted.  Only the inner end states where a closer of the opener
       group has a cell are walked.
    3. Polynomial: the keys walked forwards, which is topological, replay
       the joins pass 2 recorded and build only the marked end states.
       A key's joins are held until the key is built, cells whose
       coefficients multiply to one add without multiplying, and a key is
       freed once its last consumer is built.

    The Boolean pass costs its nonempty keys plus their (left, tail)
    joins in bit operations, and never stores an empty key; the top-down
    pass costs the marked keys times their nonempty inner keys; the
    polynomial pass costs the live joins times their intermediate terms.
    Zero coefficients are dropped in place, so cancelling terms vanish
    without a copy of the key's polynomial, and no target length depends
    on Python's recursion limit.  The result takes over the root key's
    dict at the accept state, so the call ends holding it once.
    """
    limits = budget()
    # the Boolean pass keeps one entry per target length in its tables
    limits.check_terms(2 * half + 1, f"the inside sum's table of target lengths up to {2 * half}")
    limit = limits.terms
    one = sub.input_table.field.one
    accept = sub.dim - 1
    opens = _opener_cells(sub, pairs)
    ends, found = _nonempty_facts(sub, pairs, opens, half, with_tail, depth_cap)
    root = (0, half, depth_cap)

    # 2. Top-down pass: live[key] is the bitset of the key's end states on
    # an accepting derivation; joins[key] holds the key's live joins, as
    # (inner key, inner end j1, opener * closer scale, opener word, closer
    # word, tail key (k2, t, b) from the state k2 after the closer), and
    # the marked keys it reads.
    live = {root: ends.get(root, 0) & 1 << accept}
    if not live[root]:
        return NCPoly.zero(sub.output_table)
    joins: dict[tuple, tuple] = {}
    consumers: dict[tuple, int] = {}
    for key in reversed(ends):
        want = live.get(key)
        if not want or key[1] == 0:
            continue
        i, m, b = key
        inner_b = None if b is None else b - 1
        lo = 0 if with_tail else m - 1
        key_joins = []
        used_keys = set()
        for k, (rows, cells) in opens[i].items():
            for m1, inner in found.get((k, inner_b), {}).items():
                if not lo <= m1 < m:
                    continue
                t = m - 1 - m1
                inner_key = (k, m1, inner_b)
                used = 0
                inner &= rows  # an end state no closer of the group leaves
                while inner:
                    j1 = inner.bit_length() - 1
                    inner ^= 1 << j1
                    for co, wo, _, crow in cells:
                        for k2, cc, wc in crow.get(j1, ()):
                            tail_key = (k2, t, b)
                            hit = (ends.get(tail_key, 0) if t else 1 << k2) & want
                            if not hit:
                                continue
                            used |= 1 << j1
                            key_joins.append((inner_key, j1, co * cc, wo, wc, tail_key))
                            if t:
                                live[tail_key] = live.get(tail_key, 0) | hit
                                used_keys.add(tail_key)
                if used:
                    live[inner_key] = live.get(inner_key, 0) | used
                    used_keys.add(inner_key)
        joins[key] = (key_joins, used_keys)
        for used_key in used_keys:
            consumers[used_key] = consumers.get(used_key, 0) + 1

    # 3. Polynomial pass, bottom up over the marked keys.
    memo: dict[tuple, dict] = {}
    for key in ends:
        want = live.get(key)
        if not want:
            continue
        i, m, _ = key
        if m == 0:
            memo[key] = {i: {"": one}}
            continue
        key_joins, used_keys = joins.pop(key)
        # out[j]: the key's polynomial at end state j, where the joins of
        # tail length 0 land; left[tail key]: the sum of o S_m1 c that
        # waits for that tail
        out: dict[int, dict] = {}
        left: dict[tuple, dict] = {}
        for inner_key, j1, scale, wo, wc, tail_key in key_joins:
            ipoly = memo[inner_key].get(j1)
            if ipoly is None:
                continue
            unit = scale == one
            if tail_key[1]:
                acc = left.setdefault(tail_key, {})
            else:
                acc = out.setdefault(tail_key[0], {})
            for w, c in ipoly.items():
                w = wo + w + wc
                if not unit:
                    c = c * scale
                s = acc.get(w)
                acc[w] = c if s is None else s + c
            if len(acc) > limit:
                _prune_or_raise(acc)
        for tail_key, lpoly in left.items():
            for j, tpoly in memo[tail_key].items():
                if want >> j & 1:
                    _add_product(out.setdefault(j, {}), lpoly, tpoly, limit)
        for j in list(out):
            _drop_zeros(out[j])
            if not out[j]:
                del out[j]
        memo[key] = out
        for used_key in used_keys:
            consumers[used_key] -= 1
            if not consumers[used_key]:
                del memo[used_key]
    return NCPoly.adopt(sub.output_table, memo.pop(root).get(accept, {}))


def apply_to_instance(r: AbpReduction, target: FamilyInstance) -> NCPoly:
    """Apply a matrix substitution to a family instance.

    A target that declares its grammar in meta["grammar"], as (pairs,
    half-length, tail flag, depth cap) in the arguments of _inside_sum,
    goes through the inside sum and is never realized.  Its Boolean pass
    costs bit operations over the nonempty (state, length[, depth]) keys
    of the states the start reaches, plus their (left, tail) joins.  Its
    top-down pass records the joins on an accepting derivation, and its
    polynomial pass replays them, holding each key's joins until the key
    is built; it costs those joins times their intermediate terms, and
    raises TermBudgetError when an intermediate polynomial exceeds the
    term budget.
    Every other target is applied termwise by apply_abp_reduction, the
    route the tests check the inside sum against, on the target's term
    stream (FamilyInstance.stream).  The choice families (id, idprime,
    idstar, prodsums, powsum) and the permutation families (per, perchi,
    perstar, perstarchi) stream their words one at a time and are never
    realized; every other target is realized first.
    """
    grammar = target.meta.get("grammar")
    if grammar is not None:
        return _inside_sum(r.substitution, *grammar)
    return apply_abp_reduction(r, target)


# ---------------------------------------------------------------------------
# Verification


class Verdict:
    __slots__ = ("passed", "source_terms", "result_terms", "witness", "detail", "elapsed")

    def __init__(self, passed: bool, source_terms: int, result_terms: int,
                 witness: tuple | None, detail: str, elapsed: float):
        self.passed = passed
        self.source_terms = source_terms
        self.result_terms = result_terms
        self.witness = witness  # (word as names, expected coeff, got coeff)
        self.detail = detail
        self.elapsed = elapsed

    def __str__(self):
        lines = [
            f"verdict {'pass' if self.passed else 'fail'}",
            f"source-terms {self.source_terms}",
            f"result-terms {self.result_terms}",
            f"elapsed {self.elapsed:.3f}s",
        ]
        if self.detail:
            lines.append(f"detail {self.detail}")
        if self.witness is not None:
            word, expected, got = self.witness
            shown = " ".join(word) if word else "1"
            lines.append(f"witness {shown}")
            lines.append(f"expected {expected}")
            lines.append(f"got {got}")
        return "\n".join(lines)


def verify_reduction(r: AbpReduction, source: FamilyInstance, target: FamilyInstance) -> Verdict:
    """Apply a reduction to the target instance and compare with the source
    term for term.  A mismatch is a verdict carrying the first offending
    word, never an exception; the term budget bounds the structured apply.
    A source or target over another alphabet than the substitution's is
    no mismatch but a usage error: TableMismatchError is raised before
    anything is applied."""
    sub = r.substitution
    if target.table != sub.input_table:
        raise TableMismatchError("target family alphabet does not match the reduction")
    if source.table != sub.output_table:
        raise TableMismatchError("source alphabet does not match the reduction's output")
    t0 = time.perf_counter()
    applied = apply_to_instance(r, target)
    expected = source.poly
    elapsed = time.perf_counter() - t0
    if applied.terms == expected.terms:
        return Verdict(True, len(expected.terms), len(applied.terms), None, "", elapsed)
    fmt = expected.table.field.format
    zero = expected.table.field.zero
    for w in sorted(set(expected.terms) | set(applied.terms)):
        want = expected.terms.get(w, zero)
        got = applied.terms.get(w, zero)
        if want != got:
            names = expected.table.word_names(w)
            return Verdict(
                False,
                len(expected.terms),
                len(applied.terms),
                (names, fmt(want), fmt(got)),
                "first mismatching word shown",
                elapsed,
            )
    raise AssertionError("term maps differ but no witness found")


# ---------------------------------------------------------------------------
# Conversions between the reducibilities


# No command reaches it yet: it waits for the VNP-separation command on the ROADMAP.
def proj_to_iproj(m: ProjMap, d: int) -> IProjMap:
    """Replicate a per-variable map at every position 1..d."""
    mapping = {}
    for i in range(1, d + 1):
        for vid, img in m.mapping.items():
            mapping[(i, vid)] = img
    return IProjMap(m.input_table, m.output_table, mapping)


def iproj_to_abp(m: IProjMap, d: int, source="", target="") -> AbpReduction:
    """Compile an indexed projection into a position-counting chain.

    State i has read i letters; reading y at state i emits the image of
    (i+1, y).  Zero images and undefined pairs compile to dead cells.  The
    extraction sits at the end of the chain, so the compiled reduction
    agrees with the indexed projection on targets homogeneous of degree d.
    """
    a = SubstAutomaton(m.input_table, m.output_table)
    a.add_state("p0", start=True)
    a.add_state(f"p{d}", accept=True)
    for (pos, vid), img in sorted(
        m.mapping.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        if pos > d:
            continue
        if isinstance(img, Var):
            a.add_transition(f"p{pos - 1}", vid, f"p{pos}", word=chr(img.id))
        elif img != 0:
            a.add_transition(f"p{pos - 1}", vid, f"p{pos}", coeff=img)
    return AbpReduction(automaton_to_substitution(a), source, target, kind="iproj-chain")


def compose_abp(r1: AbpReduction, r2: AbpReduction) -> AbpReduction:
    """Composition by block substitution, trimmed to the start -> accept
    paths of the product.

    Each entry word of the outer reduction r2 is replaced by the product
    of the inner reduction r1's matrices, so a product state is a pair
    (i2, i1) of an outer and an inner state, and the composite reads one
    matrix per outermost variable.  Of the q1*q2 pairs only those on a
    start -> accept path are built, by the two walks of path_order:

    1. Backward from (accept2, accept1): a pair (j2, j1) reaches back to
       (i2, i1) through each outer cell i2 -> j2 whose entry word spells a
       nonzero-cell path i1 -> j1 through the inner matrices, found by
       following the inner matrices' columns in reverse letter order,
       memoized per (entry word, column).
    2. Forward from (start2, start1) over the pairs the backward walk
       found: product_cells multiplies each entry word out once per row
       i1 of a kept pair, and only cells between kept pairs are filed.

    The cost follows the pairs that reach the accept pair and the cells
    of the kept ones, not q1*q2; the state budget is charged for each pair
    as the backward walk finds it.  Start first, accept last and the other
    kept pairs in breadth-first order give the composite's states, and its
    (start, accept) entry is that of the full block product.  Requires
    the inner reduction's input alphabet to equal the outer one's output
    alphabet.  Raises ValueError if a kept entry would need a sum of
    distinct monomials or a degree above the entry cap; the concrete
    constructions in this package never trigger either.
    """
    s1, s2 = r1.substitution, r2.substitution
    if s1.input_table != s2.output_table:
        raise TableMismatchError(
            "inner reduction's alphabet does not match the outer reduction's output"
        )
    one = s1.input_table.field.one
    into: dict[int, set] = {}  # j2 -> {(i2, entry word)} of the outer cells
    for zcells in s2.entries.values():
        for (i2, j2), (_coeff, word) in zcells.items():
            into.setdefault(j2, set()).add((i2, word))
    columns: dict[str, dict] = {}  # letter -> inner column j1 -> its rows i1
    for y, cells in s1.entries.items():
        col = columns[chr(y)] = {}
        for i1, j1 in cells:
            col.setdefault(j1, []).append(i1)
    sources: dict[tuple, set] = {}  # (entry word, j1) -> the rows i1 reaching j1

    def before(pair):
        j2, j1 = pair
        for i2, word in into.get(j2, ()):
            rows = sources.get((word, j1))
            if rows is None:
                rows = {j1}
                for y in reversed(word):
                    col = columns.get(y, {})
                    rows = {i1 for j in rows for i1 in col.get(j, ())}
                sources[(word, j1)] = rows
            for i1 in rows:
                yield i2, i1

    inner_rows = {chr(y): s1.rows(y) for y in s1.entries}
    outer = [(zid, s2.rows(zid)) for zid in sorted(s2.entries)]
    products: dict[tuple, dict] = {}  # (entry word, i1) -> row i1's cells
    kept: dict[tuple, list] = {}  # kept pair -> [(variable, next pair, coefficient, word)]

    def after(pair):
        i2, i1 = pair
        cells_out = kept[pair] = []
        for zid, rows in outer:
            for j2, coeff, word in rows.get(i2, ()):
                cells = products.get((word, i1))
                if cells is None:
                    cells = products[(word, i1)] = product_cells(
                        [inner_rows.get(y, {}) for y in word], (i1,), one
                    )
                for (_, j1), (c, w) in cells.items():
                    cells_out.append((zid, (j2, j1), coeff * c, w))
        return [nxt for _, nxt, _, _ in cells_out]

    order = path_order((0, 0), (s2.dim - 1, s1.dim - 1), before, after)
    index = {p: n for n, p in enumerate(order)}
    entries: dict[int, dict] = {zid: {} for zid in s2.entries}
    for pair, cells_out in kept.items():
        for zid, nxt, c, w in cells_out:
            if nxt in index:
                entries[zid][(index[pair], index[nxt])] = (c, w)
    sub = MatrixSubstitution(s2.input_table, s1.output_table, len(order), entries)
    return AbpReduction(sub, r1.source, r2.target, kind="compose")
