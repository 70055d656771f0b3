"""Reducibility objects and their application, conversion and verification.

Three notions, in increasing strength: a projection substitutes a variable
or scalar per variable; an indexed projection substitutes per (position,
variable); a matrix-substitution reduction substitutes a q x q matrix per
variable of the target polynomial and reads the source off the (1, q)
entry of the evaluated target.

Applying a matrix substitution to an explicitly expanded target is a
termwise sparse product.  The structured targets used by the completeness
constructions (balanced-word and palindrome families, whose supports are
exponentially large) are instead read as grammars, S -> 1 | o S c S by
first return and P_n = sum_x x P_(n-1) x, and applied through one
memoized inside sum over the product of grammar and automaton.  Its memo
keys are (start state, half-length[, depth budget]) reached through
nonzero cells, so the cost follows the reachable keys times their
intermediate terms rather than the number of parse trees.  The termwise
route stays as the independent oracle, and the two are cross-checked in
the test suite.
"""

import time
from dataclasses import dataclass, field as dc_field

from ..algebra import (
    DEFAULT_TERM_BUDGET,
    NCPoly,
    TableMismatchError,
    TermBudgetError,
    Var,
    VarTable,
    substitute_letters,
)
from ..automata import MatrixSubstitution, SubstAutomaton, automaton_to_substitution
from ..families import FamilyInstance


@dataclass
class ProjMap:
    """Per-variable substitution into variables or scalars."""

    input_table: VarTable  # target polynomial's variables
    output_table: VarTable  # source polynomial's variables
    mapping: dict  # var id -> Var (of output table) or scalar

    def __post_init__(self):
        for img in self.mapping.values():
            if isinstance(img, Var):
                if self.output_table.name(img.id) != img.name:
                    raise ValueError(f"image variable {img} not in the output table")


@dataclass
class IProjMap:
    """Per-(position, variable) substitution; positions are 1-based."""

    input_table: VarTable
    output_table: VarTable
    mapping: dict  # (position, var id) -> Var or scalar


def apply_proj(m: ProjMap, g: NCPoly) -> NCPoly:
    if g.table != m.input_table:
        raise TableMismatchError("polynomial is not over the map's input table")
    for vid in g.var_ids():
        if vid not in m.mapping:
            raise KeyError(f"projection undefined on {g.table.name(vid)!r}")
    return substitute_letters(g, lambda _pos, vid: m.mapping[vid], m.output_table)


def apply_iproj(m: IProjMap, g: NCPoly) -> NCPoly:
    if g.table != m.input_table:
        raise TableMismatchError("polynomial is not over the map's input table")
    return substitute_letters(g, lambda pos, vid: m.mapping[(pos, vid)], m.output_table)


# ---------------------------------------------------------------------------
# Matrix-substitution reductions


@dataclass
class AbpReduction:
    """A matrix substitution with named source and target."""

    substitution: MatrixSubstitution
    source: str  # descriptor: family spec, "circuit", or free-form
    target: str  # family spec string of the target instance
    kind: str = ""  # construction name, for serialization headers
    automaton: SubstAutomaton | None = dc_field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.substitution.dim

    @property
    def extraction(self) -> tuple:
        return (1, self.substitution.dim)  # 1-based (row, column)


def apply_abp_reduction(r: AbpReduction, g: NCPoly) -> NCPoly:
    """Evaluate g termwise on the matrices and extract the (1, q) entry.

    See MatrixSubstitution.evaluate: one sparse row-vector product per
    distinct prefix of the support, with like words merged per column.
    Variables without a matrix act as zero matrices and kill their words.
    """
    sub = r.substitution
    if g.table != sub.input_table:
        raise TableMismatchError("polynomial is not over the substitution's alphabet")
    return sub.evaluate(g)


def _add_product(acc: dict, left: dict, right: dict | None, term_budget: int) -> None:
    """acc += left * right on {word: coefficient} maps; right=None is 1.

    Raises TermBudgetError once acc holds more than term_budget nonzero
    terms, so an exponential sum stops at the budget.
    """
    if right is None:
        for w, c in left.items():
            s = acc.get(w)
            acc[w] = c if s is None else s + c
    else:
        for w1, c1 in left.items():
            for w2, c2 in right.items():
                w = w1 + w2
                s = acc.get(w)
                acc[w] = c1 * c2 if s is None else s + c1 * c2
            if len(acc) > term_budget:
                _prune_or_raise(acc, term_budget)
    if len(acc) > term_budget:
        _prune_or_raise(acc, term_budget)


def _prune_or_raise(acc: dict, term_budget: int) -> None:
    for w in [w for w, c in acc.items() if c == 0]:
        del acc[w]
    if len(acc) > term_budget:
        raise TermBudgetError(f"structured apply exceeded {term_budget} terms")


def _inside_sum(
    sub: MatrixSubstitution,
    pairs,
    half: int,
    with_tail: bool,
    depth_cap: int | None,
    term_budget: int,
) -> NCPoly:
    """Inside sum of a bracket grammar through the substitution's automaton.

    The target is the grammar S_m = sum over pairs (o, c) and m1 < m of
    o S_m1 c S_(m-1-m1), with S_0 = 1 (first return: the balanced words
    of length 2m).  with_tail=False fixes m1 = m-1 and drops the tail,
    which gives the palindromes P_n = sum_x x P_(n-1) x.  A memo key
    (start state, half-length, depth budget) maps each end state to the
    exact polynomial summed over all target words of that shape and all
    nonzero-cell paths between the two states; zero coefficients are
    dropped, so cancelling terms vanish.  The depth budget is None unless
    the target caps nesting.  Keys are reached from the start state
    through nonzero cells only and are ordered by an explicit stack, so
    the cost follows the reachable keys times their terms, and no target
    length depends on Python's recursion limit.
    """
    one = sub.input_table.field.one
    # state -> [(state after o, coefficient, word, rows of the matching c)]
    opens: dict[int, list] = {}
    for o, c in pairs:
        crow = sub.rows(c)
        for i, cells in sub.rows(o).items():
            opens.setdefault(i, []).extend((k, co, wo, crow) for k, co, wo in cells)
    memo: dict[tuple, dict] = {}
    # key -> {(tail length, state after c): sum of o S_m1 c}, kept while the
    # key waits for its tails
    lefts: dict[tuple, dict] = {}
    root = (0, half, depth_cap)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        i, m, b = key
        if m == 0 or b == 0:
            memo[key] = {i: {(): one}} if m == 0 else {}
            stack.pop()
            continue
        inner_b = None if b is None else b - 1
        splits = range(m) if with_tail else (m - 1,)
        cells = opens.get(i, ())
        left = lefts.get(key)
        if left is None:
            missing = [
                (k, m1, inner_b)
                for k, _, _, _ in cells
                for m1 in splits
                if (k, m1, inner_b) not in memo
            ]
            if missing:
                stack.extend(missing)
                continue
            left = lefts[key] = {}
            for k, co, wo, crow in cells:
                for m1 in splits:
                    for j1, inner in memo[(k, m1, inner_b)].items():
                        for k2, cc, wc in crow.get(j1, ()):
                            scale = co * cc
                            acc = left.setdefault((m - 1 - m1, k2), {})
                            for w, c in inner.items():
                                w = wo + w + wc
                                s = acc.get(w)
                                acc[w] = c * scale if s is None else s + c * scale
                            if len(acc) > term_budget:
                                _prune_or_raise(acc, term_budget)
        missing = [(k2, t, b) for t, k2 in left if t and (k2, t, b) not in memo]
        if missing:
            stack.extend(missing)
            continue
        del lefts[key]
        out: dict[int, dict] = {}
        for (t, k2), lpoly in left.items():
            tails = memo[(k2, t, b)] if t else {k2: None}
            for j, tpoly in tails.items():
                _add_product(out.setdefault(j, {}), lpoly, tpoly, term_budget)
        entry = {}
        for j, acc in out.items():
            clean = {w: c for w, c in acc.items() if c != 0}
            if clean:
                entry[j] = clean
        memo[key] = entry
        stack.pop()
    result = NCPoly.zero(sub.output_table)
    result.terms.update(memo[root].get(sub.dim - 1, {}))
    return result


def apply_to_instance(
    r: AbpReduction,
    target: FamilyInstance,
    force_expand: bool = False,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> NCPoly:
    """Apply a matrix substitution to a family instance.

    Balanced-word (``dyck``, ``dyckdepth``) and palindrome (``pal``)
    targets go through the memoized inside sum of their grammar and are
    never realized; its cost follows the reachable (state, length[, depth])
    keys times their intermediate terms, and it raises TermBudgetError when
    an intermediate polynomial exceeds term_budget.  Every other target,
    and every target under force_expand, is expanded and applied termwise.
    """
    if not force_expand and target.name in ("dyck", "dyckdepth", "pal"):
        meta, params = target.meta, target.params
        if target.name == "pal":
            pairs = [(x, x) for x in meta["letters"]]
            return _inside_sum(r.substitution, pairs, params["n"], False, None, term_budget)
        half = params["d"] // 2 if target.name == "dyck" else params["n"]
        return _inside_sum(
            r.substitution, meta["pairs"], half, True, meta.get("depth"), term_budget
        )
    return apply_abp_reduction(r, target.poly)


# ---------------------------------------------------------------------------
# Verification


@dataclass
class Verdict:
    passed: bool
    source_terms: int
    result_terms: int
    witness: tuple | None  # (word as names, expected coeff, got coeff)
    detail: str
    elapsed: float

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


def verify_reduction(
    r,
    source: FamilyInstance,
    target: FamilyInstance,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> Verdict:
    """Apply a reduction to the target instance and compare with the source
    term for term.  A mismatch is a verdict carrying the first offending
    word, never an exception; term_budget bounds the structured apply."""
    t0 = time.perf_counter()
    if isinstance(r, AbpReduction):
        applied = apply_to_instance(r, target, term_budget=term_budget)
    elif isinstance(r, IProjMap):
        applied = apply_iproj(r, target.poly)
    elif isinstance(r, ProjMap):
        applied = apply_proj(r, target.poly)
    else:
        raise TypeError(f"cannot verify object of type {type(r).__name__}")
    expected = source.poly
    elapsed = time.perf_counter() - t0
    if applied.table != expected.table:
        return Verdict(
            False,
            len(expected.terms),
            len(applied.terms),
            None,
            "result uses a different variable table than the source",
            elapsed,
        )
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
            a.add_transition(f"p{pos - 1}", vid, f"p{pos}", word=(img.id,))
        elif img != 0:
            a.add_transition(f"p{pos - 1}", vid, f"p{pos}", coeff=img)
    return AbpReduction(automaton_to_substitution(a), source, target, kind="iproj-chain", automaton=a)


def identity_reduction(table: VarTable, d: int, source="", target="") -> AbpReduction:
    """Chain of d+1 states mapping every variable to itself."""
    a = SubstAutomaton(table, table)
    a.add_state("p0", start=True)
    a.add_state(f"p{d}", accept=True)
    for i in range(d):
        for v in table.vars():
            a.add_transition(f"p{i}", v.id, f"p{i + 1}", word=(v.id,))
    return AbpReduction(automaton_to_substitution(a), source, target, kind="identity", automaton=a)


def compose_abp(r1: AbpReduction, r2: AbpReduction) -> AbpReduction:
    """Composition by block substitution: each entry word of the outer
    reduction is replaced by the product of the inner reduction's matrices,
    giving one (q1*q2)-dimensional matrix per outermost variable.

    Requires the inner reduction's input alphabet to equal the outer one's
    output alphabet.  Raises if a blown-up entry would need a sum of
    distinct monomials or a degree above the entry cap; the concrete
    constructions in this package never trigger either.
    """
    s1, s2 = r1.substitution, r2.substitution
    if s1.input_table != s2.output_table:
        raise TableMismatchError(
            "inner reduction's alphabet does not match the outer reduction's output"
        )
    q1, q2 = s1.dim, s2.dim
    one = s1.input_table.field.one

    def word_product(word):
        """Sparse product of the inner matrices of a word; identity for ()."""
        if not word:
            return {(i, i): (one, ()) for i in range(q1)}
        cells = dict(s1.entries.get(word[0], {}))
        for y in word[1:]:
            nxt: dict = {}
            rows = s1.rows(y)
            for (i, k), (c0, w0) in cells.items():
                for j, c1, w1 in rows.get(k, ()):
                    prev = nxt.get((i, j))
                    cand = (c0 * c1, w0 + w1)
                    if prev is None:
                        nxt[(i, j)] = cand
                    elif prev[1] == cand[1]:
                        nxt[(i, j)] = (prev[0] + cand[0], prev[1])
                    else:
                        raise ValueError(
                            "composition entry needs a sum of distinct monomials"
                        )
            cells = nxt
        return cells

    entries: dict[int, dict] = {}
    for zid, zcells in s2.entries.items():
        out_cells: dict = {}
        for (i2, j2), (coeff, word) in zcells.items():
            for (i1, j1), (c, w) in word_product(word).items():
                key = (i2 * q1 + i1, j2 * q1 + j1)
                prev = out_cells.get(key)
                cand = (coeff * c, w)
                if prev is None:
                    out_cells[key] = cand
                elif prev[1] == cand[1]:
                    out_cells[key] = (prev[0] + cand[0], prev[1])
                else:
                    raise ValueError("composition entry needs a sum of distinct monomials")
        entries[zid] = out_cells
    sub = MatrixSubstitution(s2.input_table, s1.output_table, q1 * q2, entries)
    return AbpReduction(sub, r1.source, r2.target, kind="compose")
