"""Grammar-walk reductions: circuits into balanced-word targets.

Both constructions follow the same scheme.  The bracketing transform gives
every monomial of the circuit a parse word; a fixed-length prefix padding
makes all parse words the same even length; a deterministic automaton
walks that word, entering subcircuits through addition closures, and its
matrices substitute the original variables and scalars back in.  The
Dyck walk's states are places in the circuit, and the target's one
degree does the counting; the palindrome walk keeps positions, so that
every accepted word has its center at the middle.
The automata read the tables each transform returns and re-spell none of
them: the Dyck walk numbers its target pairs from the bracket pairs in
creation order and reads each leaf's bracket word, the palindrome walk
reads the twin pairs of skew products and input doubles, and every letter
emits its recovery image (_image), so the bracket encoding and the letter
that carries each image are decided once, in ncpoly.circuits.
Balance (or the mirror structure of palindromes) supplied by the target's
own support does the bracket matching that a finite automaton cannot.

Addition gates introduce no letters, so a monomial derivable through
several addition paths appears as a single word; the walk therefore
weights each closure step by its path count, which restores the
multiplicities exactly.  Correctness is not argued from the transition
table but enforced by the extraction-equals-expansion postcondition in
the test suite, for every corpus circuit.
"""

from collections import deque

from ..algebra import Var
from ..automata import SubstAutomaton, automaton_to_substitution
from ..circuits import (
    Add,
    Circuit,
    Const,
    Input,
    Mul,
    homogenize,
    is_skew,
    to_bracketed,
    to_skew_bracketed,
)
from ..families import gen_dyck, gen_pal
from .base import AbpReduction


def _add_closures(gates) -> list:
    """Per gate, the non-addition gates reachable by descending through
    additions, with the number of distinct descent paths."""
    memo: list[dict] = []
    for gid, g in enumerate(gates):
        if isinstance(g, Add):
            out: dict = {}
            for child in (g.left, g.right):
                for t, cnt in memo[child].items():
                    out[t] = out.get(t, 0) + cnt
            memo.append(out)
        else:
            memo.append({gid: 1})
    return memo


def _const_values(circuit: Circuit) -> list:
    """Per gate, the coefficient of the empty word in its polynomial."""
    zero = circuit.table.field.zero
    vals = []
    for g in circuit.gates:
        if isinstance(g, Input):
            vals.append(zero)
        elif isinstance(g, Const):
            vals.append(g.value)
        elif isinstance(g, Add):
            vals.append(vals[g.left] + vals[g.right])
        else:
            vals.append(vals[g.left] * vals[g.right])
    return vals


def _image(recovery: dict, vid: int, cnt: int, field) -> tuple:
    """Coefficient and word that letter vid emits when reached along cnt
    addition paths: cnt times its recovery image, a variable or a scalar."""
    img = recovery[vid]
    if isinstance(img, Var):
        return field.from_int(cnt), (img.id,)
    return field.from_int(cnt) * img, ()


def dyck_completeness_reduction(c: Circuit) -> AbpReduction:
    """Reduce an arbitrary circuit to a balanced-word target.

    The target has one bracket pair per bracket pair of the parsed circuit
    plus r+1 padding pairs, where 2r bounds the parse-word degree; words
    are padded to degree 2r+2.  The automaton reads the numbered padding,
    then walks the parse word in three kinds of state: at a gate's entry,
    a product's opening bracket descends to its left argument and a leaf's
    first letter enters its bracket word; inside a leaf word the next
    letter is read; after a subterm, a product's closing bracket resumes
    at its right argument.  No state holds a position: "after a subterm"
    is also the accept state, and the target's degree picks the paths that
    end there after the whole word.  Every letter emits its recovery image,
    weighted on entry by the addition paths; everything else is dead, and
    balance pins each closing to its product gate.
    """
    field = c.table.field
    br = to_bracketed(c)
    lengths = br.circuit.degree_sets()[br.circuit.output]  # of the parse words
    r = max(lengths, default=0) // 2
    target = gen_dyck(len(br.pairs) + r + 1, 2 * r + 2, field)
    t_pairs = target.meta["pairs"]
    # bracket pair k becomes target pair r+1+k
    enc = {}
    for k, pair in enumerate(br.pairs):
        enc.update(zip(pair, t_pairs[r + 1 + k]))

    closures = _add_closures(c.gates)
    a = SubstAutomaton(target.table, c.table)
    a.add_state("P0", start=True)
    a.add_state("L", accept=True)

    seen = set()
    queue: deque = deque()

    def push(kind, data) -> str:
        name = f"{kind}{data if data is not None else ''}"
        if (kind, data) not in seen:
            seen.add((kind, data))
            queue.append((kind, data, name))
        return name

    def step(frm: str, vid: int, to: str, cnt: int = 1) -> None:
        coeff, word = _image(br.recovery, vid, cnt, field)
        a.add_transition(frm, enc[vid], to, coeff=coeff, word=word)

    # padding: numbered pairs while a parse word is short enough to need the
    # next one; pair 0 hands over to the walk where a parse word fits
    o0, c0 = t_pairs[0]
    for i in range(r):
        if 2 * (r - i - 1) >= min(lengths):
            o, cl = t_pairs[i + 1]
            a.add_transition(f"P{i}", o, f"Pi{i + 1}")
            a.add_transition(f"Pi{i + 1}", cl, f"P{i + 1}")
        if 2 * (r - i) in lengths:
            a.add_transition(f"P{i}", o0, f"Pz{i}")
            a.add_transition(f"Pz{i}", c0, push("E", c.output))

    while queue:
        kind, data, name = queue.popleft()
        if kind == "E":  # entry of gate `data`
            paths: dict = {}  # (first letter, next state) -> addition paths
            for h, cnt in closures[data].items():
                g = c.gates[h]
                if isinstance(g, Mul):
                    key = br.gate_pair[h][0], ("E", g.left)
                else:
                    word = br.leaf_word[h]
                    key = word[0], ("W", (word, 1))
                paths[key] = paths.get(key, 0) + cnt
            for (first, nxt), cnt in sorted(paths.items()):
                step(name, first, push(*nxt), cnt)
        elif kind == "W":  # inside a leaf word, before its letter i
            word, i = data
            nxt = ("W", (word, i + 1)) if i + 1 < len(word) else ("L", None)
            step(name, word[i], push(*nxt))
        else:  # after a subterm
            for h, (_o, cl) in sorted(br.gate_pair.items()):
                step(name, cl, push("E", c.gates[h].right))

    sub = automaton_to_substitution(a)
    return AbpReduction(sub, "circuit", target.spec_string, kind="dyck-complete")


def pal_vsk_reduction(c: Circuit) -> AbpReduction:
    """Reduce a skew circuit to a palindrome target over a merged alphabet.

    After homogenizing and twin-wrapping, every parse word is an onion:
    twin letters around a central input double (or a twin whose inner
    argument has degree zero), so padding to half-length r+1 puts the
    center exactly at the middle.  One target letter stands for each twin
    pair, each input double and each padding pair; the palindrome support
    forces the second half to mirror the first, so the automaton walks the
    first half through the circuit and accepts the second half blindly.
    Left-multiplied variables and scalars are emitted on first-half edges,
    right-multiplied variables on second-half edges.
    """
    field = c.table.field
    is_skew(c)  # refuse before homogenize renumbers the gates
    h = homogenize(c)
    sb = to_skew_bracketed(h)

    two_r = max(sb.circuit.syntactic_degree(), 0)
    r = two_r // 2
    q = 2 * r + 2
    degs = h.degree_sets()
    inner_deg = {m: max(degs[inner], default=None) for m, (_l, _r, inner) in sb.twins.items()}
    closures = _add_closures(h.gates)
    # empty parse words come only from constants reached through additions;
    # constant products pass through a twin pair and are handled by the walk
    const_term = c.table.field.zero
    for member, cnt in closures[h.output].items():
        g = h.gates[member]
        if isinstance(g, Const):
            const_term = const_term + c.table.field.from_int(cnt) * g.value

    mul_ids = sorted(sb.twins)
    double_ids = sorted(sb.doubles)
    twin_letter = {gid: r + 1 + i for i, gid in enumerate(mul_ids)}
    double_letter = {vid: r + 1 + len(mul_ids) + i for i, vid in enumerate(double_ids)}
    k = r + 1 + len(mul_ids) + len(double_ids)
    target = gen_pal(r + 1, k, field)
    letters = target.meta["letters"]  # letter index == variable id

    val0 = _const_values(h)
    a = SubstAutomaton(target.table, c.table)
    accept = f"B@{q}"
    a.add_state("S0@0", start=True)
    a.add_state(accept, accept=True)

    # lengths[g]: the first-half lengths of g's parse words, from W{g} to M
    lengths: list[set] = []
    for gid in range(len(h.gates)):
        lengths.append(set())
        for member in closures[gid]:
            if isinstance(h.gates[member], Input) or inner_deg.get(member) == 0:
                lengths[gid].add(1)
            elif inner_deg.get(member) is not None:
                lengths[gid].update(1 + n for n in lengths[sb.twins[member][2]])

    # gate walk over the first half, through the states that reach M
    seen = set()
    queue: deque = deque()

    def push(frm, letter, gid, pos, coeff=None, word=()) -> None:
        if r + 1 - pos in lengths[gid]:
            if (gid, pos) not in seen:
                seen.add((gid, pos))
                queue.append((gid, pos))
            a.add_transition(frm, letter, f"W{gid}@{pos}", coeff=coeff, word=word)

    # padding chain; the all-padding word carries the constant term
    for i in range(r + 1):
        st = f"S{i}@{i}"
        if i < r:
            a.add_transition(st, letters[i + 1], f"S{i + 1}@{i + 1}")
            push(st, letters[0], h.output, i + 1)
        elif const_term != 0:
            a.add_transition(st, letters[0], f"M@{r + 1}", coeff=const_term)

    while queue:
        gid, pos = queue.popleft()
        name = f"W{gid}@{pos}"
        center: dict = {}  # input variable -> addition paths
        for member, cnt in closures[gid].items():
            g = h.gates[member]
            if isinstance(g, Input):
                center[g.var] = center.get(g.var, 0) + cnt
            elif isinstance(g, Mul):
                lv, _rv, inner = sb.twins[member]
                letter = letters[twin_letter[member]]
                coeff, word = _image(sb.recovery, lv, cnt, field)
                if inner_deg[member] == 0:
                    if pos == r:
                        a.add_transition(
                            name, letter, f"M@{r + 1}", coeff=coeff * val0[inner], word=word
                        )
                elif inner_deg[member] is not None:
                    push(name, letter, inner, pos + 1, coeff, word)
            # bare constants contribute only the empty parse word, which the
            # all-padding path already accounts for
        if pos == r:
            for vid in sorted(center):
                coeff, word = _image(sb.recovery, sb.doubles[vid][0], center[vid], field)
                letter = letters[double_letter[vid]]
                a.add_transition(name, letter, f"M@{r + 1}", coeff=coeff, word=word)

    # blind second half: the palindrome support forces the mirror letters,
    # and each right twin emits its recovery image
    rights = [(twin_letter[gid], rv) for gid, (_l, rv, _i) in sb.twins.items()]
    rights += [(double_letter[vid], rv) for vid, (_l, rv) in sb.doubles.items()]
    blind = {letters[i]: _image(sb.recovery, rv, 1, field) for i, rv in rights}
    for pos in range(r + 1, q):
        frm = f"M@{r + 1}" if pos == r + 1 else f"B@{pos}"
        to = f"B@{pos + 1}"
        for letter in letters:
            coeff, word = blind.get(letter, (field.one, ()))
            a.add_transition(frm, letter, to, coeff=coeff, word=word)

    sub = automaton_to_substitution(a)
    return AbpReduction(sub, "circuit", target.spec_string, kind="pal-vsk")
