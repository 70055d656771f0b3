"""Grammar-walk reductions: circuits into balanced-word targets.

Both constructions follow the same scheme.  The bracketing transform gives
every monomial of the circuit a parse word; a prefix padding, one letter
(a bracket pair for Dyck) repeated, makes all parse words the same even
length; a deterministic automaton walks that word, entering subcircuits
through addition closures, and its matrices substitute the original
variables and scalars back in.  The target's one degree does the
counting: the Dyck walk's states are places in the circuit, and the
palindrome walk keeps positions only in its first half, which puts the
center of every accepted word at the middle.
Both walk the circuit as given.  A parse word is live when its weight is
nonzero, and the target is sized from the live parse words of the output
alone: its degree from their lengths, its alphabet from the letters they
read, so a zero or vanishing subcircuit adds nothing to it.
The automata read the tables each transform returns and re-spell none of
them: the Dyck walk numbers its target pairs from the bracket pairs it
reads, in creation order, and reads each leaf's bracket word, the
palindrome walk reads the twin pairs of skew products and input doubles,
and every letter emits its recovery image (_image), so the bracket
encoding and the letter that carries each image are decided once, in
ncpoly.circuits.
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
from ..circuits import Add, Circuit, Const, Input, Mul, reach, to_bracketed, to_skew_bracketed
from ..circuits import homogenize  # noqa: F401  the benchmark tracer patches it here by name
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


def _image(recovery: dict, vid: int, cnt: int, field) -> tuple:
    """Coefficient and word that letter vid emits when reached along cnt
    addition paths: cnt times its recovery image, a variable or a scalar."""
    img = recovery[vid]
    if isinstance(img, Var):
        return field.from_int(cnt), chr(img.id)
    return field.from_int(cnt) * img, ""


def dyck_completeness_reduction(c: Circuit) -> AbpReduction:
    """Reduce an arbitrary circuit to a balanced-word target.

    The target has the bracket pairs that the output's live parse words
    read, plus two padding pairs, and degree 2r+2, where 2r is their
    longest length.  A leaf is live unless it is a zero constant, a
    product when both its arguments are, and an addition path when its
    count is nonzero in the field.  Every accepted word is
    (o1 c1)^j o0 c0 W: pair 1 loops at the start when a parse word is
    shorter than 2r, pair 0 hands over to the walk, balance makes W a
    parse word and the degree fixes j.  The walk's states are places in
    the circuit: at a gate's entry, a product's opening bracket descends
    to its left argument and a leaf's first letter enters its bracket
    word; inside a leaf word the next letter is read; after a subterm,
    which is also the accept state, a product's closing bracket resumes
    at its right argument.  Every letter emits its recovery image,
    weighted on entry by the addition paths, and balance pins each closing
    to its product gate.  Only states on a path through nonzero weights to
    the accept state are built.
    """
    field = c.table.field
    br = to_bracketed(c)
    product_of = {o: h for h, (o, _cl) in br.gate_pair.items()}

    # moves[g]: (first letter, next state) -> addition paths, for the live
    # parse words of g; lengths[g]: their lengths; own[g]: the lengths of
    # the parse words a leaf or product makes itself
    closures = _add_closures(c.gates)
    own: list[set] = []
    moves: list[dict] = []
    lengths: list[set] = []
    for gid, g in enumerate(c.gates):
        if isinstance(g, Mul):
            own.append({2 + a + b for a in lengths[g.left] for b in lengths[g.right]})
        elif isinstance(g, Add) or (isinstance(g, Const) and not g.value):
            own.append(set())
        else:
            own.append({len(br.leaf_word[gid])})
        paths: dict = {}
        ends: dict = {}
        for h, cnt in closures[gid].items():
            if own[h]:
                if isinstance(c.gates[h], Mul):
                    key = (br.gate_pair[h][0], ("E", c.gates[h].left))
                else:
                    word = br.leaf_word[h]
                    key = (ord(word[0]), ("W", (word, 1)))
                paths[key] = paths.get(key, 0) + cnt
                ends[key] = own[h]
        moves.append({key: cnt for key, cnt in paths.items() if field.from_int(cnt)})
        lengths.append(set().union(*(ends[key] for key in moves[-1])))

    def arguments(gid: int):
        for first, (kind, left) in moves[gid]:
            if kind == "E":
                yield from (left, c.gates[product_of[first]].right)

    read = set()  # the opening brackets of the pairs the walk reads
    for gid in reach(c.output, arguments):
        for first, (kind, data) in moves[gid]:
            read.update(map(ord, data[0]) if kind == "W" else (first,))
    pairs = [pair for pair in br.pairs if pair[0] in read]
    r = max(lengths[c.output], default=0) // 2
    target = gen_dyck(len(pairs) + 2, 2 * r + 2, field)
    t_pairs = target.meta["pairs"]
    # the k-th read bracket pair becomes target pair 2+k
    enc = {v: t for pair, t_pair in zip(pairs, t_pairs[2:]) for v, t in zip(pair, t_pair)}

    a = SubstAutomaton(target.table, c.table)
    a.add_state("P", start=True)
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

    if moves[c.output]:
        (o0, c0), (o1, c1) = t_pairs[:2]
        if min(lengths[c.output]) < 2 * r:
            a.add_transition("P", o1, "Pi")
            a.add_transition("Pi", c1, "P")
        a.add_transition("P", o0, "Pz")
        a.add_transition("Pz", c0, push("E", c.output))

    while queue:
        kind, data, name = queue.popleft()
        if kind == "E":  # entry of gate `data`
            for (first, nxt), cnt in sorted(moves[data].items()):
                step(name, first, push(*nxt), cnt)
        elif kind == "W":  # inside a leaf word, before its letter i
            word, i = data
            nxt = ("W", (word, i + 1)) if i + 1 < len(word) else ("L", None)
            step(name, ord(word[i]), push(*nxt))
        else:  # after a subterm
            for h, (o, cl) in sorted(br.gate_pair.items()):
                if o in enc:
                    step(name, cl, push("E", c.gates[h].right))

    sub = automaton_to_substitution(a)
    return AbpReduction(sub, "circuit", target.spec_string, kind="dyck-complete")


def pal_vsk_reduction(c: Circuit) -> AbpReduction:
    """Reduce a skew circuit to a palindrome target over a merged alphabet.

    After twin-wrapping, every parse word is an onion: twin letters around
    a center, which is an input double or a twin pair whose inner argument
    has an empty parse word, so padding to half-length r+1 puts the center
    exactly at the middle.  A gate's empty parse word comes only from the
    bare constants its additions reach, so a twin steps to the center with
    their sum as weight, and also into its inner argument when that has
    nonempty parse words.  Letter 0 hands over, letter 1 pads, and one
    letter stands for each twin pair and input double that the output's
    live parse words read; r is their longest half-length.  The first half
    walks the circuit with a position in every state, pinning the center M
    to the middle; the palindrome support forces the mirror, so one accept
    state reads the second half blindly.  Left-multiplied variables and
    scalars are emitted on first-half edges, right-multiplied variables on
    second-half edges.  Only states on a path through nonzero weights to M
    at the middle are built.
    """
    field = c.table.field
    sb = to_skew_bracketed(c)
    closures = _add_closures(c.gates)

    # empty[g]: the weight of g's empty parse word, the sum of the bare
    # constants its additions reach; a product always adds a twin pair
    empty: list = []
    for g in c.gates:
        if isinstance(g, Add):
            empty.append(empty[g.left] + empty[g.right])
        else:
            empty.append(g.value if isinstance(g, Const) else field.zero)

    # moves[g]: the steps out of W{g} with a nonzero weight that reach M, as
    # (left letter, inner gate or None for M, coefficient, word); lengths[g]:
    # the first-half lengths of g's nonempty parse words, from W{g} to M
    moves: list[list] = []
    lengths: list[set] = []
    for gid in range(len(c.gates)):
        center: dict = {}  # left letter of an input double -> addition paths
        steps = []
        for member, cnt in closures[gid].items():
            g = c.gates[member]
            if isinstance(g, Input):
                lv = sb.doubles[g.var][0]
                center[lv] = center.get(lv, 0) + cnt
            elif isinstance(g, Mul):
                lv, _rv, inner = sb.twins[member]
                coeff, word = _image(sb.recovery, lv, cnt, field)
                steps.append((lv, None, coeff * empty[inner], word))
                if lengths[inner]:
                    steps.append((lv, inner, coeff, word))
        for lv, cnt in sorted(center.items()):
            steps.append((lv, None, *_image(sb.recovery, lv, cnt, field)))
        moves.append([step for step in steps if step[2]])
        ends = [[0] if inner is None else lengths[inner] for _l, inner, _c, _w in moves[-1]]
        lengths.append({1 + n for end in ends for n in end})

    def inners(gid: int):
        return (inner for _l, inner, _c, _w in moves[gid] if inner is not None)

    # the i-th letter the walk reads, a left twin or double, is target letter 2+i
    read = sorted({lv for gid in reach(c.output, inners) for lv, *_ in moves[gid]})
    letter_of = {lv: 2 + i for i, lv in enumerate(read)}
    r = max(lengths[c.output], default=0)
    target = gen_pal(r + 1, 2 + len(read), field)
    const_term = empty[c.output]  # the all-padding word

    a = SubstAutomaton(target.table, c.table)
    a.add_state("S0", start=True)
    a.add_state("B", accept=True)
    reached: list[set] = [set() for _ in range(r + 1)]  # [pos]: the gates g of W{g}@pos

    def enter(frm, letter, gid, pos, coeff=None, word="") -> None:
        if r + 1 - pos in lengths[gid]:
            reached[pos].add(gid)
            a.add_transition(frm, letter, f"W{gid}@{pos}", coeff=coeff, word=word)

    # padding up to the last stop: S{i} hands over to the parse words of
    # half-length r-i, and S{r} carries the constant term
    handovers = [r - n for n in lengths[c.output]]
    stops = handovers + ([r] if const_term else [])
    for i in range(max(stops, default=0)):
        a.add_transition(f"S{i}", 1, f"S{i + 1}")
    for i in handovers:
        enter(f"S{i}", 0, c.output, i + 1)
    if const_term:
        a.add_transition(f"S{r}", 0, "M", coeff=const_term)
    for pos in range(1, r + 1):
        for gid in sorted(reached[pos]):
            for lv, inner, coeff, word in moves[gid]:
                if inner is not None:
                    enter(f"W{gid}@{pos}", letter_of[lv], inner, pos + 1, coeff, word)
                elif pos == r:
                    a.add_transition(f"W{gid}@{pos}", letter_of[lv], "M", coeff=coeff, word=word)

    # blind second half: the palindrome support forces the mirror letters,
    # and each right twin emits its recovery image
    mate = {lv: rv for lv, rv, *_inner in [*sb.twins.values(), *sb.doubles.values()]}
    blind = {letter_of[lv]: _image(sb.recovery, mate[lv], 1, field) for lv in read}
    for frm in ("M", "B") if stops else ():
        for letter in target.meta["letters"]:
            coeff, word = blind.get(letter, (field.one, ""))
            a.add_transition(frm, letter, "B", coeff=coeff, word=word)

    sub = automaton_to_substitution(a)
    return AbpReduction(sub, "circuit", target.spec_string, kind="pal-vsk")
