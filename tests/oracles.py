"""Brute-force references that the tests check the engines against.

Each reference works from the definition, one term or one word at a
time, and shares no code with the engine it checks: it imports from
ncpoly only data types (algebra, fields, and the circuit gates, Circuit
and expand), never automata, abp or reductions.  test_reach enforces
that.  An automaton or map argument is read through its attributes
(start, accept, transitions; input_table, output_table, mapping).
"""

from ncpoly.algebra import NCPoly, TableMismatchError, Var, VarTable
from ncpoly.circuits import Add, Circuit, Const, Input, Mul


# -- letter substitution --------------------------------------------------------


def substitute_letters(f: NCPoly, image, out_table: VarTable) -> NCPoly:
    """Replace each letter by a variable (Var) or scalar, combining like terms.

    ``image(position, variable id)`` gives the image of the letter at that
    1-based position and raises KeyError where it is undefined; the error
    is re-raised naming the variable and the position.  Scalars multiply
    into the coefficient and vanish from the word.
    """
    out = NCPoly.zero(out_table)
    for w, c in f.terms.items():
        coeff = c
        letters = []
        for pos, vid in enumerate(map(ord, w), 1):
            try:
                img = image(pos, vid)
            except KeyError:
                raise KeyError(
                    f"no image for variable {f.table.name(vid)!r} at position {pos}"
                ) from None
            if isinstance(img, Var):
                letters.append(chr(img.id))
            else:
                coeff = coeff * img
                if coeff == 0:
                    break
        if coeff == 0:
            continue
        word = "".join(letters)
        s = out.terms.get(word)
        s = coeff if s is None else s + coeff
        if s == 0:
            out.terms.pop(word, None)
        else:
            out.terms[word] = s
    return out


def var_ids(g: NCPoly) -> set:
    """The ids of the variables that occur in g's terms."""
    return {ord(ch) for w in g.terms for ch in w}


def apply_proj(m, g: NCPoly) -> NCPoly:
    """A projection (ProjMap) applied letter by letter; it must be defined
    on every variable of g."""
    if g.table != m.input_table:
        raise TableMismatchError("polynomial is not over the map's input table")
    for vid in var_ids(g):
        if vid not in m.mapping:
            raise KeyError(f"projection undefined on {g.table.name(vid)!r}")
    return substitute_letters(g, lambda _pos, vid: m.mapping[vid], m.output_table)


def apply_iproj(m, g: NCPoly) -> NCPoly:
    """An indexed projection (IProjMap) applied letter by letter."""
    if g.table != m.input_table:
        raise TableMismatchError("polynomial is not over the map's input table")
    return substitute_letters(g, lambda pos, vid: m.mapping[(pos, vid)], m.output_table)


# -- polynomial text ------------------------------------------------------------


def parse_poly_lines(text: str, table: VarTable) -> NCPoly:
    """The polynomial text format read one line of ``text.splitlines()``
    at a time: "#" starts a comment, a blank line is skipped, the first
    token is the coefficient and the rest name the word's letters, with
    `1` alone for the empty word.  Like terms add and zeros vanish."""
    out: dict = {}
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        coeff = table.field.parse(tokens[0])
        names = [] if tokens[1:] == ["1"] else tokens[1:]
        word = "".join(chr(table.get_or_add(name).id) for name in names)
        total = out.get(word, table.field.zero) + coeff
        if total == 0:
            out.pop(word, None)
        else:
            out[word] = total
    return NCPoly(table, out)


# -- automata --------------------------------------------------------------------


def simulate(a, g: NCPoly) -> NCPoly:
    """A substitution automaton applied to g one word at a time.

    Each word is run from the start state through a.transitions, the
    coefficients of its transitions multiplied and their output words
    joined; a word counts only when no transition is missing and the run
    ends in the accept state.
    """
    out: dict = {}
    for w, coeff in g.terms.items():
        state, pieces = a.start, []
        for v in map(ord, w):
            hop = a.transitions.get((state, v))
            if hop is None:
                break
            state, c, emitted = hop
            coeff = coeff * c
            pieces.append(emitted)
        else:
            if state == a.accept:
                word = "".join(pieces)
                out[word] = out[word] + coeff if word in out else coeff
    return NCPoly(a.output_table, out)


# -- balanced words ----------------------------------------------------------------


def nesting_depth(word, pairs) -> int | None:
    """The maximum bracket nesting of a word over typed pairs (open id,
    close id), or None when the word is not balanced.

    One stack walk: concatenation takes the max of its parts and wrapping
    adds one, so the depth is the maximum stack height along the word.
    """
    close_of = {o: c for o, c in pairs}
    stack = []
    depth = 0
    for v in map(ord, word):
        if v in close_of:
            stack.append(close_of[v])
            depth = max(depth, len(stack))
        elif not stack or stack.pop() != v:
            return None
    return None if stack else depth


def balanced(word, pairs) -> bool:
    """Stack check over typed bracket pairs, the oracle for balanced words."""
    return nesting_depth(word, pairs) is not None


# -- bracketed circuits ------------------------------------------------------------


def bracketed_circuit(c: Circuit, br) -> Circuit:
    """The circuit whose monomials are c's bracketed parse words, over the
    tables of br = to_bracketed(c).

    Product gates f = g*h become (_f g )_f h and every leaf its bracket
    word, spelt as a chain of products; gates with the same word share it.
    """
    gates: list = []
    inputs: dict[int, int] = {}  # new var id -> its Input gate

    def leaf(vid: int) -> int:
        if vid not in inputs:
            gates.append(Input(vid))
            inputs[vid] = len(gates) - 1
        return inputs[vid]

    def mul(a: int, b: int) -> int:
        gates.append(Mul(a, b))
        return len(gates) - 1

    words: dict[str, int] = {}  # bracket word -> its gate
    mapped: dict[int, int] = {}
    for gid, g in enumerate(c.gates):
        if isinstance(g, Add):
            gates.append(Add(mapped[g.left], mapped[g.right]))
            mapped[gid] = len(gates) - 1
        elif isinstance(g, Mul):
            o, cl = br.gate_pair[gid]
            mapped[gid] = mul(mul(mul(leaf(o), mapped[g.left]), leaf(cl)), mapped[g.right])
        else:
            word = br.leaf_word[gid]
            if word not in words:
                top = leaf(ord(word[0]))
                for letter in word[1:]:
                    top = mul(top, leaf(ord(letter)))
                words[word] = top
            mapped[gid] = words[word]
    return Circuit(br.table, gates, mapped[c.output])


def skew_bracketed_circuit(c: Circuit, sb) -> Circuit:
    """The circuit whose monomials are the skew circuit c's twin-wrapped
    parse words, over the tables of sb = to_skew_bracketed(c).

    Each product with non-leaf argument h becomes twinL * h * twinR and
    each input y becomes y_L y_R; constants and additions stay.
    """
    gates: list = []
    inputs: dict[int, int] = {}

    def leaf(vid: int) -> int:
        if vid not in inputs:
            gates.append(Input(vid))
            inputs[vid] = len(gates) - 1
        return inputs[vid]

    mapped: dict[int, int] = {}
    double_gate: dict[int, int] = {}
    for gid, g in enumerate(c.gates):
        if isinstance(g, Input):
            if g.var not in double_gate:
                lv, rv = sb.doubles[g.var]
                gates.append(Mul(leaf(lv), leaf(rv)))
                double_gate[g.var] = len(gates) - 1
            mapped[gid] = double_gate[g.var]
        elif isinstance(g, Const):
            gates.append(Const(g.value))
            mapped[gid] = len(gates) - 1
        elif isinstance(g, Add):
            gates.append(Add(mapped[g.left], mapped[g.right]))
            mapped[gid] = len(gates) - 1
        else:
            lv, rv, inner = sb.twins[gid]
            gates.append(Mul(leaf(lv), mapped[inner]))
            gates.append(Mul(len(gates) - 1, leaf(rv)))
            mapped[gid] = len(gates) - 1
    return Circuit(sb.table, gates, mapped[c.output])
