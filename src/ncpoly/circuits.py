"""Noncommutative arithmetic circuit IR and its bracketing transforms.

A circuit is a DAG of fanin-two gates in topological order; every product
gate multiplies its left child before its right child, so expansion is
order-sensitive.  One walk, reach, finds what a DAG reaches from a root;
Circuit.reachable and the completeness walks use it.  Besides
brute-force expansion the module provides the two parsing transforms used
by the completeness reductions: general bracketing (wrap every product's
left argument in a fresh bracket pair, replace leaves by bracket pairs)
and skew bracketing (wrap the non-leaf argument of every skew product in
a fresh twin pair, double the inputs).  Neither builds the bracketed
circuit: each returns the bracket variable table, the per-gate tables its
reduction reads and a recovery map {new variable id: Var or scalar}.  The
tests build the bracketed circuit from those tables and check, term for
term, that substituting the recovery map letter by letter restores the
original polynomial.
"""

from .algebra import NCPoly, Var, VarTable, budget


class _Gate:
    """A gate's fields are set once, by its __init__.  Two gates are equal
    when they are of one kind with equal fields, so Add(0, 1) != Mul(0, 1)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable gate")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"


class Input(_Gate):
    __slots__ = ("var",)

    def __init__(self, var: int):  # variable id in the circuit's table
        object.__setattr__(self, "var", var)


class Const(_Gate):
    __slots__ = ("value",)

    def __init__(self, value):  # scalar of the table's field
        object.__setattr__(self, "value", value)


class _Binary(_Gate):
    __slots__ = ()  # each kind holds its own, as _values reads them

    def __init__(self, left: int, right: int):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary):
    __slots__ = ("left", "right")


class Mul(_Binary):
    __slots__ = ("left", "right")


def reach(root: int, children) -> set:
    """root and every node that children(node) leads to from it."""
    seen, stack = {root}, [root]
    while stack:
        for child in children(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


class Circuit:
    """Gate list in topological order plus a designated output gate."""

    def __init__(self, table: VarTable, gates: list, output: int):
        self.table = table
        self.gates = list(gates)
        self.output = output
        if not 0 <= output < len(self.gates):
            raise ValueError(f"output gate g{output} out of range")
        for gid, g in enumerate(self.gates):
            if isinstance(g, (Add, Mul)):
                for child in (g.left, g.right):
                    if not 0 <= child < gid:
                        raise ValueError(f"gate g{gid} references g{child} ahead of it")
            elif isinstance(g, Input):
                if not 0 <= g.var < len(table):
                    raise ValueError(f"gate g{gid} uses unknown variable id {g.var}")
            elif not isinstance(g, Const):
                raise ValueError(f"gate g{gid} has unknown kind {g!r}")

    def reachable(self) -> list:
        """Gate ids reachable from the output, ascending."""
        gates = self.gates

        def children(gid: int):
            g = gates[gid]
            return (g.left, g.right) if isinstance(g, (Add, Mul)) else ()

        return sorted(reach(self.output, children))

    def __len__(self):
        return len(self.gates)


def expand(c: Circuit, degree_cap: int | None = None) -> NCPoly:
    """Brute-force expansion of the circuit polynomial.

    When ``degree_cap`` is given, terms of higher degree are discarded at
    every gate, keeping intermediate results bounded; the cap is part of
    the oracle's semantics, not of the circuit.  TermBudgetError is raised
    once a gate's polynomial holds more terms than the budget.

    The readers of every reachable gate are counted once, before the walk,
    and a gate's polynomial is dropped as soon as its last reader is
    built.  So the walk holds the output plus the gates that a later gate
    still reads: a left chain p <- p * L peaks at its output plus the
    chain gate before it, not at every power of L.  All work happens
    inside this call.
    """
    if degree_cap is not None and degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    limits = budget()
    gates = c.gates
    order = c.reachable()
    readers: dict[int, int] = {}
    for gid in order:
        g = gates[gid]
        if isinstance(g, (Add, Mul)):
            readers[g.left] = readers.get(g.left, 0) + 1
            readers[g.right] = readers.get(g.right, 0) + 1
    values: dict[int, NCPoly] = {}
    for gid in order:
        g = gates[gid]
        if isinstance(g, Input):
            v = NCPoly.monomial(c.table, chr(g.var))
        elif isinstance(g, Const):
            v = NCPoly.const(c.table, g.value)
        else:
            if isinstance(g, Add):
                v = values[g.left] + values[g.right]
            else:
                v = values[g.left] * values[g.right]
            for child in (g.left, g.right):
                readers[child] -= 1
                if not readers[child]:
                    del values[child]
        if degree_cap is not None:
            v = v.truncate(degree_cap)
        limits.check_terms(len(v.terms), f"gate g{gid}")
        values[gid] = v
    return values[c.output]


# ---------------------------------------------------------------------------
# Skew discipline


def is_skew(c: Circuit) -> dict:
    """Per product gate, which side ("left" or "right") holds the
    Input/Const argument; ValueError names the first product gate with two
    non-leaf children."""
    tags = {}
    for gid, g in enumerate(c.gates):
        if not isinstance(g, Mul):
            continue
        if isinstance(c.gates[g.left], (Input, Const)):
            tags[gid] = "left"
        elif isinstance(c.gates[g.right], (Input, Const)):
            tags[gid] = "right"
        else:
            raise ValueError(f"gate g{gid} has two non-leaf children; circuit is not skew")
    return tags


# No command calls it; the benchmark tracer hooks it by name in reductions.completeness.
def homogenize(c: Circuit) -> Circuit:
    """Split every gate into homogeneous degree slices.

    The result computes the same polynomial; every reachable gate computes
    a homogeneous polynomial and the output sums the degree slices of the
    original output.  Skew circuits stay skew because a leaf child has a
    single slice, which is again a leaf.
    """
    gates: list = []

    def emit(g) -> int:
        gates.append(g)
        return len(gates) - 1

    slices: list[dict] = []  # per original gate: degree -> new gate id
    for g in c.gates:
        if isinstance(g, Input):
            slices.append({1: emit(Input(g.var))})
        elif isinstance(g, Const):
            slices.append({} if g.value == 0 else {0: emit(Const(g.value))})
        elif isinstance(g, Add):
            l, r = slices[g.left], slices[g.right]
            here = {}
            for d in sorted(set(l) | set(r)):
                if d in l and d in r:
                    here[d] = emit(Add(l[d], r[d]))
                else:
                    here[d] = l.get(d, r.get(d))
            slices.append(here)
        else:
            l, r = slices[g.left], slices[g.right]
            here: dict = {}
            for dl in sorted(l):
                for dr in sorted(r):
                    prod = emit(Mul(l[dl], r[dr]))
                    d = dl + dr
                    here[d] = prod if d not in here else emit(Add(here[d], prod))
            slices.append(here)
    out = slices[c.output]
    if not out:
        return Circuit(c.table, [Const(c.table.field.zero)], 0)
    ids = [out[d] for d in sorted(out)]
    acc = ids[0]
    for nxt in ids[1:]:
        acc = emit(Add(acc, nxt))
    return Circuit(c.table, gates, acc)


# ---------------------------------------------------------------------------
# Bracketing transforms


class Bracketed:
    """to_bracketed's bracket variables, the tables the Dyck reduction
    reads, and the recovery substitution."""

    __slots__ = ("table", "pairs", "gate_pair", "leaf_word", "recovery")

    def __init__(self, table: VarTable, pairs: list, gate_pair: dict, leaf_word: dict,
                 recovery: dict):
        self.table = table  # the bracket variables; the tests spell parse words with it
        self.pairs = pairs  # (open, close) var ids, in creation order
        self.gate_pair = gate_pair  # product gate id -> its (open, close)
        self.leaf_word = leaf_word  # input or constant gate id -> its bracket word, a Word
        self.recovery = recovery  # new var id -> Var or scalar


def to_bracketed(c: Circuit) -> Bracketed:
    """Bracket pairs for products and leaves, without building a circuit.

    Product gates f = g*h read as (_f g )_f h; constants a as the
    four-letter word (_a [_za ]_za )_a; input variables y as [_y ]_y.
    Every parse word is then a balanced string over the bracket pairs,
    which are made in gate order.  Recovery sends ]_y to y, ]_za to a and
    every other bracket to one, so each image sits on a closing bracket;
    substituting it into the parse words restores the source polynomial.
    """
    fmt, one = c.table.field.format, c.table.field.one
    table = VarTable(field=c.table.field)
    pairs: list[tuple] = []
    recovery: dict = {}

    def pair(brackets: str, suffix: str, rec_close=one) -> tuple:
        o, cl = (table.add(f"{b}_{suffix}").id for b in brackets)
        recovery[o], recovery[cl] = one, rec_close
        pairs.append((o, cl))
        return o, cl

    gate_pair: dict[int, tuple] = {}
    leaf_word: dict[int, str] = {}
    words: dict = {}  # source variable or formatted scalar -> its bracket word
    for gid, g in enumerate(c.gates):
        if isinstance(g, Mul):
            gate_pair[gid] = pair("()", f"g{gid}")
        elif not isinstance(g, Add):
            key = g.var if isinstance(g, Input) else fmt(g.value)
            if key not in words:
                if isinstance(g, Input):
                    name = c.table.name(g.var)
                    o, cl = pair("[]", name, Var(g.var, name))
                    words[key] = chr(o) + chr(cl)
                else:
                    (ob, cb), (oz, cz) = pair("()", f"a{key}"), pair("[]", f"z{key}", g.value)
                    words[key] = chr(ob) + chr(oz) + chr(cz) + chr(cb)
            leaf_word[gid] = words[key]
    return Bracketed(table, pairs, gate_pair, leaf_word, recovery)


class SkewBracketed:
    """to_skew_bracketed's twin variables, the tables the palindrome
    reduction reads, and the recovery substitution."""

    __slots__ = ("table", "twins", "doubles", "recovery")

    def __init__(self, table: VarTable, twins: dict, doubles: dict, recovery: dict):
        self.table = table  # the twin variables; the tests spell parse words with it
        # product gate id -> (L var id, R var id, gate id of its non-leaf argument)
        self.twins = twins
        self.doubles = doubles  # source var id -> (L var id, R var id)
        self.recovery = recovery  # new var id -> Var or scalar


def to_skew_bracketed(c: Circuit) -> SkewBracketed:
    """Twin pairs for a skew circuit, without building a circuit.

    Each product with a leaf argument x (or scalar a) and non-leaf
    argument h reads as twinL * h * twinR; each input y reads as y_L y_R.
    Requires a skew circuit, homogeneous or not.
    In every parse word the letter at position i is the mate of the
    letter at position 2d-i+1.  Recovery sends y_L to y, a product's twin
    on its leaf's side to that variable, a scalar's left twin to the
    scalar, and every other letter to one.
    """
    tags = is_skew(c)

    one = c.table.field.one
    table = VarTable(field=c.table.field)
    recovery: dict = {}

    def twin(left: str, right: str, rec_left, rec_right) -> tuple:
        lv, rv = table.add(left).id, table.add(right).id
        recovery[lv], recovery[rv] = rec_left, rec_right
        return lv, rv

    doubles: dict[int, tuple] = {}
    for g in c.gates:
        if isinstance(g, Input) and g.var not in doubles:
            name = c.table.name(g.var)
            doubles[g.var] = twin(f"{name}_L", f"{name}_R", Var(g.var, name), one)

    twins: dict[int, tuple] = {}
    for gid, side in tags.items():
        g = c.gates[gid]
        arg, inner = (g.left, g.right) if side == "left" else (g.right, g.left)
        payload = c.gates[arg]
        if isinstance(payload, Input):
            name = c.table.name(payload.var)
            v = Var(payload.var, name)
            recs = (v, one) if side == "left" else (one, v)
        else:
            name = "a" + c.table.field.format(payload.value)
            recs = (payload.value, one)
        twins[gid] = (*twin(f"{name}_(g{gid},L)", f"{name}_(g{gid},R)", *recs), inner)
    return SkewBracketed(table, twins, doubles, recovery)


# ---------------------------------------------------------------------------
# Text format: one gate per line with dense ids, then the output marker.
#   g0 input x1 | g1 const 5/3 | g2 add g0 g1 | g3 mul g2 g0 | output g3


# No command writes a circuit yet; it is the writer that parse_circuit reads back.
def format_circuit(c: Circuit) -> str:
    lines = []
    for gid, g in enumerate(c.gates):
        if isinstance(g, Input):
            lines.append(f"g{gid} input {c.table.name(g.var)}")
        elif isinstance(g, Const):
            lines.append(f"g{gid} const {c.table.field.format(g.value)}")
        elif isinstance(g, Add):
            lines.append(f"g{gid} add g{g.left} g{g.right}")
        else:
            lines.append(f"g{gid} mul g{g.left} g{g.right}")
    lines.append(f"output g{c.output}")
    return "\n".join(lines) + "\n"


class CircuitFormatError(ValueError):
    pass


def parse_circuit(text: str, table: VarTable | None = None) -> Circuit:
    if table is None:
        table = VarTable()
    gates: list = []
    output = None

    def gate_ref(token: str, limit: int) -> int:
        if not token.startswith("g"):
            raise CircuitFormatError(f"expected gate id, got {token!r}")
        try:
            gid = int(token[1:])
        except ValueError:
            raise CircuitFormatError(f"bad gate id {token!r}") from None
        if gid >= limit or gid < 0:
            raise CircuitFormatError(f"forward or dangling reference to {token}")
        return gid

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "output":
            if len(tokens) != 2 or output is not None:
                raise CircuitFormatError("malformed output line")
            output = gate_ref(tokens[1], len(gates))
            continue
        if output is not None:
            raise CircuitFormatError("gate after output line")
        gid = gate_ref(tokens[0], len(gates) + 1)
        if gid != len(gates):
            raise CircuitFormatError(f"gate ids must be dense, got g{gid}")
        kind = tokens[1] if len(tokens) > 1 else ""
        if kind == "input" and len(tokens) == 3:
            gates.append(Input(table.get_or_add(tokens[2]).id))
        elif kind == "const" and len(tokens) == 3:
            gates.append(Const(table.field.parse(tokens[2])))
        elif kind in ("add", "mul"):
            if len(tokens) != 4:
                raise CircuitFormatError(f"{kind} gate needs exactly two children: {line!r}")
            l = gate_ref(tokens[2], gid)
            r = gate_ref(tokens[3], gid)
            gates.append(Add(l, r) if kind == "add" else Mul(l, r))
        else:
            raise CircuitFormatError(f"bad gate line {line!r}")
    if output is None:
        raise CircuitFormatError("missing output line")
    return Circuit(table, gates, output)
