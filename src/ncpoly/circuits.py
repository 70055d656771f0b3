"""Noncommutative arithmetic circuit IR and its bracketing transforms.

A circuit is a DAG of fanin-two gates in topological order; every product
gate multiplies its left child before its right child, so expansion is
order-sensitive.  Besides brute-force expansion the module provides the
two parsing transforms used by the completeness reductions: general
bracketing (wrap every product's left argument in a fresh bracket pair,
replace leaves by bracket pairs) and skew bracketing (wrap the non-leaf
argument of every skew product in a fresh twin pair, double the inputs).
Both come with an executable recovery substitution that restores the
original polynomial, which the tests enforce term for term.
"""

from dataclasses import dataclass

from .algebra import NCPoly, Var, VarTable, budget, substitute_letters


@dataclass(frozen=True)
class Input:
    var: int  # variable id in the circuit's table


@dataclass(frozen=True)
class Const:
    value: object  # scalar of the table's field


@dataclass(frozen=True)
class Add:
    left: int
    right: int


@dataclass(frozen=True)
class Mul:
    left: int
    right: int


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
        seen = {self.output}
        stack = [self.output]
        while stack:
            g = self.gates[stack.pop()]
            if isinstance(g, (Add, Mul)):
                for child in (g.left, g.right):
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
        return sorted(seen)

    def degree_sets(self) -> list:
        """Per gate, the set of syntactically possible monomial degrees."""
        out = []
        for g in self.gates:
            if isinstance(g, Input):
                out.append({1})
            elif isinstance(g, Const):
                out.append(set() if g.value == 0 else {0})
            elif isinstance(g, Add):
                out.append(out[g.left] | out[g.right])
            else:
                out.append({a + b for a in out[g.left] for b in out[g.right]})
        return out

    def syntactic_degree(self) -> int:
        degs = self.degree_sets()[self.output]
        return max(degs) if degs else -1

    def muls_have_homogeneous_children(self) -> bool:
        """True when every reachable product multiplies homogeneous operands.

        This is what homogenize guarantees: interior gates are single-degree
        and only the final output chain may sum different degrees.
        """
        degs = self.degree_sets()
        for gid in self.reachable():
            g = self.gates[gid]
            if isinstance(g, Mul) and (len(degs[g.left]) > 1 or len(degs[g.right]) > 1):
                return False
        return True

    def __len__(self):
        return len(self.gates)


def expand(c: Circuit, degree_cap: int | None = None) -> NCPoly:
    """Brute-force expansion of the circuit polynomial.

    When ``degree_cap`` is given, terms of higher degree are discarded at
    every gate, keeping intermediate results bounded; the cap is part of
    the oracle's semantics, not of the circuit.  TermBudgetError is raised
    once a gate's polynomial holds more terms than the budget.
    """
    if degree_cap is not None and degree_cap < 0:
        raise ValueError("degree_cap must be >= 0")
    limits = budget()
    values: dict[int, NCPoly] = {}
    for gid in c.reachable():
        g = c.gates[gid]
        if isinstance(g, Input):
            v = NCPoly.monomial(c.table, (g.var,))
        elif isinstance(g, Const):
            v = NCPoly.const(c.table, g.value)
        elif isinstance(g, Add):
            v = values[g.left] + values[g.right]
        else:
            v = values[g.left] * values[g.right]
        if degree_cap is not None:
            v = v.truncate(degree_cap)
        limits.check_terms(len(v.terms), f"gate g{gid}")
        values[gid] = v
    return values[c.output]


# ---------------------------------------------------------------------------
# Skew discipline


@dataclass(frozen=True)
class SkewWitness:
    """Per product gate, which side holds the Input/Const argument."""

    tags: dict  # gate id -> "left" | "right"

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class SkewRefusal:
    gate: int  # first product gate with two non-leaf children

    @property
    def ok(self) -> bool:
        return False


def is_skew(c: Circuit):
    tags = {}
    for gid, g in enumerate(c.gates):
        if not isinstance(g, Mul):
            continue
        if isinstance(c.gates[g.left], (Input, Const)):
            tags[gid] = "left"
        elif isinstance(c.gates[g.right], (Input, Const)):
            tags[gid] = "right"
        else:
            return SkewRefusal(gid)
    return SkewWitness(tags)


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


@dataclass(frozen=True)
class NewVar:
    """Provenance of one fresh variable introduced by a transform."""

    kind: str  # gate-bracket | const-bracket | const-placeholder | var-bracket
    #          | skew-twin | input-double
    origin: object  # gate id, constant value, or source variable id
    side: str  # open/close for brackets, L/R for twins and doubles
    mate: int  # variable id of the matching partner
    recover: object  # Var, scalar, or None (substitute 1) under recovery


@dataclass
class BracketedCircuit:
    """Circuit over fresh bracket variables plus the recovery substitution."""

    circuit: Circuit
    provenance: dict  # new var id -> NewVar
    pairs: list  # (open var id, close var id) per bracket type
    source_table: VarTable

    def recovery_map(self) -> dict:
        out = {}
        for vid, info in self.provenance.items():
            if info.recover is None:
                out[vid] = self.source_table.field.one
            else:
                out[vid] = info.recover
        return out

    def recover(self, f: NCPoly) -> NCPoly:
        """Apply the recovery substitution to an expansion of the circuit."""
        images = self.recovery_map()
        return substitute_letters(f, lambda _pos, vid: images[vid], self.source_table)


def _const_key(table: VarTable, value) -> str:
    return table.field.format(value)


def to_bracketed(c: Circuit) -> BracketedCircuit:
    """Wrap products and leaves in fresh bracket pairs.

    Product gates f = g*h become (_f g )_f h; constants a become the
    four-letter word (_a [_za ]_za )_a; input variables y become [_y ]_y.
    Every monomial of the result is a balanced string over the bracket
    pairs, and the recovery substitution restores the source polynomial.
    """
    table = VarTable(field=c.table.field)
    prov: dict[int, NewVar] = {}
    pairs: list = []

    def pair(open_name, close_name, kind, origin, rec_open, rec_close):
        o = table.add(open_name)
        cl = table.add(close_name)
        prov[o.id] = NewVar(kind, origin, "open", cl.id, rec_open)
        prov[cl.id] = NewVar(kind, origin, "close", o.id, rec_close)
        pairs.append((o.id, cl.id))
        return o.id, cl.id

    gate_pair: dict[int, tuple] = {}
    const_pairs: dict[str, tuple] = {}  # key -> ((_a, )_a, [_z, ]_z)
    var_pair: dict[int, tuple] = {}
    for gid, g in enumerate(c.gates):
        if isinstance(g, Mul):
            gate_pair[gid] = pair(f"(_g{gid}", f")_g{gid}", "gate-bracket", gid, None, None)
        elif isinstance(g, Const):
            key = _const_key(c.table, g.value)
            if key not in const_pairs:
                ob, cb = pair(f"(_a{key}", f")_a{key}", "const-bracket", g.value, None, None)
                oz, cz = pair(
                    f"[_z{key}", f"]_z{key}", "const-placeholder", g.value, g.value, None
                )
                const_pairs[key] = (ob, cb, oz, cz)
        elif isinstance(g, Input):
            if g.var not in var_pair:
                name = c.table.name(g.var)
                var_pair[g.var] = pair(
                    f"[_{name}", f"]_{name}", "var-bracket", g.var, Var(g.var, name), None
                )

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

    word_for_var: dict[int, int] = {}
    word_for_const: dict[str, int] = {}
    mapped: dict[int, int] = {}
    for gid, g in enumerate(c.gates):
        if isinstance(g, Input):
            if g.var not in word_for_var:
                o, cl = var_pair[g.var]
                word_for_var[g.var] = mul(leaf(o), leaf(cl))
            mapped[gid] = word_for_var[g.var]
        elif isinstance(g, Const):
            key = _const_key(c.table, g.value)
            if key not in word_for_const:
                ob, cb, oz, cz = const_pairs[key]
                word_for_const[key] = mul(mul(mul(leaf(ob), leaf(oz)), leaf(cz)), leaf(cb))
            mapped[gid] = word_for_const[key]
        elif isinstance(g, Add):
            gates.append(Add(mapped[g.left], mapped[g.right]))
            mapped[gid] = len(gates) - 1
        else:
            o, cl = gate_pair[gid]
            mapped[gid] = mul(mul(mul(leaf(o), mapped[g.left]), leaf(cl)), mapped[g.right])

    circ = Circuit(table, gates, mapped[c.output])
    return BracketedCircuit(circ, prov, pairs, c.table)


@dataclass(frozen=True)
class MulTwins:
    """Twin variables wrapped around the non-leaf argument of a skew product."""

    left_var: int
    right_var: int
    inner: int  # original gate id of the non-leaf argument
    payload_kind: str  # "var" | "const"
    payload_var: int | None  # source variable id when payload_kind == "var"
    payload_value: object  # scalar when payload_kind == "const"
    payload_side: str  # which side the leaf argument multiplied on


@dataclass
class SkewBracketing(BracketedCircuit):
    twins: dict = None  # original Mul gate id -> MulTwins
    doubles: dict = None  # source var id -> (L var id, R var id)


def to_skew_bracketed(c: Circuit) -> SkewBracketing:
    """Twin transform for skew circuits.

    Each product with a leaf argument x (or scalar a) and non-leaf
    argument h becomes twinL * h * twinR; each input y becomes y_L y_R.
    Requires a skew, per-gate homogeneous circuit (homogenize first).
    In every monomial of the result the letter at position i is the mate
    of the letter at position 2d-i+1.
    """
    w = is_skew(c)
    if not w.ok:
        raise ValueError(f"gate g{w.gate} has two non-leaf children; circuit is not skew")
    if not c.muls_have_homogeneous_children():
        raise ValueError("product children are inhomogeneous; homogenize first")

    table = VarTable(field=c.table.field)
    prov: dict[int, NewVar] = {}
    pairs: list = []
    doubles: dict[int, tuple] = {}
    twins: dict[int, MulTwins] = {}

    for gid, g in enumerate(c.gates):
        if isinstance(g, Input) and g.var not in doubles:
            name = c.table.name(g.var)
            lv = table.add(f"{name}_L")
            rv = table.add(f"{name}_R")
            prov[lv.id] = NewVar("input-double", g.var, "L", rv.id, Var(g.var, name))
            prov[rv.id] = NewVar("input-double", g.var, "R", lv.id, None)
            pairs.append((lv.id, rv.id))
            doubles[g.var] = (lv.id, rv.id)

    for gid, g in enumerate(c.gates):
        if not isinstance(g, Mul):
            continue
        side = w.tags[gid]
        payload_gid = g.left if side == "left" else g.right
        inner = g.right if side == "left" else g.left
        payload = c.gates[payload_gid]
        if isinstance(payload, Input):
            name = c.table.name(payload.var)
            lv = table.add(f"{name}_(g{gid},L)")
            rv = table.add(f"{name}_(g{gid},R)")
            rec_l = Var(payload.var, name) if side == "left" else None
            rec_r = Var(payload.var, name) if side == "right" else None
            prov[lv.id] = NewVar("skew-twin", gid, "L", rv.id, rec_l)
            prov[rv.id] = NewVar("skew-twin", gid, "R", lv.id, rec_r)
            twins[gid] = MulTwins(lv.id, rv.id, inner, "var", payload.var, None, side)
        else:
            key = _const_key(c.table, payload.value)
            lv = table.add(f"a{key}_(g{gid},L)")
            rv = table.add(f"a{key}_(g{gid},R)")
            prov[lv.id] = NewVar("skew-twin", gid, "L", rv.id, payload.value)
            prov[rv.id] = NewVar("skew-twin", gid, "R", lv.id, None)
            twins[gid] = MulTwins(lv.id, rv.id, inner, "const", None, payload.value, side)
        pairs.append((lv.id, rv.id))

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
                lv, rv = doubles[g.var]
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
            tw = twins[gid]
            gates.append(Mul(leaf(tw.left_var), mapped[tw.inner]))
            gates.append(Mul(len(gates) - 1, leaf(tw.right_var)))
            mapped[gid] = len(gates) - 1

    circ = Circuit(table, gates, mapped[c.output])
    return SkewBracketing(circ, prov, pairs, c.table, twins=twins, doubles=doubles)


# ---------------------------------------------------------------------------
# Text format: one gate per line with dense ids, then the output marker.
#   g0 input x1 | g1 const 5/3 | g2 add g0 g1 | g3 mul g2 g0 | output g3


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
