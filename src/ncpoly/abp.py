"""Layered algebraic branching programs and Hankel rank witnesses.

An ABP is a layered DAG with one source and one sink whose edges carry
linear forms; it computes the sum over source-to-sink paths of the
ordered product of the edge labels.  Size is the vertex count.  The
module also builds the coefficient ("Hankel") block of a homogeneous
polynomial at a cut and its exact rank, which lower-bounds the width of
any ABP layer at that cut, and the stack-in-state ABP for Dyck words of
bounded nesting depth.
"""

from dataclasses import dataclass
from functools import cache

from .algebra import NCPoly, VarTable, budget, exact_rank


@dataclass(frozen=True)
class LinearForm:
    """Sum of coeff*var plus an optional constant (zero in homogeneous mode)."""

    coeffs: tuple  # ((var id, scalar), ...) sorted by var id, no zeros
    constant: object

    @classmethod
    def make(cls, table: VarTable, coeffs: dict, constant=None) -> "LinearForm":
        if constant is None:
            constant = table.field.zero
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return cls(items, constant)

    def is_homogeneous(self) -> bool:
        return self.constant == 0

    def poly(self, table: VarTable) -> NCPoly:
        terms = {(v,): c for v, c in self.coeffs}
        if self.constant != 0:
            terms[()] = self.constant
        return NCPoly(table, terms)


class Abp:
    """Vertex counts per layer plus per-gap edge lists (u, v, LinearForm)."""

    def __init__(self, table: VarTable, layers: list, edges: list):
        if len(layers) < 1 or layers[0] != 1 or layers[-1] != 1:
            raise ValueError("layer 0 and the last layer must have exactly one vertex")
        if any(n <= 0 for n in layers):
            raise ValueError("layers must be nonempty")
        if len(edges) != len(layers) - 1:
            raise ValueError("need one edge list per consecutive layer pair")
        for gap, gap_edges in enumerate(edges):
            for u, v, form in gap_edges:
                if not (0 <= u < layers[gap] and 0 <= v < layers[gap + 1]):
                    raise ValueError(f"edge ({u},{v}) out of range at gap {gap}")
                if not isinstance(form, LinearForm):
                    raise ValueError("edge labels must be LinearForm")
        self.table = table
        self.layers = list(layers)
        self.edges = [list(g) for g in edges]
        self.offsets = [0]  # global vertex number of each layer's first vertex
        for n in self.layers:
            self.offsets.append(self.offsets[-1] + n)

    @property
    def size(self) -> int:
        return self.offsets[-1]

    @property
    def degree(self) -> int:
        return len(self.layers) - 1

    def is_homogeneous(self) -> bool:
        return all(f.is_homogeneous() for g in self.edges for _, _, f in g)


def abp_eval(p: Abp) -> NCPoly:
    """Sum over source-sink paths of ordered edge-label products.

    A running count of the layer's terms is checked edge by edge, so
    TermBudgetError is raised at the first edge that takes a layer past
    the budget.
    """
    limits = budget()
    vec = [NCPoly.const(p.table, p.table.field.one)]
    for gap, gap_edges in enumerate(p.edges):
        nxt = [NCPoly.zero(p.table) for _ in range(p.layers[gap + 1])]
        held = 0
        for u, v, form in gap_edges:
            if vec[u]:
                held -= len(nxt[v].terms)
                nxt[v] = nxt[v] + vec[u] * form.poly(p.table)
                held += len(nxt[v].terms)
                limits.check_terms(held, f"layer {gap + 1}")
        vec = nxt
    return vec[0]


def transition_matrices(p: Abp) -> dict:
    """Per variable, the sparse q x q matrix {(i, j): coefficient} of its edges.

    Indexed by global vertex number; cell (i, j) is the coefficient of the
    variable on edge (i, j).  One pass over the edges: parallel edges add,
    and a cell that cancels to zero is dropped.  For every word w the
    (s, t) entry of the ordered product of its letters' matrices equals the
    coefficient of w in abp_eval(p).  Requires homogeneous edge labels.
    """
    if not p.is_homogeneous():
        raise ValueError("transition matrices need homogeneous edge labels")
    mats: dict[int, dict] = {}
    for gap, gap_edges in enumerate(p.edges):
        row, col = p.offsets[gap], p.offsets[gap + 1]
        for u, v, form in gap_edges:
            key = (row + u, col + v)
            for vid, c in form.coeffs:
                cells = mats.setdefault(vid, {})
                s = cells.get(key)
                s = c if s is None else s + c
                if s:
                    cells[key] = s
                else:
                    del cells[key]
    return mats


# ---------------------------------------------------------------------------
# Hankel blocks


@dataclass(frozen=True)
class HankelBlock:
    """Coefficient block at a cut: entry (u, v) is the coefficient of uv.

    Rows and columns are numbered in the order they first occur in the
    polynomial's terms, so row 0 holds column 0.
    """

    cut: int
    rows: tuple  # occurring prefixes of length cut, first-seen order
    cols: tuple  # occurring suffixes, first-seen order
    matrix: tuple  # one sparse row per prefix: {column index: coefficient}


def hankel_block(f: NCPoly, cut: int) -> HankelBlock:
    """Build the coefficient block of a homogeneous polynomial at a cut.

    One pass over the terms files each coefficient under its prefix's row
    and its suffix's column.  Rows and columns are restricted to the
    prefixes and suffixes that occur in the support; that drops only
    all-zero rows and columns, so the rank is unchanged.  Each row stores
    only its nonzero entries.
    """
    if not f.is_homogeneous():
        raise ValueError("Hankel blocks are defined for homogeneous polynomials")
    d = f.degree()
    if d < 0:
        return HankelBlock(cut, (), (), ())
    if not 0 <= cut <= d:
        raise ValueError(f"cut {cut} outside 0..{d}")
    rows: dict = {}
    cols: dict = {}
    for w, c in f.terms.items():
        row = rows.setdefault(w[:cut], {})
        row[cols.setdefault(w[cut:], len(cols))] = c
    return HankelBlock(cut, tuple(rows), tuple(cols), tuple(rows.values()))


def hankel_rank(f: NCPoly, cut: int) -> int:
    return exact_rank(hankel_block(f, cut).matrix, f.table.field)


# ---------------------------------------------------------------------------
# Stack-in-state ABP for depth-bounded Dyck polynomials


def dyck_table(k: int, field=None) -> VarTable:
    """Canonical bracket table: pairs named (1 )1 ... (k )k."""
    from .fields import QQ

    names = []
    for i in range(1, k + 1):
        names.extend([f"({i}", f"){i}"])
    return VarTable(names, field=field or QQ)


def dyck_pairs(table: VarTable) -> list:
    """Recover the (open, close) id pairs of a canonical bracket table."""
    pairs = []
    for name in table.names:
        if name.startswith("("):
            pairs.append((table.var(name).id, table.var(")" + name[1:]).id))
    return pairs


def bounded_depth_dyck_abp(
    k: int,
    n: int,
    bracket_types: int = 2,
    table: VarTable | None = None,
) -> Abp:
    """ABP whose paths spell the balanced words of length 2n with nesting
    depth at most k, by carrying the bracket stack in the state.

    Layer i holds the reachable, completable stacks after i letters; the
    vertex count is at most (2n+1) * 2^(k+1) for two bracket types, and
    StateBudgetError is raised once the layers built so far exceed the
    state budget.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if table is None:
        table = dyck_table(bracket_types)
    pairs = dyck_pairs(table)
    if len(pairs) != bracket_types:
        raise ValueError("table does not match the requested bracket types")

    def completable(stack_len: int, pos: int) -> bool:
        rem = 2 * n - pos
        return stack_len <= rem and (rem - stack_len) % 2 == 0

    limits = budget()
    layers_states: list[list[tuple]] = [[()]]
    transitions: list[list] = []
    count = 1
    for pos in range(2 * n):
        index = {s: i for i, s in enumerate(layers_states[pos])}
        nxt: dict[tuple, int] = {}
        gap = []
        for s, si in index.items():
            if len(s) < k and completable(len(s) + 1, pos + 1):
                for open_id, _close in pairs:
                    s2 = s + (open_id,)
                    if s2 not in nxt:
                        nxt[s2] = len(nxt)
                    gap.append((si, nxt[s2], open_id))
            if s and completable(len(s) - 1, pos + 1):
                open_id = s[-1]
                close_id = dict(pairs)[open_id]
                s2 = s[:-1]
                if s2 not in nxt:
                    nxt[s2] = len(nxt)
                gap.append((si, nxt[s2], close_id))
        ordered = sorted(nxt, key=lambda s: nxt[s])
        layers_states.append(ordered)
        count += len(ordered)
        limits.check_states(count)
        transitions.append(gap)

    one = table.field.one
    layers = [len(s) for s in layers_states]
    edges = [
        [(u, v, LinearForm.make(table, {vid: one})) for u, v, vid in gap]
        for gap in transitions
    ]
    return Abp(table, layers, edges)


# ---------------------------------------------------------------------------
# Text format:
#   layers 0:1 1:3 2:1
#   # homogeneous
#   edge <gap> <u> <v> <coeff> <var> [<coeff> <var> ...] [+ <const>]


def format_abp(p: Abp) -> str:
    fmt = p.table.field.format
    lines = ["layers " + " ".join(f"{i}:{n}" for i, n in enumerate(p.layers))]
    if p.is_homogeneous():
        lines.append("# homogeneous")
    for gap, gap_edges in enumerate(p.edges):
        for u, v, form in gap_edges:
            parts = [f"edge {gap} {u} {v}"]
            for vid, c in form.coeffs:
                parts.append(f"{fmt(c)} {p.table.name(vid)}")
            if form.constant != 0:
                parts.append(f"+ {fmt(form.constant)}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_abp(text: str, table: VarTable | None = None) -> Abp:
    """Parse format_abp's text; each distinct literal is parsed once per call."""
    if table is None:
        table = VarTable()
    scalar = cache(table.field.parse)
    layers = None
    raw_edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "layers":
            layers = [0] * (len(tokens) - 1)
            for tok in tokens[1:]:
                i, _, n = tok.partition(":")
                if not 0 <= int(i) < len(layers):
                    raise ValueError(f"layer {tok!r} outside 0..{len(layers) - 1}")
                layers[int(i)] = int(n)
        elif tokens[0] == "edge":
            # edge <gap> <u> <v>, then (<coeff> <var>) or (+ <constant>) pairs
            if len(tokens) < 4 or len(tokens) % 2:
                raise ValueError(f"bad ABP line {line!r}")
            gap, u, v = int(tokens[1]), int(tokens[2]), int(tokens[3])
            rest = tokens[4:]
            coeffs: dict[int, object] = {}
            constant = table.field.zero
            i = 0
            while i < len(rest):
                if rest[i] == "+":
                    constant = constant + scalar(rest[i + 1])
                    i += 2
                else:
                    c = scalar(rest[i])
                    vid = table.get_or_add(rest[i + 1]).id
                    coeffs[vid] = coeffs.get(vid, table.field.zero) + c
                    i += 2
            raw_edges.append((gap, u, v, LinearForm.make(table, coeffs, constant)))
        else:
            raise ValueError(f"bad ABP line {line!r}")
    if layers is None:
        raise ValueError("missing layers line")
    edges: list[list] = [[] for _ in range(len(layers) - 1)]
    for gap, u, v, form in raw_edges:
        if not 0 <= gap < len(edges):
            raise ValueError(f"edge gap {gap} outside 0..{len(edges) - 1}")
        edges[gap].append((u, v, form))
    return Abp(table, layers, edges)
