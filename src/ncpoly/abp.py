"""Layered algebraic branching programs and Hankel rank witnesses.

An ABP is a layered DAG with one source and one sink whose edges are
(coefficient, word) cells, the word one variable or empty for a
constant; it computes the sum over source-to-sink paths of the ordered
product of the cells.  Size is the vertex count.  The module also
builds the coefficient ("Hankel") block of a homogeneous polynomial at a
cut and its exact rank, which lower-bounds the width of any ABP layer at
that cut.  abp_hankel_rank finds the same ranks from an ABP without
expanding it: forward and backward span bases, built layer by layer, hold
at most the layer's width of vectors; one pass each way serves all cuts.
Two ABP constructions feed it: the stack-in-state ABP for Dyck words of
bounded nesting depth and Nisan's subset ABP for the permanent.
"""

from functools import cache
from typing import NamedTuple

from .algebra import NCPoly, VarTable, budget, eliminate, exact_rank


class Abp:
    """Vertex counts per layer plus per-gap cell lists (u, v, coefficient,
    word): word is a one-letter word, or "" for a constant term.  Parallel
    cells add."""

    def __init__(self, table: VarTable, layers: list, edges: list):
        if len(layers) < 1 or layers[0] != 1 or layers[-1] != 1:
            raise ValueError("layer 0 and the last layer must have exactly one vertex")
        if any(n <= 0 for n in layers):
            raise ValueError("layers must be nonempty")
        if len(edges) != len(layers) - 1:
            raise ValueError("need one edge list per consecutive layer pair")
        for gap, gap_edges in enumerate(edges):
            for u, v, _, word in gap_edges:
                if not (0 <= u < layers[gap] and 0 <= v < layers[gap + 1]):
                    raise ValueError(f"edge ({u},{v}) out of range at gap {gap}")
                if len(word) > 1:
                    raise ValueError("an edge cell's word has at most one letter")
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
        return all(cell[3] for gap in self.edges for cell in gap)


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
        for u, v, c, word in gap_edges:
            if vec[u]:
                held -= len(nxt[v].terms)
                nxt[v] = nxt[v] + vec[u] * NCPoly.monomial(p.table, word, c)
                held += len(nxt[v].terms)
                limits.check_terms(held, f"layer {gap + 1}")
        vec = nxt
    return vec[0]


def transition_matrices(p: Abp) -> dict:
    """Per variable id, its sparse q x q matrix {(i, j): (coefficient, word)},
    word the variable's one-letter word: the entries a MatrixSubstitution
    takes.

    Indexed by global vertex number; cell (i, j) holds the coefficient of
    the variable on edge (i, j).  One pass over the cells: parallel cells
    add, and a cell that cancels to zero is dropped.  For every word w the
    (s, t) entry of the ordered product of its letters' matrices equals the
    coefficient of w in abp_eval(p).  Requires homogeneous cells.
    """
    if not p.is_homogeneous():
        raise ValueError("transition matrices need homogeneous edge labels")
    mats: dict[int, dict] = {}
    for gap, gap_edges in enumerate(p.edges):
        row, col = p.offsets[gap], p.offsets[gap + 1]
        for u, v, c, word in gap_edges:
            key = (row + u, col + v)
            cells = mats.setdefault(ord(word), {})
            s = cells.get(key)
            if s is not None:
                c += s[0]
            if c:
                cells[key] = (c, word)
            else:
                cells.pop(key, None)
    return mats


# ---------------------------------------------------------------------------
# Hankel blocks


class HankelBlock(NamedTuple):
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


def _span(steps, field):
    """Bases of the span of the images of vertex 0's unit vector under the
    words of steps: the unit vector itself, then one basis after each step.

    Each step maps a vertex to its (vertex, coefficient, word) cells.  The
    basis after a step holds, row-reduced by eliminate, the images of the
    previous basis under each word separately.
    """
    basis = [{0: field.one}]
    yield basis
    for step in steps:
        pivots: dict = {}
        for b in basis:
            images: dict = {}
            for u, a in b.items():
                for v, c, word in step.get(u, ()):
                    image = images.setdefault(word, {})
                    x = image.get(v)
                    image[v] = a * c if x is None else x + a * c
            for image in images.values():
                eliminate(pivots, {v: x for v, x in image.items() if x != 0}, field)
        basis = list(pivots.values())
        yield basis


def abp_hankel_rank(p: Abp, cuts: list) -> list:
    """The Hankel ranks of abp_eval(p) at a list of cuts, in the order
    given, without expanding it.

    Through layer cut the block factors as F·B: F[u, q] sums the paths
    from the source to vertex q that spell the prefix u, and B[q, v] the
    paths from q to the sink that spell the suffix v.  A basis of F's row
    span is pushed forward from the source's unit vector, and a basis of
    B's column span pulled backward from the sink's, one gap and one
    letter at a time (Nisan, STOC 1991; Tzeng 1992).  All cuts share one
    pass per direction, forward to the largest cut and backward to the
    smallest, so the cost is O(d) gap steps, not O(d × cuts).  The forward
    bases at the cuts are kept; each cut is ranked as soon as the backward
    pass reaches it, and both its bases are dropped.  rank(F·B) is the
    rank of the product of the two bases, which is exact; it is taken once
    per distinct cut, its rows handed to exact_rank with zero rows dropped
    and columns numbered in first-seen order.
    """
    if not p.is_homogeneous():
        raise ValueError("Hankel ranks need homogeneous edge labels")
    for cut in cuts:
        if not 0 <= cut <= p.degree:
            raise ValueError(f"cut {cut} outside 0..{p.degree}")
    field = p.table.field
    ranks = dict.fromkeys(cuts)
    top, bottom = max(cuts, default=0), min(cuts, default=p.degree)

    def steps(gaps, backward):
        for gap in gaps:
            step: dict = {}
            for u, v, *cell in p.edges[gap]:
                if backward:
                    u, v = v, u
                step.setdefault(u, []).append((v, *cell))
            yield step

    forward = _span(steps(range(top), False), field)
    rows = {cut: b for cut, b in zip(range(top + 1), forward) if cut in ranks}
    backward = _span(steps(range(p.degree - 1, bottom - 1, -1), True), field)
    for cut, cols in zip(range(p.degree, bottom - 1, -1), backward):
        if cut not in ranks:
            continue
        at: dict = {}  # vertex of layer cut -> [(column, entry)]
        for j, col in enumerate(cols):
            for q, b in col.items():
                at.setdefault(q, []).append((j, b))
        number: dict = {}
        product = []
        for row in rows.pop(cut):
            acc: dict = {}
            for q, a in row.items():
                for j, b in at.get(q, ()):
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            r = {number.setdefault(j, len(number)): x for j, x in acc.items() if x != 0}
            if r:
                product.append(r)
        ranks[cut] = exact_rank(tuple(product), field)
    return [ranks[cut] for cut in cuts]


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
    StateBudgetError is raised at the first vertex over the state budget.
    n = 0 gives the one-vertex program of the empty word.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    if table is None:
        table = dyck_table(bracket_types)
    pairs = dyck_pairs(table)
    if len(pairs) != bracket_types:
        raise ValueError("table does not match the requested bracket types")
    # a stack is the word of its open brackets, bottom first
    close_of = {chr(o): chr(c) for o, c in pairs}
    one = table.field.one

    def completable(stack_len: int, pos: int) -> bool:
        rem = 2 * n - pos
        return stack_len <= rem and (rem - stack_len) % 2 == 0

    limits = budget()
    layer: dict[str, int] = {"": 0}  # stack -> vertex
    layers = [1]
    edges: list[list] = []
    count = 1
    for pos in range(2 * n):
        nxt: dict[str, int] = {}
        room = limits.states - count  # vertices numbered room or more are over
        gap = []
        for s, si in layer.items():
            if len(s) < k and completable(len(s) + 1, pos + 1):
                for o in close_of:
                    v = nxt.setdefault(s + o, len(nxt))
                    if v >= room:
                        limits.check_states(count + v + 1)
                    gap.append((si, v, one, o))
            if s and completable(len(s) - 1, pos + 1):
                v = nxt.setdefault(s[:-1], len(nxt))
                if v >= room:
                    limits.check_states(count + v + 1)
                gap.append((si, v, one, close_of[s[-1]]))
        layer = nxt
        layers.append(len(nxt))
        count += len(nxt)
        edges.append(gap)
    return Abp(table, layers, edges)


def permanent_abp(n: int, table: VarTable) -> Abp:
    """Nisan's ABP for the permanent over the variables x{i}_{j} of table.

    Layer i holds the i-subsets of columns used by rows 1..i, and the edge
    S -> S + {j} reads x{i+1}_{j}, so layer i has C(n, i) vertices and the
    program 2^n, which is checked against the state budget before any is
    built.
    """
    budget().check_states(2**n)
    one = table.field.one
    layer = {0: 0}  # bitmask of used columns -> vertex
    layers = [1]
    edges: list[list] = []
    for i in range(1, n + 1):
        words = [table.word(f"x{i}_{j}") for j in range(1, n + 1)]
        nxt: dict[int, int] = {}
        gap = []
        for used, u in layer.items():
            for j, word in enumerate(words):
                if not used >> j & 1:
                    gap.append((u, nxt.setdefault(used | 1 << j, len(nxt)), one, word))
        layer = nxt
        layers.append(len(nxt))
        edges.append(gap)
    return Abp(table, layers, edges)


# ---------------------------------------------------------------------------
# Text format:
#   layers 0:1 1:3 2:1
#   # homogeneous
#   edge <gap> <u> <v> <coeff> <var> [<coeff> <var> ...] [+ <const>]
# format_abp writes one cell per edge line: <coeff> <var> or + <const>.


# No command writes a program yet; it is the writer that parse_abp reads back.
def format_abp(p: Abp) -> str:
    fmt = p.table.field.format
    lines = ["layers " + " ".join(f"{i}:{n}" for i, n in enumerate(p.layers))]
    if p.is_homogeneous():
        lines.append("# homogeneous")
    for gap, gap_edges in enumerate(p.edges):
        for u, v, c, word in gap_edges:
            cell = f"{fmt(c)} {p.table.name(ord(word))}" if word else f"+ {fmt(c)}"
            lines.append(f"edge {gap} {u} {v} {cell}")
    return "\n".join(lines) + "\n"


def parse_abp(text: str, table: VarTable | None = None) -> Abp:
    """Parse format_abp's text; each distinct literal is parsed once per call.

    An edge line becomes one cell per nonzero term after like terms add,
    the variables in id order and the constant last.
    """
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
            if layers is not None:
                raise ValueError("second layers line")
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
            terms: dict = {}  # word -> coefficient, the constant under ""
            for a, b in zip(tokens[4::2], tokens[5::2]):
                c = scalar(b if a == "+" else a)
                word = "" if a == "+" else chr(table.get_or_add(b).id)
                terms[word] = terms[word] + c if word in terms else c
            order = sorted(terms, key=lambda w: (not w, w))
            raw_edges.append((gap, u, v, [(u, v, terms[w], w) for w in order if terms[w] != 0]))
        else:
            raise ValueError(f"bad ABP line {line!r}")
    if layers is None:
        raise ValueError("missing layers line")
    edges: list[list] = [[] for _ in range(len(layers) - 1)]
    for gap, u, v, cells in raw_edges:
        if not 0 <= gap < len(edges):
            raise ValueError(f"edge gap {gap} outside 0..{len(edges) - 1}")
        if not (0 <= u < layers[gap] and 0 <= v < layers[gap + 1]):  # also a line without cells
            raise ValueError(f"edge ({u},{v}) out of range at gap {gap}")
        edges[gap] += cells
    return Abp(table, layers, edges)
