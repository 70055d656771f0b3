"""Deterministic substitution automata and matrix substitutions.

A substitution automaton reads words over an input alphabet and emits, per
transition, a scalar times a short word over an output alphabet; undefined
(state, letter) pairs are dead and never materialized, which is how whole
monomials get killed.  Compiling the automaton yields one sparse matrix per
input variable: rows and columns are the states on a start -> accept path
(start first, accept last, interior in breadth-first order), and the
(i, j) entry is the output of the transition i --x--> j.  Every other
state is dropped with its transitions, which leaves the (start, accept)
entry of every word unchanged.  The start must be row 1 and the accept
state column q, so a start state that also accepts compiles only when it
is the only state; any other such automaton is refused.  Evaluating a
polynomial on those matrices and reading the (start, accept) entry
realizes automaton-filtered substitution, and with
the sparse transition matrices of a branching program re-attached to
their variables it computes Hadamard products.  One sparse row-vector
product, row_times_matrix, does every matrix product.  Evaluation in
sorted word order calls it at most once per distinct live prefix of the
support, since terms that share a prefix share its row vector, and not
at all for a unit step, which only moves a one-column vector; product_cells pushes unit rows
through it to multiply monomial matrices for composition and
branching-program embedding.  Nothing here runs an automaton one word at
a time: that simulation is the tests' oracle (tests/oracles.py), so it
shares no code with the compiled evaluation it checks.
"""

from collections.abc import Iterable

from .abp import Abp, transition_matrices
from .algebra import NCPoly, TableMismatchError, VarTable, Word, budget

MAX_ENTRY_DEGREE = 3


class SubstAutomaton:
    """Deterministic finite substitution automaton.

    The state budget in force at construction bounds the states:
    add_state raises StateBudgetError before it adds one state too many,
    so every builder stops while it builds.
    """

    def __init__(self, input_table: VarTable, output_table: VarTable):
        self.input_table = input_table
        self.output_table = output_table
        self._budget = budget()
        self.states: list[str] = []
        self._state_set: set[str] = set()
        self.start: str | None = None
        self.accept: str | None = None
        self.transitions: dict = {}  # (state, var id) -> (state, coeff, word)

    def add_state(self, name: str, start: bool = False, accept: bool = False) -> str:
        if name not in self._state_set:
            self._budget.check_states(len(self.states) + 1)
            self.states.append(name)
            self._state_set.add(name)
        if start:
            if self.start is not None and self.start != name:
                raise ValueError("start state already designated")
            self.start = name
        if accept:
            if self.accept is not None and self.accept != name:
                raise ValueError("accept state already designated")
            self.accept = name
        return name

    def add_transition(self, frm: str, var: int, to: str, coeff=None, word: Word = "") -> None:
        if coeff is None:
            coeff = self.input_table.field.one
        if coeff == 0:
            return  # a zero output is the same as a dead transition
        key = (frm, var)
        if key in self.transitions:
            raise ValueError(
                f"state {frm!r} already has a transition on "
                f"{self.input_table.name(var)!r}"
            )
        self.add_state(frm)
        self.add_state(to)
        if len(word) > MAX_ENTRY_DEGREE:
            raise ValueError(f"output degree {len(word)} exceeds {MAX_ENTRY_DEGREE}")
        self.transitions[key] = (to, coeff, word)


def path_order(start, accept, before, after) -> list:
    """The states on a start -> accept path: start first, accept last, the
    others in breadth-first order from the start.

    before(s) and after(s) give the states one step before and after s.
    One backward walk from the accept state finds the states that reach
    it, charging the state budget for each, and the breadth-first walk
    from the start keeps only those.  A start that reaches no accept state
    leaves the start and accept alone, with no path between them.
    """
    limits = budget()
    live = {accept}
    stack = [accept]
    while stack:
        for s in before(stack.pop()):
            if s not in live:
                limits.check_states(len(live) + 1)
                live.add(s)
                stack.append(s)
    queue = [start] if start in live else []
    seen = set(queue)
    for s in queue:  # the list grows while it is walked: breadth first
        for t in after(s):
            if t not in seen and t in live:
                seen.add(t)
                queue.append(t)
    order = [start] + [s for s in queue if s not in (start, accept)]
    if accept != start:
        order.append(accept)
    return order


class MatrixSubstitution:
    """One sparse q x q matrix per input variable; extraction at (1, q).

    The empty word evaluates to the identity, whose (1, q) entry is zero
    when q > 1.  A dimension below one raises ValueError, and one over the
    state budget StateBudgetError, before any entry is read.
    """

    def __init__(self, input_table: VarTable, output_table: VarTable, dim: int, entries: dict):
        if dim < 1:
            raise ValueError(f"dim {dim} is not a positive matrix size")
        budget().check_states(dim)
        self.input_table = input_table
        self.output_table = output_table
        self.dim = dim
        self.entries = {}
        for vid, cells in entries.items():
            clean = {}
            for (r, c), (coeff, word) in cells.items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError(f"entry ({r},{c}) outside a {dim}x{dim} matrix")
                if len(word) > MAX_ENTRY_DEGREE:
                    raise ValueError(
                        f"entry degree {len(word)} exceeds {MAX_ENTRY_DEGREE}"
                    )
                if coeff != 0:
                    clean[(r, c)] = (coeff, word)
            self.entries[vid] = clean
        self._rows_cache: dict = {}

    def rows(self, vid: int) -> dict:
        """Row-indexed adjacency: row -> sorted (column, coefficient, word) cells."""
        if vid not in self._rows_cache:
            adj: dict[int, list] = {}
            for (r, c), (coeff, word) in self.entries.get(vid, {}).items():
                adj.setdefault(r, []).append((c, coeff, word))
            for lst in adj.values():
                lst.sort()
            self._rows_cache[vid] = adj
        return self._rows_cache[vid]

    def evaluate(self, g: NCPoly | Iterable) -> NCPoly:
        """The (start, accept) entry of g evaluated on these matrices.

        g is a polynomial, walked in sorted word order, or any iterable of
        (word, coefficient) pairs, walked in the order given, so a family
        stream is never held whole.  The walk keeps a stack of row
        vectors, entry i being the start row times the first i letters of
        the current word.  With one word of lookahead it stores a prefix's
        vector only up to the common prefix with the next word, so in
        sorted order each distinct prefix of the support (each node of its
        trie) is stepped into once; any other order only shares less.  A
        word stops at its first dead prefix, whose empty vector stays on
        the stack for the next words that share it.  A step whose vector
        has one column, and whose row for the letter holds one cell of
        coefficient one and the empty word, moves the vector to that
        cell's column without calling row_times_matrix or touching the
        polynomial; every other step is one row_times_matrix product.  So
        the cost follows the live non-unit steps.  Each term's coefficient
        multiplies the accept column at the end; scalars commute, so this
        is exact.  Like words merge per column, so the cost follows the
        (column, word) pairs, not the automaton paths.  Variables without
        a matrix act as zero matrices and kill their words.
        TermBudgetError is raised once a row vector or the result holds
        more terms than the budget; a product by a letter with one cell
        per row adds no term and is not counted.
        """
        terms = iter(sorted(g.terms.items()) if isinstance(g, NCPoly) else g)
        one = self.input_table.field.one
        limits = budget()
        # every per-letter table is keyed by the letter, a one-character word
        rows = {chr(vid): self.rows(vid) for vid in self.entries}
        growing = {v for v, m in rows.items() if any(len(c) > 1 for c in m.values())}
        # unit[letter][row]: the column of the row's one cell, if that cell
        # is one times the empty word
        unit = {
            v: {r: c[0][0] for r, c in m.items() if len(c) == 1 and c[0][1:] == (one, "")}
            for v, m in rows.items()
        }
        no_cells: dict = {}
        accept = self.dim - 1
        out = NCPoly.zero(self.output_table)
        acc = out.terms
        stack = [{0: {"": one}}]
        ahead = next(terms, None)
        while ahead is not None:
            w, coeff = ahead
            ahead = next(terms, None)
            keep = 0
            if ahead is not None:
                for a, b in zip(w, ahead[0]):
                    if a != b:
                        break
                    keep += 1
            i = len(stack) - 1
            vec = stack[i]
            del stack[keep + 1 :]
            end = len(w)
            while vec and i < end:
                if len(vec) == 1:
                    # a run of unit steps moves the one column, not its polynomial
                    [(r, poly)] = vec.items()
                    run = i
                    while i < end and (col := unit.get(w[i], no_cells).get(r)) is not None:
                        r = col
                        i += 1
                        if i <= keep:
                            stack.append({r: poly})
                    if i > run:
                        vec = {r: poly}
                        if i == end:
                            break
                v = w[i]
                i += 1
                vec = row_times_matrix(vec, rows.get(v, no_cells))
                if v in growing:
                    limits.check_terms(sum(map(len, vec.values())), "termwise apply")
                if i <= keep:
                    stack.append(vec)
            if accept not in vec:
                continue
            for word, x in vec[accept].items():
                x = x * coeff
                s = acc.get(word)
                s = x if s is None else s + x
                if s:
                    acc[word] = s
                else:
                    del acc[word]
            limits.check_terms(len(acc), "termwise apply")
        return out


def row_times_matrix(vec: dict, rows: dict) -> dict:
    """Sparse row vector times sparse matrix, like words merged per column.

    vec maps a column to its polynomial entry {word: nonzero coefficient};
    rows is a matrix in the MatrixSubstitution.rows form, row -> list of
    (column, coefficient, word) cells, where several cells may share a
    column.  Each entry of vec is multiplied on the right by the monomials
    of its row, and the products landing in one column are summed word by
    word, so the result holds one coefficient per (column, word) and no
    zeros.  The coefficients lie in a field, so a product of nonzero
    scalars is nonzero and only sums can cancel.  A cell whose coefficient
    is one adds its entry's coefficients without multiplying.
    """
    out: dict[int, dict] = {}
    cancelled = False
    for r, poly in vec.items():
        for c, cf, piece in rows.get(r, ()):
            acc = out.get(c)
            if acc is None:
                out[c] = acc = {}
            unit = cf == 1
            for w, x in poly.items():
                w += piece
                if not unit:
                    x = x * cf
                s = acc.get(w)
                s = x if s is None else s + x
                if s:
                    acc[w] = s
                else:
                    del acc[w]
                    cancelled = True
    if cancelled:
        out = {c: acc for c, acc in out.items() if acc}
    return out


def product_cells(matrices: list, starts, one) -> dict:
    """Cells {(i, j): (coefficient, word)} of a product of rows-form matrices.

    Each start row i is pushed as the unit row vector through
    row_times_matrix, once per factor, and every nonzero column j of the
    result is filed as one monomial cell.  Raises ValueError when a
    column holds two distinct words, since a cell stores one monomial.
    An empty product is the identity on the start rows.
    """
    out: dict = {}
    for i in starts:
        vec = {i: {"": one}}
        for rows in matrices:
            if not vec:
                break
            vec = row_times_matrix(vec, rows)
        for j, poly in vec.items():
            if len(poly) > 1:
                raise ValueError("matrix product entry needs a sum of distinct monomials")
            ((w, c),) = poly.items()
            out[(i, j)] = (c, w)
    return out


def automaton_to_substitution(a: SubstAutomaton) -> MatrixSubstitution:
    """One matrix per input variable over the states on a start -> accept
    path, in path_order, successors read in variable order.

    Every other state gets no row or column and its transitions no cell,
    so the (start, accept) entry of every word is unchanged.  A start
    state that also accepts must be the only declared state: otherwise it
    would be both row 1 and column q, and ValueError is raised.
    """
    if a.start is None or a.accept is None:
        raise ValueError("automaton needs designated start and accept states")
    if a.start == a.accept and len(a.states) > 1:
        raise ValueError("the start state also accepts, so it must be the only state")
    after: dict[str, list] = {}
    before: dict[str, list] = {}
    for frm, var in sorted(a.transitions, key=lambda key: key[1]):
        to = a.transitions[(frm, var)][0]
        after.setdefault(frm, []).append(to)
        before.setdefault(to, []).append(frm)
    order = path_order(a.start, a.accept, lambda s: before.get(s, ()), lambda s: after.get(s, ()))
    index = {s: i for i, s in enumerate(order)}
    entries: dict[int, dict] = {}
    for (frm, var), (to, coeff, word) in a.transitions.items():
        if frm in index and to in index:
            entries.setdefault(var, {})[(index[frm], index[to])] = (coeff, word)
    return MatrixSubstitution(a.input_table, a.output_table, len(order), entries)


# ---------------------------------------------------------------------------
# Hadamard product through transition matrices


def _row_vector(cells) -> dict:
    """Cells of the rows form as a row vector, like cells summed."""
    vec: dict[int, dict] = {}
    for c, x, w in cells:
        acc = vec.setdefault(c, {})
        acc[w] = acc[w] + x if w in acc else x
    return vec


def _row_cells(vec: dict) -> list:
    """A row vector as cells of the rows form, zero coefficients dropped."""
    return [(c, x, w) for c, poly in vec.items() for w, x in poly.items() if x]


def hadamard_via_matrices(f, g: Abp) -> NCPoly:
    """Coefficientwise product of f (circuit or polynomial) with abp_eval(g).

    Every variable of f is evaluated at the corresponding transition matrix
    of g with the variable re-attached; the (source, sink) entry of the
    result is the Hadamard product.  g must be homogeneous.

    A polynomial goes through MatrixSubstitution.evaluate, which shares
    the row vector of each prefix among the terms that start with it.  A
    circuit keeps one sparse matrix per gate in the rows form: an input is
    its re-attached matrix, a constant a scaled identity, a sum merges the
    rows of its arguments, and a product sends each row of the left matrix
    through row_times_matrix.  TermBudgetError is raised once a gate's
    matrix holds more terms than the budget, and StateBudgetError when g
    has more vertices than the state budget.
    """
    from .circuits import Add, Circuit, Const, Input

    if not g.is_homogeneous():
        raise ValueError("the branching program must have homogeneous edge labels")
    table = f.table
    if table != g.table:
        raise TableMismatchError("circuit and branching program tables differ")
    q = g.size
    sub = MatrixSubstitution(table, table, q, transition_matrices(g))
    if not isinstance(f, Circuit):
        return sub.evaluate(f)

    limits = budget()
    mats: dict[int, dict] = {}
    for gid in f.reachable():
        gate = f.gates[gid]
        if isinstance(gate, Input):
            m = sub.rows(gate.var)
        elif isinstance(gate, Const):
            m = {i: [(i, gate.value, "")] for i in range(q)} if gate.value != 0 else {}
        elif isinstance(gate, Add):
            a, b = mats[gate.left], mats[gate.right]
            m = {
                r: _row_cells(_row_vector(a.get(r, []) + b.get(r, [])))
                for r in a.keys() | b.keys()
            }
        else:
            a, b = mats[gate.left], mats[gate.right]
            m = {
                r: _row_cells(row_times_matrix(_row_vector(cells), b))
                for r, cells in a.items()
            }
        m = {r: cells for r, cells in m.items() if cells}
        limits.check_terms(sum(map(len, m.values())), f"gate g{gid} matrix")
        mats[gid] = m
    return NCPoly.adopt(table, {w: x for c, x, w in mats[f.output].get(0, ()) if c == q - 1})


# ---------------------------------------------------------------------------
# Interchange format


def format_substitution(sub: MatrixSubstitution) -> str:
    fmt = sub.input_table.field.format
    spell = sub.output_table.spelling()
    lines = [
        "substitution",
        f"dim {sub.dim}",
        "input-vars " + " ".join(sub.input_table.names),
        "output-vars " + " ".join(sub.output_table.names),
    ]
    for vid in sorted(sub.entries):
        cells = sub.entries[vid]
        if not cells:
            continue
        lines.append(f"var {sub.input_table.name(vid)}")
        for (r, c) in sorted(cells):
            coeff, word = cells[(r, c)]
            lines.append(f"entry {r + 1} {c + 1} {fmt(coeff)}{word.translate(spell)}")
    return "\n".join(lines) + "\n"


def parse_substitution(
    text: str, input_table: VarTable | None = None, output_table: VarTable | None = None
) -> MatrixSubstitution:
    """Parse the substitution text format; unknown names are added.

    As in parse_poly, known output names cost one lookup in the table's
    name -> letter dict, only a line holding a new name goes through
    ``get_or_add``, and each distinct coefficient literal is parsed once
    per call.  A second dim line, or a second entry for the same (var,
    row, column) cell, is refused with ValueError rather than read over
    the first.
    """
    from .fields import QQ

    if input_table is None:
        input_table = VarTable(field=QQ)
    if output_table is None:
        output_table = VarTable(field=input_table.field)
    in_ids, out_letters = input_table._ids, output_table._letters
    parse = input_table.field.parse
    scalars: dict[str, object] = {}
    dim = None
    entries: dict[int, dict] = {}
    current: dict | None = None
    min_tokens = {"dim": 2, "var": 2, "entry": 4}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line == "substitution":
            continue
        tokens = line.split()
        if len(tokens) < min_tokens.get(tokens[0], 1):
            raise ValueError(f"short substitution line {line!r}")
        if tokens[0] == "entry":
            if current is None or dim is None:
                raise ValueError("entry line before var/dim")
            r, c = int(tokens[1]) - 1, int(tokens[2]) - 1
            coeff = scalars.get(tokens[3])
            if coeff is None:
                coeff = scalars[tokens[3]] = parse(tokens[3])
            try:
                word = "".join([out_letters[n] for n in tokens[4:]])
            except KeyError:
                word = "".join([chr(output_table.get_or_add(n).id) for n in tokens[4:]])
            if (r, c) in current:
                raise ValueError(f"second entry {r + 1} {c + 1} for var {var_name}")
            current[(r, c)] = (coeff, word)
        elif tokens[0] == "var":
            var_name = tokens[1]
            vid = in_ids.get(var_name)
            if vid is None:
                vid = input_table.get_or_add(var_name).id
            current = entries.setdefault(vid, {})
        elif tokens[0] == "dim":
            if dim is not None:
                raise ValueError("second dim line")
            dim = int(tokens[1])
        elif tokens[0] == "input-vars":
            for name in tokens[1:]:
                input_table.get_or_add(name)
        elif tokens[0] == "output-vars":
            for name in tokens[1:]:
                output_table.get_or_add(name)
        else:
            raise ValueError(f"bad substitution line {line!r}")
    if dim is None:
        raise ValueError("missing dim line")
    return MatrixSubstitution(input_table, output_table, dim, entries)
