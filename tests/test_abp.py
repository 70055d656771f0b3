import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from ncpoly.abp import (
    Abp,
    abp_eval,
    abp_hankel_rank,
    bounded_depth_dyck_abp,
    dyck_pairs,
    dyck_table,
    format_abp,
    hankel_block,
    hankel_rank,
    parse_abp,
    transition_matrices,
)
from ncpoly.algebra import Budget, NCPoly, StateBudgetError, VarTable, exact_rank, using_budget
from ncpoly.fields import QQ, PrimeField
from ncpoly.families import make_family
from test_algebra import minor_rank


def xy():
    return VarTable(["x0", "x1"])


X0, X1 = "\x00", "\x01"  # the one-letter words of xy()


def id1_abp(t):
    # 3 layers, 2 middle vertices, matching labels on both gaps: x0x0 + x1x1
    return Abp(
        t,
        [1, 2, 1],
        [
            [(0, 0, 1, X0), (0, 1, 1, X1)],
            [(0, 0, 1, X0), (1, 0, 1, X1)],
        ],
    )


# -- evaluation ---------------------------------------------------------------


def test_eval_single_edge_linear_form():
    t = xy()
    p = Abp(t, [1, 1], [[(0, 0, 1, X0), (0, 0, 1, X1)]])
    assert abp_eval(p).terms == {t.word("x0"): 1, t.word("x1"): 1}


def test_eval_diagonal_paths():
    t = xy()
    f = abp_eval(id1_abp(t))
    assert f.terms == {t.word("x0", "x0"): 1, t.word("x1", "x1"): 1}


def test_eval_width_one_chain():
    t = xy()
    d = 5
    p = Abp(t, [1] * (d + 1), [[(0, 0, 1, X0)] for _ in range(d)])
    assert abp_eval(p).terms == {t.word(*["x0"] * d): 1}


def test_layer_validation():
    t = xy()
    with pytest.raises(ValueError):
        Abp(t, [2, 1], [[]])
    with pytest.raises(ValueError):
        Abp(t, [1, 3, 1], [[(0, 3, 1, X0)], []])
    with pytest.raises(ValueError, match="at most one letter"):
        Abp(t, [1, 1], [[(0, 0, 1, X0 + X1)]])


# -- transition matrices ------------------------------------------------------


def test_single_edge_matrix():
    t = xy()
    p = Abp(t, [1, 1], [[(0, 0, 1, X0)]])
    assert transition_matrices(p) == {0: {(0, 1): (1, X0)}}


def test_word_matrix_products_match_coefficients():
    t = xy()
    p = id1_abp(t)
    mats = transition_matrices(p)
    x0, x1 = t.var("x0").id, t.var("x1").id

    def mat_word(word):
        q = p.size
        acc = [[Fraction(int(i == j)) for j in range(q)] for i in range(q)]
        for vid in word:
            m = coefficients(mats[vid], vid)
            acc = [
                [
                    sum((acc[i][k] * m.get((k, j), 0) for k in range(q)), Fraction(0))
                    for j in range(q)
                ]
                for i in range(q)
            ]
        return acc

    assert mat_word((x0, x0))[0][p.size - 1] == 1
    assert mat_word((x0, x1))[0][p.size - 1] == 0


def coefficients(cells, vid):
    """A transition matrix's {(i, j): coefficient}, after checking that every
    cell holds the one-letter word of its variable."""
    assert all(word == chr(vid) for _, word in cells.values())
    return {key: c for key, (c, _) in cells.items()}


def test_transition_matrices_reject_affine_labels():
    t = xy()
    p = Abp(t, [1, 1], [[(0, 0, 1, X0), (0, 0, 2, "")]])
    with pytest.raises(ValueError):
        transition_matrices(p)


def test_soundness_on_random_abps():
    for p in corpus.random_abps(seed=512, count=15, max_width=3, max_depth=4):
        f = abp_eval(p)
        mats = transition_matrices(p)
        q = p.size
        d = p.degree
        for word in map("".join, product(map(chr, sorted(mats)), repeat=d)):
            vec = [Fraction(0)] * q
            vec[0] = Fraction(1)
            for vid in map(ord, word):
                m = coefficients(mats[vid], vid)
                vec = [
                    sum((vec[i] * m.get((i, j), 0) for i in range(q)), Fraction(0))
                    for j in range(q)
                ]
            assert vec[q - 1] == f.coeff(word)


def test_transition_matrices_hold_only_the_edge_cells():
    # one cell per edge of the 1,173-vertex program, not a dense q x q list
    p = bounded_depth_dyck_abp(4, 40)
    assert p.size == 1173
    edges = sum(map(len, p.edges))
    assert edges == 2264
    mats = transition_matrices(p)
    assert all(isinstance(m, dict) for m in mats.values())
    assert sum(map(len, mats.values())) == edges


def test_transition_matrices_add_parallel_edges_and_drop_cancelled_cells():
    t = xy()
    p = Abp(t, [1, 1], [[(0, 0, 1, X0), (0, 0, 1, X1), (0, 0, 2, X0), (0, 0, -1, X1)]])
    assert transition_matrices(p) == {0: {(0, 1): (3, X0)}, 1: {}}


def test_dfa_derived_matrices_are_01():
    p = bounded_depth_dyck_abp(2, 2)
    mats = transition_matrices(p)
    for vid, m in mats.items():
        assert set(coefficients(m, vid).values()) == {1}


# -- Hankel rank --------------------------------------------------------------


def pal(t, n):
    terms = {}
    for w in map("".join, product(t.word("x0", "x1"), repeat=n)):
        terms[w + w[::-1]] = Fraction(1)
    return NCPoly(t, terms)


def ident(t, n):
    terms = {}
    for w in map("".join, product(t.word("x0", "x1"), repeat=n)):
        terms[w + w] = Fraction(1)
    return NCPoly(t, terms)


def test_hankel_pal2_middle():
    from ncpoly.abp import hankel_block

    f = pal(xy(), 2)
    assert hankel_rank(f, 2) == 4
    block = hankel_block(f, 2)
    assert block.cut == 2 and len(block.rows) == len(block.cols) == 4
    for i, u in enumerate(block.rows):
        for j, v in enumerate(block.cols):
            assert block.matrix[i].get(j, 0) == (1 if v == u[::-1] else 0)


def test_hankel_single_row():
    t = xy()
    f = NCPoly(t, {t.word("x0", "x0"): Fraction(1), t.word("x0", "x1"): Fraction(1)})
    assert hankel_rank(f, 1) == 1


def test_hankel_dyck_one_pair_degree_six():
    # Catalan(3) = 5 balanced words; ranks counted by distinct prefix excess
    table = dyck_table(1)
    p = bounded_depth_dyck_abp(3, 3, bracket_types=1, table=table)
    f = abp_eval(p)
    assert len(f.terms) == 5
    rank = hankel_rank(f, 3)
    prefixes = {w[:3] for w in f.terms}
    o, c = dyck_pairs(table)[0]
    excesses = {sum(1 if v == o else -1 for v in map(ord, u)) for u in prefixes}
    assert rank == len(excesses) == 2
    assert rank <= 4


def test_hankel_requires_homogeneous():
    t = xy()
    f = NCPoly(t, {t.word("x0"): Fraction(1), t.word("x0", "x1"): Fraction(1)})
    with pytest.raises(ValueError):
        hankel_rank(f, 1)


def test_hankel_pal_id_powers_of_two():
    t = xy()
    for n in range(1, 5):
        assert hankel_rank(pal(t, n), n) == 2**n
        assert hankel_rank(ident(t, n), n) == 2**n


def test_hankel_ranks_match_closed_forms():
    # dyck: one independent row per unmatched stack of height h = cut mod 2
    k, d, cut = 2, 14, 7
    f = make_family(f"dyck:k={k},d={d}").poly
    assert hankel_rank(f, cut) == sum(k**h for h in range(cut % 2, min(cut, d - cut) + 1, 2)) == 170
    # per: one independent row per set of values used by the prefix
    n, cut = 8, 4
    assert hankel_rank(make_family(f"per:n={n}").poly, cut) == comb(n, cut) == 70
    # pal: the block is the permutation u -> reverse(u) of all k^n prefixes
    n, k = 6, 3
    assert hankel_rank(make_family(f"pal:n={n},k={k}").poly, n) == k**n == 729


def test_hankel_block_rows_are_sparse_first_seen():
    t = xy()
    f = NCPoly(t, {t.word("x1", "x0"): Fraction(2), t.word("x0", "x0"): Fraction(3), t.word("x1", "x1"): Fraction(5)})
    from ncpoly.abp import hankel_block

    block = hankel_block(f, 1)
    assert block.rows == (t.word("x1"), t.word("x0"))
    assert block.cols == (t.word("x0"), t.word("x1"))
    assert block.matrix == ({0: 2, 1: 5}, {0: 3})
    assert hankel_rank(f, 1) == 2


def block_poly(rng, field):
    """A random homogeneous polynomial and a cut at which its block has
    repeated rows (a prefix whose row is a multiple of another's) and
    cancelling rows (a prefix whose row is a sum of two others, or whose
    entries cancel another row's); at most five rows and five columns."""
    t = VarTable(["x0", "x1", "x2"], field=field)
    cut, tail = rng.randint(1, 2), rng.randint(1, 2)

    def words(length):
        every = list(map("".join, product("\x00\x01\x02", repeat=length)))
        return rng.sample(every, min(len(every), 5))

    prefixes, suffixes = words(cut), words(tail)

    def scalar():
        return field.from_int(rng.choice((-2, -1, 1, 2, 3)))

    rows = []
    for u in prefixes:
        if len(rows) < 2 or rng.random() < 0.2:
            row = {v: scalar() for v in rng.sample(suffixes, rng.randint(1, len(suffixes)))}
        elif rng.random() < 0.5:
            c, (_, base) = scalar(), rng.choice(rows)  # a repeat, scaled
            row = {v: c * x for v, x in base.items()}
        else:
            (_, a), (_, b) = rng.sample(rows, 2)  # a sum, or a difference that cancels
            sign = rng.choice((1, -1))
            row = {v: a.get(v, field.zero) + sign * b.get(v, field.zero) for v in {*a, *b}}
        rows.append((u, row))
    terms: dict = {}
    for u, row in rows:
        for v, x in row.items():
            terms[u + v] = terms.get(u + v, field.zero) + x
    return NCPoly(t, terms), cut


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "GF2", "GF5"])
def test_hankel_rank_matches_exact_rank_and_minors_and_keeps_the_polynomial(field):
    rng = random.Random(1991)
    dependent = 0
    for _ in range(120):
        f, cut = block_poly(rng, field)
        before = dict(f.terms)
        rank = hankel_rank(f, cut)
        prefixes = sorted({w[:cut] for w in f.terms})
        suffixes = sorted({w[cut:] for w in f.terms})
        dense = [[f.coeff(u + v) for v in suffixes] for u in prefixes]
        # a later block is whole: no row that hankel_rank handed over comes back
        block = hankel_block(f, cut)
        entries = [{block.cols[j]: x for j, x in row.items()} for row in block.matrix]
        coeffs = [{v: f.terms[u + v] for v in suffixes if u + v in f.terms} for u in block.rows]
        assert entries == coeffs
        assert rank == exact_rank(block.matrix, field)
        assert rank == (minor_rank(dense) if dense else 0)
        assert hankel_rank(f, cut) == rank  # the rows eliminate consumed were the block's own
        assert f.terms == before
        dependent += rank < len(prefixes)
    assert dependent > 30  # repeated and cancelling rows occurred


def test_hankel_block_checks_every_term_for_the_degree_of_the_first():
    t = xy()
    for words in ((X0 + X1, X0), (X0, X0 + X1), (X0 + X0, X1 + X1, X0)):
        f = NCPoly(t, dict.fromkeys(words, Fraction(1)))
        for cut in (0, 1, 3):
            with pytest.raises(ValueError, match="homogeneous"):
                hankel_block(f, cut)
    with pytest.raises(ValueError, match="cut 3 outside 0..2"):
        hankel_block(NCPoly(t, {X0 + X1: Fraction(1)}), 3)
    assert hankel_block(NCPoly(t), 5) == (5, (), (), ())


def test_nisan_inequality_on_random_abps():
    for p in corpus.random_abps(seed=77, count=12):
        f = abp_eval(p)
        if not f:
            continue
        for cut in range(p.degree + 1):
            assert hankel_rank(f, cut) <= p.layers[cut]


# -- Hankel rank from span bases ------------------------------------------------


def cancelling_abp(rng, field, n_vars=2):
    """A random homogeneous layered program whose paths often cancel.

    Labels carry signed coefficients; some edges get a parallel twin with
    the negated label or a second, different label; some vertices get no
    outgoing edges, so every path through them is dead.
    """
    t = VarTable([f"x{i}" for i in range(n_vars)], field=field)
    d = rng.randint(1, 5)
    layers = [1] + [rng.randint(1, 4) for _ in range(d - 1)] + [1]
    edges = []
    for gap in range(d):
        gap_edges = []
        for u in range(layers[gap]):
            if gap and rng.random() < 0.1:
                continue  # a vertex that leads nowhere
            for v in range(layers[gap + 1]):
                if rng.random() < 0.3:
                    continue
                coeffs = {
                    vid: field.from_int(rng.choice((-2, -1, 1, 2)))
                    for vid in rng.sample(range(n_vars), rng.randint(1, n_vars))
                }
                cells = [(u, v, c, chr(vid)) for vid, c in coeffs.items() if c != 0]
                gap_edges += cells
                twin = rng.random()
                if twin < 0.1:
                    gap_edges += [(u, v, -c, word) for *_, c, word in cells]
                elif twin < 0.3:
                    vid = rng.randrange(n_vars)
                    gap_edges.append((u, v, field.from_int(rng.choice((-1, 1))), chr(vid)))
        edges.append(gap_edges)
    return Abp(t, layers, edges)


def shuffled_cuts(rng, d):
    """Every cut 0..d in a random order, one of them twice."""
    cuts = [*range(d + 1), rng.randint(0, d)]
    rng.shuffle(cuts)
    return cuts


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "GF2", "GF5"])
def test_span_rank_equals_expanded_rank_on_random_cancelling_abps(field):
    # one call ranks every cut, shuffled and with a repeat, against the
    # expansion's block at each cut on its own
    rng = random.Random(1991)
    below_width = 0
    for _ in range(150):
        p = cancelling_abp(rng, field)
        f = abp_eval(p)
        cuts = shuffled_cuts(rng, p.degree)
        ranks = abp_hankel_rank(p, cuts)
        assert ranks == [hankel_rank(f, cut) for cut in cuts], (format_abp(p), cuts)
        below_width += sum(rank < p.layers[cut] for cut, rank in zip(cuts, ranks))
    assert below_width  # cancellation and dead vertices occurred


FAMILY_GRID = (
    [f"dyck:k={k},d={d}" for k in (1, 2, 3) for d in range(0, 11, 2)]
    + [f"dyckdepth:k={k},n={n}" for n in range(1, 6) for k in range(1, n + 1)]
    + [f"per:n={n}" for n in range(1, 7)]
    + [f"{name}:n={n}" for name in ("prodsums", "powsum", "twochains") for n in range(1, 11)]
)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=["Q", "GF2", "GF5"])
def test_family_abps_compute_the_family_and_its_ranks_at_every_cut(field):
    rng = random.Random(1991)
    for spec in FAMILY_GRID:
        inst = make_family(spec, field)
        p = inst.meta["abp"]()
        assert abp_eval(p) == inst.poly, spec
        cuts = shuffled_cuts(rng, p.degree)
        expected = [hankel_rank(inst.poly, cut) for cut in cuts]
        assert abp_hankel_rank(p, cuts) == expected, (spec, cuts)


def test_permanent_abp_has_binomial_layers():
    for n in range(1, 8):
        p = make_family(f"per:n={n}").meta["abp"]()
        assert p.layers == [comb(n, i) for i in range(n + 1)]


def test_span_rank_refuses_bad_cuts_and_affine_labels():
    p = bounded_depth_dyck_abp(2, 2)
    for cuts, bad in (([-1], -1), ([5], 5), ([0, 4, 7, -1], 7), ([2, -3, 2, 9], -3), ([9, 1], 9)):
        with pytest.raises(ValueError, match=rf"^cut {bad} outside 0\.\.4$"):
            abp_hankel_rank(p, cuts)
    assert abp_hankel_rank(p, []) == []
    t = xy()
    affine = Abp(t, [1, 1], [[(0, 0, 1, X0), (0, 0, 2, "")]])
    assert not affine.is_homogeneous()
    with pytest.raises(ValueError):
        abp_hankel_rank(affine, [0])


# -- bounded-depth Dyck ABP ----------------------------------------------------


def test_empty_word_program():
    p = bounded_depth_dyck_abp(1, 0)
    assert p.layers == [1] and abp_eval(p) == NCPoly.const(p.table, 1)
    assert abp_hankel_rank(p, [0, 0]) == [1, 1]


def test_depth1_length2():
    p = bounded_depth_dyck_abp(1, 1)
    f = abp_eval(p)
    t = p.table
    assert f.terms == {t.word("(1", ")1"): 1, t.word("(2", ")2"): 1}


def test_depth1_length4_excludes_nesting():
    p = bounded_depth_dyck_abp(1, 2)
    f = abp_eval(p)
    t = p.table
    expected = {}
    for a in ("1", "2"):
        for b in ("1", "2"):
            expected[t.word(f"({a}", f"){a}", f"({b}", f"){b}")] = 1
    assert f.terms == expected


def test_full_depth_equals_all_balanced():
    for n in range(1, 5):
        p = bounded_depth_dyck_abp(n, n)
        f = abp_eval(p)
        pairs = dyck_pairs(p.table)

        def brute(n=n, pairs=pairs):
            close_of = {chr(o): chr(c) for o, c in pairs}
            opens = set(close_of)
            letters = [chr(v) for pair in pairs for v in pair]
            out = set()
            for w in product(letters, repeat=2 * n):
                stack = []
                ok = True
                for v in w:
                    if v in opens:
                        stack.append(close_of[v])
                    elif not stack or stack.pop() != v:
                        ok = False
                        break
                if ok and not stack:
                    out.add("".join(w))
            return out

        assert set(f.terms) == brute()
        assert all(c == 1 for c in f.terms.values())


def test_depth_support_matches_filter():
    for k, n in [(1, 3), (2, 3), (2, 4)]:
        f = abp_eval(bounded_depth_dyck_abp(k, n))
        full = abp_eval(bounded_depth_dyck_abp(n, n))
        pairs = dyck_pairs(bounded_depth_dyck_abp(k, n).table)
        opens = {o for o, _ in pairs}

        def depth(w):
            h = best = 0
            for v in map(ord, w):
                h += 1 if v in opens else -1
                best = max(best, h)
            return best

        assert set(f.terms) == {w for w in full.terms if depth(w) <= k}


def test_vertex_budget():
    for k in range(1, 5):
        for n in range(1, 7):
            p = bounded_depth_dyck_abp(min(k, n), n)
            assert p.size <= (2 * n + 1) * 2 ** (min(k, n) + 1)


# -- text format ---------------------------------------------------------------


def test_abp_roundtrip():
    t = xy()
    p = Abp(t, [1, 3, 1], [[(0, 1, 1, X0), (0, 1, 2, X1)], [(1, 0, 1, X0)]])
    text = format_abp(p)
    assert text.splitlines()[0] == "layers 0:1 1:3 2:1"
    assert "# homogeneous" in text
    p2 = parse_abp(text, VarTable(["x0", "x1"]))
    assert abp_eval(p2) == abp_eval(p)


@st.composite
def text_abps(draw):
    field = draw(corpus.text_fields())
    table = draw(corpus.text_tables(field))
    nonzero = corpus.field_scalars(field).filter(lambda c: c != 0)
    letters = st.integers(0, len(table) - 1)
    layers = [1] + draw(st.lists(st.integers(1, 3), max_size=3)) + [1]
    homogeneous = draw(st.booleans())
    edges = []
    for gap in range(len(layers) - 1):
        gap_edges = []
        for _ in range(draw(st.integers(0, 6))):
            u = draw(st.integers(0, layers[gap] - 1))
            v = draw(st.integers(0, layers[gap + 1] - 1))
            word = "" if not homogeneous and draw(st.booleans()) else chr(draw(letters))
            gap_edges.append((u, v, draw(nonzero), word))
        edges.append(gap_edges)
    return Abp(table, layers, edges)


@settings(max_examples=80, deadline=None)
@given(text_abps())
def test_abp_text_roundtrip_over_q_and_gf5(p):
    field = p.table.field
    text = format_abp(p)
    back = parse_abp(text, VarTable(p.table.names, field))
    assert back.layers == p.layers and back.edges == p.edges
    assert format_abp(back) == text
    if field == QQ:
        assert all(type(c) in (int, Fraction) for gap in back.edges for _, _, c, _ in gap)
    # an empty table numbers names by first use, so compare after reading
    # back into the original table
    fresh = format_abp(parse_abp(text, VarTable(field=field)))
    assert parse_abp(fresh, VarTable(p.table.names, field)).edges == p.edges


def test_parse_abp_parses_each_distinct_literal_once(monkeypatch):
    p = bounded_depth_dyck_abp(3, 30)
    text = format_abp(p)
    literals = [
        tok
        for line in text.splitlines()
        if line.startswith("edge")
        for tok in line.split()[4::2]
        if tok != "+"
    ]
    calls = []
    parse = QQ.parse
    monkeypatch.setattr(QQ, "parse", lambda s: calls.append(s) or parse(s))
    back = parse_abp(text, VarTable(p.table.names))
    assert sorted(calls) == sorted(set(literals)) and len(literals) > 100 * len(calls)
    assert back.layers == p.layers and back.edges == p.edges


def test_abp_parse_affine():
    text = "layers 0:1 1:1\nedge 0 0 0 2/1 x0 + 3\n"
    p = parse_abp(text)
    f = abp_eval(p)
    assert f.coeff("") == 3
    assert f.coeff(p.table.word("x0")) == 2


def test_an_edge_line_parses_to_one_cell_per_term_the_constant_last():
    p = parse_abp("layers 0:1 1:1\nedge 0 0 0 2 x 3 y + 5\n")
    x, y = p.table.word("x"), p.table.word("y")
    assert p.edges == [[(0, 0, 2, x), (0, 0, 3, y), (0, 0, 5, "")]]
    text = format_abp(p)
    assert text.splitlines() == ["layers 0:1 1:1", "edge 0 0 0 2 x", "edge 0 0 0 3 y", "edge 0 0 0 + 5"]
    assert parse_abp(text, p.table).edges == p.edges
    # variables in id order, like terms added, whatever the order on the line
    t = VarTable(["x", "y"])
    assert parse_abp("layers 0:1 1:1\nedge 0 0 0 + 5 3 y 1 x 1 x\n", t).edges == p.edges


def test_an_edge_whose_terms_cancel_gives_no_cell():
    t = VarTable(["x", "y"])
    chain = "layers 0:1 1:1 2:1\nedge 0 0 0 1 x\nedge 1 0 0 2 y\n"
    p = parse_abp(chain + "edge 1 0 0 1 x -1 x\n", t)
    assert p.edges == parse_abp(chain, t).edges == [[(0, 0, 1, "\x00")], [(0, 0, 2, "\x01")]]
    assert abp_eval(p) == abp_eval(parse_abp(chain, t)) == NCPoly(t, {t.word("x", "y"): 2})
    lone = parse_abp("layers 0:1 1:1\nedge 0 0 0 1 x -1 x + 0\n", t)
    assert lone.edges == [[]] and not abp_eval(lone)
    with pytest.raises(ValueError, match="out of range"):  # a line without cells still names vertices
        parse_abp("layers 0:1 1:1\nedge 0 5 5 1 x -1 x\n", t)


@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "affine"])
def test_every_corpus_abp_keeps_its_polynomial_through_format_and_parse(homogeneous):
    # the seeds and shapes the suite draws its random programs from
    corpora = [(512, 20, 3, 4), (77, 12, 3, 4), (1337, 100, 2, 3), (18, 12, 2, 4)]
    for seed, count, width, depth in corpora:
        for p in corpus.random_abps(seed, count, max_width=width, max_depth=depth, homogeneous=homogeneous):
            back = parse_abp(format_abp(p), VarTable(p.table.names))
            assert back.edges == p.edges and back.layers == p.layers
            assert abp_eval(back) == abp_eval(p)


def test_bounded_depth_dyck_abp_charges_the_state_budget_for_each_vertex():
    # the budget refuses the first vertex over it, inside a layer, not once
    # the layer is finished
    size = bounded_depth_dyck_abp(2, 6).size
    with using_budget(Budget(states=size)):
        assert bounded_depth_dyck_abp(2, 6).size == size
    for cap in (1, 2, 20, size - 1):
        with using_budget(Budget(states=cap)):
            with pytest.raises(StateBudgetError, match=f"exceeded: {cap + 1} states$"):
                bounded_depth_dyck_abp(2, 6)
