import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from ncpoly import algebra
from ncpoly.algebra import (
    _NAME_BREAK,
    MAX_VAR_ID,
    NCPoly,
    TableMismatchError,
    VarNameError,
    VarTable,
    exact_rank,
    format_poly,
    hadamard_bruteforce,
    parse_poly,
)
from ncpoly.cli import main
from ncpoly.fields import QQ, FieldError, PrimeField


def xy_table():
    return VarTable(["x0", "x1"])


def pal1(table):
    # x0 x0 + x1 x1, the degree-2 palindrome generator written out by hand
    return NCPoly(table, {table.word("x0", "x0"): Fraction(1), table.word("x1", "x1"): Fraction(1)})


# -- addition ---------------------------------------------------------------


def test_add_disjoint_terms():
    t = xy_table()
    a = NCPoly.monomial(t, t.word("x0"))
    b = NCPoly.monomial(t, t.word("x1"))
    s = a + b
    assert s.terms == {t.word("x0"): 1, t.word("x1"): 1}


def test_add_cancellation_gives_zero():
    t = xy_table()
    a = NCPoly.monomial(t, t.word("x0"))
    s = a + NCPoly.monomial(t, t.word("x0"), Fraction(-1))
    assert not s
    assert s.degree() == -1


def test_add_doubles_pal1():
    t = xy_table()
    s = pal1(t) + pal1(t)
    assert s.terms == {t.word("x0", "x0"): 2, t.word("x1", "x1"): 2}


def test_add_table_mismatch():
    with pytest.raises(TableMismatchError):
        NCPoly.monomial(xy_table(), "\0") + NCPoly.monomial(VarTable(["y"]), "\0")


# -- multiplication ---------------------------------------------------------


def test_mul_preserves_order():
    t = xy_table()
    a = NCPoly.monomial(t, t.word("x0"))
    b = NCPoly.monomial(t, t.word("x1"))
    assert (a * b).terms == {t.word("x0", "x1"): 1}
    assert (b * a).terms == {t.word("x1", "x0"): 1}
    assert a * b != b * a


def test_mul_full_expansion():
    t = xy_table()
    s = NCPoly(t, {t.word("x0"): 1, t.word("x1"): 1})
    sq = s * s
    assert len(sq.terms) == 4
    for u in ("x0", "x1"):
        for v in ("x0", "x1"):
            assert sq.coeff(t.word(u, v)) == 1


def test_mul_pal1_squared():
    # brute-force concatenation of the two term sets
    t = xy_table()
    p = pal1(t)
    sq = p * p
    expected = {}
    for u in p.terms:
        for v in p.terms:
            expected[u + v] = 1
    assert sq.terms == expected
    assert len(sq.terms) == 4
    assert all(len(w) == 4 for w in sq.terms)


# -- Hadamard ---------------------------------------------------------------


def test_hadamard_single_word():
    t = xy_table()
    w = t.word("x0", "x1")
    a = NCPoly(t, {w: Fraction(2)})
    b = NCPoly(t, {w: Fraction(3)})
    assert hadamard_bruteforce(a, b).terms == {w: 6}


def test_hadamard_all_words_identity():
    t = xy_table()
    rng = random.Random(7)
    terms = {}
    for w in map("".join, product("\0\1", repeat=3)):
        c = rng.randint(-3, 3)
        if c:
            terms[w] = Fraction(c)
    a = NCPoly(t, terms)
    allwords = NCPoly(t, {"".join(w): Fraction(1) for w in product("\0\1", repeat=3)})
    assert hadamard_bruteforce(a, allwords) == a


def test_hadamard_intersects_supports():
    t = xy_table()
    s = NCPoly(t, {t.word("x0"): 1, t.word("x1"): 1})
    a = s * s
    b = NCPoly.monomial(t, t.word("x0", "x1"))
    assert hadamard_bruteforce(a, b).terms == {t.word("x0", "x1"): 1}


def test_hadamard_properties_on_01_polys():
    t = xy_table()
    rng = random.Random(11)
    polys = []
    for _ in range(4):
        terms = {"".join(w): Fraction(1) for w in product("\0\1", repeat=3) if rng.random() < 0.5}
        polys.append(NCPoly(t, terms))
    for a, b in combinations(polys, 2):
        assert hadamard_bruteforce(a, b) == hadamard_bruteforce(b, a)
        assert hadamard_bruteforce(a, a) == a  # idempotent on 0/1 coefficients
    a, b, c = polys[:3]
    assert hadamard_bruteforce(hadamard_bruteforce(a, b), c) == hadamard_bruteforce(
        a, hadamard_bruteforce(b, c)
    )


# -- ring laws --------------------------------------------------------------


@st.composite
def small_polys(draw):
    terms = draw(
        st.dictionaries(
            st.text("\0\1", max_size=3),
            st.integers(-4, 4).map(Fraction),
            max_size=5,
        )
    )
    return terms


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(ta, tb, tc):
    t = xy_table()
    a, b, c = NCPoly(t, ta), NCPoly(t, tb), NCPoly(t, tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a


def test_support_of_product_is_concatenation_without_cancellation():
    t = xy_table()
    rng = random.Random(3)
    for _ in range(10):
        a = NCPoly(
            t, {"".join(w): Fraction(rng.randint(1, 3)) for w in product("\0\1", repeat=2) if rng.random() < 0.7}
        )
        b = NCPoly(
            t, {"".join(w): Fraction(rng.randint(1, 3)) for w in product("\0\1", repeat=2) if rng.random() < 0.7}
        )
        prod = a * b
        concat = {u + v for u in a.terms for v in b.terms}
        assert set(prod.terms) == concat  # all-positive coefficients: no cancellation


# -- substitution helper ----------------------------------------------------


def test_substitute_letters_scalars_and_vars():
    t = VarTable(["a", "b"])
    out = VarTable(["x"])
    f = NCPoly(t, {t.word("a", "b"): Fraction(1), t.word("b", "b"): Fraction(2)})
    images = {t.var("a").id: out.var("x"), t.var("b").id: Fraction(3)}
    g = oracles.substitute_letters(f, lambda _pos, vid: images[vid], out)
    assert g.terms == {out.word("x"): 3, "": 18}


# -- exact rank -------------------------------------------------------------


def minor_rank(rows):
    """Independent oracle: largest k with a nonzero k x k minor."""

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = Fraction(0) if isinstance(sub[0][0], Fraction) else sub[0][0] * 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            term = sub[0][j] * det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[r][c] for c in ci] for r in ri]
                if det(sub) != 0:
                    return k
    return 0


def test_rank_identity4():
    rows = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert exact_rank(_sparse(rows), QQ) == 4


def test_rank_all_ones():
    rows = [[Fraction(1)] * 3 for _ in range(3)]
    assert exact_rank(_sparse(rows), QQ) == 1


def test_rank_pal2_middle_hankel_block():
    # the 4x4 block of the degree-4 palindrome generator at the middle cut is
    # the permutation matrix u -> reverse(u)
    words = list(map("".join, product("\0\1", repeat=2)))
    rows = [[Fraction(int(v == u[::-1])) for v in words] for u in words]
    assert exact_rank(_sparse(rows), QQ) == 4


def test_rank_matches_minor_oracle():
    rng = random.Random(5)
    for _ in range(25):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(nrows)]
        assert exact_rank(_sparse(rows), QQ) == minor_rank(rows)


def _sparse(rows):
    return [{j: x for j, x in enumerate(r) if x != 0} for r in rows]


def test_rank_sparse_rows_match_minor_oracle():
    # rows with repeated and all-zero rows mixed in, over Q and GF(5), with
    # their zeros stored and dropped
    rng = random.Random(7)
    gf5 = PrimeField(5)
    for field, scalar in ((QQ, Fraction), (gf5, gf5.from_int)):
        for _ in range(25):
            ncols = rng.randint(1, 5)
            rows = [[scalar(rng.randint(-2, 2)) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
            rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 2))]
            rows.insert(rng.randint(0, len(rows)), [scalar(0)] * ncols)
            rng.shuffle(rows)
            expected = minor_rank(rows)
            assert exact_rank([dict(enumerate(r)) for r in rows], field) == expected
            assert exact_rank(_sparse(rows), field) == expected


def test_rank_sparse_rows_edge_cases():
    # explicit zeros in rows are ignored
    rows = [{0: Fraction(1), 1: Fraction(0)}, {1: Fraction(0), 0: Fraction(2)}, {3: Fraction(0)}]
    assert exact_rank(rows, QQ) == minor_rank([[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]]) == 1
    # equal rows with keys inserted in another order are duplicates
    a = {2: Fraction(1), 0: Fraction(3)}
    b = {0: Fraction(3), 2: Fraction(1)}
    assert exact_rank([a, b, {1: Fraction(1)}], QQ) == 2
    assert exact_rank([], QQ) == 0
    assert exact_rank([{}, {}], QQ) == 0


def test_rank_prime_field():
    f = PrimeField(5)
    rows = [[f.from_int(2), f.from_int(4)], [f.from_int(1), f.from_int(2)]]
    assert exact_rank(_sparse(rows), f) == 1
    rows = [[f.from_int(2), f.from_int(4)], [f.from_int(1), f.from_int(3)]]
    assert exact_rank(_sparse(rows), f) == 2


def test_rank_inverts_only_leads_that_are_not_one():
    class CountingQ(type(QQ)):
        calls = 0

        def inv(self, x):
            CountingQ.calls += 1
            return super().inv(x)

    field = CountingQ()
    assert exact_rank([{0: 1, 2: 3}, {1: 1}, {0: 1, 1: 1, 2: 3}], field) == 2
    assert CountingQ.calls == 0
    assert exact_rank([{0: 2, 1: 1}, {0: 1}], field) == 2
    assert CountingQ.calls == 2  # leads 2 and then -1/2


# -- prime field scalars ----------------------------------------------------


def test_prime_field_arithmetic():
    f = PrimeField(7)
    a = f.parse("3/2")
    assert a == f.from_int(5)  # 3 * inverse(2) = 3*4 = 12 = 5 mod 7
    with pytest.raises(FieldError):
        f.from_int(0).inverse()
    with pytest.raises(FieldError):
        PrimeField(10)


def test_prime_field_polys():
    t = VarTable(["x0", "x1"], field=PrimeField(5))
    a = NCPoly(t, {t.word("x0"): t.field.from_int(3)})
    b = NCPoly(t, {t.word("x0"): t.field.from_int(2)})
    assert not a + b  # 3 + 2 = 0 mod 5
    assert (a * b).terms == {t.word("x0", "x0"): t.field.from_int(1)}


# -- text format ------------------------------------------------------------


def test_format_lexicographic_and_roundtrip():
    t = xy_table()
    f = NCPoly(
        t,
        {
            t.word("x1"): Fraction(1, 2),
            t.word("x0", "x1"): Fraction(-2),
            "": Fraction(3),
        },
    )
    text = format_poly(f)
    assert text.splitlines() == ["3 1", "-2 x0 x1", "1/2 x1"]
    back = parse_poly(text, xy_table())
    assert back.terms == f.terms


def test_parse_skips_comments_and_blanks():
    t = VarTable()
    f = parse_poly("# header\n\n2 a b  # trailing\n-1 a b\n", t)
    assert f.terms == {t.word("a", "b"): 1}


def test_format_empty_poly():
    assert format_poly(NCPoly.zero(xy_table())) == ""


# -- text format properties -------------------------------------------------

NAME_POOL = corpus.TEXT_NAMES
TEXT_FIELDS = (QQ, PrimeField(2), PrimeField(5), PrimeField(1000003))


@st.composite
def literals(draw, field):
    """(text, value) of a coefficient literal, the value computed without
    the field's parser."""
    num = draw(st.integers(-40, 40))
    den = draw(st.integers(1, 12))
    if isinstance(field, PrimeField):
        if den % field.p == 0:
            den = 1
        value = field.from_int(num * pow(den, -1, field.p))
    else:
        value = Fraction(num, den)
    text = str(num) if den == 1 and draw(st.booleans()) else f"{num}/{den}"
    return text, value


def first_seen_names(text):
    seen = []
    for line in text.splitlines():
        names = line.split()[1:]
        if names != ["1"]:
            seen.extend(n for n in names if n not in seen)
    return seen


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_format_parse_roundtrip(data):
    field = data.draw(st.sampled_from(TEXT_FIELDS))
    t = VarTable(NAME_POOL, field)
    words = st.lists(st.integers(0, len(NAME_POOL) - 1).map(chr), max_size=4).map("".join)
    scalars = literals(field).map(lambda pair: pair[1])
    f = NCPoly(t, data.draw(st.dictionaries(words, scalars, max_size=8)))
    text = format_poly(f)
    back = parse_poly(text, VarTable(NAME_POOL, field))
    assert back == f
    assert format_poly(back) == text
    # parsed into an empty table, names are numbered in first-seen order
    fresh = VarTable(field=field)
    g = parse_poly(text, fresh)
    assert list(fresh.names) == first_seen_names(text)
    assert {fresh.word_names(w): c for w, c in g.terms.items()} == {
        t.word_names(w): c for w, c in f.terms.items()
    }


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_parse_merges_repeated_words_and_drops_cancelled_ones(data):
    field = data.draw(st.sampled_from(TEXT_FIELDS))
    known = data.draw(st.lists(st.sampled_from(NAME_POOL), unique=True, max_size=3))
    table = VarTable(known, field)
    terms = data.draw(
        st.lists(
            st.tuples(literals(field), st.lists(st.sampled_from(NAME_POOL), max_size=3)),
            max_size=10,
        )
    )
    lines, expected, seen = [], {}, list(known)
    for (literal, value), names in terms:
        copies = [(literal, value)]
        if data.draw(st.booleans()):  # the same word again, negated
            copies.append(("-" + literal if literal[0] != "-" else literal[1:], -value))
        for literal, value in copies:
            if names:
                word_text = " ".join(names)
            else:
                word_text = data.draw(st.sampled_from(["1", ""]))
            lines.append(f"{literal} {word_text}" + data.draw(st.sampled_from(["", "  # z9"])))
            lines.append(data.draw(st.sampled_from(["", "# z9 q8", "   "])))
            key = tuple(names)
            expected[key] = expected.get(key, 0) + value
            seen.extend(n for n in names if n not in seen)
    f = parse_poly("\n".join(lines), table)
    assert {table.word_names(w): c for w, c in f.terms.items()} == {
        k: v for k, v in expected.items() if v != 0
    }
    assert list(table.names) == seen


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_parse_rejects_a_bad_coefficient_literal(data):
    field = data.draw(st.sampled_from(TEXT_FIELDS))
    p = field.p if isinstance(field, PrimeField) else 0
    bad = data.draw(st.sampled_from(["x", "1/0", f"2/{p}", "1/", "/2", "--1", "1//2", "0x1"]))
    good = data.draw(st.lists(literals(field).map(lambda pair: pair[0]), max_size=4))
    lines = [f"{lit} x0" for lit in good]
    lines.insert(data.draw(st.integers(0, len(lines))), f"{bad} x1")
    with pytest.raises(FieldError, match="literal"):
        parse_poly("\n".join(lines), VarTable(field=field))


# -- variable names ------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["1", "0", "-3", "+2", "3/4", "2/3", "3/-4", "1.5", ".5", "1.", "1e3", "1e5", "2E-1", "1_000", "\u0661"],
)
def test_var_table_rejects_scalar_literals(name):
    # `1` as a name wrote its one-letter word as the constant term's line
    for field in (QQ, PrimeField(5)):
        with pytest.raises(VarNameError, match="bad variable name"):
            VarTable(["x", name], field)
        with pytest.raises(VarNameError):
            parse_poly(f"2 x {name}\n", VarTable(field=field))


def test_var_table_accepts_names_that_only_start_like_scalars():
    names = ["1x", "e5", "inf", "nan", "-", ".", "1/", "/2", "1/2/3", "(1", ")1", "x1", "x_1", "t12", "é"]
    t = VarTable(names)
    assert t.names == tuple(names)
    for bad in ("", "a b", "a#b", "a\tb", "a\u00a0b", "a\u2028b", "a\x1cb"):
        with pytest.raises(VarNameError):
            t.add(bad)


def test_the_name_check_matches_hash_and_exactly_the_isspace_characters():
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    matched = [ch for ch in chars if _NAME_BREAK.search(ch)]
    assert matched == [ch for ch in chars if ch == "#" or ch.isspace()]


NAME_TEXT = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["1", "-3", "3/4", "1e3", "1x", "e5", "#", "a b", "", "x", "1/2/3"]),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_accepted_name_roundtrips_through_the_text_format(data):
    field = data.draw(st.sampled_from(TEXT_FIELDS))
    table = VarTable(field=field)
    for name in data.draw(st.lists(NAME_TEXT, max_size=6, unique=True)):
        try:
            table.add(name)
        except VarNameError:
            pass
    n = len(table)
    words = st.lists(st.integers(0, n - 1).map(chr), max_size=3).map("".join) if n else st.just("")
    scalars = literals(field).map(lambda pair: pair[1])
    f = NCPoly(table, data.draw(st.dictionaries(words, scalars, max_size=6)))
    text = format_poly(f)
    assert parse_poly(text, VarTable(table.names, field)) == f
    fresh = VarTable(field=field)
    g = parse_poly(text, fresh)
    assert {fresh.word_names(w): c for w, c in g.terms.items()} == {
        table.word_names(w): c for w, c in f.terms.items()
    }


# -- words as strings of code points ---------------------------------------------

# ids where a code point changes its encoding width or class, with their
# neighbours: ASCII, Latin-1, the surrogates, the last BMP code point and the
# first astral one; the last code point is added where no table is needed
EDGE_IDS = [0, 1, 0x7F, 0x80, 0xFF, 0x100, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000,
            0xFFFF, 0x10000]
EDGE_IDS_TOP = EDGE_IDS + [MAX_VAR_ID - 1, MAX_VAR_ID]


def id_words(ids):
    """Lists of id sequences over ids, with a prefix of every other one, so
    that some words are prefixes of others."""
    seqs = st.lists(st.lists(st.sampled_from(ids), max_size=6).map(tuple), min_size=1, max_size=12)
    return seqs.map(lambda ws: ws + [w[:k] for w in ws[::2] for k in range(len(w))])


@settings(max_examples=200, deadline=None)
@given(id_words(EDGE_IDS_TOP))
def test_str_words_sort_as_their_id_tuples(seqs):
    def spelt(ids):
        return "".join(map(chr, ids))

    assert sorted(map(spelt, seqs)) == [spelt(w) for w in sorted(seqs)]
    for w in seqs:
        assert [ord(ch) for ch in spelt(w)] == list(w)


@pytest.fixture(scope="module")
def edge_table():
    """A table that holds every id of EDGE_IDS: 65,537 names."""
    return VarTable(f"v{i}" for i in range(EDGE_IDS[-1] + 1))


def reference_format(terms: dict, table: VarTable) -> str:
    """The text format from {tuple of ids: coefficient}, sorted as tuples."""
    fmt = table.field.format
    lines = []
    for ids in sorted(terms):
        spelt = " ".join(table.name(v) for v in ids) if ids else "1"
        lines.append(f"{fmt(terms[ids])} {spelt}")
    return "".join(line + "\n" for line in lines)


@settings(max_examples=60, deadline=None)
@given(id_words(EDGE_IDS), st.lists(st.integers(-9, 9).filter(bool), min_size=1))
def test_format_poly_matches_a_tuple_formatter_and_parses_back(edge_table, seqs, coeffs):
    terms = {w: Fraction(coeffs[i % len(coeffs)], 1 + i % 3) for i, w in enumerate(seqs)}
    f = NCPoly(edge_table, {"".join(map(chr, w)): c for w, c in terms.items()})
    text = format_poly(f)
    assert text == reference_format(terms, edge_table)
    assert parse_poly(text, edge_table) == f


def test_var_table_refuses_an_id_past_the_last_code_point(monkeypatch, capsys):
    # every id is the code point of a character, and there are none past 0x10FFFF
    assert MAX_VAR_ID == 0x10FFFF
    chr(MAX_VAR_ID)
    with pytest.raises(ValueError):
        chr(MAX_VAR_ID + 1)
    # the check itself, at a bound small enough to reach
    monkeypatch.setattr(algebra, "MAX_VAR_ID", 2)
    t = VarTable(["a", "b", "c"])
    with pytest.raises(VarNameError, match="past the limit of 3 variables"):
        t.add("d")
    assert t.names == ("a", "b", "c")
    assert main(["family", "pal:n=1,k=4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: variable 'x3'")
    assert main(["family", "pal:n=1,k=3"]) == 0


# Every line separator that str.splitlines knows
SEPARATORS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
LINE_BODIES = (
    "2 x y", "-2 x y", "3/2 y x", "-1 zz", "1 1", "-1/3 1", "4 x y  # trailing",
    "# a comment", "#", "", "   ", "7 zz x zz", "-7 zz x zz",
)
lines_of = st.lists(st.tuples(st.sampled_from(LINE_BODIES), st.sampled_from(SEPARATORS)),
                    min_size=1, max_size=10)


@settings(max_examples=30, deadline=None)
@given(lines_of, lines_of, st.integers(-4, 4), st.sampled_from(LINE_BODIES))
def test_parse_poly_reads_by_blocks_the_lines_of_splitlines(filler, edge, shift, last):
    # filler lines up to a point `shift` characters from the block size, then
    # separators and lines drawn to fall on and around the first cut, then
    # more filler, so the text spans several blocks; the last line may have
    # no separator
    unit = "".join(body + sep for body, sep in filler)
    at = algebra._PARSE_BLOCK + shift
    head = unit * ((at - 1) // len(unit))
    head += "#" + "c" * (at - len(head) - 1)
    middle = "".join(sep + body for body, sep in edge) + "\n"
    text = head + middle + unit * (algebra._PARSE_BLOCK // len(unit) + 1) + last
    assert len(text) > 2 * algebra._PARSE_BLOCK
    assert list(algebra._text_lines(text)) == text.splitlines()
    # with their separators, as parse_reduction reads them to find offsets
    assert list(algebra._text_lines(text, keepends=True)) == text.splitlines(keepends=True)
    assert parse_poly(text, VarTable()) == oracles.parse_poly_lines(text, VarTable())
