"""Scalar representation: Q scalars are ints while integral, Fractions
otherwise, and never floats or bools; Z_p scalars are ModInts."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpoly.algebra import NCPoly, VarTable, exact_rank, format_poly, hadamard_bruteforce, parse_poly
from ncpoly.automata import MatrixSubstitution
from ncpoly.fields import QQ, FieldError, ModInt, PrimeField, _is_prime
from test_algebra import _sparse, minor_rank


def is_q_scalar(x):
    return type(x) in (int, Fraction)


# -- the field -----------------------------------------------------------------


def test_q_parses_integral_literals_to_ints():
    for text, value in (("3", 3), ("-0", 0), ("6/3", 2), ("2.0", 2), ("1e3", 1000), ("-4/2", -2)):
        x = QQ.parse(text)
        assert type(x) is int and x == value, text
    for text, value in (("1/3", Fraction(1, 3)), ("-2.5", Fraction(-5, 2)), ("1e-2", Fraction(1, 100))):
        x = QQ.parse(text)
        assert type(x) is Fraction and x == value, text
    assert type(QQ.from_int(7)) is int and type(QQ.one) is int and type(QQ.zero) is int


def test_q_inverse_is_exact_and_int_when_integral():
    assert QQ.inv(1) == 1 and type(QQ.inv(1)) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(3) == Fraction(1, 3)
    assert QQ.inv(Fraction(1, 4)) == 4 and type(QQ.inv(Fraction(1, 4))) is int
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(FieldError):
        QQ.inv(0)


def test_decimal_exponents_are_bounded_without_evaluating_them():
    assert QQ.parse("1e4300") == 10**4300
    assert QQ.parse("1E-4300") == Fraction(1, 10**4300)
    assert QQ.parse("2.5e+4_300") == 25 * 10**4299
    for text in ("1e4301", "1e-4301", "1e10000000", "7.5E-10000000", "1e" + "9" * 5000):
        with pytest.raises(FieldError):
            QQ.parse(text)


def test_modint_keeps_its_semantics():
    gf5, gf7 = PrimeField(5), PrimeField(7)
    a, b = gf5.from_int(3), gf5.from_int(4)
    assert a * b == gf5.from_int(2) and a + b == 2 and a - b == 4 and -a == 2
    assert 1 - a == 3 and 2 * a == 1 and a / b == 2 and a / 2 == 4
    assert a == 8 and a != 4 and a == ModInt(3, 5) and a != ModInt(3, 7)
    assert hash(a) == hash(ModInt(3, 5)) and len({a, ModInt(3, 5), b}) == 2
    assert bool(a) and not gf5.from_int(10)
    assert repr(a) == "3 (mod 5)"
    for bad in (lambda: a + gf7.from_int(3), lambda: a * gf7.from_int(3), lambda: a - Fraction(1)):
        with pytest.raises(FieldError):
            bad()
    with pytest.raises(FieldError):
        gf5.from_int(0).inverse()
    with pytest.raises(FieldError):
        a / 5


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 1000003, 2**61 - 1]),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**70), 2**70),
)
def test_modint_arithmetic_matches_int_arithmetic_mod_p(p, x, y):
    a, b = ModInt(x % p, p), ModInt(y % p, p)
    for got, want in ((a + b, x + y), (a - b, x - y), (a * b, x * y), (a + y, x + y),
                      (y + a, x + y), (a - y, x - y), (y - a, y - x), (a * y, x * y)):
        assert type(got) is ModInt and got.modulus == p and got.value == want % p
    assert (a == b) is (x % p == y % p) and (a != b) is (x % p != y % p)
    assert (a == y) is (x % p == y % p)


def test_modint_refuses_mixed_moduli_and_fractions():
    a, b = ModInt(3, 5), ModInt(3, 7)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(FieldError, match="^mixed moduli 5 and 7$"):
            op()
    for op in (lambda: a + Fraction(1, 2), lambda: a - Fraction(1), lambda: a * Fraction(2)):
        with pytest.raises(FieldError, match="^cannot mix ModInt with Fraction$"):
            op()
    assert a != b and b != a and not a == b
    assert a != Fraction(3) and not a == Fraction(3)


# -- ints and Fractions of equal value are one scalar --------------------------


def test_int_and_fraction_coefficients_are_the_same_polynomial():
    t = VarTable(["x0", "x1"])
    w = t.word("x0", "x1")
    a = NCPoly(t, {w: 3, "": -1})
    b = NCPoly(t, {w: Fraction(3), "": Fraction(-1)})
    assert a == b and hash(a) == hash(b)
    assert format_poly(a) == format_poly(b) == "-1 1\n3 x0 x1\n"
    back = parse_poly(format_poly(b), VarTable(["x0", "x1"]))
    assert back == a and all(type(c) is int for c in back.terms.values())


def test_rank_on_int_and_mixed_rows_matches_minor_oracle():
    int_rows = [[2, 4, 6], [1, 3, 0], [3, 7, 6]]  # row 3 = row 1 + row 2
    assert exact_rank(_sparse(int_rows), QQ) == minor_rank(int_rows) == 2
    mixed = [[3, Fraction(1, 2), 0], [Fraction(6), 1, 0], [0, 5, Fraction(2, 3)]]
    assert exact_rank(_sparse(mixed), QQ) == minor_rank(mixed) == 2
    sevens = [[7 * i + j for j in range(4)] for i in range(4)]
    assert exact_rank(_sparse(sevens), QQ) == minor_rank(sevens) == 2


# -- no float reaches a scalar path --------------------------------------------

Q_SCALARS = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def q_polys(draw, table):
    words = st.lists(st.integers(0, len(table) - 1).map(chr), max_size=3).map("".join)
    return NCPoly(table, draw(st.dictionaries(words, Q_SCALARS, max_size=6)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_q_scalars_stay_ints_or_fractions(data):
    t = VarTable(["x0", "x1"])
    f, g = data.draw(q_polys(t)), data.draw(q_polys(t))
    results = [f * g, f + g, g * f - f, hadamard_bruteforce(f, g), f * NCPoly.const(t, data.draw(Q_SCALARS))]
    dim = data.draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    word = st.text("\0\1", max_size=2)
    entries = {
        vid: data.draw(st.dictionaries(cell, st.tuples(Q_SCALARS, word), max_size=5))
        for vid in range(len(t))
    }
    sub = MatrixSubstitution(t, t, dim, entries)
    results.append(sub.evaluate(f * g))
    for p in results:
        assert all(is_q_scalar(c) for c in p.terms.values()), p.terms
    # a row that depends on the others: float rounding would leave a
    # nonzero remainder and over-count the rank
    ncols = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(Q_SCALARS, min_size=ncols, max_size=ncols), min_size=1, max_size=3))
    a, b = data.draw(Q_SCALARS), data.draw(Q_SCALARS)
    rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    assert all(is_q_scalar(x) for row in rows for x in row)
    assert exact_rank(_sparse(rows), QQ) == minor_rank(rows)
    assert exact_rank([dict(enumerate(r)) for r in rows], QQ) == minor_rank(rows)



def test_large_primes_are_recognized_at_once():
    # trial division ran for minutes on 2^61 - 1
    start = time.perf_counter()
    for p in (2**61 - 1, 2**64 - 59, 2**31 - 1):
        assert PrimeField(p).p == p
    assert time.perf_counter() - start < 0.5


def test_strong_pseudoprimes_and_moduli_beyond_two_to_the_64_are_refused():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5 and 7
    for n in (3215031751, 2047, 3825123056546413051, 2**61 - 3, 1, 0, 9):
        with pytest.raises(FieldError, match="not prime"):
            PrimeField(n)
    with pytest.raises(FieldError, match="2\\^64"):
        PrimeField(2**64 + 13)
    assert [n for n in range(60) if _is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
    ]
