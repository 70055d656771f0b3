import math
from fractions import Fraction
from itertools import product

import pytest

import corpus
import oracles
from ncpoly.algebra import NCPoly, VarTable
from ncpoly.families import (
    ChiTable,
    FamilyInstance,
    _balanced_words,
    commutative_version,
    gen_dyck,
    gen_dyck_depth,
    gen_hierarchy,
    gen_id,
    gen_id_prime,
    gen_id_star,
    gen_pal,
    gen_pal_sq,
    gen_per,
    gen_per_chi,
    gen_per_star,
    gen_per_star_chi,
    gen_power_of_sum,
    gen_product_of_sums,
    gen_two_chains,
    make_family,
    parse_family_spec,
    tag_positions,
    tagged_table,
)
from ncpoly.fields import QQ


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# -- Dyck ---------------------------------------------------------------------


def test_dyck_two_pairs_degree_two():
    inst = gen_dyck(2, 2)
    t = inst.table
    assert inst.poly.terms == {t.word("(1", ")1"): 1, t.word("(2", ")2"): 1}


def test_dyck_one_pair_degree_four():
    inst = gen_dyck(1, 4)
    t = inst.table
    assert set(inst.poly.terms) == {
        t.word("(1", "(1", ")1", ")1"),
        t.word("(1", ")1", "(1", ")1"),
    }


def test_dyck_counts_and_brute_force():
    for k in (1, 2, 3):
        for n in range(1, 7):
            inst = gen_dyck(k, 2 * n)
            assert len(inst.poly.terms) == catalan(n) * k**n
            if (2 * k) ** (2 * n) <= 50000:
                letters = [chr(v) for pair in inst.meta["pairs"] for v in pair]
                brute = {
                    w
                    for w in map("".join, product(letters, repeat=2 * n))
                    if oracles.balanced(w, inst.meta["pairs"])
                }
                assert set(inst.poly.terms) == brute


def test_balanced_words_match_a_brute_force_filter():
    # an oracle independent of the first-return recurrence, which the
    # enumerator shares with the inside sum: every string over the 2k
    # letters that opens with an opener and ends with a closer (no other
    # string can balance), kept when the stack walk of nesting_depth
    # accepts it
    for k in (1, 2, 3):
        pairs = [(2 * i, 2 * i + 1) for i in range(k)]
        letters = range(2 * k)
        openers, closers = zip(*pairs)
        for length in range(0, 11 if k < 3 else 9):
            shape = [letters] * length
            if length > 1:
                shape = [openers, *shape[2:], closers]
            depths = {}
            for w in map("".join, product(*([chr(v) for v in s] for s in shape))):
                depth = oracles.nesting_depth(w, pairs)
                if depth is not None:
                    depths[w] = depth
            for cap in (None, 0, 1, 2, 3, 4):
                words = _balanced_words(pairs, length, cap)
                assert len(words) == len(set(words)), (k, length, cap)
                expected = {w for w, d in depths.items() if cap is None or d <= cap}
                assert set(words) == expected, (k, length, cap)
            if length % 2 == 0:
                assert len(depths) == k ** (length // 2) * catalan(length // 2)


def test_dyck_rejects_odd_degree():
    with pytest.raises(ValueError):
        gen_dyck(2, 3)


# -- palindromes and repeated words -----------------------------------------


def test_pal_1():
    inst = gen_pal(1)
    t = inst.table
    assert inst.poly.terms == {t.word("x0", "x0"): 1, t.word("x1", "x1"): 1}


def test_id_1_equals_pal_1_but_diverges_at_2():
    assert gen_id(1).poly == gen_pal(1).poly
    assert gen_id(2).poly != gen_pal(2).poly


def test_pal_mirror_invariant():
    for n in (1, 2, 3):
        for w in gen_pal(n).poly.terms:
            for i in range(n):
                assert w[i] == w[2 * n - 1 - i]


def test_id_repeat_invariant():
    for n in (1, 2, 3):
        for w in gen_id(n).poly.terms:
            for i in range(n):
                assert w[i] == w[n + i]


def test_pal_wide_alphabet():
    inst = gen_pal(2, k=3)
    assert len(inst.poly.terms) == 9
    assert inst.spec_string == "pal:n=2,k=3"


def test_palsq_is_product():
    inst = gen_pal_sq(2)
    p = gen_pal(2).poly
    assert inst.poly == p * p
    assert len(inst.poly.terms) == 16


def test_id_prime_2():
    inst = gen_id_prime(2)
    t = inst.table
    assert len(inst.poly.terms) == 4
    expected = set()
    for b1 in (0, 1):
        for b2 in (0, 1):
            w = t.word(f"x{b1}_1", f"x{b2}_2")
            expected.add(w + w)
    assert set(inst.poly.terms) == expected


# -- permanent-style families -------------------------------------------------


def test_per_2():
    inst = gen_per(2)
    t = inst.table
    assert inst.poly.terms == {
        t.word("x1_1", "x2_2"): 1,
        t.word("x1_2", "x2_1"): 1,
    }


def test_per_counts_and_chi():
    for n in (2, 3):
        inst = gen_per(n)
        assert len(inst.poly.terms) == math.factorial(n)
        assert all(c == 1 for c in inst.poly.terms.values())
    chi = ChiTable(2, {(1, 2): Fraction(2), (2, 1): Fraction(3)})
    f = gen_per_chi(2, chi).poly
    t = gen_per_chi(2, chi).table
    assert f.coeff(t.word("x1_1", "x2_2")) == 2
    assert f.coeff(t.word("x1_2", "x2_1")) == 3


def test_per_star_repeats_n_times():
    inst = gen_per_star(2)
    for w in inst.poly.terms:
        assert len(w) == 4
        assert w[:2] == w[2:]
    assert gen_per_star_chi(2, corpus.constant_chi(2)).poly == inst.poly


def test_id_star_2():
    inst = gen_id_star(2)
    assert len(inst.poly.terms) == 4  # 2^2 index words
    for w in inst.poly.terms:
        assert len(w) == 8  # degree-2 word repeated n^2 = 4 times
        assert w == w[:2] * 4


def test_chi_validation():
    with pytest.raises(ValueError, match="misses"):
        ChiTable(2, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError, match="zero"):
        ChiTable(2, {(1, 2): Fraction(0), (2, 1): Fraction(1)})
    with pytest.raises(ValueError, match="non-permutation keys"):
        ChiTable(2, {(1, 2): Fraction(1), (2, 1): Fraction(1), (1, 1): Fraction(1)})


def test_an_instance_caches_its_realized_poly():
    poly = NCPoly(VarTable(["x"]), {"\x00": Fraction(2)})
    given = FamilyInstance.from_poly("poly", poly, k=1)
    assert given._poly is poly and given.poly is poly
    assert given.spec_string == "poly:k=1" and given.meta == {}
    lazy = make_family("dyck:k=1,d=4")
    assert lazy._poly is None
    assert lazy.poly is lazy._poly is lazy.poly


def test_chi_parse_roundtrip():
    text = "2 1 -> 3/2\n1 2 -> 1\n"
    chi = ChiTable.parse(text, 2)
    assert chi.values[(2, 1)] == Fraction(3, 2)
    assert ChiTable.parse(corpus.format_chi(chi), 2).values == chi.values


# -- hierarchy ---------------------------------------------------------------


def test_hierarchy_base_case():
    assert gen_hierarchy(1, 2).poly == gen_id(2).poly


def test_hierarchy_level_two():
    inst = gen_hierarchy(2, 1)
    assert len(inst.poly.terms) == 4  # 2 balanced words times 2 repeated words
    assert all(len(w) == 4 for w in inst.poly.terms)


def test_hierarchy_term_counts():
    # support sizes multiply: no cancellation between disjoint factor copies
    for i in (2, 3, 4):
        inst = gen_hierarchy(i, 1)
        assert len(inst.poly.terms) == 4 ** (i - 1)
    for i in (2, 3):
        inst = gen_hierarchy(i, 2)
        assert len(inst.poly.terms) == (catalan(2) * 4 * 4) ** (i - 1)


# -- separation witnesses ------------------------------------------------------


def test_product_of_sums_and_chains():
    for n in (1, 3, 6):
        assert len(gen_product_of_sums(n).poly.terms) == 2**n
        assert len(gen_two_chains(n).poly.terms) == 2
    assert len(gen_power_of_sum(4).poly.terms) == 16


# -- nesting depth -------------------------------------------------------------


def test_nesting_depth_examples():
    inst = gen_dyck(2, 2)
    t = inst.table
    pairs = inst.meta["pairs"]
    nesting_depth = oracles.nesting_depth
    assert nesting_depth(t.word("(1", ")1"), pairs) == 1
    assert nesting_depth(t.word("(1", "(1", ")1", ")1"), pairs) == 2
    assert nesting_depth(t.word("(1", ")1", "(1", ")1"), pairs) == 1
    assert nesting_depth(t.word("(1", "(2", ")2", ")1", "(1", ")1"), pairs) == 2
    assert nesting_depth(t.word("(1", ")2"), pairs) is None
    assert nesting_depth(t.word("(1", "(1", ")1"), pairs) is None


def test_dyck_depth_filter():
    inst = gen_dyck_depth(1, 2)
    assert len(inst.poly.terms) == 4
    full = gen_dyck(2, 4)
    pairs = full.meta["pairs"]
    assert set(inst.poly.terms) == {
        w for w in full.poly.terms if oracles.nesting_depth(w, pairs) <= 1
    }


def test_dyck_depth_saturates():
    for n in range(1, 7):
        assert gen_dyck_depth(n, n).poly == gen_dyck(2, 2 * n).poly


# -- commutative version --------------------------------------------------------


def test_commutative_version_single_word():
    t = VarTable(["x0", "x1"])
    f = NCPoly(t, {t.word("x0", "x0"): Fraction(1)})
    c = commutative_version(f)
    assert c.table.word_names((next(iter(c.terms)))) == ("x0@1", "x0@2")


def test_commutative_version_preserves_term_count():
    for inst in (gen_id_prime(2), gen_pal(2), gen_dyck(2, 4)):
        c = commutative_version(inst.poly)
        assert len(c.terms) == len(inst.poly.terms)


def test_commutative_version_rejects_inhomogeneous():
    t = VarTable(["x0"])
    f = NCPoly(t, {t.word("x0"): Fraction(1), "": Fraction(1)})
    with pytest.raises(ValueError):
        commutative_version(f)


def sort_set_multilinear(f: NCPoly) -> NCPoly:
    """Rewrite each word of a tagged polynomial in increasing position order."""
    pos = {chr(vid): tag for vid, tag in tag_positions(f.table).items()}
    terms = {}
    for w, c in f.terms.items():
        word = "".join(sorted(w, key=lambda v: pos[v][1]))
        terms[word] = terms.get(word, f.table.field.zero) + c
    return NCPoly(f.table, terms)


def test_id_prime_commutative_factorization():
    # the tagged version of the position-indexed repeated words multiplies out
    # as a product of quadratic factors, one per index i
    n = 2
    inst = gen_id_prime(n)
    tagged = commutative_version(inst.poly)
    table = tagged.table

    def var(b, i, pos):
        return NCPoly.monomial(table, table.word(f"x{b}_{i}@{pos}"))

    product_form = NCPoly.const(table, Fraction(1))
    for i in range(1, n + 1):
        factor = var(0, i, i) * var(0, i, n + i) + var(1, i, i) * var(1, i, n + i)
        product_form = product_form * factor
    assert sort_set_multilinear(product_form) == tagged


def test_tag_positions():
    t = tagged_table(VarTable(["a", "b"]), 2)
    pos = tag_positions(t)
    assert pos[t.var("a@2").id] == ("a", 2)


# -- family specs ----------------------------------------------------------------


def test_parse_family_spec():
    assert parse_family_spec("dyck:k=2,d=6") == ("dyck", {"k": "2", "d": "6"})
    assert parse_family_spec("per:n=3") == ("per", {"n": "3"})


def test_make_family_all_kinds():
    cases = {
        "dyck:k=2,d=4": 8,
        "pal:n=2": 4,
        "palsq:n=1": 4,
        "id:n=2": 4,
        "idprime:n=2": 4,
        "idstar:n=2": 4,
        "per:n=3": 6,
        "perstar:n=2": 2,
        "hier:i=2,n=1": 4,
        "dyckdepth:k=1,n=2": 4,
        "prodsums:n=3": 8,
        "twochains:n=5": 2,
        "powsum:n=3": 8,
    }
    for spec, count in cases.items():
        inst = make_family(spec, QQ)
        assert len(inst.poly.terms) == count, spec


def test_make_family_chi(tmp_path):
    chi_file = tmp_path / "chi.txt"
    chi_file.write_text("1 2 -> 2\n2 1 -> 3\n")
    inst = make_family(f"perstarchi:n=2,chi={chi_file}", QQ)
    t = inst.table
    assert inst.poly.coeff(t.word("x1_1", "x2_2", "x1_1", "x2_2")) == 2


def test_make_family_unknown():
    with pytest.raises(ValueError, match="unknown family"):
        make_family("nope:n=1", QQ)
