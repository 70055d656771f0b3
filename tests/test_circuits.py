from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from ncpoly.algebra import (
    Budget,
    NCPoly,
    TermBudgetError,
    VarTable,
    using_budget,
)
from ncpoly.circuits import (
    Add,
    Circuit,
    CircuitFormatError,
    Const,
    Input,
    Mul,
    expand,
    format_circuit,
    homogenize,
    is_skew,
    parse_circuit,
    to_bracketed,
    to_skew_bracketed,
)
from ncpoly.fields import QQ


def t3():
    return VarTable(["x1", "x2", "x3"])


def recover(br, f, source_table):
    """Apply a transform's recovery map to an expansion of its circuit."""
    return oracles.substitute_letters(f, lambda _pos, vid: br.recovery[vid], source_table)


# -- expand -------------------------------------------------------------


def test_expand_distributes():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Add(0, 1), Input(2), Mul(2, 3)], 4)
    f = expand(c)
    assert f.terms == {t.word("x1", "x3"): 1, t.word("x2", "x3"): 1}


def test_gates_are_equal_only_within_a_kind_and_records_are_immutable():
    # a round trip compares gate lists, so an add must never equal a product
    assert Add(0, 1) == Add(0, 1) and Add(0, 1) != Mul(0, 1) and Input(0) != Const(0)
    assert Mul(0, 1) != Mul(0, 2) and Const(Fraction(1)) != Const(Fraction(2))
    assert repr(Mul(2, 3)) == "Mul(2, 3)"
    assert Budget() == Budget() and hash(Budget()) == hash(Budget())
    assert Budget(terms=5) != Budget(states=5)
    fields = [(Input(0), "var"), (Const(Fraction(1)), "value"), (Add(0, 1), "left")]
    fields += [(Mul(0, 1), "right"), (Budget(), "terms"), (t3().var("x1"), "name")]
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 2)


def test_expand_mul_order():
    t = t3()
    a = expand(Circuit(t, [Input(0), Input(1), Mul(0, 1)], 2))
    b = expand(Circuit(t, [Input(0), Input(1), Mul(1, 0)], 2))
    assert a.terms == {t.word("x1", "x2"): 1}
    assert b.terms == {t.word("x2", "x1"): 1}
    assert a != b


def test_expand_square_matches_poly_mul():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Add(0, 1), Mul(2, 2)], 3)
    s = NCPoly(t, {t.word("x1"): 1, t.word("x2"): 1})
    assert expand(c) == s * s
    assert len(expand(c).terms) == 4


def test_expand_degree_cap_applies_per_gate():
    t = t3()
    # (x1^2) * x2 with cap 2: the inner square survives, the product is cut
    c = Circuit(t, [Input(0), Mul(0, 0), Input(1), Mul(1, 2)], 3)
    assert expand(c, degree_cap=2).degree() == -1
    assert expand(c, degree_cap=3).terms == {t.word("x1", "x1", "x2"): 1}


def test_expand_term_budget():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Add(0, 1), Mul(2, 2), Mul(3, 3)], 4)
    with using_budget(Budget(terms=8)), pytest.raises(TermBudgetError):
        expand(c)


def test_expand_homogeneous_single_length():
    for c in corpus.random_circuits(seed=99, count=15):
        h = homogenize(c)
        assert expand(h) == expand(c)
        for gid in h.reachable():
            g = h.gates[gid]
            if isinstance(g, Mul):
                for child in (g.left, g.right):
                    assert expand(Circuit(h.table, h.gates, child)).is_homogeneous()


# -- skew ---------------------------------------------------------------


def test_is_skew_left():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Input(2), Add(1, 2), Mul(0, 3)], 4)
    assert is_skew(c) == {4: "left"}


def test_is_skew_refusal_names_gate():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Input(2), Add(0, 1), Add(1, 2), Mul(3, 4)], 5)
    with pytest.raises(ValueError, match="gate g5 has two non-leaf children"):
        is_skew(c)


def test_is_skew_chain():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Input(2), Mul(1, 2), Mul(0, 3)], 4)
    assert is_skew(c) == {3: "left", 4: "left"}
    assert expand(c).terms == {t.word("x1", "x2", "x3"): 1}


# -- general bracketing ---------------------------------------------------


def test_to_bracketed_single_input():
    t = t3()
    c = Circuit(t, [Input(0)], 0)
    br = to_bracketed(c)
    f = expand(oracles.bracketed_circuit(c, br))
    assert len(f.terms) == 1
    (word,) = f.terms
    assert br.table.word_names(word) == ("[_x1", "]_x1")
    assert recover(br, f, t).terms == {t.word("x1"): 1}


def test_to_bracketed_const_is_degree_four():
    t = t3()
    c = Circuit(t, [Const(Fraction(5))], 0)
    br = to_bracketed(c)
    f = expand(oracles.bracketed_circuit(c, br))
    (word,) = f.terms
    assert br.table.word_names(word) == ("(_a5", "[_z5", "]_z5", ")_a5")
    assert recover(br, f, t).terms == {"": 5}


def test_to_bracketed_product():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Mul(0, 1)], 2)
    br = to_bracketed(c)
    f = expand(oracles.bracketed_circuit(c, br))
    (word,) = f.terms
    assert br.table.word_names(word) == (
        "(_g2",
        "[_x1",
        "]_x1",
        ")_g2",
        "[_x2",
        "]_x2",
    )
    assert recover(br, f, t).terms == {t.word("x1", "x2"): 1}


def test_bracketed_recovery_and_balance_on_corpus():
    circuits = corpus.hand_circuits() + corpus.random_circuits(seed=7, count=25)
    for c in circuits:
        br = to_bracketed(c)
        f = expand(oracles.bracketed_circuit(c, br))
        assert recover(br, f, c.table) == expand(c)
        # the returned pairs partition the bracketed table
        letters = sorted(v for pair in br.pairs for v in pair)
        assert letters == list(range(len(br.table)))
        for w in f.terms:
            assert oracles.balanced(w, br.pairs)


# -- skew bracketing -------------------------------------------------------


def test_skew_bracketed_identity_circuit():
    t = t3()
    c = Circuit(t, [Input(0)], 0)
    sb = to_skew_bracketed(c)
    f = expand(oracles.skew_bracketed_circuit(c, sb))
    (word,) = f.terms
    assert sb.table.word_names(word) == ("x1_L", "x1_R")
    assert recover(sb, f, t).terms == {t.word("x1"): 1}


def test_skew_bracketed_var_times_gate():
    t = t3()
    c = Circuit(t, [Input(0), Input(1), Mul(0, 1)], 2)
    sb = to_skew_bracketed(c)
    f = expand(oracles.skew_bracketed_circuit(c, sb))
    (word,) = f.terms
    names = sb.table.word_names(word)
    assert names == ("x1_(g2,L)", "x2_L", "x2_R", "x1_(g2,R)")
    assert recover(sb, f, t).terms == {t.word("x1", "x2"): 1}


def test_skew_bracketed_scalar_gate():
    t = t3()
    c = Circuit(t, [Const(Fraction(3)), Input(0), Mul(0, 1)], 2)
    sb = to_skew_bracketed(c)
    f = expand(oracles.skew_bracketed_circuit(c, sb))
    (word,) = f.terms
    names = sb.table.word_names(word)
    assert names == ("a3_(g2,L)", "x1_L", "x1_R", "a3_(g2,R)")
    assert recover(sb, f, t).terms == {t.word("x1"): 3}


def assert_twins_mirror(c):
    """The skew bracketing of c recovers c, and every parse word of it has
    the mate of its i-th letter at its i-th letter from the end."""
    sb = to_skew_bracketed(c)
    f = expand(oracles.skew_bracketed_circuit(c, sb))
    assert recover(sb, f, c.table) == expand(c)
    mate = {}
    for o, cl, *_inner in [*sb.twins.values(), *sb.doubles.values()]:
        mate[o] = cl
        mate[cl] = o
    for w in f.terms:
        n = len(w)
        assert n % 2 == 0
        for i in range(n // 2):
            assert mate[ord(w[i])] == ord(w[n - 1 - i])
    return f


def test_skew_bracketed_requires_skew_but_not_homogeneity():
    t = t3()
    non_skew = Circuit(t, [Input(0), Input(1), Add(0, 1), Add(0, 1), Mul(2, 3)], 4)
    with pytest.raises(ValueError, match="not skew"):
        to_skew_bracketed(non_skew)
    # x1 (x1 + 1): the bare constant of the inner argument puts a twin pair
    # at the center of the parse word of x1
    mixed = Circuit(t, [Input(0), Const(Fraction(1)), Add(0, 1), Mul(0, 2)], 3)
    f = assert_twins_mirror(mixed)
    assert sorted(map(len, f.terms)) == [2, 4]


def test_skew_twin_pairing_on_corpus():
    circuits = corpus.hand_skew_circuits() + corpus.random_skew_circuits(seed=13, count=20)
    for c in circuits:
        assert_twins_mirror(c)


# -- text format ------------------------------------------------------------


def test_circuit_roundtrip():
    text = "g0 input x1\ng1 const 5/3\ng2 add g0 g1\ng3 mul g2 g0\noutput g3\n"
    c = parse_circuit(text)
    assert format_circuit(c) == text
    f = expand(c)
    t = c.table
    assert f.coeff(t.word("x1", "x1")) == 1
    assert f.coeff(t.word("x1")) == Fraction(5, 3)


def test_circuit_parse_rejects_forward_reference():
    with pytest.raises(CircuitFormatError):
        parse_circuit("g0 add g1 g1\ng1 input x\noutput g1\n")


def test_circuit_parse_rejects_bad_fanin():
    with pytest.raises(CircuitFormatError):
        parse_circuit("g0 input x\ng1 add g0\noutput g1\n")
    with pytest.raises(CircuitFormatError):
        parse_circuit("g0 input x\ng1 mul g0 g0 g0\noutput g1\n")


def test_circuit_parse_rejects_sparse_ids():
    with pytest.raises(CircuitFormatError):
        parse_circuit("g0 input x\ng2 add g0 g0\noutput g2\n")


def test_format_roundtrip_on_random():
    # the reparsed table numbers variables by first occurrence, so compare by name
    for c in corpus.random_circuits(seed=31, count=10):
        c2 = parse_circuit(format_circuit(c))
        f, f2 = expand(c), expand(c2)
        assert {c2.table.word_names(w): v for w, v in f2.terms.items()} == {
            c.table.word_names(w): v for w, v in f.terms.items()
        }


@st.composite
def text_circuits(draw):
    field = draw(corpus.text_fields())
    table = draw(corpus.text_tables(field))
    gates = []
    for gid in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("input", "const", "add", "mul") if gid else ("input", "const")))
        if kind == "input":
            gates.append(Input(draw(st.integers(0, len(table) - 1))))
        elif kind == "const":
            gates.append(Const(draw(corpus.field_scalars(field))))
        else:
            left, right = draw(st.integers(0, gid - 1)), draw(st.integers(0, gid - 1))
            gates.append(Add(left, right) if kind == "add" else Mul(left, right))
    return Circuit(table, gates, draw(st.integers(0, len(gates) - 1)))


@settings(max_examples=80, deadline=None)
@given(text_circuits())
def test_circuit_text_roundtrip_over_q_and_gf5(c):
    field = c.table.field
    text = format_circuit(c)
    back = parse_circuit(text, VarTable(c.table.names, field))
    assert back.gates == c.gates and back.output == c.output
    assert format_circuit(back) == text
    if field == QQ:
        assert all(type(g.value) in (int, Fraction) for g in back.gates if isinstance(g, Const))
    # parsed into an empty table the ids follow first use, and the text is unchanged
    assert format_circuit(parse_circuit(text, VarTable(field=field))) == text
