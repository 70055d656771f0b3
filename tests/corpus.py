"""Seeded corpora and fixture reductions shared by the unit and acceptance tests."""

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from ncpoly.abp import Abp
from ncpoly.algebra import VarTable
from ncpoly.automata import SubstAutomaton, automaton_to_substitution
from ncpoly.circuits import Add, Circuit, Const, Input, Mul, is_skew
from ncpoly.families import ChiTable, gen_product_of_sums, gen_two_chains
from ncpoly.fields import QQ, Field, PrimeField
from ncpoly.reductions import AbpReduction, ProjMap, iproj_to_abp, proj_to_iproj


def syntactic_degree(c) -> int:
    """The largest degree of a monomial that c's gates can form, ignoring
    cancellation; -1 when no gate reaching the output is nonzero."""
    degs: list[set] = []
    for g in c.gates:
        if isinstance(g, Input):
            degs.append({1})
        elif isinstance(g, Const):
            degs.append(set() if g.value == 0 else {0})
        elif isinstance(g, Add):
            degs.append(degs[g.left] | degs[g.right])
        else:
            degs.append({a + b for a in degs[g.left] for b in degs[g.right]})
    return max(degs[c.output], default=-1)


# -- fixture reductions ------------------------------------------------------------


def constant_chi(n: int) -> ChiTable:
    """The chi table that maps every permutation of [n] to 1."""
    return ChiTable(n, dict.fromkeys(itertools.permutations(range(1, n + 1)), 1))


def identity_reduction(table: VarTable, d: int, source="", target="") -> AbpReduction:
    """Chain of d+1 states mapping every variable to itself."""
    m = ProjMap(table, table, {v.id: v for v in table.vars()})
    r = iproj_to_abp(proj_to_iproj(m, d), d, source, target)
    r.kind = "identity"
    return r


def two_chains_reduction(n: int, field: Field = QQ) -> AbpReduction:
    """Select the two chain monomials x1..xn and y1..yn out of the product
    of the sums (x_i + y_i): the automaton commits to one chain at the
    first letter, every mixed word hits a dead cell."""
    target = gen_product_of_sums(n, field)
    source = gen_two_chains(n, field)
    a = SubstAutomaton(target.table, source.table)
    a.add_state("s", start=True)
    a.add_state("t", accept=True)
    for prefix in ("x", "y"):
        prev = "s"
        for i in range(1, n + 1):
            vid = target.table.var(f"{prefix}{i}").id
            out = source.table.var(f"{prefix}{i}").id
            state = "t" if i == n else f"{prefix}{i}"
            a.add_transition(prev, vid, state, word=chr(out))
            prev = state
    sub = automaton_to_substitution(a)
    return AbpReduction(sub, source.spec_string, target.spec_string, kind="two-chains")


# -- circuits and programs ------------------------------------------------------------


def _table(n_vars):
    return VarTable([f"x{i}" for i in range(1, n_vars + 1)])


def hand_circuits():
    """Edge-case circuits: leaves, shared gates, cancellation, constants."""
    out = []
    t = _table(3)

    def circ(gates, output=None):
        c = Circuit(t, gates, len(gates) - 1 if output is None else output)
        out.append(c)

    x1, x2, x3 = (Input(t.var(f"x{i}").id) for i in (1, 2, 3))
    circ([x1])  # single input
    circ([Const(Fraction(5))])  # single constant
    circ([Const(Fraction(0))])  # zero circuit
    circ([x1, Add(0, 0)])  # x + x, an addition multiplicity
    circ([x1, x2, Mul(0, 1)])  # ordered product
    circ([x1, x2, Mul(1, 0)])  # mirrored product
    circ([x1, x2, Mul(0, 1), Mul(1, 0), Add(2, 3)])  # x1x2 + x2x1
    circ([x1, Const(Fraction(-1)), Mul(1, 0), Add(0, 2)])  # x - x cancels to zero
    circ([x1, Mul(0, 0), Mul(1, 1)])  # shared square, reused gate
    circ([x1, x2, Mul(0, 1), Add(2, 2)])  # 2*x1x2 via a repeated addend
    circ([x1, Const(Fraction(3)), Mul(0, 1), Const(Fraction(2)), Mul(3, 2)])  # 2*(x1*3)
    circ([Const(Fraction(2)), Const(Fraction(4)), Mul(0, 1)])  # constant product
    circ([x1, Const(Fraction(5, 3)), Mul(1, 0)])  # fractional scalar
    circ([x1, x2, Add(0, 1), x3, Mul(2, 3), Add(0, 1), Mul(4, 5)])  # ((x1+x2)x3)(x1+x2)
    return out


def random_circuit(rng: random.Random, max_gates=8, n_vars=3, max_degree=6):
    t = _table(n_vars)
    gates = []
    degs = []
    n_leaves = rng.randint(1, 3)
    for _ in range(n_leaves):
        if rng.random() < 0.75:
            gates.append(Input(rng.randrange(n_vars)))
            degs.append(1)
        else:
            gates.append(Const(Fraction(rng.choice([-2, -1, 1, 2, 3, 5]))))
            degs.append(0)
    while len(gates) < rng.randint(n_leaves + 1, max_gates):
        l = rng.randrange(len(gates))
        r = rng.randrange(len(gates))
        if rng.random() < 0.5 and degs[l] + degs[r] <= max_degree:
            gates.append(Mul(l, r))
            degs.append(degs[l] + degs[r])
        else:
            gates.append(Add(l, r))
            degs.append(max(degs[l], degs[r]))
    return Circuit(t, gates, len(gates) - 1)


def random_circuits(seed=2024, count=40, **kw):
    rng = random.Random(seed)
    return [random_circuit(rng, **kw) for _ in range(count)]


def hand_skew_circuits():
    out = []
    t = _table(3)

    def circ(gates, output=None):
        c = Circuit(t, gates, len(gates) - 1 if output is None else output)
        is_skew(c)  # raises on a product with two non-leaf children
        out.append(c)

    x1, x2, x3 = (Input(t.var(f"x{i}").id) for i in (1, 2, 3))
    circ([x1])  # no products at all
    circ([Const(Fraction(3))])  # bare constant
    circ([Const(Fraction(0))])  # zero circuit
    circ([x1, x2, x3, Mul(1, 2), Mul(0, 3)])  # left chain x1 (x2 x3)
    circ([x1, x2, x3, Mul(0, 1), Mul(3, 2)])  # right chain (x1 x2) x3
    circ([x1, Const(Fraction(3)), Mul(1, 0)])  # scalar times variable
    circ([x1, x2, Mul(0, 1), Const(Fraction(2)), Mul(3, 2)])  # 2 (x1 x2)
    circ([x1, x2, x3, Mul(1, 2), Mul(0, 3), Mul(3, 0), Add(4, 5)])  # sum of two chains
    circ([x1, Add(0, 0)])  # addition multiplicity, no product
    circ([x1, Const(Fraction(-1)), Mul(1, 0), Add(0, 2)])  # cancels to zero
    circ([x1, x2, Mul(0, 1), Mul(0, 2), Mul(0, 3)])  # nested left padding
    circ([x1, x2, Mul(0, 1), Add(2, 2)])  # doubled product monomial
    circ([Const(Fraction(2)), Const(Fraction(5)), Mul(0, 1)])  # constant times constant
    circ([x1, x2, Mul(0, 1), Mul(2, 0)])  # right-skew atop left-skew
    return out


def random_skew_circuit(rng: random.Random, max_gates=8, n_vars=3, max_degree=5):
    t = _table(n_vars)
    gates = []
    degs = []
    n_leaves = rng.randint(1, 3)
    for _ in range(n_leaves):
        if rng.random() < 0.8:
            gates.append(Input(rng.randrange(n_vars)))
            degs.append(1)
        else:
            gates.append(Const(Fraction(rng.choice([-1, 2, 3]))))
            degs.append(0)
    leaves = list(range(len(gates)))
    while len(gates) < rng.randint(n_leaves + 1, max_gates):
        choice = rng.random()
        if choice < 0.55:
            leaf = rng.choice(leaves)
            other = rng.randrange(len(gates))
            if degs[leaf] + degs[other] > max_degree:
                continue
            if rng.random() < 0.5:
                gates.append(Mul(leaf, other))
            else:
                gates.append(Mul(other, leaf))
            degs.append(degs[leaf] + degs[other])
        else:
            l = rng.randrange(len(gates))
            r = rng.randrange(len(gates))
            gates.append(Add(l, r))
            degs.append(max(degs[l], degs[r]))
    c = Circuit(t, gates, len(gates) - 1)
    is_skew(c)  # raises on a product with two non-leaf children
    return c


def random_skew_circuits(seed=4096, count=25, **kw):
    rng = random.Random(seed)
    return [random_skew_circuit(rng, **kw) for _ in range(count)]


def random_abp(rng: random.Random, max_width=3, max_depth=4, n_vars=3, homogeneous=True):
    t = _table(n_vars)
    d = rng.randint(1, max_depth)
    layers = [1] + [rng.randint(1, max_width) for _ in range(d - 1)] + [1]
    edges = []
    for gap in range(d):
        gap_edges = []
        for u in range(layers[gap]):
            for v in range(layers[gap + 1]):
                if rng.random() < 0.7:
                    coeffs = {}
                    for vid in rng.sample(range(n_vars), rng.randint(1, 2)):
                        coeffs[vid] = Fraction(rng.choice([-2, -1, 1, 2]))
                    gap_edges += [(u, v, c, chr(vid)) for vid, c in sorted(coeffs.items())]
                    if not homogeneous and rng.random() < 0.3:
                        gap_edges.append((u, v, Fraction(rng.choice([-1, 1, 2])), ""))
            if not any(e[0] == u for e in gap_edges):
                vid = rng.randrange(n_vars)
                gap_edges.append((u, rng.randrange(layers[gap + 1]), Fraction(1), chr(vid)))
        edges.append(gap_edges)
    return Abp(t, layers, edges)


def random_abps(seed=512, count=20, **kw):
    rng = random.Random(seed)
    return [random_abp(rng, **kw) for _ in range(count)]


# -- Hypothesis strategies for the text formats --------------------------------

TEXT_NAMES = ("x0", "x1", "y_2", "(1", ")1", "a@3")


def text_fields():
    """Q and GF(5), the fields the text-format properties cover."""
    return st.sampled_from((QQ, PrimeField(5)))


def field_scalars(field):
    """Scalars of ``field``; over Q both integral and non-integral values."""
    if isinstance(field, PrimeField):
        return st.integers(0, field.p - 1).map(field.from_int)
    return st.one_of(
        st.integers(-12, 12),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7)),
    )


@st.composite
def text_tables(draw, field):
    return VarTable(draw(st.lists(st.sampled_from(TEXT_NAMES), min_size=1, unique=True)), field)
