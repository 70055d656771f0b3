import itertools
import random
from fractions import Fraction

import pytest

import corpus
import oracles
from ncpoly.abp import abp_eval, bounded_depth_dyck_abp
from ncpoly.algebra import (
    Budget,
    NCPoly,
    StateBudgetError,
    TableMismatchError,
    TermBudgetError,
    Var,
    VarTable,
    using_budget,
)
from ncpoly.automata import MatrixSubstitution, SubstAutomaton, automaton_to_substitution
from ncpoly.circuits import expand, format_circuit, parse_circuit
from ncpoly.families import (
    ChiTable,
    FamilyInstance,
    commutative_version,
    gen_dyck,
    gen_dyck_depth,
    gen_hierarchy,
    gen_id_prime,
    gen_pal,
    gen_per,
    gen_per_chi,
    gen_per_star,
    gen_per_star_chi,
    gen_power_of_sum,
    gen_product_of_sums,
    make_family,
)
from ncpoly.fields import PrimeField, QQ
from ncpoly.reductions import (
    AbpReduction,
    IProjMap,
    ProjMap,
    apply_abp_reduction,
    apply_to_instance,
    compose_abp,
    dk_encode_word,
    dk_to_d2_reduction,
    dyck_completeness_reduction,
    dyck_depth_reduction,
    format_reduction,
    hierarchy_iproj,
    iproj_to_abp,
    pal_to_d2_reduction,
    pal_vsk_reduction,
    palsq_to_d2_reduction,
    parse_reduction,
    per_to_idstar_reduction,
    per_to_perstar_chi_reduction,
    proj_to_iproj,
    set_multilinear_rank1_split,
    transfer,
    vbp_trivial_reduction,
    verify_reduction,
)


def instance_of(circuit):
    return FamilyInstance.from_poly("circuit", expand(circuit))


def per_to_perstar_iproj(n):
    """Identity on the first block of the repeated permanent, ones after."""
    per, perstar = gen_per(n), gen_per_star(n)
    mapping = {}
    for pos in range(1, n * n + 1):
        for v in perstar.table.vars():
            if pos <= n:
                mapping[(pos, v.id)] = Var(per.table.var(v.name).id, v.name)
            else:
                mapping[(pos, v.id)] = Fraction(1)
    return IProjMap(perstar.table, per.table, mapping), per, perstar


def powsum_iproj(n):
    """Positionwise renaming of (z0+z1)^n onto the product of the sums."""
    pows, prods = gen_power_of_sum(n), gen_product_of_sums(n)
    mapping = {}
    for pos in range(1, n + 1):
        mapping[(pos, pows.table.var("z0").id)] = Var(
            prods.table.var(f"x{pos}").id, f"x{pos}"
        )
        mapping[(pos, pows.table.var("z1").id)] = Var(
            prods.table.var(f"y{pos}").id, f"y{pos}"
        )
    return IProjMap(pows.table, prods.table, mapping), prods, pows


# -- projections ------------------------------------------------------------


def test_identity_projection():
    inst = gen_pal(2)
    m = ProjMap(inst.table, inst.table, {v.id: v for v in inst.table.vars()})
    assert oracles.apply_proj(m, inst.poly) == inst.poly


def test_per_to_perstar_indexed_projection():
    m, per, perstar = per_to_perstar_iproj(2)
    assert oracles.apply_iproj(m, perstar.poly) == per.poly


def test_powsum_indexed_projection():
    m, prods, pows = powsum_iproj(3)
    assert oracles.apply_iproj(m, pows.poly) == prods.poly


def test_apply_proj_requires_totality():
    t = VarTable(["a", "b"])
    f = NCPoly(t, {t.word("a", "b"): Fraction(1)})
    m = ProjMap(t, t, {t.var("a").id: t.var("a")})
    with pytest.raises(KeyError):
        oracles.apply_proj(m, f)


def test_apply_iproj_error_names_the_position():
    t = VarTable(["a", "b"])
    f = NCPoly(t, {t.word("a", "b"): Fraction(1)})
    m = IProjMap(t, t, {(1, t.var("a").id): t.var("a")})
    with pytest.raises(KeyError, match="'b' at position 2"):
        oracles.apply_iproj(m, f)


def test_monotonicity_of_term_counts():
    rng = random.Random(20)
    inst = gen_product_of_sums(4)
    vars_ = list(inst.table.vars())
    for _ in range(20):
        mapping = {}
        for v in vars_:
            roll = rng.random()
            if roll < 0.5:
                mapping[v.id] = rng.choice(vars_)
            elif roll < 0.8:
                mapping[v.id] = Fraction(rng.randint(1, 3))
            else:
                mapping[v.id] = Fraction(0)
        m = ProjMap(inst.table, inst.table, mapping)
        image = oracles.apply_proj(m, inst.poly)
        assert len(image.terms) <= len(inst.poly.terms)
        assert len(oracles.var_ids(image)) <= len(oracles.var_ids(inst.poly))
        im = proj_to_iproj(m, inst.poly.degree())
        image2 = oracles.apply_iproj(im, inst.poly)
        assert image2 == image


# -- conversions --------------------------------------------------------------


def test_identity_chain_reduction():
    inst = gen_pal(1)
    r = corpus.identity_reduction(inst.table, 2)
    assert apply_abp_reduction(r, inst.poly) == inst.poly


def test_powsum_chain_matches_iproj():
    m, prods, pows = powsum_iproj(2)
    r = iproj_to_abp(m, 2)
    assert apply_abp_reduction(r, pows.poly) == prods.poly


def test_scalar_only_map_counts_terms():
    inst = gen_dyck(2, 4)
    mapping = {}
    out = VarTable(field=QQ)
    for pos in range(1, 5):
        for v in inst.table.vars():
            mapping[(pos, v.id)] = Fraction(1)
    m = IProjMap(inst.table, out, mapping)
    r = iproj_to_abp(m, 4)
    result = apply_abp_reduction(r, inst.poly)
    assert result.terms == {"": 8}


def test_three_way_agreement_on_random_maps():
    rng = random.Random(64)
    for _ in range(25):
        n_vars = rng.randint(2, 3)
        d = rng.randint(1, 4)
        table = VarTable([f"a{i}" for i in range(n_vars)])
        out = VarTable([f"b{i}" for i in range(n_vars)])
        # random homogeneous target of degree d
        words = set()
        for _ in range(rng.randint(1, 12)):
            words.add("".join(chr(rng.randrange(n_vars)) for _ in range(d)))
        g = NCPoly(table, {w: Fraction(rng.randint(1, 4)) for w in words})
        mapping = {}
        for v in table.vars():
            roll = rng.random()
            if roll < 0.6:
                mapping[v.id] = Var(rng.randrange(n_vars), out.name(0))
                mapping[v.id] = Var(mapping[v.id].id, out.name(mapping[v.id].id))
            elif roll < 0.85:
                mapping[v.id] = Fraction(rng.randint(1, 3))
            else:
                mapping[v.id] = Fraction(0)
        pm = ProjMap(table, out, mapping)
        im = proj_to_iproj(pm, d)
        r = iproj_to_abp(im, d)
        a = oracles.apply_proj(pm, g)
        b = oracles.apply_iproj(im, g)
        c = apply_abp_reduction(r, g)
        assert a == b == c


# -- matrix application --------------------------------------------------------


def test_two_chains_dfa():
    r = corpus.two_chains_reduction(3)
    src, tgt = make_family(r.source), make_family(r.target)
    assert r.dim == 6
    assert verify_reduction(r, src, tgt).passed
    assert apply_abp_reduction(r, tgt.poly) == src.poly


def test_zero_matrices_annihilate():
    inst = gen_pal(1)
    from ncpoly.reductions.base import AbpReduction

    sub = MatrixSubstitution(inst.table, inst.table, 3, {})
    r = AbpReduction(sub, "zero", "pal:n=1")
    assert not apply_abp_reduction(r, inst.poly)


def test_pathsum_matches_termwise_on_dyck_and_pal():
    # dual route: the joint walk over the structured support must agree with
    # brute-force expansion plus termwise application
    r = pal_to_d2_reduction(2)
    tgt = make_family(r.target)
    assert apply_to_instance(r, tgt) == apply_abp_reduction(r, tgt.poly)
    r2 = pal_vsk_reduction(corpus.hand_skew_circuits()[3])
    tgt2 = make_family(r2.target)
    assert apply_to_instance(r2, tgt2) == apply_abp_reduction(r2, tgt2.poly)
    r3 = dk_to_d2_reduction(3, 2)
    tgt3 = make_family(r3.target)
    assert apply_to_instance(r3, tgt3) == apply_abp_reduction(r3, tgt3.poly)
    r4 = dyck_depth_reduction(1, 2, 3)
    tgt4 = make_family(r4.target)
    assert apply_to_instance(r4, tgt4) == apply_abp_reduction(r4, tgt4.poly)


def test_pathsum_matches_termwise_on_medium_circuit_target():
    # same dual route on a 33614-word balanced target for a circuit reduction:
    # x1 x2 + 5 has five bracket pairs and parse words of length 6 and 4, so
    # its target is dyck:k=7,d=8 and the padding loop is used
    from ncpoly.circuits import Add, Circuit, Const, Input, Mul

    t = VarTable(["x1", "x2"])
    c = Circuit(t, [Input(0), Input(1), Mul(0, 1), Const(Fraction(5)), Add(2, 3)], 4)
    r = dyck_completeness_reduction(c)
    assert r.target == "dyck:k=7,d=8"
    tgt = make_family(r.target)
    assert len(tgt.poly.terms) == 33614
    assert apply_to_instance(r, tgt) == apply_abp_reduction(r, tgt.poly)


def walk_states(sub, states, word):
    """The states reached from a set of states by reading word, a sequence
    of variable ids, through nonzero cells."""
    for v in word:
        rows = sub.rows(v)
        states = {k for s in states for k, _, _ in rows.get(s, ())}
    return states


def live_target(r, target):
    """The target realized on its live words only: the words of the target's
    shape that have a nonzero-cell path from the start to the accept state.
    Every other target word maps to zero, so the termwise route on this
    instance must agree with the inside sum on the full target.  Words are
    enumerated one by one with the set of reachable states, not by paths."""
    sub = r.substitution
    accept = sub.dim - 1
    words = []
    if target.name == "pal":
        half = target.params["n"]

        def grow(prefix, states):
            if not states:
                return
            if len(prefix) == half:
                if accept in walk_states(sub, states, reversed(prefix)):
                    words.append("".join(map(chr, prefix + prefix[::-1])))
                return
            for v in target.meta["letters"]:
                grow(prefix + [v], walk_states(sub, states, (v,)))

        grow([], {0})
    else:
        length = target.params["d"] if target.name == "dyck" else 2 * target.params["n"]
        cap = target.meta.get("depth")

        def grow(prefix, stack, states):
            if not states:
                return
            if len(prefix) == length:
                if accept in states:
                    words.append("".join(map(chr, prefix)))
                return
            room = length - len(prefix) - 1
            if len(stack) + 1 <= room and (cap is None or len(stack) < cap):
                for o, c in target.meta["pairs"]:
                    grow(prefix + [o], stack + [c], walk_states(sub, states, (o,)))
            if stack:
                grow(prefix + [stack[-1]], stack[:-1], walk_states(sub, states, stack[-1:]))

        grow([], [], {0})
    poly = NCPoly(target.table, {w: target.table.field.one for w in words})
    return FamilyInstance(target.name, target.params, target.table, dict(target.meta), _poly=poly)


def assert_inside_matches_termwise(r, source_poly):
    target = make_family(r.target, r.substitution.input_table.field)
    live = live_target(r, target)
    inside = apply_to_instance(r, target)
    assert inside == apply_abp_reduction(r, live.poly)
    assert inside == source_poly
    return live


def circuit_from(text, field=QQ):
    return parse_circuit(text, VarTable(field=field))


AFFINE = "g0 input x\ng1 const 2\ng2 const 3\ng3 mul g2 g0\ng4 add g1 g3\n"


def test_live_target_agrees_with_the_full_target():
    # the restricted oracle drops only words that map to zero
    for r in (pal_to_d2_reduction(3), dyck_depth_reduction(1, 2, 4), dk_to_d2_reduction(3, 2)):
        target = make_family(r.target)
        live = live_target(r, target)
        assert 0 < len(live.poly.terms) <= len(target.poly.terms)
        assert apply_abp_reduction(r, live.poly) == apply_abp_reduction(r, target.poly)


@pytest.mark.parametrize("right", [False, True])
def test_inside_matches_termwise_on_affine_chains(right):
    # (2 + 3x)^4 as a left or right chain: many parse trees per monomial
    lines = AFFINE
    cur = 4
    for _ in range(3):
        gid = cur + 1
        lines += f"g{gid} mul g4 g{cur}\n" if right else f"g{gid} mul g{cur} g4\n"
        cur = gid
    c = circuit_from(lines + f"output g{cur}\n")
    r = dyck_completeness_reduction(c)
    live = assert_inside_matches_termwise(r, expand(c))
    assert len(expand(c).terms) == 5
    assert len(live.poly.terms) > 5


def test_inside_matches_termwise_on_repeated_squaring():
    c = circuit_from("g0 input x\ng1 const 2\ng2 add g1 g0\ng3 mul g2 g2\ng4 mul g3 g3\noutput g4\n")
    assert_inside_matches_termwise(dyck_completeness_reduction(c), expand(c))


def test_inside_matches_termwise_on_skew_chain():
    # p <- p + x*p six times from p = 3, reduced to a palindrome target
    lines = "g0 const 3\ng1 input x\n"
    cur = 0
    for gid in range(2, 14, 2):
        lines += f"g{gid} mul g1 g{cur}\ng{gid + 1} add g{cur} g{gid}\n"
        cur = gid + 1
    c = circuit_from(lines + f"output g{cur}\n")
    r = pal_vsk_reduction(c)
    assert make_family(r.target).name == "pal"
    assert_inside_matches_termwise(r, expand(c))
    assert len(expand(c).terms) == 7


@pytest.mark.parametrize("k2", [1, 2, 3])
def test_inside_matches_termwise_on_depth_caps(k2):
    # the identity chain does not bound nesting, so only the target's cap
    # keeps deeper words out
    target = gen_dyck_depth(k2, 5)
    r = corpus.identity_reduction(target.table, 10, target="dyckdepth")
    inside = apply_to_instance(r, target)
    assert inside == apply_abp_reduction(r, target.poly) == target.poly
    for k1 in range(1, k2 + 1):
        r = dyck_depth_reduction(k1, k2, 5)
        target = make_family(r.target)
        assert target.meta["depth"] == k2
        inside = apply_to_instance(r, target)
        assert inside == apply_abp_reduction(r, target.poly)
        assert inside == gen_dyck_depth(k1, 5).poly


def test_inside_matches_termwise_over_prime_field():
    # (1 + x)^3 over GF(3) is 1 + x^3: the middle binomials vanish mod 3
    f3 = PrimeField(3)
    c = circuit_from(
        "g0 input x\ng1 const 1\ng2 add g1 g0\ng3 mul g2 g2\ng4 mul g3 g2\noutput g4\n", f3
    )
    source = expand(c)
    assert len(source.terms) == 2
    assert_inside_matches_termwise(dyck_completeness_reduction(c), source)
    r = pal_to_d2_reduction(3, PrimeField(5))
    assert_inside_matches_termwise(r, gen_pal(3, 2, PrimeField(5)).poly)


def test_inside_drops_cancelled_terms():
    # (1 + x)(1 - x) = 1 - x^2: the x terms cancel inside the memo
    c = circuit_from(
        "g0 input x\ng1 const 1\ng2 add g1 g0\ng3 const -1\ng4 mul g3 g0\n"
        "g5 add g1 g4\ng6 mul g2 g5\noutput g6\n"
    )
    r = dyck_completeness_reduction(c)
    assert_inside_matches_termwise(r, expand(c))
    applied = apply_to_instance(r, make_family(r.target))
    x = c.table.var("x").id
    assert chr(x) not in applied.terms
    assert applied.terms == {"": 1, chr(x) * 2: -1}


def random_matrices(rng, table, dim, out, coeffs, density, states=None):
    """Random sparse cells {var id: {(row, col): (coefficient, word)}}
    between the given states (all by default), with integer coefficients
    drawn from coeffs and output words of at most one letter."""
    states = range(dim) if states is None else states
    entries = {}
    for v in table.vars():
        cells = {}
        for r in states:
            for c in states:
                if rng.random() < density:
                    word = "".join(chr(rng.choice(range(len(out)))) for _ in range(rng.randint(0, 1)))
                    cells[(r, c)] = (rng.choice(coeffs), word)
        entries[v.id] = cells
    return entries


def as_reduction(target, out, dim, entries):
    field = target.table.field
    entries = {
        v: {rc: (field.from_int(c), w) for rc, (c, w) in cells.items()}
        for v, cells in entries.items()
    }
    sub = MatrixSubstitution(target.table, out, dim, entries)
    return AbpReduction(sub, "random", target.spec_string)


def streamed_families(field):
    """One small member of every family that streams its terms."""
    weights = [field.from_int(k) for k in (1, 2, -1, 4, 1, 2)]
    chi = {n: ChiTable(n, dict(zip(itertools.permutations(range(1, n + 1)), weights))) for n in (2, 3)}
    return [
        make_family("id:n=3", field),
        make_family("idprime:n=2", field),
        make_family("idstar:n=2", field),
        make_family("prodsums:n=3", field),
        make_family("powsum:n=4", field),
        make_family("per:n=3", field),
        gen_per_chi(3, chi[3], field),
        make_family("perstar:n=2", field),
        gen_per_star_chi(2, chi[2], field),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
def test_streamed_targets_match_the_termwise_apply_of_their_realization(field):
    # apply_to_instance walks the stream and never realizes the target; the
    # oracle realizes a fresh instance and applies it termwise
    rng = random.Random(20)
    out = VarTable(["y0", "y1"], field=field)
    live = 0
    for fresh, target in zip(streamed_families(field), streamed_families(field)):
        assert list(target.stream()) == sorted(fresh.poly.terms.items()), target.name
        for _ in range(8):
            entries = random_matrices(rng, target.table, 3, out, [1, 1, -1, 2], 0.4)
            r = as_reduction(target, out, 3, entries)
            streamed = apply_to_instance(r, target)
            assert target._poly is None, target.name
            assert streamed == apply_abp_reduction(r, fresh.poly), target.name
            live += bool(streamed)
    assert live >= 30


@pytest.mark.parametrize("cap", [1, 2])
def test_inside_matches_termwise_on_depth_caps_through_random_matrices(cap):
    # random 4-state matrices read nesting in no particular way, so only the
    # depth budget in the memo keys keeps the deeper words out
    rng = random.Random(70 + cap)
    out = VarTable(["y0", "y1"])
    live = differ = 0
    for _ in range(8):
        target = gen_dyck_depth(cap, 4)
        entries = random_matrices(rng, target.table, 4, out, [1, 2, -1, 3], 0.35)
        r = as_reduction(target, out, 4, entries)
        inside = apply_to_instance(r, target)
        assert inside == apply_abp_reduction(r, target.poly)
        uncapped = gen_dyck(2, 8)
        live += bool(inside)
        differ += inside != apply_to_instance(as_reduction(uncapped, out, 4, entries), uncapped)
    assert live >= 6 and differ >= 4


def test_inside_matches_termwise_when_dead_keys_hold_nonzero_polynomials():
    # state 1 is a sink: every letter loops on it with coefficient 2 and
    # output y0, and nothing leaves it, so every key (1, m) holds a nonzero
    # polynomial at end state 1 that no accepting derivation reads
    rng = random.Random(83)
    out = VarTable(["y0", "y1"])
    live = 0
    for k, d in ((1, 8), (2, 6), (2, 8)):
        target = gen_dyck(k, d)
        for _ in range(4):
            entries = random_matrices(rng, target.table, 4, out, [1, 2, -1], 0.5, (0, 2, 3))
            for v in target.table.vars():
                entries[v.id][(1, 1)] = (2, "\0")
                for r in (0, 2):
                    if rng.random() < 0.5:
                        entries[v.id][(r, 1)] = (1, "")
            r = as_reduction(target, out, 4, entries)
            inside = apply_to_instance(r, target)
            assert inside == apply_abp_reduction(r, target.poly)
            live += bool(inside)
    assert live >= 9


@pytest.mark.parametrize("p", [2, 3])
def test_inside_matches_termwise_when_terms_cancel_over_prime_fields(p):
    # one output letter and many merging paths: coefficients that add up to
    # a multiple of p cancel inside the memo over GF(p) but not over Q
    rng = random.Random(90 + p)
    out_q, out_p = VarTable(["y"]), VarTable(["y"], PrimeField(p))
    cancelled = 0
    for k, d in ((1, 6), (2, 6)):
        for _ in range(5):
            target_q, target_p = gen_dyck(k, d), gen_dyck(k, d, PrimeField(p))
            entries = random_matrices(rng, target_q.table, 3, out_q, [1, 2, 4, 5], 0.5)
            r_p = as_reduction(target_p, out_p, 3, entries)
            inside = apply_to_instance(r_p, target_p)
            assert inside == apply_abp_reduction(r_p, target_p.poly)
            over_q = apply_to_instance(as_reduction(target_q, out_q, 3, entries), target_q)
            assert {w: c % p for w, c in over_q.terms.items() if c % p} == {
                w: c.value for w, c in inside.terms.items()
            }
            cancelled += any(c % p == 0 for c in over_q.terms.values())
    assert cancelled >= 4


def test_inside_matches_termwise_on_loops_and_the_empty_target():
    # q0 -(-> q1 -)-> q2 (accept) -(-> q1 accepts ()^n for n >= 1: the
    # structured route must agree with the termwise one on every target,
    # the empty one included, which it sends to 0.  One state that starts
    # and accepts, reading each letter as itself, compiles to a 1 x 1
    # substitution that keeps every target, the empty word too.
    from ncpoly.automata import SubstAutomaton, automaton_to_substitution

    t = gen_dyck(1, 0).table
    o, c = gen_dyck(1, 0).meta["pairs"][0]
    a = SubstAutomaton(t, t)
    a.add_state("q0", start=True)
    a.add_state("q2", accept=True)
    a.add_transition("q0", o, "q1", word=chr(o))
    a.add_transition("q1", c, "q2", word=chr(c))
    a.add_transition("q2", o, "q1", word=chr(o))
    one = SubstAutomaton(t, t)
    one.add_state("q", start=True, accept=True)
    one.add_transition("q", o, "q", word=chr(o))
    one.add_transition("q", c, "q", word=chr(c))
    r = AbpReduction(automaton_to_substitution(a), "loop", "dyck")
    r1 = AbpReduction(automaton_to_substitution(one), "identity", "dyck")
    for d in (0, 2, 4, 6):
        target = gen_dyck(1, d)
        inside = apply_to_instance(r, target)
        assert inside == apply_abp_reduction(r, target.poly)
        assert inside.terms == ({(chr(o) + chr(c)) * (d // 2): 1} if d else {})
        assert apply_to_instance(r1, target) == apply_abp_reduction(r1, target.poly) == target.poly


def test_inside_sum_is_iterative_on_long_targets():
    # one state and the scalar 1 on every letter: the image of dyck:k=1,d=2m
    # counts the balanced words, Catalan(m) mod p, and pal:n=m,k=1 has one word;
    # targets of length 2m = 1040 are deeper than the default recursion limit
    from math import comb

    m, p = 520, 1000003
    for target in (gen_dyck(1, 2 * m, PrimeField(p)), gen_pal(m, 1, PrimeField(p))):
        one = target.table.field.one
        entries = {v.id: {(0, 0): (one, "")} for v in target.table.vars()}
        sub = MatrixSubstitution(target.table, VarTable(), 1, entries)
        r = AbpReduction(sub, "count", target.spec_string)
        got = apply_to_instance(r, target)
        count = comb(2 * m, m) // (m + 1) if target.name == "dyck" else 1
        assert got.terms == {"": one * (count % p)}


def test_inside_sum_respects_the_term_budget():
    r = pal_to_d2_reduction(40)
    target = make_family(r.target)
    with using_budget(Budget(terms=1000)), pytest.raises(TermBudgetError):
        apply_to_instance(r, target)
    small = pal_to_d2_reduction(5)
    with using_budget(Budget(terms=32)):
        assert len(apply_to_instance(small, make_family(small.target)).terms) == 32


def test_inside_sum_refuses_inside_the_left_times_tail_product():
    # one state, each letter copied to its own output letter: under depth
    # cap 1 every key is (o c) times a tail, so the 2^(n-1) terms of the
    # root's tail fit the budget and its product with the two (o c) does not
    n = 6
    target = gen_dyck_depth(1, n)
    one = target.table.field.one
    out = VarTable([f"y{v.id}" for v in target.table.vars()])
    entries = {v.id: {(0, 0): (one, chr(v.id))} for v in target.table.vars()}
    r = AbpReduction(MatrixSubstitution(target.table, out, 1, entries), "copy", target.spec_string)
    assert len(apply_to_instance(r, target).terms) == 2**n
    with using_budget(Budget(terms=2**n - 1)), pytest.raises(TermBudgetError) as refused:
        apply_to_instance(r, target)
    names = [entry.name for entry in refused.traceback]
    assert names[-3:] == ["_add_product", "_prune_or_raise", "check_terms"]


def test_inside_sum_prunes_cancelled_terms_before_the_term_budget():
    # states 0 -> 1: a word's paths jump once, with sign +1 on an opener and
    # -1 on a closer, so every balanced word's image cancels to zero.  The
    # largest nonzero sums, such as the tail (1, n-1), hold Catalan(n-1)
    # terms, while the root gathers all Catalan(n) words before they cancel:
    # the apply fits the budget only because the zeros are pruned
    from math import comb

    n = 5
    target = gen_dyck(1, 2 * n)
    [(o, c)] = target.meta["grammar"][0]
    out = VarTable(["y0", "y1"])
    cells = {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    entries = {
        o: {rc: (s, "\0") for rc, s in cells.items()},
        c: {rc: (-s if rc == (0, 1) else s, "\1") for rc, s in cells.items()},
    }
    r = as_reduction(target, out, 2, entries)
    assert not apply_abp_reduction(r, target.poly)
    largest = comb(2 * n - 2, n - 1) // n  # Catalan(n-1)
    with using_budget(Budget(terms=largest)):
        assert not apply_to_instance(r, target)
    with using_budget(Budget(terms=largest - 1)), pytest.raises(TermBudgetError):
        apply_to_instance(r, target)


def grammar_words(pairs, half, with_tail, cap):
    """Every word of one grammar shape, enumerated letter by letter: the
    balanced words of length 2*half with nesting at most cap, or the
    palindromes x_1..x_half x_half..x_1."""
    if not with_tail:
        return [w + w[::-1] for w in itertools.product([o for o, _ in pairs], repeat=half)]
    words = []

    def grow(prefix, stack):
        if len(prefix) == 2 * half:
            words.append(tuple(prefix))
            return
        if len(stack) + 1 <= 2 * half - len(prefix) - 1 and (cap is None or len(stack) < cap):
            for o, c in pairs:
                grow(prefix + [o], stack + [c])
        if stack:
            grow(prefix + [stack[-1]], stack[:-1])

    grow([], [])
    return words


@pytest.mark.parametrize("cap", [None, 1, 2])
def test_boolean_pass_matches_brute_force_enumeration(cap):
    # random 6-state matrices: states 0, 1, 2 and 5 are wired at random,
    # state 3 is a sink that every letter loops on, and state 4 has edges
    # out but none in, so the start never reaches it
    from ncpoly.reductions.base import _nonempty_facts, _opener_cells

    rng = random.Random(40 + (cap or 0))
    out = VarTable(["y0"])
    targets = [gen_dyck(2, 8)] if cap is None else [gen_dyck_depth(cap, 4)]
    if cap is None:
        targets.append(gen_pal(4, 2))
    seen_sink = pruned_unreachable = 0
    for target in targets:
        pairs, half, with_tail, depth_cap = target.meta["grammar"]
        assert depth_cap == cap
        letters = sorted({v for pair in pairs for v in pair})
        for _ in range(6):
            entries = random_matrices(rng, target.table, 6, out, [1], 0.3, (0, 1, 2, 5))
            for v in letters:
                entries[v][(3, 3)] = (1, "")
                for r in (0, 1, 2, 5):
                    if rng.random() < 0.2:
                        entries[v][(r, 3)] = (1, "")
                for c in (0, 1, 2, 4, 5):
                    if rng.random() < 0.4:
                        entries[v][(4, c)] = (1, "")
            sub = as_reduction(target, out, 6, entries).substitution
            opens = _opener_cells(sub, pairs)
            ends, found = _nonempty_facts(sub, pairs, opens, half, with_tail, cap)

            def brute(i, m, b):
                ends_at = set()
                for w in grammar_words(pairs, m, with_tail, b):
                    ends_at |= walk_states(sub, {i}, w)
                return sum(1 << j for j in ends_at)

            # level[p]: states reached from the start after exactly p letters
            level = [{0}]
            for _ in range(2 * half):
                level.append({k for v in letters for k in walk_states(sub, level[-1], (v,))})

            def fits(i, m):
                if with_tail:
                    return any(i in level[p] for p in range(2 * (half - m) + 1))
                return i in level[half - m]

            lengths = [m for _, m, _ in ends]
            assert lengths == sorted(lengths)
            regrouped = {}
            for (i, m, b), bits in ends.items():
                regrouped.setdefault((i, b), {})[m] = bits
            assert regrouped == found
            for (i, m, b), bits in ends.items():
                assert bits and fits(i, m)
                assert bits == (1 << i if m == 0 else brute(i, m, b))
                seen_sink += i == 3 and m > 0
            budgets = [None] if cap is None else range(1, cap + 1)
            for m in range(1, half + 1):
                for i in range(6):
                    for b in budgets:
                        expected = brute(i, m, b)
                        if fits(i, m):
                            assert ends.get((i, m, b), 0) == expected
                        else:
                            pruned_unreachable += i == 4 and expected != 0
                            assert (i, m, b) not in ends
            # the inner facts of half-length 0 of every opener group that
            # a fact of half-length 1 may read
            for o, _ in pairs:
                for i, cells in sub.rows(o).items():
                    if fits(i, 1):
                        for k, _, _ in cells:
                            for b in budgets:
                                inner_b = None if b is None else b - 1
                                assert ends[(k, 0, inner_b)] == 1 << k
    assert seen_sink and pruned_unreachable


def padded_with_dead_states(r: AbpReduction, copies: int) -> AbpReduction:
    """r with copies of its states that the start never reaches, placed
    before the accept state.  Each copy has all of r's cells among its own
    states, and its cells into the accept state reach the real one, so the
    dead states lie on paths to the accept state, as in an untrimmed block
    product or a hand-written file.  No copy has the cells out of the
    accept state, which would lead from the real one into the copy and
    make it live."""
    sub = r.substitution
    q = sub.dim
    dim = q + copies * (q - 1)

    def place(state: int, copy: int) -> int:
        if state == q - 1:
            return dim - 1
        return state if copy < 0 else q - 1 + copy * (q - 1) + state

    entries = {
        vid: {
            (place(i, copy), place(j, copy)): cell
            for (i, j), cell in cells.items()
            for copy in range(-1, copies)
            if copy < 0 or i != q - 1
        }
        for vid, cells in sub.entries.items()
    }
    padded = MatrixSubstitution(sub.input_table, sub.output_table, dim, entries)
    return AbpReduction(padded, r.source, r.target)


def test_inside_sum_matches_termwise_when_most_states_are_unreachable():
    # the trimmed composition has 4 states; 17 unreachable copies of its
    # 3 non-accept states pad it to 55, so the Boolean pass must build no
    # fact at the 51 states the start does not reach
    n = 5
    comp = compose_abp(dyck_depth_reduction(2, 3, n), dyck_depth_reduction(3, 4, n))
    assert comp.dim == 4
    comp = padded_with_dead_states(comp, 17)
    target = make_family(comp.target)
    inside = apply_to_instance(comp, target)
    assert inside == apply_abp_reduction(comp, target.poly)
    assert inside == gen_dyck_depth(2, n).poly
    from ncpoly.reductions.base import _nonempty_facts, _opener_cells

    sub = comp.substitution
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [
            k
            for j in frontier
            for v in target.table.vars()
            for k, _, _ in sub.rows(v.id).get(j, ())
            if k not in reached and not reached.add(k)
        ]
    pairs, half, with_tail, cap = target.meta["grammar"]
    ends, _ = _nonempty_facts(sub, pairs, _opener_cells(sub, pairs), half, with_tail, cap)
    assert {i for i, _, _ in ends} <= reached
    assert len(reached) < sub.dim // 2


# -- composition ---------------------------------------------------------------


def test_compose_with_identity_is_behaviorally_equal():
    r = pal_to_d2_reduction(2)
    tgt = make_family(r.target)
    lift = corpus.identity_reduction(tgt.table, 4, source=r.target, target=r.target)
    comp = compose_abp(r, lift)
    # of the 5 * 5 block states, the trimmed composite keeps r's own five
    assert comp.dim == r.dim == 5
    assert apply_to_instance(comp, tgt) == apply_to_instance(r, tgt)
    assert verify_reduction(comp, make_family(r.source), tgt).passed


def test_compose_matches_sequential_application():
    m, prods, pows = powsum_iproj(2)
    r2 = iproj_to_abp(m, 2, source=prods.spec_string, target=pows.spec_string)
    r1 = corpus.two_chains_reduction(2)
    comp = compose_abp(r1, r2)
    # sequential: apply r2 to the outer target, then r1 to the result
    mid = apply_abp_reduction(r2, pows.poly)
    expected = apply_abp_reduction(r1, mid)
    assert apply_abp_reduction(comp, pows.poly) == expected


def binary_block_pal_reduction(n: int, k: int) -> AbpReduction:
    """Palindromes over k letters from palindromes over two letters: each
    letter is a block of b bits, its code most significant bit first, and
    the mirrored half reads each block reversed.  A block whose code is k
    or more dies, so the surviving target words u u^R are those where u
    encodes a source half w, and each maps to w w^R.  A test bridge that
    lets pal-vsk, whose targets have three or more letters, compose with
    pal-d2."""
    bits = max(1, (k - 1).bit_length())
    half = n * bits
    source, target = gen_pal(n, k), gen_pal(half)
    a = SubstAutomaton(target.table, source.table)
    a.add_state((0, 0), start=True)
    a.add_state((2 * half, 0), accept=True)
    partial = {(0, 0)}
    for pos in range(2 * half):
        mirrored, offset = pos >= half, (pos - half if pos >= half else pos) % bits
        grown = set()
        for p, value in sorted(partial):
            for bit in (0, 1):
                value2 = value + (bit << offset) if mirrored else 2 * value + bit
                if offset < bits - 1:
                    a.add_transition((p, value), bit, (p + 1, value2))
                    grown.add((p + 1, value2))
                elif value2 < k:
                    a.add_transition((p, value), bit, (p + 1, 0), word=chr(value2))
                    grown.add((p + 1, 0))
        partial = grown
    return AbpReduction(automaton_to_substitution(a), source.spec_string, target.spec_string)


def off_path_states(sub: MatrixSubstitution) -> set:
    """The states of sub that lie on no start -> accept path of nonzero
    cells, found by a forward and a backward walk over all its cells; the
    start and the accept state themselves are exempt."""
    succ: dict[int, set] = {}
    pred: dict[int, set] = {}
    for cells in sub.entries.values():
        for i, j in cells:
            succ.setdefault(i, set()).add(j)
            pred.setdefault(j, set()).add(i)

    def closure(state: int, edges: dict) -> set:
        seen, stack = {state}, [state]
        while stack:
            for nxt in edges.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    on_path = closure(0, succ) & closure(sub.dim - 1, pred)
    return set(range(1, sub.dim - 1)) - on_path


def test_dyck_target_constructions_do_not_grow_with_the_target_length():
    # their states carry no position: the target's length does the counting
    for k1, k2 in ((1, 2), (3, 5)):
        assert {dyck_depth_reduction(k1, k2, n).dim for n in (5, 40)} == {k1 + 2}
    for k in (2, 5):
        assert dk_to_d2_reduction(k, 2).dim == dk_to_d2_reduction(k, 40).dim
    # d = 0 keeps the empty word, on one state that starts and accepts
    r = dk_to_d2_reduction(3, 0)
    assert r.dim == 1
    assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed


def test_every_construction_keeps_only_states_on_start_accept_paths():
    built = []
    for c in corpus.hand_circuits() + corpus.random_circuits(seed=7, count=25):
        built.append(dyck_completeness_reduction(c))
    for c in corpus.hand_skew_circuits() + corpus.random_skew_circuits(seed=7, count=25):
        built += [pal_vsk_reduction(c), dyck_completeness_reduction(c)]
    built += [dyck_depth_reduction(k1, k2, 5) for k1, k2 in ((1, 2), (2, 3), (2, 5))]
    built += [dk_to_d2_reduction(k, d) for k in (2, 3, 5) for d in (2, 4, 6)]
    built += [pal_to_d2_reduction(n) for n in (1, 2, 3)]
    built += [per_to_idstar_reduction(n) for n in (2, 3)]
    built += [per_to_perstar_chi_reduction(n, corpus.constant_chi(n)) for n in (1, 2, 3)]
    built.append(compose_abp(dyck_depth_reduction(2, 3, 6), dyck_depth_reduction(3, 4, 6)))
    built += [compose_abp(first, second) for _, first, second, _ in composition_cases()]
    for r in built:
        assert off_path_states(r.substitution) == set(), (r.kind, r.target)
    # a start that reaches no accepting path keeps the start and accept only
    zero = corpus.hand_circuits()[2]
    assert dyck_completeness_reduction(zero).dim == pal_vsk_reduction(zero).dim == 2


def live_letters(parsed, circuit) -> set:
    """The letters of the live parse words of a transform: the support of
    its bracketed circuit's expansion, less the words through a zero
    recovery scalar.  Over Q no addition-path count vanishes."""
    zero = {v for v, img in parsed.recovery.items() if not isinstance(img, Var) and img == 0}
    words = [set(map(ord, w)) for w in expand(circuit).terms]
    return set().union(*(w for w in words if not w & zero))


def test_completeness_targets_carry_two_padding_letters():
    # the target's degree does the padding's counting, so dyck-complete adds
    # two bracket pairs to those its live parse words read and pal-vsk two
    # letters to their twin pairs and input doubles
    from ncpoly.circuits import to_bracketed, to_skew_bracketed

    for c in corpus.hand_circuits() + corpus.random_circuits(seed=7, count=25):
        target = make_family(dyck_completeness_reduction(c).target)
        br = to_bracketed(c)
        live = live_letters(br, oracles.bracketed_circuit(c, br))
        assert target.params["k"] == len(live) // 2 + 2
    for c in corpus.hand_skew_circuits() + corpus.random_skew_circuits(seed=7, count=25):
        target = make_family(pal_vsk_reduction(c).target)
        sb = to_skew_bracketed(c)
        live = live_letters(sb, oracles.skew_bracketed_circuit(c, sb))
        assert len(target.meta["letters"]) == len(live) // 2 + 2


def test_completeness_targets_skip_a_zero_subcircuit():
    # x + 0 x^3 targets what x targets: the zero product is read by neither walk
    x = circuit_from("g0 input x\noutput g0\n")
    zero_cube = circuit_from(
        "g0 input x\ng1 const 0\ng2 mul g1 g0\ng3 mul g2 g0\ng4 mul g3 g0\n"
        "g5 add g0 g4\noutput g5\n"
    )
    for c in (x, zero_cube):
        for build, target in ((dyck_completeness_reduction, "dyck:k=3,d=4"),
                              (pal_vsk_reduction, "pal:n=2,k=3")):
            r = build(c)
            assert r.target == target
            assert verify_reduction(r, instance_of(c), make_family(r.target)).passed


def test_completeness_walks_build_no_state_that_the_trim_drops():
    # each walk fits a state budget of the dim it keeps: zero constants,
    # addition-path counts divisible by p and padding past the last
    # handover leave no dead state behind
    from test_reduce_digests import corpora

    gf2 = PrimeField(2)
    zero = parse_circuit("g0 const 0\noutput g0\n", VarTable())
    # 2x vanishes over GF(2), so the product g4 is zero
    vanishing = parse_circuit(
        "g0 const 0\ng1 input x\ng2 add g0 g1\ng3 add g2 g2\ng4 mul g3 g2\noutput g4\n",
        VarTable(field=gf2),
    )
    cases = [(dyck_completeness_reduction, zero), (pal_vsk_reduction, zero)]
    cases.append((dyck_completeness_reduction, vanishing))
    assert [build(c).dim for build, c in cases] == [2, 2, 2]
    builders = {"dyck-complete": dyck_completeness_reduction, "pal-vsk": pal_vsk_reduction}
    for corpus_cases in corpora().values():
        for kind, text, _params in corpus_cases:
            if text is not None:
                cases.append((builders[kind], parse_circuit(text, VarTable())))
    for c in corpus.random_circuits(seed=31, count=40):
        c = parse_circuit(format_circuit(c), VarTable(field=gf2))
        cases.append((dyck_completeness_reduction, c))
    for c in corpus.random_skew_circuits(seed=31, count=40):
        c = parse_circuit(format_circuit(c), VarTable(field=gf2))
        cases += [(dyck_completeness_reduction, c), (pal_vsk_reduction, c)]
    for build, c in cases:
        dim = build(c).dim
        with using_budget(Budget(states=dim)):
            assert build(c).dim == dim


def composition_cases():
    """(first, second, source polynomial): the first reduction realizes the
    source from the second's source, and the second realizes that from its
    own target."""
    t = VarTable()
    plain = parse_circuit("g0 input x\ng1 const 2\ng2 add g0 g1\noutput g2\n", t)
    dc = dyck_completeness_reduction(plain)
    k, d = (make_family(dc.target).params[key] for key in ("k", "d"))
    yield "dyck-complete,dk-d2", dc, dk_to_d2_reduction(k, d), expand(plain)
    skew = corpus.hand_skew_circuits()[11]  # 2 x1 x2, as x1 x2 + x1 x2
    pv = pal_vsk_reduction(skew)
    n, k = (make_family(pv.target).params[key] for key in ("n", "k"))
    bridge = binary_block_pal_reduction(n, k)
    half = make_family(bridge.target).params["n"]
    yield "pal-vsk,pal-d2", compose_abp(pv, bridge), pal_to_d2_reduction(half), expand(skew)
    yield "depth", dyck_depth_reduction(2, 3, 5), dyck_depth_reduction(3, 4, 5), gen_dyck_depth(
        2, 5
    ).poly


@pytest.mark.parametrize("case", list(composition_cases()), ids=lambda case: case[0])
def test_composite_equals_two_termwise_applies(case):
    # the oracle applies the two reductions one after the other, termwise
    # and never through compose_abp, to the target words that the second
    # reduction does not kill; every other word maps to zero both ways
    _name, first, second, source = case
    comp = compose_abp(first, second)
    target = make_family(comp.target)
    live = live_target(second, target)
    expected = apply_abp_reduction(first, apply_abp_reduction(second, live.poly))
    assert expected == source and expected.terms
    assert apply_abp_reduction(comp, live.poly) == expected
    assert apply_to_instance(comp, target) == expected
    assert off_path_states(comp.substitution) == set()
    assert comp.dim < first.dim * second.dim


def test_compose_refuses_an_entry_that_needs_a_sum_of_distinct_monomials():
    # inner: the word a b reaches cell (1, 4) along two paths, x x and y x
    inner_in, out = VarTable(["a", "b"]), VarTable(["x", "y"])
    a, b = inner_in.var("a").id, inner_in.var("b").id
    x, y = out.var("x").id, out.var("y").id
    s1 = MatrixSubstitution(
        inner_in,
        out,
        4,
        {a: {(0, 1): (1, chr(x)), (0, 2): (1, chr(y))}, b: {(1, 3): (1, chr(x)), (2, 3): (1, chr(x))}},
    )
    outer_in = VarTable(["z"])
    s2 = MatrixSubstitution(outer_in, inner_in, 2, {0: {(0, 1): (1, chr(a) + chr(b))}})
    with pytest.raises(ValueError, match="distinct monomials"):
        compose_abp(AbpReduction(s1, "", ""), AbpReduction(s2, "", ""))


# -- verification ---------------------------------------------------------------


def test_verify_pass_and_fail_witness():
    r = pal_to_d2_reduction(2)
    src, tgt = make_family(r.source), make_family(r.target)
    assert verify_reduction(r, src, tgt).passed
    # corrupt a live matrix cell: double its coefficient
    vid = next(v for v in sorted(r.substitution.entries) if r.substitution.entries[v])
    (row, col), (coeff, word) = next(iter(sorted(r.substitution.entries[vid].items())))
    sub = r.substitution
    entries = {v: dict(cells) for v, cells in sub.entries.items()}
    entries[vid][(row, col)] = (coeff + coeff, word)
    bad_sub = MatrixSubstitution(sub.input_table, sub.output_table, sub.dim, entries)
    bad = AbpReduction(bad_sub, r.source, r.target)
    v = verify_reduction(bad, src, tgt)
    assert not v.passed
    assert v.witness is not None


def test_verify_table_mismatch_is_refused_before_applying():
    # a source or target over another alphabet is no mismatch to report
    r = pal_to_d2_reduction(1)
    with pytest.raises(TableMismatchError, match="source alphabet"):
        verify_reduction(r, gen_per(2), make_family(r.target))
    with pytest.raises(TableMismatchError, match="target family alphabet"):
        verify_reduction(r, make_family(r.source), gen_per(2))


# -- circuit completeness constructions ------------------------------------------


def test_dyck_completeness_spec_examples():
    t = VarTable(["x1", "x2", "x3"])
    from ncpoly.circuits import Add, Circuit, Input, Mul

    cases = [
        Circuit(t, [Input(0), Input(1), Mul(0, 1)], 2),
        Circuit(t, [Input(0)], 0),
        Circuit(t, [Input(0), Input(1), Mul(0, 1), Mul(1, 0), Add(2, 3)], 4),
    ]
    for c in cases:
        r = dyck_completeness_reduction(c)
        assert verify_reduction(r, instance_of(c), make_family(r.target)).passed


def test_dyck_completeness_on_corpus():
    for c in corpus.hand_circuits() + corpus.random_circuits(seed=555, count=12):
        r = dyck_completeness_reduction(c)
        assert verify_reduction(r, instance_of(c), make_family(r.target)).passed


def test_pal_vsk_spec_examples():
    t = VarTable(["x1", "x2", "x3"])
    from ncpoly.circuits import Add, Circuit, Const, Input, Mul

    chain = Circuit(t, [Input(1), Input(0), Mul(1, 0)], 2)  # x1 * x2
    scalar = Circuit(t, [Const(Fraction(3)), Input(0), Mul(0, 1)], 2)  # 3 * x1
    two = Circuit(t, [Input(0), Input(1), Input(2), Mul(1, 2), Mul(0, 3), Mul(3, 0), Add(4, 5)], 6)
    for c in (chain, scalar, two):
        r = pal_vsk_reduction(c)
        assert verify_reduction(r, instance_of(c), make_family(r.target)).passed


def test_constructions_raise_state_budget_error():
    c = corpus.hand_skew_circuits()[3]
    with using_budget(Budget(states=3)):
        with pytest.raises(StateBudgetError, match="state budget 3"):
            dyck_completeness_reduction(c)
        with pytest.raises(StateBudgetError, match="state budget 3"):
            pal_vsk_reduction(c)
        with pytest.raises(StateBudgetError, match="state budget 3"):
            bounded_depth_dyck_abp(2, 3)


def test_pal_vsk_rejects_non_skew():
    t = VarTable(["x1", "x2"])
    from ncpoly.circuits import Add, Circuit, Input, Mul

    c = Circuit(t, [Input(0), Input(1), Add(0, 1), Add(1, 0), Mul(2, 3)], 4)
    with pytest.raises(ValueError, match="not skew"):
        pal_vsk_reduction(c)


def test_pal_vsk_on_corpus():
    for c in corpus.hand_skew_circuits() + corpus.random_skew_circuits(seed=777, count=10):
        r = pal_vsk_reduction(c)
        assert verify_reduction(r, instance_of(c), make_family(r.target)).passed


MIXED_SKEW = (
    "g0 input x1\ng1 input x2\ng2 const 1\ng3 add g2 g0\ng4 mul g1 g3\n"
    "g5 const 2\ng6 add g5 g4\ng7 mul g0 g6\noutput g7\n"
)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["q", "gf2", "gf3"])
def test_pal_vsk_twin_over_a_bare_constant_and_a_product(field):
    # x1 (2 + x2 (1 + x1)): the outer twin steps to the center with the
    # weight 2, which vanishes over GF(2), and into its inner argument
    c = circuit_from(MIXED_SKEW, field)
    r = pal_vsk_reduction(c)
    assert r.target == "pal:n=4,k=5"
    assert verify_reduction(r, instance_of(c), make_family(r.target, field)).passed
    assert_inside_matches_termwise(r, expand(c))


def test_pal_vsk_targets_of_skew_chains():
    # c (1 + x)^d reads its d twins and never the double of x, and its first
    # half keeps a position per twin
    from test_reduce_digests import skew_chain

    for d, dim in ((11, 80), (12, 93), (20, 233), (30, 498)):
        c = circuit_from(skew_chain("x", 3, d))
        r = pal_vsk_reduction(c)
        assert (r.target, r.dim) == (f"pal:n={d + 1},k={d + 2}", dim)
        assert verify_reduction(r, instance_of(c), make_family(r.target)).passed


def test_pal_vsk_accepted_palindromes_are_the_parse_words():
    # the automaton accepts a target palindrome exactly when it encodes a
    # nonzero parse word, so the accepted count equals the parse support size
    from ncpoly.circuits import Add, Circuit, Const, Input, Mul, to_skew_bracketed

    t = VarTable(["x1", "x2"])
    cases = [
        Circuit(t, [Input(0), Input(1), Mul(0, 1)], 2),
        Circuit(t, [Const(Fraction(3)), Input(0), Mul(0, 1)], 2),
        Circuit(t, [Input(0)], 0),
        Circuit(t, [Input(0), Const(Fraction(1)), Add(0, 1), Mul(0, 2)], 3),  # x1 (x1 + 1)
    ]
    for c in cases:
        r = pal_vsk_reduction(c)
        tgt = make_family(r.target)
        accept = r.dim - 1
        sub = r.substitution
        accepted = [w for w in tgt.poly.terms if accept in walk_states(sub, {0}, map(ord, w))]
        parse = expand(oracles.skew_bracketed_circuit(c, to_skew_bracketed(c)))
        assert len(accepted) == len(parse.terms)


def test_dyck_accepted_balanced_words_are_the_parse_words():
    from ncpoly.circuits import Circuit, Input, Mul

    t = VarTable(["x1", "x2"])
    for c in [
        Circuit(t, [Input(0)], 0),
        Circuit(t, [Input(0), Input(1), Mul(0, 1)], 2),
    ]:
        r = dyck_completeness_reduction(c)
        tgt = make_family(r.target)
        accept = r.dim - 1
        sub = r.substitution
        accepted = [w for w in tgt.poly.terms if accept in walk_states(sub, {0}, map(ord, w))]
        from ncpoly.circuits import to_bracketed

        parse = expand(oracles.bracketed_circuit(c, to_bracketed(c)))
        assert len(accepted) == len(parse.terms)


def test_completeness_multiplicity_vanishing_in_small_characteristic():
    # seven addition paths to one input: the polynomial is zero over Z_7 and
    # the walk's path-count weights vanish with it
    from ncpoly.circuits import Add, Circuit, Input

    f7 = PrimeField(7)
    t = VarTable(["x1"], field=f7)
    gates = [Input(0)]
    for _ in range(6):
        gates.append(Add(len(gates) - 1, 0))
    c = Circuit(t, gates, len(gates) - 1)
    assert not expand(c)
    r = dyck_completeness_reduction(c)
    assert not apply_to_instance(r, make_family(r.target, f7))
    r2 = pal_vsk_reduction(c)
    assert not apply_to_instance(r2, make_family(r2.target, f7))


def layer_map(sub: MatrixSubstitution, skip=()) -> dict | None:
    """Distance from the start when every nonzero cell of the substitution,
    apart from the cells out of the rows in skip, advances exactly one
    layer; None when it is not layered."""
    adjacency: dict[int, list] = {}
    for cells in sub.entries.values():
        for i, j in cells:
            if i not in skip:
                adjacency.setdefault(i, []).append(j)
    layers = {0: 0}
    queue = [0]
    while queue:
        s = queue.pop(0)
        for to in adjacency.get(s, ()):
            nxt = layers[s] + 1
            if to not in layers:
                layers[to] = nxt
                queue.append(to)
            elif layers[to] != nxt:
                return None
    return layers


def test_construction_automata_are_layered():
    # pal-d2 substitutes by position: every cell advances one layer and the
    # accept state sits on the last one
    r1 = pal_to_d2_reduction(2)
    layers = layer_map(r1.substitution)
    assert layers is not None and layers[r1.dim - 1] == 4
    # pal-vsk keeps a position in every first-half state, so the center M
    # meets the middle; its second half is the accept state alone, entered
    # from M and looping on every letter, so only the first half is layered
    r2 = pal_vsk_reduction(corpus.hand_skew_circuits()[11])
    sub, accept = r2.substitution, r2.dim - 1
    into_accept = {i for cells in sub.entries.values() for i, j in cells if j == accept}
    (center,) = into_accept - {accept}
    assert accept in into_accept
    layers = layer_map(sub, skip=(accept,))
    assert layers is not None
    assert layers[center] == make_family(r2.target).params["n"]
    assert layers[accept] == layers[center] + 1


# -- bracket-family reductions ----------------------------------------------------


def test_pal_to_d2_exact():
    for n in (1, 2, 3):
        r = pal_to_d2_reduction(n)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed
    r1 = pal_to_d2_reduction(1)
    result = apply_to_instance(r1, make_family(r1.target))
    t = make_family(r1.source).table
    assert result.terms == {t.word("x0", "x0"): 1, t.word("x1", "x1"): 1}


def test_palsq_to_d2_exact():
    for n in (1, 2):
        r = palsq_to_d2_reduction(n)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed
    # at n=1 exactly the four concatenations of two balanced pairs survive
    r = palsq_to_d2_reduction(1)
    assert len(apply_to_instance(r, make_family(r.target)).terms) == 4


def test_dk_to_d2_exact_and_encoding():
    r = dk_to_d2_reduction(3, 2)
    src, tgt = make_family(r.source), make_family(r.target)
    assert len(src.poly.terms) == 3
    assert verify_reduction(r, src, tgt).passed
    # every encoded source word is balanced in the target alphabet
    for w in src.poly.terms:
        enc = dk_encode_word(w, 3, src.meta["pairs"], tgt.meta["pairs"])
        assert enc in tgt.poly.terms


def test_dk_to_d2_kills_non_image_words():
    r = dk_to_d2_reduction(3, 2)
    tgt = make_family(r.target)
    src = make_family(r.source)
    image = {
        dk_encode_word(w, 3, src.meta["pairs"], tgt.meta["pairs"]) for w in src.poly.terms
    }
    non_image = [w for w in tgt.poly.terms if w not in image]
    assert non_image
    sub = r.substitution
    for w in non_image[:20]:
        vec = {0: Fraction(1)}
        for vid in w:
            nxt = {}
            for r0, sc in vec.items():
                for c0, cf, _word in sub.rows(vid).get(r0, ()):
                    nxt[c0] = nxt.get(c0, Fraction(0)) + sc * cf
            vec = nxt
        assert vec.get(sub.dim - 1, Fraction(0)) == 0


def test_dyck_depth_reduction():
    assert verify_reduction(
        dyck_depth_reduction(1, 1, 2),
        gen_dyck_depth(1, 2),
        gen_dyck_depth(1, 2),
    ).passed
    r = dyck_depth_reduction(1, 2, 2)
    tgt = gen_dyck_depth(2, 2)
    assert len(tgt.poly.terms) == 8
    result = apply_to_instance(r, tgt)
    assert len(result.terms) == 4
    assert verify_reduction(r, gen_dyck_depth(1, 2), tgt).passed
    for (k1, k2, n) in [(1, 2, 3), (2, 3, 3), (1, 3, 4)]:
        r = dyck_depth_reduction(k1, k2, n)
        assert verify_reduction(r, gen_dyck_depth(k1, n), gen_dyck_depth(k2, n)).passed


def test_dyck_depth_counter_rejects_overflow():
    r = dyck_depth_reduction(1, 2, 2)
    sub = r.substitution
    tgt = make_family(r.target)
    (o1, _c1), _ = tgt.meta["pairs"]
    # after one opener the counter is at the bound: a second must be dead
    first = sub.rows(o1).get(0, ())
    assert first
    for col, _cf, _w in first:
        assert not sub.rows(o1).get(col, ())


# -- branching-program embedding ----------------------------------------------------


def test_vbp_trivial_one_pair_dyck_into_pal():
    p = bounded_depth_dyck_abp(2, 2, bracket_types=1)
    tgt = gen_pal(2)
    witness = tgt.table.word(*["x0"] * 4)
    r = vbp_trivial_reduction(p, tgt, witness)
    result = apply_to_instance(r, tgt)
    assert result == abp_eval(p)
    assert len(result.terms) == 2


def test_vbp_trivial_single_edge():
    from ncpoly.abp import Abp

    t = VarTable(["x0", "x1"])
    p = Abp(t, [1, 1], [[(0, 0, Fraction(1), t.word("x0"))]])
    tgt = FamilyInstance.from_poly(
        "poly", NCPoly(t, {t.word("x1"): Fraction(1), t.word("x0", "x0"): Fraction(2)})
    )
    r = vbp_trivial_reduction(p, tgt, t.word("x1"))
    assert apply_abp_reduction(r, tgt.poly).terms == {t.word("x0"): 1}


def test_vbp_trivial_grouped_layers():
    # a witness shorter than the program degree groups consecutive layers
    p = bounded_depth_dyck_abp(2, 2, bracket_types=1)  # degree 4
    tgt = gen_pal(1)
    witness = tgt.table.word(*["x0"] * 2)
    r = vbp_trivial_reduction(p, tgt, witness)
    assert apply_to_instance(r, tgt) == abp_eval(p)


def test_vbp_trivial_refuses_a_group_cell_with_two_distinct_words():
    from ncpoly.abp import Abp

    # one witness letter groups both gaps, so cell (0, 3) needs x0 x0 + x1 x1
    t = VarTable(["x0", "x1"])
    x0, x1 = t.word("x0"), t.word("x1")
    one = Fraction(1)
    p = Abp(t, [1, 2, 1], [[(0, 0, one, x0), (0, 1, one, x1)], [(0, 0, one, x0), (1, 0, one, x1)]])
    tgt = FamilyInstance.from_poly("poly", NCPoly(t, {x1: Fraction(1)}))
    with pytest.raises(ValueError, match="distinct monomials"):
        vbp_trivial_reduction(p, tgt, x1)


def test_vbp_trivial_adds_same_variable_parallel_edges():
    from ncpoly.abp import Abp

    # x0 + 2 x0 on one vertex pair adds to 3 x0, and x1 - x1 cancels
    t = VarTable(["x0", "x1"])
    x0, x1 = t.word("x0"), t.word("x1")

    gap0 = [(0, 0, 1, x0), (0, 0, 2, x0), (0, 1, 1, x1), (0, 1, -1, x1)]
    p = Abp(t, [1, 2, 1], [gap0, [(0, 0, 1, x1), (1, 0, 1, x0)]])
    tgt = gen_pal(1)
    r = vbp_trivial_reduction(p, tgt, tgt.table.word("x0", "x0"))
    assert r.substitution.entries[tgt.table.var("x0").id] == {
        (0, 1): (3, x0),
        (1, 3): (1, x1),
        (2, 3): (1, x0),
    }
    assert abp_eval(p).terms == {x0 + x1: 3}
    assert apply_to_instance(r, tgt) == abp_eval(p)


def test_vbp_trivial_rejects_bad_witness():
    p = bounded_depth_dyck_abp(1, 1, bracket_types=1)
    tgt = gen_pal(1)
    with pytest.raises(ValueError, match="coefficient exactly 1"):
        vbp_trivial_reduction(p, tgt, chr(99) * 2)


# -- permanent-style reductions -------------------------------------------------------


def test_per_to_idstar():
    for n in (2, 3):
        r = per_to_idstar_reduction(n)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed


def test_per_to_idstar_block_one_carries_degree():
    r = per_to_idstar_reduction(2)
    result = apply_to_instance(r, make_family(r.target))
    assert all(len(w) == 2 for w in result.terms)


def test_per_chi_unit_and_weighted():
    chi1 = corpus.constant_chi(2)
    r = per_to_perstar_chi_reduction(2, chi1)
    assert verify_reduction(r, gen_per(2), gen_per_star_chi(2, chi1)).passed
    chi2 = ChiTable(2, {(1, 2): Fraction(2), (2, 1): Fraction(3)})
    r2 = per_to_perstar_chi_reduction(2, chi2)
    assert verify_reduction(r2, gen_per(2), gen_per_star_chi(2, chi2)).passed


def test_per_chi_independence():
    results = []
    for chi in (
        corpus.constant_chi(2),
        ChiTable(2, {(1, 2): Fraction(2), (2, 1): Fraction(3)}),
        ChiTable(2, {(1, 2): Fraction(1, 7), (2, 1): Fraction(-5)}),
    ):
        r = per_to_perstar_chi_reduction(2, chi)
        results.append(apply_to_instance(r, gen_per_star_chi(2, chi)))
    assert results[0] == results[1] == results[2] == gen_per(2).poly


def test_per_chi_zero_value_in_prime_field():
    f = PrimeField(5)
    with pytest.raises(ValueError, match="zero"):
        ChiTable(2, {(1, 2): f.from_int(5), (2, 1): f.from_int(1)})


# -- hierarchy and transfer --------------------------------------------------------


def test_hierarchy_iproj_levels():
    for i, n in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]:
        m = hierarchy_iproj(i, n)
        source, target = gen_hierarchy(i, n), gen_hierarchy(i + 1, n)
        assert oracles.apply_iproj(m, target.poly) == source.poly
        assert verify_reduction(iproj_to_abp(m, target.meta["degree"]), source, target).passed


def test_hierarchy_selected_monomial():
    # the collapsed leading factor is the unique all-type-1 nesting, value 1
    m = hierarchy_iproj(1, 2)
    tgt = gen_hierarchy(2, 2)
    selected = [
        w
        for w in tgt.poly.terms
        if oracles.apply_iproj(m, NCPoly(tgt.table, {w: Fraction(1)}))
    ]
    prefixes = {w[:4] for w in selected}
    assert len(prefixes) == 1
    (prefix,) = prefixes
    assert tgt.table.word_names(prefix) == ("(1_f1", "(1_f1", ")1_f1", ")1_f1")


def test_transfer_commuting_square():
    m, per, perstar = per_to_perstar_iproj(2)
    pm = transfer(m, 4)
    assert oracles.apply_proj(pm, commutative_version(perstar.poly)) == commutative_version(
        oracles.apply_iproj(m, perstar.poly)
    )
    m2, prods, pows = powsum_iproj(3)
    pm2 = transfer(m2, 3)
    assert oracles.apply_proj(pm2, commutative_version(pows.poly)) == commutative_version(
        oracles.apply_iproj(m2, pows.poly)
    )


def test_transfer_identity_map():
    inst = gen_pal(2)
    mapping = {
        (pos, v.id): v for pos in range(1, 5) for v in inst.table.vars()
    }
    m = IProjMap(inst.table, inst.table, mapping)
    pm = transfer(m, 4)
    assert oracles.apply_proj(pm, commutative_version(inst.poly)) == commutative_version(inst.poly)


def test_transfer_rejects_mixed_positions():
    t = VarTable(["a", "b"])
    m = IProjMap(t, t, {(1, 0): Var(0, "a"), (1, 1): Fraction(1)})
    with pytest.raises(ValueError, match="both scalars and variables"):
        transfer(m, 1)


# -- rank-one splitting ----------------------------------------------------------------


def test_split_found_for_idprime():
    for n in (2, 3):
        v = set_multilinear_rank1_split(commutative_version(gen_id_prime(n).poly))
        assert v.split is not None


def test_no_split_for_indexed_dyck():
    for n in (2, 3):
        v = set_multilinear_rank1_split(commutative_version(gen_dyck(2, 2 * n).poly))
        assert v.split is None


def test_split_single_word():
    t = VarTable(["a", "b"])
    f = commutative_version(NCPoly(t, {t.word("a", "b"): Fraction(1)}))
    assert set_multilinear_rank1_split(f).split is not None


def test_split_rejects_non_set_multilinear():
    t = VarTable(["a"])
    tagged = commutative_version(NCPoly(t, {t.word("a", "a"): Fraction(1)}))
    a1 = tagged.table.var("a@1").id
    broken = NCPoly(tagged.table, {chr(a1) * 2: Fraction(1)})  # position 1 used twice
    with pytest.raises(ValueError, match="set-multilinear"):
        set_multilinear_rank1_split(broken)


# -- serialization -----------------------------------------------------------------------


def test_reduction_roundtrip():
    r = pal_to_d2_reduction(2)
    text = format_reduction(r)
    r2, poly = parse_reduction(text, QQ)
    assert poly is None
    assert r2.kind == "pal-d2" and r2.source == r.source and r2.target == r.target
    tgt = make_family(r2.target)
    assert verify_reduction(r2, make_family(r2.source), tgt).passed


def test_reduction_roundtrip_with_source_poly():
    t = VarTable(["x1", "x2"])
    from ncpoly.circuits import Circuit, Input, Mul

    c = Circuit(t, [Input(0), Input(1), Mul(0, 1)], 2)
    r = dyck_completeness_reduction(c)
    text = format_reduction(r, source_poly=expand(c))
    r2, poly = parse_reduction(text, QQ)
    assert poly is not None and len(poly.terms) == 1
    assert verify_reduction(
        r2, FamilyInstance.from_poly("circuit", poly), make_family(r2.target)
    ).passed


def test_vbp_trivial_reads_the_witness_coefficient_without_realizing_the_target():
    # gen_dyck(2, 40) has about 7e15 terms; realizing it was the only way before
    p = bounded_depth_dyck_abp(1, 20)
    target = gen_dyck(2, 40)
    (o1, c1), (o2, c2) = target.meta["pairs"]
    r = vbp_trivial_reduction(p, target, (chr(o1) + chr(c1)) * 10 + (chr(o2) + chr(c2)) * 10)
    assert target._poly is None
    assert r.target == "dyck:k=2,d=40" and r.dim == p.size
    assert set(r.substitution.entries) == {o1, c1, o2, c2}
    with pytest.raises(ValueError, match="coefficient exactly 1"):
        vbp_trivial_reduction(p, target, (chr(o1) + chr(c2)) * 20)
    assert target._poly is None


def test_a_target_without_a_grammar_record_goes_termwise(monkeypatch):
    import ncpoly.reductions.base as base

    def refuse(*args):
        raise AssertionError("inside sum called")

    r = pal_to_d2_reduction(2)
    grammar_target = gen_dyck(2, 4)
    plain = FamilyInstance.from_poly("dyck", grammar_target.poly, k=2, d=4)
    assert "grammar" in grammar_target.meta and not plain.meta
    expected = apply_to_instance(r, grammar_target)
    monkeypatch.setattr(base, "_inside_sum", refuse)
    assert apply_to_instance(r, plain) == expected == gen_pal(2).poly
    with pytest.raises(AssertionError, match="inside sum"):
        apply_to_instance(r, grammar_target)


def test_chains_compiled_by_iproj_to_abp_keep_their_kinds():
    assert pal_to_d2_reduction(3).kind == "pal-d2"
    assert palsq_to_d2_reduction(2).kind == "palsq-d2"
    table = gen_pal(1).table
    r = corpus.identity_reduction(table, 3, source="s", target="t")
    assert (r.kind, r.source, r.target, r.dim) == ("identity", "s", "t", 4)
    x0 = table.var("x0").id
    assert r.substitution.entries[x0] == {(i, i + 1): (1, chr(x0)) for i in range(3)}
