"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is tolerance-zero: polynomials over exact
rationals are compared term for term.
"""

import math
import random
import time
from fractions import Fraction

import corpus
import oracles
from ncpoly.abp import abp_eval, bounded_depth_dyck_abp, hankel_rank
from ncpoly.algebra import NCPoly, Var, VarTable, hadamard_bruteforce
from ncpoly.automata import hadamard_via_matrices
from ncpoly.circuits import expand
from ncpoly.families import (
    ChiTable,
    FamilyInstance,
    commutative_version,
    gen_dyck,
    gen_dyck_depth,
    gen_hierarchy,
    gen_id,
    gen_id_prime,
    gen_pal,
    gen_per,
    gen_per_star,
    gen_per_star_chi,
    gen_power_of_sum,
    gen_product_of_sums,
    gen_two_chains,
    make_family,
)
from ncpoly.reductions import (
    IProjMap,
    ProjMap,
    apply_abp_reduction,
    apply_to_instance,
    compose_abp,
    dk_to_d2_reduction,
    dyck_completeness_reduction,
    dyck_depth_reduction,
    hierarchy_iproj,
    iproj_to_abp,
    pal_to_d2_reduction,
    pal_vsk_reduction,
    palsq_to_d2_reduction,
    per_to_idstar_reduction,
    per_to_perstar_chi_reduction,
    proj_to_iproj,
    set_multilinear_rank1_split,
    transfer,
    vbp_trivial_reduction,
    verify_reduction,
)


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: PASS{suffix}")


def circuit_instance(c):
    return FamilyInstance.from_poly("circuit", expand(c))


def suite_iproj_maps():
    """The indexed projections exercised throughout the suite."""
    maps = []
    for n in (2, 3):
        per, perstar = gen_per(n), gen_per_star(n)
        mapping = {}
        for pos in range(1, n * n + 1):
            for v in perstar.table.vars():
                if pos <= n:
                    mapping[(pos, v.id)] = Var(per.table.var(v.name).id, v.name)
                else:
                    mapping[(pos, v.id)] = Fraction(1)
        maps.append(("per<=perstar", IProjMap(perstar.table, per.table, mapping), perstar, per))
    for n in (2, 3, 4):
        pows, prods = gen_power_of_sum(n), gen_product_of_sums(n)
        mapping = {}
        for pos in range(1, n + 1):
            mapping[(pos, pows.table.var("z0").id)] = Var(
                prods.table.var(f"x{pos}").id, f"x{pos}"
            )
            mapping[(pos, pows.table.var("z1").id)] = Var(
                prods.table.var(f"y{pos}").id, f"y{pos}"
            )
        maps.append(("prodsums<=powsum", IProjMap(pows.table, prods.table, mapping), pows, prods))
    for i, n in [(1, 1), (2, 1), (1, 2)]:
        m = hierarchy_iproj(i, n)
        maps.append((f"hier{i}<= {i + 1}", m, gen_hierarchy(i + 1, n), gen_hierarchy(i, n)))
    return maps


def test_criterion_1_dyck_completeness():
    t0 = time.perf_counter()
    circuits = corpus.hand_circuits() + corpus.random_circuits(seed=2024, count=40)
    assert len(circuits) >= 50
    for c in circuits:
        assert len(c.gates) <= 8 and corpus.syntactic_degree(c) <= 6
        r = dyck_completeness_reduction(c)
        verdict = verify_reduction(r, circuit_instance(c), make_family(r.target))
        assert verdict.passed, f"{verdict}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(1, "dyck completeness", f"{len(circuits)} circuits in {elapsed:.2f}s")


def test_criterion_2_pal_vsk_completeness():
    t0 = time.perf_counter()
    circuits = corpus.hand_skew_circuits() + corpus.random_skew_circuits(seed=4096, count=25)
    assert len(circuits) >= 30
    for c in circuits:
        assert len(c.gates) <= 8 and corpus.syntactic_degree(c) <= 5
        r = pal_vsk_reduction(c)
        verdict = verify_reduction(r, circuit_instance(c), make_family(r.target))
        assert verdict.passed, f"{verdict}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(2, "palindrome skew completeness", f"{len(circuits)} circuits in {elapsed:.2f}s")


def test_criterion_3_hadamard_agreement():
    circuits = corpus.random_circuits(seed=31337, count=100, max_gates=6, max_degree=4)
    abps = corpus.random_abps(seed=1337, count=100, max_width=2, max_depth=3)
    pairs = 0
    for c, g in zip(circuits, abps):
        assert len(c.gates) <= 6 and g.size <= 6
        expected = hadamard_bruteforce(expand(c), abp_eval(g))
        assert hadamard_via_matrices(c, g) == expected
        pairs += 1
    assert pairs >= 100
    report(3, "hadamard via matrices", f"{pairs} pairs")


def test_criterion_4_hankel_ranks():
    t = VarTable(["x0", "x1"])
    for n in range(1, 7):
        assert hankel_rank(gen_pal(n).poly, n) == 2**n
        assert hankel_rank(gen_id(n).poly, n) == 2**n
    suite_abps = corpus.random_abps(seed=512, count=15) + [
        bounded_depth_dyck_abp(k, n) for k in (1, 2) for n in (2, 3)
    ]
    for p in suite_abps:
        f = abp_eval(p)
        if not f:
            continue
        for cut in range(p.degree + 1):
            assert hankel_rank(f, cut) <= p.layers[cut]
    for k in range(1, 5):
        for n in range(1, 7):
            kk = min(k, n)
            p = bounded_depth_dyck_abp(kk, n)
            assert p.size <= (2 * n + 1) * 2 ** (kk + 1)
    report(4, "hankel ranks and width bounds")


def test_criterion_5_counting_oracles():
    def catalan(n):
        return math.comb(2 * n, n) // (n + 1)

    checked = 0
    for k in (1, 2, 3):
        for n in range(1, 7):
            inst = gen_dyck(k, 2 * n)
            assert len(inst.poly.terms) == catalan(n) * k**n
            assert all(c == 1 for c in inst.poly.terms.values())
            if (2 * k) ** (2 * n) <= 300000:
                # independent oracle: filter every string of the right length
                import itertools

                letters = [chr(v) for pair in inst.meta["pairs"] for v in pair]
                brute = {
                    w
                    for w in map("".join, itertools.product(letters, repeat=2 * n))
                    if oracles.balanced(w, inst.meta["pairs"])
                }
                assert set(inst.poly.terms) == brute
            checked += 1
    for n in range(1, 7):
        assert gen_dyck_depth(n, n).poly == gen_dyck(2, 2 * n).poly
    report(5, "counting oracles", f"{checked} (k, n) pairs")


def test_criterion_6_concrete_reductions():
    done = []
    for n in (1, 2, 3, 4):
        r = pal_to_d2_reduction(n)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed
    done.append("pal-d2 n<=4")
    for n in (1, 2):
        r = palsq_to_d2_reduction(n)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed
    done.append("palsq-d2 n<=2")
    for d in (2, 4):
        r = dk_to_d2_reduction(3, d)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed
    done.append("dk-d2 k=3 d<=4")
    for n in range(2, 5):
        for k2 in range(1, n + 1):
            for k1 in range(1, k2):
                r = dyck_depth_reduction(k1, k2, n)
                assert verify_reduction(
                    r, gen_dyck_depth(k1, n), gen_dyck_depth(k2, n)
                ).passed
    done.append("depth k1<k2<=n<=4")
    for n in (2, 3):
        r = per_to_idstar_reduction(n)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed
    done.append("per-idstar n in {2,3}")
    for n in (1, 2, 3):
        perms = list(__import__("itertools").permutations(range(1, n + 1)))
        tables = [
            corpus.constant_chi(n),
            ChiTable(n, {s: Fraction(i + 2) for i, s in enumerate(perms)}),
            ChiTable(n, {s: Fraction(1, i + 3) for i, s in enumerate(perms)}),
        ]
        extractions = []
        for chi in tables:
            r = per_to_perstar_chi_reduction(n, chi)
            target = gen_per_star_chi(n, chi)
            assert verify_reduction(r, gen_per(n), target).passed
            extractions.append(apply_to_instance(r, target))
        assert extractions[0] == extractions[1] == extractions[2]
    done.append("per-chi n in {1,2,3}, 3 tables, chi-independent")
    for n in (1, 2):
        for i in (1, 2, 3):
            target = gen_hierarchy(i + 1, n)
            r = iproj_to_abp(hierarchy_iproj(i, n), target.meta["degree"])
            assert verify_reduction(r, gen_hierarchy(i, n), target).passed
    done.append("hier-iproj i<=3 n<=2")
    for n in (1, 2, 3):
        p = bounded_depth_dyck_abp(n, n, bracket_types=1)
        target = gen_pal(n)
        witness = target.table.word(*["x0"] * (2 * n))
        r = vbp_trivial_reduction(p, target, witness)
        assert apply_to_instance(r, target) == abp_eval(p)
    done.append("vbp-trivial D1->pal n<=3")
    for n in (1, 2, 3, 4):
        r = corpus.two_chains_reduction(n)
        assert verify_reduction(r, make_family(r.source), make_family(r.target)).passed
    done.append("chain-selector dfa n<=4")
    report(6, "concrete reductions", "; ".join(done))


def test_criterion_7_reducibility_algebra():
    # three-way agreement of projection, indexed projection and compiled chain
    rng = random.Random(14_142)
    agreements = 0
    for _ in range(50):
        n_vars = rng.randint(2, 3)
        d = rng.randint(1, 4)
        table = VarTable([f"a{i}" for i in range(n_vars)])
        out = VarTable([f"b{i}" for i in range(n_vars)])
        words = {"".join(chr(rng.randrange(n_vars)) for _ in range(d)) for _ in range(rng.randint(1, 10))}
        g = NCPoly(table, {w: Fraction(rng.randint(1, 4)) for w in words})
        mapping = {}
        for v in table.vars():
            roll = rng.random()
            if roll < 0.6:
                vid = rng.randrange(n_vars)
                mapping[v.id] = Var(vid, out.name(vid))
            elif roll < 0.85:
                mapping[v.id] = Fraction(rng.randint(1, 3))
            else:
                mapping[v.id] = Fraction(0)
        pm = ProjMap(table, out, mapping)
        im = proj_to_iproj(pm, d)
        r = iproj_to_abp(im, d)
        assert oracles.apply_proj(pm, g) == oracles.apply_iproj(im, g) == apply_abp_reduction(r, g)
        agreements += 1

    # composition equals sequential application on the suite pairs
    pairs = []
    r1 = pal_to_d2_reduction(2)
    lift = corpus.identity_reduction(make_family(r1.target).table, 4)
    pairs.append((r1, lift, make_family(r1.target)))
    pairs.append((dyck_depth_reduction(1, 2, 3), dyck_depth_reduction(2, 3, 3), gen_dyck_depth(3, 3)))
    pairs.append((pal_to_d2_reduction(2), dyck_depth_reduction(2, 2, 2), gen_dyck_depth(2, 2)))
    pows2, prods2 = gen_power_of_sum(2), gen_product_of_sums(2)
    mapping = {}
    for pos in (1, 2):
        mapping[(pos, pows2.table.var("z0").id)] = Var(
            prods2.table.var(f"x{pos}").id, f"x{pos}"
        )
        mapping[(pos, pows2.table.var("z1").id)] = Var(
            prods2.table.var(f"y{pos}").id, f"y{pos}"
        )
    chain = iproj_to_abp(IProjMap(pows2.table, prods2.table, mapping), 2)
    pairs.append((corpus.two_chains_reduction(2), chain, pows2))
    for ra, rb, h_inst in pairs:
        sequential = apply_abp_reduction(ra, apply_abp_reduction(rb, h_inst.poly))
        composed = compose_abp(ra, rb)
        assert apply_abp_reduction(composed, h_inst.poly) == sequential

    # transfer square for every suite indexed projection
    squares = 0
    for name, m, target_inst, _source_inst in suite_iproj_maps():
        pm = transfer(m, target_inst.poly.degree())
        lhs = oracles.apply_proj(pm, commutative_version(target_inst.poly))
        rhs = commutative_version(oracles.apply_iproj(m, target_inst.poly))
        assert lhs == rhs, name
        squares += 1
    report(
        7,
        "reducibility algebra",
        f"{agreements} random maps, {len(pairs)} compositions, {squares} transfer squares",
    )


def test_criterion_8_structural_splits():
    # at n=1 the displayed product has a single quadratic factor, so no
    # bipartition exists; the factorization claim starts at n=2
    verdict1 = set_multilinear_rank1_split(commutative_version(gen_id_prime(1).poly))
    assert verdict1.split is None
    for n in (2, 3):
        verdict = set_multilinear_rank1_split(commutative_version(gen_id_prime(n).poly))
        assert verdict.split is not None
    for n in (2, 3):
        verdict = set_multilinear_rank1_split(commutative_version(gen_dyck(2, 2 * n).poly))
        assert verdict.split is None
    report(8, "rank-one position splits")


def test_criterion_9_term_count_monotonicity():
    # the engine behind the separation arguments: substitution cannot grow support
    rng = random.Random(90_210)
    checked = 0
    for name, m, target_inst, _source in suite_iproj_maps():
        image = oracles.apply_iproj(m, target_inst.poly)
        assert len(image.terms) <= len(target_inst.poly.terms), name
        checked += 1
    inst = gen_product_of_sums(4)
    vars_ = list(inst.table.vars())
    for _ in range(30):
        mapping = {}
        for v in vars_:
            roll = rng.random()
            if roll < 0.5:
                mapping[v.id] = rng.choice(vars_)
            elif roll < 0.8:
                mapping[v.id] = Fraction(rng.randint(1, 3))
            else:
                mapping[v.id] = Fraction(0)
        pm = ProjMap(inst.table, inst.table, mapping)
        image = oracles.apply_proj(pm, inst.poly)
        assert len(image.terms) <= len(inst.poly.terms)
        assert len(oracles.var_ids(image)) <= len(oracles.var_ids(inst.poly))
        checked += 1
    for n in range(1, 11):
        assert len(gen_product_of_sums(n).poly.terms) == 2**n
        assert len(gen_two_chains(n).poly.terms) == 2
    report(9, "term-count monotonicity", f"{checked} maps, products up to n=10")


if __name__ == "__main__":
    import sys
    import traceback

    failures = 0
    for _name in sorted(n for n in dir() if n.startswith("test_criterion")):
        try:
            globals()[_name]()
        except Exception:
            failures += 1
            number = _name.split("_")[2]
            print(f"criterion {number}: FAIL")
            traceback.print_exc()
    sys.exit(1 if failures else 0)
