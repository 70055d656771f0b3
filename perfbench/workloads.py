"""The three workloads: seeded input files and job lists with expected outputs.

A workload is a list of `ncpoly` command lines run one after another.  The
seed picks values only (constants, variable letters, chi weights, ABP
coefficients, the prime, the corrupted reduction cell), never gate
structure or sizes, because cost follows structure: the same chain costs
twice as much to verify when a constant multiplies its variable.  Every
seeded constant is a small positive integer so that the cost of exact
arithmetic barely depends on the seed.

`smoke=True` shrinks every size so that a whole workload, checks included,
runs in a few seconds.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("parse-trees", "big-output", "hankel")

LETTERS = ("x", "y", "z", "u", "v", "w", "s", "t")
PRIMES = (1000003, 1000033, 1000037, 1000039, 998244353, 1000000007, 1000000009, 2147483647)


@dataclass
class Result:
    """What one `ncpoly.cli.main` call returned and printed."""

    exit_code: int
    stdout: str
    stderr: str


@dataclass
class Job:
    """One command line.  `check` reads the job's output (files relative to
    the work directory, or the captured stdout) and returns (problem or
    None, output size).  `before` is a benchmark step that runs untimed
    just before the job."""

    kind: str
    argv: list
    check: Callable[[Result], tuple]
    expect_exit: int = 0
    before: Callable[[], None] | None = None


@dataclass
class Plan:
    files: dict  # input file name -> text
    jobs: list


def build(workload: str, seed: int, smoke: bool) -> Plan:
    rng = random.Random(f"{workload}/{seed}")
    return {"parse-trees": parse_trees, "big-output": big_output, "hankel": hankel}[workload](
        rng, smoke
    )


# ---------------------------------------------------------------------------
# Circuit text


def affine_chain(var: str, a: int, b: int, d: int, right: bool) -> str:
    """(a + b*var)^d, multiplied on as a left chain p <- p*L, or a right
    chain p <- L*p."""
    lines = [f"g0 input {var}", f"g1 const {a}", f"g2 const {b}", "g3 mul g2 g0", "g4 add g1 g3"]
    return _chain(lines, 4, d, right)


def plain_chain(var: str, c: int, d: int) -> str:
    """(c + var)^d as a left chain."""
    return _chain([f"g0 input {var}", f"g1 const {c}", "g2 add g1 g0"], 2, d, False)


def _chain(lines: list, base: int, d: int, right: bool) -> str:
    cur = base
    for _ in range(d - 1):
        gid = len(lines)
        lines.append(f"g{gid} mul g{base} g{cur}" if right else f"g{gid} mul g{cur} g{base}")
        cur = gid
    return "\n".join(lines + [f"output g{cur}"]) + "\n"


def squaring(var: str, c: int, squarings: int) -> str:
    """(c + var)^(2^squarings) by repeated squaring."""
    lines = [f"g0 input {var}", f"g1 const {c}", "g2 add g1 g0"]
    for _ in range(squarings):
        gid = len(lines)
        lines.append(f"g{gid} mul g{gid - 1} g{gid - 1}")
    return "\n".join(lines + [f"output g{len(lines) - 1}"]) + "\n"


def skew_chain(var: str, c: int, d: int) -> str:
    """The skew chain p0 = c, p <- p + var*p, d times: c*(1 + var)^d."""
    lines = [f"g0 const {c}", f"g1 input {var}"]
    cur = 0
    for _ in range(d):
        gid = len(lines)
        lines += [f"g{gid} mul g1 g{cur}", f"g{gid + 1} add g{cur} g{gid}"]
        cur = gid + 1
    return "\n".join(lines + [f"output g{cur}"]) + "\n"


def power_of_sum(coeffs: dict, d: int) -> str:
    """(sum_i a_i x_i)^d: one sum gate, then a left chain of products."""
    lines = []
    addends = []
    for name, a in coeffs.items():
        gid = len(lines)
        lines += [f"g{gid} input {name}", f"g{gid + 1} const {a}", f"g{gid + 2} mul g{gid + 1} g{gid}"]
        addends.append(gid + 2)
    total = addends[0]
    for gid in addends[1:]:
        lines.append(f"g{len(lines)} add g{total} g{gid}")
        total = len(lines) - 1
    return _chain(lines, total, d, False)


# ---------------------------------------------------------------------------
# Checks shared by the workloads


def check_reduce(path: str, kind: str, expected: dict | None):
    """Header names the construction; the embedded source polynomial, when
    expected, equals the benchmark's own expansion."""

    def check(res: Result):
        text = Path(path).read_text()
        if not text.startswith(f"reduction {kind}\n"):
            return f"{path} does not start with 'reduction {kind}'", 0
        cells = sum(1 for line in text.splitlines() if line.startswith("entry "))
        if expected is not None and checks.embedded_source_poly(text) != expected:
            return f"{path}: embedded source-poly differs from the binomial expansion", cells
        return None, cells

    return check


def check_verify(terms: int):
    def check(res: Result):
        v = checks.verdict_fields(res.stdout)
        got = int(v.get("result-terms", -1))
        if v.get("verdict") != "pass":
            return f"verdict {v.get('verdict')!r}", got
        if got != terms or int(v.get("source-terms", -1)) != terms:
            return f"{got} result terms, expected {terms}", got
        return None, got

    return check


def check_mismatch(res: Result):
    """The planted control: verify must report a mismatch with a witness."""
    v = checks.verdict_fields(res.stdout)
    got = int(v.get("result-terms", -1))
    if v.get("verdict") != "fail" or "witness" not in v:
        return "corrupted reduction was not reported with a witness", got
    return None, got


def check_poly_file(path: str, expected: Callable[[dict], str | None]):
    def check(res: Result):
        poly = checks.read_poly_file(path)
        return expected(poly), len(poly)

    return check


def check_ranks(expected: dict):
    """`<cut> <rank>` lines against closed forms."""

    def check(res: Result):
        got = {}
        for line in res.stdout.splitlines():
            cut, rank = line.split()
            got[int(cut)] = int(rank)
        if got != expected:
            return f"ranks {got}, expected {expected}", sum(got.values())
        return None, sum(got.values())

    return check


def corrupt_entry(src: str, dst: str, pick: float, delta: int):
    """Copy a reduction file, adding `delta` to the coefficient of one cell
    on the start row or the accept column.  Every accepting path begins on
    the start row and ends in the accept column, so in a trimmed
    construction each such cell carries part of the result; with positive
    entries throughout, a larger coefficient cannot cancel out."""

    def step():
        lines = Path(src).read_text().splitlines()
        dim = next(line.split()[1] for line in lines if line.startswith("dim "))
        candidates = [
            i
            for i, line in enumerate(lines)
            if line.startswith("entry ") and (line.split()[1] == "1" or line.split()[2] == dim)
        ]
        i = candidates[int(pick * len(candidates))]
        tokens = lines[i].split()
        tokens[3] = str(Fraction(tokens[3]) + delta)
        lines[i] = " ".join(tokens)
        Path(dst).write_text("\n".join(lines) + "\n")

    return step


# ---------------------------------------------------------------------------
# parse-trees: few output terms, exponentially many parse trees


def parse_trees(rng: random.Random, smoke: bool) -> Plan:
    chain_d, plain_d, squarings, pal_ds = (4, 4, 2, (4, 5)) if smoke else (8, 9, 3, (11, 12))
    var = rng.choice(LETTERS)
    a, b = rng.sample(range(2, 10), 2)  # distinct: equal constants would share a bracket
    c = rng.randint(2, 9)
    affine = checks.binomial_power(a, b, chain_d, var)
    circuits = [
        ("left", "dyck-complete", affine_chain(var, a, b, chain_d, False), affine),
        ("right", "dyck-complete", affine_chain(var, a, b, chain_d, True), affine),
        ("plain", "dyck-complete", plain_chain(var, c, plain_d),
         checks.binomial_power(c, 1, plain_d, var)),
        ("square", "dyck-complete", squaring(var, c, squarings),
         checks.binomial_power(c, 1, 2**squarings, var)),
    ]
    for d in pal_ds:
        skew = {w: c * k for w, k in checks.binomial_power(1, 1, d, var).items()}
        circuits.append((f"skew{d}", "pal-vsk", skew_chain(var, c, d), skew))
    files = {}
    jobs = []
    for name, kind, text, expected in circuits:
        files[f"{name}.circuit"] = text
        red = f"{name}.red"
        jobs.append(
            Job("reduce", ["reduce", kind, f"circuit={name}.circuit", "--out", red],
                check_reduce(red, kind, expected))
        )
        jobs.append(Job("verify", ["verify", red], check_verify(len(expected))))
        if name == "square":
            corrupt = corrupt_entry(red, "square-bad.red", rng.random(), rng.randint(1, 5))
            jobs.append(
                Job("verify", ["verify", "square-bad.red"], check_mismatch, expect_exit=1,
                    before=corrupt)
            )
    return Plan(files, jobs)


# ---------------------------------------------------------------------------
# big-output: cost follows the number of output terms


def big_output(rng: random.Random, smoke: bool) -> Plan:
    if smoke:
        dd, dk, per_n, chi_n, compose_n, expand_d, had_d = (2, 3, 4), (3, 4), 3, 3, 4, 4, 4
    else:
        dd, dk, per_n, chi_n, compose_n, expand_d, had_d = (3, 5, 7), (3, 10), 5, 4, 8, 10, 7
    names = rng.sample(LETTERS, 3)
    coeffs = {name: rng.randint(2, 9) for name in names}
    chi_lines = [
        " ".join(map(str, sigma)) + f" -> {rng.randint(1, 9)}/{rng.randint(1, 4)}"
        for sigma in itertools.permutations(range(1, chi_n + 1))
    ]
    abp = _abp_text(rng, names, width=4, depth=had_d)
    had_circuit = power_of_sum(coeffs, had_d)
    power_poly = "".join(
        f"{checks.power_coefficient(coeffs, w)} {' '.join(w)}\n"
        for w in itertools.product(names, repeat=had_d)
    )
    files = {
        "chi.txt": "\n".join(chi_lines) + "\n",
        "pow-expand.circuit": power_of_sum(coeffs, expand_d),
        "pow-hadamard.circuit": had_circuit,
        "pow-hadamard.poly": power_poly,
        "width4.abp": abp,
    }
    k1, k2, n = dd
    depth_terms = checks.bounded_dyck_count(2, n, k1)
    oracle: dict = {}

    def hadamard_expected(poly: dict):
        if not oracle:
            oracle.update(checks.hadamard_oracle(had_circuit, abp))
        return None if poly == oracle else "differs from hadamard_bruteforce(expand, abp_eval)"

    def family_expected(poly: dict):
        if len(poly) != depth_terms or set(poly.values()) != {1}:
            return f"{len(poly)} terms, expected {depth_terms} with coefficient 1"
        return None

    dk_k, dk_d = dk
    jobs = [
        Job("family", ["family", f"dyckdepth:k={k1},n={n}", "--out", "dyckdepth.poly"],
            check_poly_file("dyckdepth.poly", family_expected)),
        Job("reduce", ["reduce", "depth", f"k1={k1}", f"k2={k2}", f"n={n}", "--out", "depth.red"],
            check_reduce("depth.red", "dyck-depth", None)),
        Job("verify", ["verify", "depth.red", "--source", "poly:dyckdepth.poly"],
            check_verify(depth_terms)),
        Job("reduce", ["reduce", "dk-d2", f"k={dk_k}", f"d={dk_d}", "--out", "dk.red"],
            check_reduce("dk.red", "dk-d2", None)),
        Job("verify", ["verify", "dk.red"], check_verify(checks.dyck_count(dk_k, dk_d))),
        Job("reduce", ["reduce", "per-idstar", f"n={per_n}", "--out", "per-idstar.red"],
            check_reduce("per-idstar.red", "per-idstar", None)),
        Job("verify", ["verify", "per-idstar.red"], check_verify(factorial(per_n))),
        Job("reduce", ["reduce", "per-chi", f"n={chi_n}", "chi=chi.txt", "--out", "per-chi.red"],
            check_reduce("per-chi.red", "per-chi", None)),
        Job("verify", ["verify", "per-chi.red"], check_verify(factorial(chi_n))),
        Job("reduce", ["reduce", "depth", "k1=2", "k2=3", f"n={compose_n}", "--out", "d23.red"],
            check_reduce("d23.red", "dyck-depth", None)),
        Job("reduce", ["reduce", "depth", "k1=3", "k2=4", f"n={compose_n}", "--out", "d34.red"],
            check_reduce("d34.red", "dyck-depth", None)),
        Job("compose", ["compose", "d23.red", "d34.red", "--out", "d24.red"],
            check_reduce("d24.red", "compose", None)),
        Job("verify", ["verify", "d24.red"],
            check_verify(checks.bounded_dyck_count(2, compose_n, 2))),
        Job("expand", ["expand", "pow-expand.circuit", "--out", "pow-expand.poly"],
            check_poly_file("pow-expand.poly",
                            lambda poly: checks.check_power_of_sum(poly, coeffs, expand_d))),
        Job("hadamard",
            ["hadamard", "--circuit", "pow-hadamard.circuit", "--abp", "width4.abp",
             "--out", "hadamard-circuit.poly"],
            check_poly_file("hadamard-circuit.poly", hadamard_expected)),
        Job("hadamard",
            ["hadamard", "--poly", "pow-hadamard.poly", "--abp", "width4.abp",
             "--out", "hadamard-poly.poly"],
            check_poly_file("hadamard-poly.poly", hadamard_expected)),
    ]
    return Plan(files, jobs)


def _abp_text(rng: random.Random, names: list, width: int, depth: int) -> str:
    """A complete layered ABP: every edge carries every variable with a
    nonzero seeded coefficient, so the seed never changes its sparsity."""
    layers = [1] + [width] * (depth - 1) + [1]
    lines = ["layers " + " ".join(f"{i}:{n}" for i, n in enumerate(layers))]
    for gap in range(depth):
        for u in range(layers[gap]):
            for v in range(layers[gap + 1]):
                form = " ".join(f"{rng.choice((-1, 1)) * rng.randint(1, 5)} {x}" for x in names)
                lines.append(f"edge {gap} {u} {v} {form}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hankel: coefficient blocks and exact rank


def hankel(rng: random.Random, smoke: bool) -> Plan:
    if smoke:
        big_dyck, mod_dyck, per, pal = (6, [3]), (6, [2, 3]), (4, [2]), (3, 3)
    else:
        big_dyck, mod_dyck, per, pal = (12, [6]), (12, [4, 5]), (7, [3]), (7, 3)
    prime = rng.choice(PRIMES)

    def cuts(values):
        return [arg for c in values for arg in ("--cut", str(c))]

    d, dcuts = big_dyck
    md, mcuts = mod_dyck
    per_n, per_cuts = per
    pal_n, pal_k = pal
    jobs = [
        Job("rank", ["rank", f"dyck:k=2,d={d}", *cuts(dcuts)],
            check_ranks({c: checks.dyck_rank(2, d, c) for c in dcuts})),
        Job("rank", ["--field", f"p={prime}", "rank", f"dyck:k=2,d={md}", *cuts(mcuts)],
            check_ranks({c: checks.dyck_rank(2, md, c) for c in mcuts})),
        Job("rank", ["rank", f"per:n={per_n}", *cuts(per_cuts)],
            check_ranks({c: checks.per_rank(per_n, c) for c in per_cuts})),
        Job("rank", ["rank", f"pal:n={pal_n},k={pal_k}", *cuts([pal_n])],
            check_ranks({pal_n: checks.pal_rank(pal_k, pal_n, pal_n)})),
    ]
    return Plan({}, jobs)
