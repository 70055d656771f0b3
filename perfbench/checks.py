"""Independent output checks.

Nothing here calls the ncpoly code path a job times.  Polynomial text is
read by a parser of the benchmark's own, expected coefficients come from
closed forms (binomials, products, height-count DPs, rank formulas), and
the one oracle that uses ncpoly, the Hadamard brute force, goes through
`expand`, `abp_eval` and `hadamard_bruteforce`, none of which the
`hadamard` command runs.
"""

from fractions import Fraction
from math import comb
from pathlib import Path


def read_poly_text(lines) -> dict:
    """Polynomial text (`<coeff> <var> ...`, `1` for the empty word) to
    {word as a tuple of names: Fraction}, summing repeated words."""
    out: dict = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        word = () if tokens[1:] == ["1"] else tuple(tokens[1:])
        out[word] = out.get(word, 0) + Fraction(tokens[0])
    return {w: c for w, c in out.items() if c != 0}


def read_poly_file(path) -> dict:
    return read_poly_text(Path(path).read_text().splitlines())


def embedded_source_poly(reduction_text: str) -> dict | None:
    """The `source-poly` ... `end-poly` section of a reduction file."""
    lines = reduction_text.splitlines()
    try:
        start = lines.index("source-poly")
        end = lines.index("end-poly", start)
    except ValueError:
        return None
    return read_poly_text(lines[start + 1 : end])


def binomial_power(a, b, d: int, var: str) -> dict:
    """(a + b*var)^d in one variable: the coefficient of var^k is
    C(d, k) a^(d-k) b^k.  Zero coefficients are dropped."""
    out = {}
    for k in range(d + 1):
        c = comb(d, k) * Fraction(a) ** (d - k) * Fraction(b) ** k
        if c:
            out[(var,) * k] = c
    return out


def power_coefficient(coeffs: dict, word) -> Fraction:
    """Coefficient of a word in (sum_i a_i x_i)^d: the product of its letters' a_i."""
    c = Fraction(1)
    for name in word:
        c *= coeffs[name]
    return c


def check_power_of_sum(poly: dict, coeffs: dict, d: int) -> str | None:
    if len(poly) != len(coeffs) ** d:
        return f"{len(poly)} terms, expected {len(coeffs) ** d}"
    for word, c in poly.items():
        if len(word) != d or any(name not in coeffs for name in word):
            return f"unexpected word {' '.join(word)}"
        if c != power_coefficient(coeffs, word):
            return f"coefficient of {' '.join(word)} is {c}"
    return None


def bounded_dyck_count(pairs: int, n: int, depth: int) -> int:
    """Balanced words of length 2n over `pairs` bracket types whose nesting
    depth stays within `depth`, by a DP over the stack height."""
    ways = [1] + [0] * depth
    for _ in range(2 * n):
        nxt = [0] * (depth + 1)
        for h, w in enumerate(ways):
            if w:
                if h < depth:
                    nxt[h + 1] += w * pairs
                if h > 0:
                    nxt[h - 1] += w
        ways = nxt
    return ways[0]


def dyck_count(pairs: int, d: int) -> int:
    """Balanced words of length d over `pairs` types: Catalan(d/2) * pairs^(d/2)."""
    n = d // 2
    return comb(2 * n, n) // (n + 1) * pairs**n


def dyck_rank(k: int, d: int, cut: int) -> int:
    """Hankel rank of dyck:k,d at a cut: one independent row per unmatched
    stack of height h <= min(cut, d - cut) with h = cut mod 2."""
    return sum(k**h for h in range(min(cut, d - cut) + 1) if h % 2 == cut % 2)


def pal_rank(k: int, n: int, cut: int) -> int:
    """Hankel rank of pal:n,k (and id:n over k letters): k^min(cut, 2n - cut)."""
    return k ** min(cut, 2 * n - cut)


def per_rank(n: int, cut: int) -> int:
    """Hankel rank of per:n at a cut: C(n, cut)."""
    return comb(n, cut)


def verdict_fields(stdout: str) -> dict:
    """`key value` lines printed by `ncpoly verify`."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, value)
    return out


def hadamard_oracle(circuit_text: str, abp_text: str) -> dict:
    """hadamard_bruteforce(expand(c), abp_eval(g)) as {names: Fraction}."""
    from ncpoly.abp import abp_eval, parse_abp
    from ncpoly.algebra import VarTable, hadamard_bruteforce
    from ncpoly.circuits import expand, parse_circuit

    table = VarTable()
    f = expand(parse_circuit(circuit_text, table))
    g = abp_eval(parse_abp(abp_text, table))
    h = hadamard_bruteforce(f, g)
    return {table.word_names(w): Fraction(c) for w, c in h.terms.items()}
