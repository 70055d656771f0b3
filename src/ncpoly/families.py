"""Generators for the named polynomial families.

Every generator enumerates its defining support directly (no circuit or
ABP evaluation), so family instances double as independent oracles for
the reduction tests.  Families of one shape share one builder: sums over
per-position choices of (c_1 ... c_n)^r (id, idprime, idstar, powsum,
prodsums) and chi-weighted powers of permutation words (per, perchi,
perstar, perstarchi).  Builders resolve each variable's one-letter word
once per family and build whole words by joining and repeating strings;
balanced words come bottom-up by first return, after the same recurrence
has counted them against the term budget.  Every builder checks its term count against the budget in
force when it realizes (algebra.budget), before it builds.  Realization
is lazy: reduction targets such as high-arity Dyck instances are often
only consumed through their support structure, never expanded.  The
balanced-word and palindrome families record that structure in
meta["grammar"] as (pairs, half-length, tail flag, depth cap), which the
structured apply of a reduction reads.  The choice and permutation
families stream instead: FamilyInstance.stream yields their terms one at
a time in sorted word order, after the same up-front count check, and
their realization files that stream.  The balanced-word families, per,
prodsums, powsum and twochains also carry a lazy ABP builder in
meta["abp"], from which `rank` reads Hankel ranks without expanding them.
"""

import itertools
from collections.abc import Iterator
from operator import getitem
from pathlib import Path

from .abp import Abp, bounded_depth_dyck_abp, dyck_pairs, dyck_table, permanent_abp
from .algebra import EXACT_COUNT, NCPoly, VarTable, budget, capped_product
from .fields import QQ, Field


# ---------------------------------------------------------------------------
# Balanced words


def _first_return_rows(half: int, depth_cap: int | None, empty, zero, join):
    """Yield, for m = 0..half, a value over the balanced words of
    half-length m and depth <= depth_cap (None: no cap), built bottom-up by
    the first return o u c v: u inside the first pair has half-length
    m1 < m and depth <= d-1, the tail v has m-1-m1 and depth <= d.

    levels[d] lists the rows of depth d; join(inner, same, m) builds row m
    from the rows of levels d-1 and d.  Rows with m <= d hold no deeper
    words, so level d starts as a copy of level d-1 at m = d, and stops
    growing once the top level no longer reads it.  Depth 0 holds only the
    empty word; its zero rows are added one per half-length as the rows
    are read, so a caller that stops early never sizes a list by half.
    """
    cap = half if depth_cap is None else max(0, min(depth_cap, half))
    levels = [[empty]]
    yield empty
    for m in range(1, half + 1):
        levels[0].append(zero)
        if len(levels) <= min(m, cap):
            levels.append(levels[-1][:m])
        for d in range(max(1, cap - half + m), len(levels)):
            levels[d].append(join(levels[d - 1], levels[d], m))
        yield levels[-1][m]


def _balanced_words(pairs, length: int, depth_cap: int | None = None):
    """All balanced words of the given length over typed pairs, with
    nesting depth <= depth_cap (None: no cap), in first-return order.

    The term budget is checked before any word is built: the same
    recurrence counts the words row by row and raises TermBudgetError at
    the first half-length whose count exceeds it.  Counts never fall as
    the half-length grows, so a refusal costs about log(budget) rows.
    """
    if length % 2:
        return []
    half = length // 2
    limits = budget()

    def count(inner, same, m):
        return len(pairs) * sum(inner[m1] * same[m - 1 - m1] for m1 in range(m))

    for m, n in enumerate(_first_return_rows(half, depth_cap, 1, 0, count)):
        limits.check_terms(n, f"the sum of balanced words of length {2 * m}")

    letters = [(chr(o), chr(c)) for o, c in pairs]

    def words(inner, same, m):
        out = []
        for m1 in range(m):
            heads = [o + u + c for o, c in letters for u in inner[m1]]
            out += [h + v for h in heads for v in same[m - 1 - m1]]
        return out

    *_, top = _first_return_rows(half, depth_cap, [""], [], words)
    return top


# ---------------------------------------------------------------------------
# Family instances


class FamilyInstance:
    """A realized (or lazily realizable) member of a named family.

    table is a VarTable, or a function that builds it at the first read of
    the table property: a family whose table grows with its size (n^2
    variables for the permutation families) reads it only after its
    route's budget check, so an oversized instance is refused before any
    of its variables is named.
    """

    __slots__ = ("name", "params", "_table", "meta", "_poly", "_builder", "_stream")

    def __init__(self, name: str, params: dict, table, meta: dict | None = None,
                 _poly: NCPoly | None = None, _builder=None, _stream=None):
        self.name = name
        self.params = params
        self._table = table
        self.meta = {} if meta is None else meta
        self._poly = _poly
        self._builder = _builder
        self._stream = _stream

    @property
    def table(self) -> VarTable:
        if not isinstance(self._table, VarTable):
            self._table = self._table()
        return self._table

    @property
    def poly(self) -> NCPoly:
        if self._poly is None:
            self._poly = self._builder()
        return self._poly

    def stream(self) -> Iterator:
        """An iterator of the terms as (word, coefficient) pairs in sorted
        word order, read once.

        A streamed family (the choice and permutation families) checks its
        term count now, as realization does, and then builds each pair as
        it is read, so nothing is realized; any other family is realized
        and its terms sorted.
        """
        if self._stream is None:
            return iter(sorted(self.poly.terms.items()))
        return self._stream()

    @property
    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}:{inner}"

    @classmethod
    def from_poly(cls, name: str, poly: NCPoly, **params) -> "FamilyInstance":
        return cls(name, params, poly.table, _poly=poly)


def _instance(name, params, table, builder=None, stream=None, **meta):
    """An instance realized by builder, or by filing the pairs of stream,
    a function that checks the term count and returns their iterator;
    table is a VarTable or a function that builds it (FamilyInstance)."""
    if builder is None:

        def builder():
            pairs = stream()  # checks the count before the table is read
            return _poly(inst.table, pairs)

    inst = FamilyInstance(name, params, table, meta=dict(meta), _builder=builder, _stream=stream)
    return inst


def _poly(table: VarTable, terms) -> NCPoly:
    """The sum of (word, nonzero coefficient) pairs with distinct words,
    filed straight into the polynomial's terms."""
    return NCPoly.adopt(table, dict(terms))


def _ones(table: VarTable, words):
    """Each word paired with the coefficient one."""
    return zip(words, itertools.repeat(table.field.one))


# ---------------------------------------------------------------------------
# Dyck and palindrome families


def _dyck_family(name, params, k, half, depth_cap, field) -> FamilyInstance:
    """Balanced words of half-length half over k pairs with depth <= depth_cap."""
    table = dyck_table(k, field)
    pairs = dyck_pairs(table)

    def build():
        return _poly(table, _ones(table, _balanced_words(pairs, 2 * half, depth_cap)))

    def build_abp():
        cap = max(half, 1) if depth_cap is None else depth_cap
        return bounded_depth_dyck_abp(cap, half, k, table)

    grammar = (pairs, half, True, depth_cap)
    return _instance(
        name, params, table, build, pairs=pairs, depth=depth_cap, grammar=grammar, abp=build_abp
    )


def gen_dyck(k: int, d: int, field: Field = QQ) -> FamilyInstance:
    """All balanced words of even length d over k bracket pairs, coefficient 1."""
    if k < 1:
        raise ValueError("need at least one bracket pair")
    if d < 0 or d % 2:
        raise ValueError("degree must be even and nonnegative")
    return _dyck_family("dyck", {"k": k, "d": d}, k, d // 2, None, field)


def gen_dyck_depth(k_limit: int, n: int, field: Field = QQ) -> FamilyInstance:
    """Balanced words of length 2n over two pairs with nesting depth <= k_limit."""
    if k_limit < 1 or n < 1:
        raise ValueError("need k_limit >= 1 and n >= 1")
    return _dyck_family("dyckdepth", {"k": k_limit, "n": n}, 2, n, k_limit, field)


def pal_table(k: int = 2, field: Field = QQ) -> VarTable:
    return VarTable([f"x{i}" for i in range(k)], field)


def gen_pal(n: int, k: int = 2, field: Field = QQ) -> FamilyInstance:
    """Palindromes w . reverse(w) over an alphabet of k letters."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    table = pal_table(k, field)
    letters = list(range(k))

    def build():
        budget().check_term_product(itertools.repeat(k, n), "family pal")
        halves = map("".join, itertools.product(map(chr, letters), repeat=n))
        words = (w + w[::-1] for w in halves)
        return _poly(table, _ones(table, words))

    params = {"n": n} if k == 2 else {"n": n, "k": k}
    grammar = ([(x, x) for x in letters], n, False, None)
    return _instance("pal", params, table, build, letters=letters, grammar=grammar)


def gen_pal_sq(n: int, field: Field = QQ) -> FamilyInstance:
    """The square of the palindrome polynomial, built by polynomial product."""
    base = gen_pal(n, 2, field)

    def build():
        budget().check_term_product(itertools.repeat(4, n), "family palsq")
        return base.poly * base.poly

    return _instance("palsq", {"n": n}, base.table, build, letters=base.meta["letters"])


def _choice_family(name, n, table, width, letter, power) -> FamilyInstance:
    """The sum over c_i in {letter(i, 0), ..., letter(i, width - 1)},
    i = 1..n, of (c_1 ... c_n)^power, coefficient 1; letter(i, b) names a
    variable of table, a VarTable or a function that builds it.

    The width^n term count, or for power 1 the n + 1 states of the
    width-1 ABP (a product of sums of letters) in meta["abp"], is checked
    before the table or any position's letters are built.  The words are
    streamed in sorted order: each position's letters ascend, so the
    product runs through the words lexicographically.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def slots():
        return [
            sorted(inst.table.word(letter(i, b)) for b in range(width)) for i in range(1, n + 1)
        ]

    def stream():
        budget().check_term_product(itertools.repeat(width, n), f"family {name}")
        return _ones(inst.table, ("".join(w) * power for w in itertools.product(*slots())))

    def build_abp():
        budget().check_states(n + 1)
        one = inst.table.field.one
        return Abp(inst.table, [1] * (n + 1), [[(0, 0, one, v) for v in vs] for vs in slots()])

    meta = {"abp": build_abp} if power == 1 else {}
    inst = _instance(name, {"n": n}, table, stream=stream, **meta)
    return inst


def gen_id(n: int, field: Field = QQ) -> FamilyInstance:
    """Words repeated twice: sum of w.w over the two-letter alphabet."""
    return _choice_family("id", n, pal_table(2, field), 2, lambda i, b: f"x{b}", 2)


def gen_id_prime(n: int, field: Field = QQ) -> FamilyInstance:
    """Position-indexed repeated words: z1..zn z1..zn with zi in {x0_i, x1_i}."""

    def table():
        return VarTable([f"x{b}_{i}" for i in range(1, n + 1) for b in (0, 1)], field)

    return _choice_family("idprime", n, table, 2, lambda i, b: f"x{b}_{i}", 2)


# ---------------------------------------------------------------------------
# Permanent-style families


def per_table(n: int, field: Field = QQ) -> VarTable:
    return VarTable([f"x{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)], field)


class ChiTable:
    """Total map from permutations of [n] (one-based tuples) to nonzero scalars."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        self.n = n
        self.values = values
        # checked key by key, so a short table for a large n is refused
        # without enumerating the n! permutations, and n! is multiplied
        # out only up to EXACT_COUNT
        extra = [s for s in values if len(s) != n or sorted(s) != list(range(1, n + 1))]
        found = len(values) - len(extra)
        count, whole = capped_product(range(2, n + 1), EXACT_COUNT)
        if count > found:
            more = "" if whole else "at least "
            raise ValueError(f"chi table misses {more}{count - found} permutations")
        if extra:
            raise ValueError(f"chi table has non-permutation keys: {sorted(extra)[:3]}")
        for sigma, v in values.items():
            if v == 0:
                raise ValueError(f"chi value for {sigma} is zero")

    @classmethod
    def parse(cls, text: str, n: int, field: Field = QQ) -> "ChiTable":
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            lhs, _, rhs = line.partition("->")
            if not rhs:
                raise ValueError(f"bad chi line {raw!r}")
            sigma = tuple(int(tok) for tok in lhs.split())
            if sigma in values:
                raise ValueError(f"chi table repeats the permutation {' '.join(map(str, sigma))}")
            values[sigma] = field.parse(rhs.strip())
        return cls(n, values)


def _perm_family(name, n, chi, power, field) -> FamilyInstance:
    """The sum over permutations s of [n] of chi(s) (x_{1,s(1)} ... x_{n,s(n)})^power;
    chi None gives coefficient 1.

    The words are streamed in sorted order: x{i}_{j} ascends with j, and
    the permutations come in lexicographic order.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def stream():
        budget().check_term_product(range(2, n + 1), f"family {name}")
        table = inst.table
        # rows[i-1][j] is the letter of x{i}_{j}, so map(getitem, rows, s) spells s's word
        cols = range(1, n + 1)
        rows = [{j: table.word(f"x{i}_{j}") for j in cols} for i in cols]
        words = ("".join(map(getitem, rows, s)) * power for s in itertools.permutations(cols))
        if chi is None:
            return _ones(table, words)
        return zip(words, map(chi.values.__getitem__, itertools.permutations(cols)))

    inst = _instance(name, {"n": n}, lambda: per_table(n, field), stream=stream)
    return inst


def gen_per(n: int, field: Field = QQ) -> FamilyInstance:
    """Permutation words x_{1,s(1)} ... x_{n,s(n)}, coefficient 1; its
    ABP's 2^n states are checked before the table is built."""
    inst = _perm_family("per", n, None, 1, field)

    def build_abp():
        budget().check_state_product(itertools.repeat(2, n))
        return permanent_abp(n, inst.table)

    inst.meta["abp"] = build_abp
    return inst


def gen_per_chi(n: int, chi: ChiTable, field: Field = QQ) -> FamilyInstance:
    """Permutation words weighted by chi."""
    return _perm_family("perchi", n, chi, 1, field)


def gen_per_star(n: int, field: Field = QQ) -> FamilyInstance:
    """Each permutation word repeated n times, coefficient 1."""
    return _perm_family("perstar", n, None, n, field)


def gen_per_star_chi(n: int, chi: ChiTable, field: Field = QQ) -> FamilyInstance:
    """Each permutation word repeated n times, weighted by chi."""
    return _perm_family("perstarchi", n, chi, n, field)


def gen_id_star(n: int, field: Field = QQ) -> FamilyInstance:
    """Each word x_{1,i1}..x_{n,in} (all index choices) repeated n^2 times."""
    return _choice_family(
        "idstar", n, lambda: per_table(n, field), n, lambda i, b: f"x{i}_{b + 1}", n * n
    )


# ---------------------------------------------------------------------------
# The alternating-product hierarchy


def hierarchy_table(i: int, n: int, field: Field = QQ) -> VarTable:
    if i == 1:
        return pal_table(2, field)
    names = []
    for j in range(1, i):
        for b in (1, 2):
            names.extend([f"({b}_f{j}", f"){b}_f{j}"])
        names.extend([f"x0_f{j}", f"x1_f{j}"])
    return VarTable(names, field)


def gen_hierarchy(i: int, n: int, field: Field = QQ) -> FamilyInstance:
    """Level 1 is the repeated-word family; level i >= 2 multiplies i-1
    copies of (balanced-words x repeated-words), each copy over its own
    tagged variables so indexed projections can address factors.

    The factors use disjoint variables, so each product's term count, the
    product of the factors' counts, is checked before multiplying.
    meta["degree"] is known without realizing the instance.
    """
    if i < 1 or n < 1:
        raise ValueError("need i >= 1 and n >= 1")
    if i == 1:
        inst = gen_id(n, field)
        return _instance("hier", {"i": 1, "n": n}, inst.table, lambda: inst.poly, degree=2 * n)
    table = hierarchy_table(i, n, field)

    def build():
        acc = NCPoly.const(table, field.one)
        for j in range(1, i):
            pairs = [(table.var(f"({b}_f{j}").id, table.var(f"){b}_f{j}").id) for b in (1, 2)]
            words = _balanced_words(pairs, 2 * n)
            budget().check_terms(len(acc.terms) * len(words), "family hier")
            acc = acc * _poly(table, _ones(table, words))
            budget().check_terms(len(acc.terms) * 2**n, "family hier")
            xs = table.word(f"x0_f{j}", f"x1_f{j}")
            halves = map("".join, itertools.product(xs, repeat=n))
            acc = acc * _poly(table, _ones(table, (w * 2 for w in halves)))
        return acc

    return _instance("hier", {"i": i, "n": n}, table, build, degree=4 * n * (i - 1))


# ---------------------------------------------------------------------------
# Separation witnesses


def sums_table(n: int, field: Field = QQ) -> VarTable:
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    return VarTable(names, field)


def gen_product_of_sums(n: int, field: Field = QQ) -> FamilyInstance:
    """(x1+y1)(x2+y2)...(xn+yn): 2^n monomials."""
    return _choice_family(
        "prodsums", n, lambda: sums_table(n, field), 2, lambda i, b: f"{'xy'[b]}{i}", 1
    )


def gen_two_chains(n: int, field: Field = QQ) -> FamilyInstance:
    """x1...xn + y1...yn: two monomials on the same table as the product.

    meta["abp"] is its width-2 ABP: one chain of vertices per monomial,
    joined at the source and the sink.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def chains():
        return [inst.table.word(*(f"{x}{i}" for i in range(1, n + 1))) for x in "xy"]

    def build():
        budget().check_terms(2, "family twochains")
        return _poly(inst.table, _ones(inst.table, chains()))

    def build_abp():
        budget().check_states(2 * n)
        one = field.one

        def vertex(layer, b):  # chain b's vertex, the source and sink shared
            return 0 if layer in (0, n) else b

        words = chains()
        edges = [
            [(vertex(i, b), vertex(i + 1, b), one, chain[i]) for b, chain in enumerate(words)]
            for i in range(n)
        ]
        return Abp(inst.table, [1] + [2] * (n - 1) + [1], edges)

    inst = _instance("twochains", {"n": n}, lambda: sums_table(n, field), build, abp=build_abp)
    return inst


def gen_power_of_sum(n: int, field: Field = QQ) -> FamilyInstance:
    """(z0+z1)^n over two letters: the indexed-projection separation target."""
    return _choice_family("powsum", n, VarTable(["z0", "z1"], field), 2, lambda i, b: f"z{b}", 1)


# ---------------------------------------------------------------------------
# Commutative version (set-multilinear position tagging)


def tagged_table(table: VarTable, d: int) -> VarTable:
    """One fresh variable per (source variable, position), position-major."""
    names = []
    for i in range(1, d + 1):
        for name in table.names:
            names.append(f"{name}@{i}")
    return VarTable(names, table.field)


def tag_positions(table: VarTable) -> dict:
    """Map each tagged variable id back to (source name, position)."""
    out = {}
    for v in table.vars():
        name, _, pos = v.name.rpartition("@")
        out[v.id] = (name, int(pos))
    return out


# No command reaches it yet: it waits for the VNP-separation command on the ROADMAP.
def commutative_version(f: NCPoly, out_table: VarTable | None = None) -> NCPoly:
    """Tag each letter with its position; words stay in position order.

    Distinct words stay distinct because the tags disambiguate, so the term
    count is preserved exactly.
    """
    if not f.is_homogeneous():
        raise ValueError("commutative version needs a homogeneous polynomial")
    d = f.degree()
    if d <= 0:
        return NCPoly.adopt(out_table or VarTable(field=f.table.field), dict(f.terms))
    table = out_table or tagged_table(f.table, d)
    terms = {}
    for w, c in f.terms.items():
        tagged = table.word(*(f"{name}@{i}" for i, name in enumerate(f.table.word_names(w), 1)))
        terms[tagged] = c
    assert len(terms) == len(f.terms)
    return NCPoly.adopt(table, terms)


# ---------------------------------------------------------------------------
# Family spec strings, e.g. dyck:k=2,d=6 or perstarchi:n=2,chi=table.txt


FAMILY_SPEC_HELP = (
    "dyck:k=2,d=6 | pal:n=3[,k=4] | palsq:n=2 | id:n=3 | idprime:n=2 | "
    "idstar:n=2 | per:n=3 | perchi:n=2,chi=FILE | perstar:n=2 | "
    "perstarchi:n=2,chi=FILE | hier:i=2,n=1 | dyckdepth:k=2,n=3 | "
    "prodsums:n=3 | twochains:n=3 | powsum:n=3"
)


class Params(dict):
    """The key=value parameters of a family spec or a reduction.

    Construction refuses a part without "=" and a repeated key.  text and
    num record each key they read, and finish refuses every key that
    nothing read, so a misspelt or stray key never silently selects a
    different instance.
    """

    def __init__(self, owner: str, parts):
        super().__init__()
        self.owner = owner
        self.read: set[str] = set()
        for part in parts:
            key, eq, value = (s.strip() for s in part.partition("="))
            if not eq:
                raise ValueError(f"{owner}: expected key=value, got {part!r}")
            if key in self:
                raise ValueError(f"{owner} repeats parameter {key!r}")
            self[key] = value

    def text(self, key: str, default=None):
        self.read.add(key)
        if key in self:
            return self[key]
        if default is None:
            raise ValueError(f"{self.owner} needs parameter {key!r}")
        return default

    def num(self, key: str, default=None) -> int:
        return int(self.text(key, default))

    def finish(self) -> None:
        unknown = sorted(set(self) - self.read)
        if unknown:
            raise ValueError(f"{self.owner} has no parameter {', '.join(map(repr, unknown))}")


def parse_family_spec(spec: str) -> tuple:
    name, _, rest = spec.partition(":")
    name = name.strip()
    return name, Params(f"family {name!r}", rest.split(",") if rest else ())


def make_family(spec: str, field: Field = QQ) -> FamilyInstance:
    """Build the instance a spec string names; realization stays lazy.

    Raises ValueError for an unknown family, a missing, repeated or
    malformed parameter, or any parameter the family does not read.
    """
    name, params = parse_family_spec(spec)
    num = params.num

    def chi_arg(n):
        return ChiTable.parse(Path(params.text("chi")).read_text(), n, field)

    builders = {
        "dyck": lambda: gen_dyck(num("k"), num("d"), field),
        "dyckdepth": lambda: gen_dyck_depth(num("k"), num("n"), field),
        "pal": lambda: gen_pal(num("n"), num("k", 2), field),
        "palsq": lambda: gen_pal_sq(num("n"), field),
        "id": lambda: gen_id(num("n"), field),
        "idprime": lambda: gen_id_prime(num("n"), field),
        "idstar": lambda: gen_id_star(num("n"), field),
        "per": lambda: gen_per(num("n"), field),
        "perchi": lambda: gen_per_chi(num("n"), chi_arg(num("n")), field),
        "perstar": lambda: gen_per_star(num("n"), field),
        "perstarchi": lambda: gen_per_star_chi(num("n"), chi_arg(num("n")), field),
        "hier": lambda: gen_hierarchy(num("i"), num("n"), field),
        "prodsums": lambda: gen_product_of_sums(num("n"), field),
        "twochains": lambda: gen_two_chains(num("n"), field),
        "powsum": lambda: gen_power_of_sum(num("n"), field),
    }
    if name not in builders:
        raise ValueError(f"unknown family {name!r} (expected one of: {FAMILY_SPEC_HELP})")
    inst = builders[name]()
    params.finish()
    return inst
