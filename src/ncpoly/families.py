"""Generators for the named polynomial families.

Every generator enumerates its defining support directly (no circuit or
ABP evaluation), so family instances double as independent oracles for
the reduction tests.  Families of one shape share one builder: sums over
per-position choices of (c_1 ... c_n)^r (id, idprime, idstar, powsum,
prodsums) and chi-weighted powers of permutation words (per, perchi,
perstar, perstarchi).  Realization is lazy: reduction targets such as
high-arity Dyck instances are often only consumed through their support
structure, never expanded.  The balanced-word and palindrome families
record that structure in meta["grammar"] as (pairs, half-length, tail
flag, depth cap), which the structured apply of a reduction reads.
"""

import itertools
from dataclasses import dataclass, field as dc_field
from math import factorial, prod
from pathlib import Path

from .abp import dyck_pairs, dyck_table
from .algebra import DEFAULT_TERM_BUDGET, NCPoly, TermBudgetError, VarTable, Word
from .fields import QQ, Field


# ---------------------------------------------------------------------------
# Balanced words


def is_balanced(word: Word, pairs) -> bool:
    """Typed bracket matching, by the stack walk of nesting_depth."""
    try:
        nesting_depth(word, pairs)
    except ValueError:
        return False
    return True


def nesting_depth(word: Word, pairs) -> int:
    """Maximum bracket nesting of a balanced word.

    Concatenation takes the max of its parts and wrapping adds one, so the
    depth equals the maximum stack height along the word.
    """
    close_of = {o: c for o, c in pairs}
    opens = set(close_of)
    stack = []
    depth = 0
    for v in word:
        if v in opens:
            stack.append(close_of[v])
            depth = max(depth, len(stack))
        elif not stack or stack.pop() != v:
            raise ValueError("word is not balanced")
    if stack:
        raise ValueError("word is not balanced")
    return depth


def _balanced_words(pairs, length: int, depth_cap: int | None = None, limit: int | None = None):
    """All balanced words of the given length over typed pairs.

    The search keeps the invariant stack height <= letters remaining (with
    matching parity), so every branch completes and no filtering is needed.
    Words come in depth-first order, each opener in pair order before the
    closer, and each is found from the previous one without recursion:
    undo letters back to the last position that has a later move, take
    that move, and complete the word with the first move at each position.
    A limit aborts the enumeration as soon as it is exceeded.
    """
    if length % 2 or (length and depth_cap is not None and depth_cap < 1):
        return []
    rank = {o: k for k, (o, _c) in enumerate(pairs)}
    out: list[Word] = []
    word: list[int] = []
    stack: list[int] = []  # closers of the unmatched openers
    while True:
        while len(word) < length:
            if len(stack) + 2 <= length - len(word) and (
                depth_cap is None or len(stack) < depth_cap
            ):
                word.append(pairs[0][0])
                stack.append(pairs[0][1])
            else:
                word.append(stack.pop())
        if limit is not None and len(out) >= limit:
            raise TermBudgetError(f"balanced-word enumeration exceeded {limit} terms")
        out.append(tuple(word))
        while word:
            v = word.pop()
            k = rank.get(v)
            if k is None:  # a closer, whose position has no later move
                stack.append(v)
                continue
            stack.pop()
            if k + 1 < len(pairs):
                word.append(pairs[k + 1][0])
                stack.append(pairs[k + 1][1])
                break
            if stack:
                word.append(stack.pop())
                break
        else:
            return out


# ---------------------------------------------------------------------------
# Family instances


@dataclass
class FamilyInstance:
    """A realized (or lazily realizable) member of a named family."""

    name: str
    params: dict
    table: VarTable
    meta: dict = dc_field(default_factory=dict)
    _poly: NCPoly | None = None
    _builder: object = None

    @property
    def poly(self) -> NCPoly:
        if self._poly is None:
            self._poly = self._builder()
        return self._poly

    @property
    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}:{inner}"

    @classmethod
    def from_poly(cls, name: str, poly: NCPoly, **params) -> "FamilyInstance":
        return cls(name, params, poly.table, _poly=poly)


def _instance(name, params, table, builder, **meta):
    return FamilyInstance(name, params, table, meta=dict(meta), _builder=builder)


# ---------------------------------------------------------------------------
# Dyck and palindrome families


def gen_dyck(
    k: int, d: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """All balanced words of even length d over k bracket pairs, coefficient 1."""
    if k < 1:
        raise ValueError("need at least one bracket pair")
    if d < 0 or d % 2:
        raise ValueError("degree must be even and nonnegative")
    table = dyck_table(k, field)
    pairs = dyck_pairs(table)

    def build():
        one = field.one
        return NCPoly(table, {w: one for w in _balanced_words(pairs, d, limit=term_budget)})

    grammar = (pairs, d // 2, True, None)
    return _instance("dyck", {"k": k, "d": d}, table, build, pairs=pairs, grammar=grammar)


def gen_dyck_depth(
    k_limit: int, n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Balanced words of length 2n over two pairs with nesting depth <= k_limit."""
    if k_limit < 1 or n < 1:
        raise ValueError("need k_limit >= 1 and n >= 1")
    table = dyck_table(2, field)
    pairs = dyck_pairs(table)

    def build():
        one = field.one
        return NCPoly(
            table, {w: one for w in _balanced_words(pairs, 2 * n, k_limit, limit=term_budget)}
        )

    grammar = (pairs, n, True, k_limit)
    params = {"k": k_limit, "n": n}
    return _instance("dyckdepth", params, table, build, pairs=pairs, depth=k_limit, grammar=grammar)


def pal_table(k: int = 2, field: Field = QQ) -> VarTable:
    return VarTable([f"x{i}" for i in range(k)], field)


def _check_count(count: int, term_budget: int | None) -> None:
    if term_budget is not None and count > term_budget:
        raise TermBudgetError(f"family would hold {count} terms")


def gen_pal(
    n: int, k: int = 2, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Palindromes w . reverse(w) over an alphabet of k letters."""
    if n < 1:
        raise ValueError("need n >= 1")
    table = pal_table(k, field)
    letters = list(range(k))

    def build():
        _check_count(k**n, term_budget)
        one = field.one
        terms = {}
        for w in itertools.product(letters, repeat=n):
            terms[w + tuple(reversed(w))] = one
        return NCPoly(table, terms)

    params = {"n": n} if k == 2 else {"n": n, "k": k}
    grammar = ([(x, x) for x in letters], n, False, None)
    return _instance("pal", params, table, build, letters=letters, grammar=grammar)


def gen_pal_sq(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """The square of the palindrome polynomial, built by polynomial product."""
    base = gen_pal(n, 2, field, term_budget)

    def build():
        _check_count(4**n, term_budget)
        return base.poly * base.poly

    return _instance("palsq", {"n": n}, base.table, build, letters=base.meta["letters"])


def _choice_family(name, n, table, choices, power, term_budget) -> FamilyInstance:
    """The sum over c_i in choices(i), i = 1..n, of (c_1 ... c_n)^power,
    coefficient 1; choices(i) names the variables allowed at position i."""
    if n < 1:
        raise ValueError("need n >= 1")

    def build():
        slots = [[table.var(v).id for v in choices(i)] for i in range(1, n + 1)]
        _check_count(prod(map(len, slots)), term_budget)
        one = table.field.one
        return NCPoly(table, {w * power: one for w in itertools.product(*slots)})

    return _instance(name, {"n": n}, table, build)


def gen_id(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Words repeated twice: sum of w.w over the two-letter alphabet."""
    return _choice_family("id", n, pal_table(2, field), lambda i: ("x0", "x1"), 2, term_budget)


def gen_id_prime(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Position-indexed repeated words: z1..zn z1..zn with zi in {x0_i, x1_i}."""
    table = VarTable([f"x{b}_{i}" for i in range(1, n + 1) for b in (0, 1)], field)
    return _choice_family("idprime", n, table, lambda i: (f"x0_{i}", f"x1_{i}"), 2, term_budget)


# ---------------------------------------------------------------------------
# Permanent-style families


def per_table(n: int, field: Field = QQ) -> VarTable:
    return VarTable([f"x{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)], field)


@dataclass
class ChiTable:
    """Total map from permutations of [n] (one-based tuples) to nonzero scalars."""

    n: int
    values: dict
    max_distinct: int | None = None

    def __post_init__(self):
        # checked key by key, so a short table for a large n is refused
        # without enumerating the n! permutations
        identity = tuple(range(1, self.n + 1))
        extra = [s for s in self.values if tuple(sorted(s)) != identity]
        missing = factorial(self.n) - (len(self.values) - len(extra))
        if missing:
            raise ValueError(f"chi table misses {missing} permutations")
        if extra:
            raise ValueError(f"chi table has non-permutation keys: {sorted(extra)[:3]}")
        for sigma, v in self.values.items():
            if v == 0:
                raise ValueError(f"chi value for {sigma} is zero")
        if self.max_distinct is not None:
            distinct = len(set(self.values.values()))
            if distinct > self.max_distinct:
                raise ValueError(
                    f"{distinct} distinct chi values exceed the bound {self.max_distinct}"
                )

    @classmethod
    def constant(cls, n: int, value=None, field: Field = QQ) -> "ChiTable":
        if value is None:
            value = field.one
        return cls(n, {s: value for s in itertools.permutations(range(1, n + 1))})

    @classmethod
    def parse(cls, text: str, n: int, field: Field = QQ, max_distinct=None) -> "ChiTable":
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            lhs, _, rhs = line.partition("->")
            if not rhs:
                raise ValueError(f"bad chi line {raw!r}")
            sigma = tuple(int(tok) for tok in lhs.split())
            values[sigma] = field.parse(rhs.strip())
        return cls(n, values, max_distinct)

    def format(self, field: Field = QQ) -> str:
        lines = []
        for sigma in sorted(self.values):
            lines.append(" ".join(map(str, sigma)) + " -> " + field.format(self.values[sigma]))
        return "\n".join(lines) + "\n"


def _perm_family(name, n, chi, power, field, term_budget) -> FamilyInstance:
    """The sum over permutations s of [n] of chi(s) (x_{1,s(1)} ... x_{n,s(n)})^power;
    chi None gives coefficient 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    table = per_table(n, field)

    def build():
        _check_count(factorial(n), term_budget)
        one = field.one
        terms = {}
        for s in itertools.permutations(range(1, n + 1)):
            w = tuple(table.var(f"x{i}_{j}").id for i, j in enumerate(s, 1))
            terms[w * power] = one if chi is None else chi.values[s]
        return NCPoly(table, terms)

    return _instance(name, {"n": n}, table, build, **({} if chi is None else {"chi": chi}))


def gen_per(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Permutation words x_{1,s(1)} ... x_{n,s(n)}, coefficient 1."""
    return _perm_family("per", n, None, 1, field, term_budget)


def gen_per_chi(
    n: int, chi: ChiTable, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Permutation words weighted by chi."""
    return _perm_family("perchi", n, chi, 1, field, term_budget)


def gen_per_star(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Each permutation word repeated n times, coefficient 1."""
    return _perm_family("perstar", n, None, n, field, term_budget)


def gen_per_star_chi(
    n: int, chi: ChiTable, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Each permutation word repeated n times, weighted by chi."""
    return _perm_family("perstarchi", n, chi, n, field, term_budget)


def gen_id_star(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """Each word x_{1,i1}..x_{n,in} (all index choices) repeated n^2 times."""
    return _choice_family(
        "idstar", n, per_table(n, field), lambda i: [f"x{i}_{j}" for j in range(1, n + 1)],
        n * n, term_budget,
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


def gen_hierarchy(
    i: int, n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
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
        inst = gen_id(n, field, term_budget)
        return _instance("hier", {"i": 1, "n": n}, inst.table, lambda: inst.poly, degree=2 * n)
    table = hierarchy_table(i, n, field)

    def build():
        one = field.one
        acc = NCPoly.const(table, one)
        for j in range(1, i):
            pairs = [
                (table.var(f"(1_f{j}").id, table.var(f")1_f{j}").id),
                (table.var(f"(2_f{j}").id, table.var(f")2_f{j}").id),
            ]
            words = _balanced_words(pairs, 2 * n, limit=term_budget)
            _check_count(len(acc.terms) * len(words), term_budget)
            acc = acc * NCPoly(table, {w: one for w in words})
            _check_count(len(acc.terms) * 2**n, term_budget)
            acc = acc * NCPoly(
                table,
                {
                    tuple(table.var(f"x{b}_f{j}").id for b in bits) * 2: one
                    for bits in itertools.product((0, 1), repeat=n)
                },
            )
        return acc

    return _instance("hier", {"i": i, "n": n}, table, build, degree=4 * n * (i - 1))


# ---------------------------------------------------------------------------
# Separation witnesses


def sums_table(n: int, field: Field = QQ) -> VarTable:
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    return VarTable(names, field)


def gen_product_of_sums(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """(x1+y1)(x2+y2)...(xn+yn): 2^n monomials."""
    table = sums_table(n, field)
    return _choice_family("prodsums", n, table, lambda i: (f"x{i}", f"y{i}"), 1, term_budget)


def gen_two_chains(n: int, field: Field = QQ) -> FamilyInstance:
    """x1...xn + y1...yn: two monomials on the same table as the product."""
    table = sums_table(n, field)

    def build():
        one = field.one
        return NCPoly(
            table,
            {
                tuple(table.var(f"x{i}").id for i in range(1, n + 1)): one,
                tuple(table.var(f"y{i}").id for i in range(1, n + 1)): one,
            },
        )

    return _instance("twochains", {"n": n}, table, build)


def gen_power_of_sum(
    n: int, field: Field = QQ, term_budget: int = DEFAULT_TERM_BUDGET
) -> FamilyInstance:
    """(z0+z1)^n over two letters: the indexed-projection separation target."""
    table = VarTable(["z0", "z1"], field)
    return _choice_family("powsum", n, table, lambda i: ("z0", "z1"), 1, term_budget)


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


def commutative_version(f: NCPoly, out_table: VarTable | None = None) -> NCPoly:
    """Tag each letter with its position; words stay in position order.

    Distinct words stay distinct because the tags disambiguate, so the term
    count is preserved exactly.
    """
    if not f.is_homogeneous():
        raise ValueError("commutative version needs a homogeneous polynomial")
    d = f.degree()
    if d <= 0:
        return NCPoly(out_table or VarTable(field=f.table.field), dict(f.terms))
    table = out_table or tagged_table(f.table, d)
    terms = {}
    for w, c in f.terms.items():
        tagged = tuple(
            table.var(f"{f.table.name(v)}@{i + 1}").id for i, v in enumerate(w)
        )
        terms[tagged] = c
    assert len(terms) == len(f.terms)
    return NCPoly(table, terms)


def sort_set_multilinear(f: NCPoly) -> NCPoly:
    """Rewrite each word of a tagged polynomial in increasing position order."""
    pos = tag_positions(f.table)
    terms = {}
    for w, c in f.terms.items():
        word = tuple(sorted(w, key=lambda v: pos[v][1]))
        terms[word] = terms.get(word, f.table.field.zero) + c
    return NCPoly(f.table, terms)


# ---------------------------------------------------------------------------
# Family spec strings, e.g. dyck:k=2,d=6 or perstarchi:n=2,chi=table.txt


FAMILY_SPEC_HELP = (
    "dyck:k=2,d=6 | pal:n=3[,k=4] | palsq:n=2 | id:n=3 | idprime:n=2 | "
    "idstar:n=2 | per:n=3 | perchi:n=2,chi=FILE | perstar:n=2 | "
    "perstarchi:n=2,chi=FILE | hier:i=2,n=1 | dyckdepth:k=2,n=3 | "
    "prodsums:n=3 | twochains:n=3 | powsum:n=3"
)


def parse_family_spec(spec: str):
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"bad family parameter {part!r} in {spec!r}")
            params[key.strip()] = value.strip()
    return name.strip(), params


def make_family(
    spec: str,
    field: Field = QQ,
    chi: ChiTable | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> FamilyInstance:
    """Build the instance a spec string names; realization stays lazy.

    Raises ValueError for an unknown family, a missing parameter, or any
    parameter the family does not read, so a misspelt key never silently
    selects a different instance.
    """
    name, params = parse_family_spec(spec)
    read: set[str] = set()

    def num(key, default=None):
        read.add(key)
        if key not in params:
            if default is None:
                raise ValueError(f"family {name!r} needs parameter {key!r}")
            return default
        return int(params[key])

    def chi_arg(n):
        read.add("chi")
        if chi is not None:
            return chi
        if "chi" not in params:
            raise ValueError(f"family {name!r} needs a chi table")
        text = Path(params["chi"]).read_text()
        return ChiTable.parse(text, n, field)

    builders = {
        "dyck": lambda: gen_dyck(num("k"), num("d"), field, term_budget),
        "dyckdepth": lambda: gen_dyck_depth(num("k"), num("n"), field, term_budget),
        "pal": lambda: gen_pal(num("n"), num("k", 2), field, term_budget),
        "palsq": lambda: gen_pal_sq(num("n"), field, term_budget),
        "id": lambda: gen_id(num("n"), field, term_budget),
        "idprime": lambda: gen_id_prime(num("n"), field, term_budget),
        "idstar": lambda: gen_id_star(num("n"), field, term_budget),
        "per": lambda: gen_per(num("n"), field, term_budget),
        "perchi": lambda: gen_per_chi(num("n"), chi_arg(num("n")), field, term_budget),
        "perstar": lambda: gen_per_star(num("n"), field, term_budget),
        "perstarchi": lambda: gen_per_star_chi(num("n"), chi_arg(num("n")), field, term_budget),
        "hier": lambda: gen_hierarchy(num("i"), num("n"), field, term_budget),
        "prodsums": lambda: gen_product_of_sums(num("n"), field, term_budget),
        "twochains": lambda: gen_two_chains(num("n"), field),
        "powsum": lambda: gen_power_of_sum(num("n"), field, term_budget),
    }
    if name not in builders:
        raise ValueError(f"unknown family {name!r} (expected one of: {FAMILY_SPEC_HELP})")
    inst = builders[name]()
    unknown = sorted(set(params) - read)
    if unknown:
        raise ValueError(f"family {name!r} has no parameter {', '.join(map(repr, unknown))}")
    return inst
