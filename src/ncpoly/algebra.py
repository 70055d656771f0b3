"""Sparse exact polynomials over words in a free monoid.

A :class:`VarTable` fixes a universe of named variables (ids dense from 0)
together with the coefficient field.  A word is a str whose i-th
character is chr(id) of its i-th variable, so the empty word is "" and a
one-letter word is chr(id).  Code points order words as the id sequences
would, a str caches its hash, and concatenation, comparison and slicing
run in C.  Multiplication concatenates words in argument order and is
therefore noncommutative.  An :class:`NCPoly` maps words to nonzero
scalars.  Every constructor and lookup takes words in this one form;
VarTable.word spells one from variable names.  exact_rank takes dict
rows {column: scalar} and runs each through eliminate, the one
elimination loop.

A :class:`Budget` bounds what the workbench builds: ``terms`` every
expansion and intermediate polynomial, ``states`` every automaton while
it is built and the dimension of every matrix substitution.  Code reads
the budget in force with :func:`budget`; :func:`using_budget` sets one for
a block, like ``decimal.localcontext``, and code run outside such a block
gets the defaults.  The budget lives in a context variable, so each
thread and each asyncio task sees its own.

Letter substitution, the projection oracles and the other brute-force
references live beside the tests (tests/oracles.py), so no engine here
shares code with the check that tests it.  hadamard_bruteforce, the
coefficientwise product, stays because the benchmark's output checks
import it.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

from .fields import QQ, Field

Word = str  # character i is chr(variable id) of letter i

# The largest variable id: every id must be a code point.
MAX_VAR_ID = sys.maxunicode


class TableMismatchError(ValueError):
    """Operands built over different variable tables."""


class TermBudgetError(RuntimeError):
    """An expansion exceeded the configured number of terms."""


class StateBudgetError(RuntimeError):
    """A construction exceeded the configured number of automaton states."""


class VarNameError(ValueError):
    """A variable name that the text formats cannot write and read back."""


class Budget(NamedTuple):
    """The largest term count and state count a construction may reach.

    check_terms and check_states are the only code that raises
    TermBudgetError and StateBudgetError.
    """

    terms: int = 10**6
    states: int = 10**5

    def check_terms(self, count: int, what: str) -> None:
        if count > self.terms:
            raise TermBudgetError(
                f"{what} holds {count} terms, over the budget of {self.terms} terms"
            )

    def check_states(self, count: int) -> None:
        if count > self.states:
            raise StateBudgetError(f"state budget {self.states} exceeded: {count} states")


_BUDGET: ContextVar[Budget] = ContextVar("ncpoly_budget", default=Budget())


def budget() -> Budget:
    """The budget in force: the innermost using_budget block's, or the defaults."""
    return _BUDGET.get()


@contextmanager
def using_budget(b: Budget) -> Iterator[Budget]:
    """Put b in force for the duration of the block."""
    token = _BUDGET.set(b)
    try:
        yield b
    finally:
        _BUDGET.reset(token)


# Every scalar literal that Q (fractions.Fraction) or a prime field
# (int, then an optional /int) parses, without evaluating it.
_SCALAR_LITERAL = re.compile(
    r"[-+]?(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)"
    r"(?:/[-+]?\d+(?:_\d+)*|(?:\.(?:\d*|\d+(?:_\d+)*))?(?:e[-+]?\d+(?:_\d+)*)?)",
    re.IGNORECASE,
)


# '#' starts a comment and whitespace separates tokens in every text
# format; on str, \s matches exactly the characters where str.isspace() holds
_NAME_BREAK = re.compile(r"[#\s]")


class Var(NamedTuple):
    id: int
    name: str


class VarTable:
    """Ordered universe of named variables plus the coefficient field.

    Ids run from 0 to MAX_VAR_ID, the largest code point, so that every
    variable is one character of a word; a name past it is refused.
    """

    def __init__(self, names: Iterable[str] = (), field: Field = QQ):
        self.field = field
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._letters: dict[str, str] = {}  # name -> its one-letter word
        for n in names:
            self.add(n)

    def add(self, name: str) -> Var:
        # a name that reads as a scalar (the constant term's word is written
        # `1`) would not round-trip
        if not name or _NAME_BREAK.search(name) or _SCALAR_LITERAL.fullmatch(name):
            raise VarNameError(f"bad variable name {name!r}")
        if name in self._ids:
            raise ValueError(f"duplicate variable name {name!r}")
        vid = len(self._names)
        if vid > MAX_VAR_ID:
            raise VarNameError(
                f"variable {name!r} would be number {vid + 1}, past the limit of "
                f"{MAX_VAR_ID + 1} variables"
            )
        self._names.append(name)
        self._ids[name] = vid
        self._letters[name] = chr(vid)
        return Var(vid, name)

    def get_or_add(self, name: str) -> Var:
        if name in self._ids:
            return Var(self._ids[name], name)
        return self.add(name)

    def var(self, name: str) -> Var:
        return Var(self._ids[name], name)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def name(self, vid: int) -> str:
        return self._names[vid]

    @property
    def names(self) -> tuple:
        return tuple(self._names)

    def vars(self) -> Iterator[Var]:
        for vid, n in enumerate(self._names):
            yield Var(vid, n)

    def word(self, *names: str) -> Word:
        return "".join([self._letters[n] for n in names])

    def spelling(self) -> list:
        """The str.translate table that spells a word as " name name ...":
        entry id is a space and the name of variable id."""
        return [" " + name for name in self._names]

    def word_names(self, word: Word) -> tuple:
        """The names of the word's letters, in order."""
        return tuple([self._names[ord(ch)] for ch in word])

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other):
        return (
            isinstance(other, VarTable)
            and self._names == other._names
            and self.field == other.field
        )

    def __hash__(self):
        return hash((tuple(self._names), self.field))

    def __repr__(self):
        return f"VarTable({len(self)} vars, {self.field.name})"


def _check_tables(a: "NCPoly", b: "NCPoly") -> None:
    if a.table is not b.table and a.table != b.table:
        raise TableMismatchError("operands use different variable tables")


class NCPoly:
    """Finite map word -> nonzero coefficient over one variable table."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Word, object] | None = None):
        self.table = table
        self.terms = {w: c for w, c in terms.items() if c != 0} if terms else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def adopt(cls, table: VarTable, terms: dict) -> "NCPoly":
        """The polynomial whose terms are the dict ``terms`` itself, not a
        copy.  Its keys must be words and its values nonzero, and the
        caller hands it over: it keeps no other reference that it writes."""
        p = cls.__new__(cls)
        p.table = table
        p.terms = terms
        return p

    @classmethod
    def zero(cls, table: VarTable) -> "NCPoly":
        return cls(table)

    @classmethod
    def const(cls, table: VarTable, c) -> "NCPoly":
        return cls(table, {"": c})

    @classmethod
    def monomial(cls, table: VarTable, word: Word, coeff=None) -> "NCPoly":
        if coeff is None:
            coeff = table.field.one
        return cls(table, {word: coeff})

    # -- inspection ---------------------------------------------------

    def degree(self) -> int:
        """Max word length; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def coeff(self, word: Word):
        return self.terms.get(word, self.table.field.zero)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        _check_tables(self, other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
        return NCPoly.adopt(self.table, out)

    def __neg__(self) -> "NCPoly":
        return NCPoly.adopt(self.table, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        _check_tables(self, other)
        out: dict[Word, object] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                c = ca * cb
                s = out.get(w)
                s = c if s is None else s + c
                if s == 0:
                    out.pop(w, None)
                else:
                    out[w] = s
        return NCPoly.adopt(self.table, out)

    def truncate(self, degree_cap: int) -> "NCPoly":
        kept = {w: c for w, c in self.terms.items() if len(w) <= degree_cap}
        return NCPoly.adopt(self.table, kept)

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        fmt = self.table.field.format
        parts = []
        for w in sorted(self.terms)[:8]:
            word = ".".join(self.table.word_names(w)) or "1"
            parts.append(f"{fmt(self.terms[w])}*{word}")
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return "NCPoly(" + " + ".join(parts) + more + ")"


# No command calls it; the benchmark's output checks import it as their oracle.
def hadamard_bruteforce(a: NCPoly, b: NCPoly) -> NCPoly:
    """Coefficientwise product, the oracle for the matrix-built Hadamard."""
    _check_tables(a, b)
    small, big = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    out = NCPoly.zero(a.table)
    for w, c in small.terms.items():
        d = big.terms.get(w)
        if d is not None:
            prod = c * d if small is a else d * c
            if prod != 0:
                out.terms[w] = prod
    return out


# ---------------------------------------------------------------------------
# Exact rank of scalar matrices


def eliminate(pivots: dict, r: dict, field: Field) -> None:
    """Reduce the row ``r`` against ``pivots``; keep it as a pivot row if it survives.

    ``pivots`` maps each pivot row's leading (least) column to the row, a
    dict {column: nonzero scalar} with leading coefficient one.  ``r``
    holds only nonzero entries and is consumed.  It is reduced until it
    vanishes or its lead is no pivot's; then it is scaled to lead one and
    stored under its lead.  It is multiplied by ``field.inv`` of the lead
    only when the lead is not one, and no scalar is ever divided (``/`` on
    two ints would give a float).
    """
    while r:
        lead = min(r)
        p = pivots.get(lead)
        if p is None:
            c = r[lead]
            if c != 1:
                inv = field.inv(c)
                r = {j: x * inv for j, x in r.items()}
            pivots[lead] = r
            return
        factor = r[lead]
        for j, x in p.items():
            y = r.get(j)
            y = -factor * x if y is None else y - factor * x
            if y != 0:
                r[j] = y
            else:
                del r[j]


def exact_rank(rows: Iterable[dict], field: Field) -> int:
    """Rank over ``field`` via exact sparse elimination.

    Each row is a dict {column: scalar of ``field``} (over Q an int or a
    Fraction, over Z_p a ModInt); zero entries may be present or absent.
    Each row is copied without its zeros and goes through ``eliminate``
    against the pivot rows found so far, so a zero row or a repeat of an
    earlier row reduces to nothing and adds no pivot.
    """
    pivots: dict = {}
    for row in rows:
        eliminate(pivots, {j: x for j, x in row.items() if x != 0}, field)
    return len(pivots)


# ---------------------------------------------------------------------------
# Polynomial text format: one term per line, `<coeff> <var> <var> ...`,
# the empty word written as the literal token `1`, lines sorted by word.


def format_poly(f: NCPoly, out: TextIO | None = None) -> str | None:
    """Write f in the text format to ``out``, an open text handle, or
    return the text when ``out`` is None.

    Sorting the str words sorts them by their id sequences, and each word
    is spelt by one str.translate.  Lines go out in blocks of 4096, each
    joined and written before the next is built, so a command that writes
    to a file holds f, its sorted words and one block of text, never the
    whole text.  All writing happens inside this call."""
    fmt = f.table.field.format
    spell = f.table.spelling()
    terms = f.terms
    words = sorted(terms)
    blocks: list[str] = []
    write = blocks.append if out is None else out.write
    for i in range(0, len(words), 4096):
        lines = [fmt(terms[w]) + (w.translate(spell) or " 1") for w in words[i : i + 4096]]
        write("\n".join(lines) + "\n")
    return "".join(blocks) if out is None else None


# parse_poly splits its text into lines a block of about this many
# characters at a time
_PARSE_BLOCK = 1 << 16


def _text_lines(text: str, keepends: bool = False) -> Iterator[str]:
    """The lines of ``text.splitlines(keepends)``, one block of text at a time.

    Each block ends just after a "\n" (or at the end of the text), so no
    separator, "\r\n" included, is cut in two, and only one block's
    lines are held at a time."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _PARSE_BLOCK)
        end = len(text) if cut < 0 else cut + 1
        yield from text[start:end].splitlines(keepends)
        start = end


def parse_poly(text: str, table: VarTable) -> NCPoly:
    """Parse the text format; unknown variable names are added to the table.

    Known names cost one lookup in the table's name -> letter dict, and
    only a line holding a new name goes through ``get_or_add``, which
    validates names and numbers them in first-seen order.  Each distinct
    coefficient literal is parsed once per call.  The lines are exactly
    those of ``text.splitlines()``, split one block of about 2**16
    characters at a time, so the call holds the text, the polynomial and
    one block's lines, not a list of every line.  All parsing happens
    inside this call.
    """
    out = NCPoly.zero(table)
    letters = table._letters
    parse = table.field.parse
    scalars: dict[str, object] = {}
    for raw in _text_lines(text):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        coeff = scalars.get(tokens[0])
        if coeff is None:
            coeff = scalars[tokens[0]] = parse(tokens[0])
        names = tokens[1:]
        if names == ["1"]:
            word = ""
        else:
            try:
                word = "".join([letters[t] for t in names])
            except KeyError:
                word = "".join([chr(table.get_or_add(t).id) for t in names])
        s = out.terms.get(word)
        s = coeff if s is None else s + coeff
        if s == 0:
            out.terms.pop(word, None)
        else:
            out.terms[word] = s
    return out
