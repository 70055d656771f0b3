"""Exact coefficient arithmetic.

Two coefficient domains are supported: the rationals Q and prime fields
Z_p.  A rational scalar is a Python ``int`` while its value is integral and
a ``fractions.Fraction`` (lowest terms, positive denominator) otherwise; it
is never a ``float`` or a ``bool``.  Integral values need not be ``int``s:
mixed arithmetic promotes to ``Fraction``, and ``int`` and ``Fraction`` of
equal value compare, hash and format alike, so ``3`` and ``Fraction(3)``
are the same scalar everywhere.  The paper's polynomials and reductions
have small integer coefficients, so almost all Q arithmetic runs on
``int``s.  Elements of Z_p are :class:`ModInt`s reduced to [0, p).

A :class:`Field` object knows how to construct, parse, format and invert
scalars; the scalars themselves carry ordinary operator arithmetic so
polynomial code never needs to consult the field for add/mul.  Code that
needs a quotient multiplies by :meth:`Field.inv`, because ``/`` on two
``int``s would give a float.
"""

from fractions import Fraction

# Largest decimal exponent a rational literal may carry.  Fraction("1e<n>")
# computes 10**n, so an 11-character literal could otherwise stall for
# seconds; 4300 is Python's default digit limit for integer strings, which
# Fraction already enforces on plain digits.
MAX_EXPONENT = 4300


class FieldError(ArithmeticError):
    """Raised for invalid field configuration or non-invertible division."""


class ModInt:
    """An element of Z_p, canonical representative in [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value
        self.modulus = modulus

    def _check(self, other) -> None:
        if not isinstance(other, ModInt):
            raise FieldError(f"cannot mix ModInt with {type(other).__name__}")
        if self.modulus != other.modulus:
            raise FieldError(f"mixed moduli {self.modulus} and {other.modulus}")

    def __add__(self, other):
        if other.__class__ is not ModInt or other.modulus != self.modulus:
            if isinstance(other, int):
                return ModInt((self.value + other) % self.modulus, self.modulus)
            self._check(other)
        return ModInt((self.value + other.value) % self.modulus, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not ModInt or other.modulus != self.modulus:
            if isinstance(other, int):
                return ModInt((self.value - other) % self.modulus, self.modulus)
            self._check(other)
        return ModInt((self.value - other.value) % self.modulus, self.modulus)

    def __rsub__(self, other):
        if isinstance(other, int):
            return ModInt((other - self.value) % self.modulus, self.modulus)
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is not ModInt or other.modulus != self.modulus:
            if isinstance(other, int):
                return ModInt((self.value * other) % self.modulus, self.modulus)
            self._check(other)
        return ModInt((self.value * other.value) % self.modulus, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return ModInt((-self.value) % self.modulus, self.modulus)

    def inverse(self) -> "ModInt":
        if self.value == 0:
            raise FieldError(f"0 is not invertible mod {self.modulus}")
        return ModInt(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = ModInt(other % self.modulus, self.modulus)
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.modulus})"


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2..37 make it exact below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in bases:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


class Field:
    """Scalar constructor/parser for one coefficient domain."""

    name: str

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, text: str):
        """Parse ``p/q`` or integer literals into a scalar."""
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def inv(self, x):
        """The exact multiplicative inverse; FieldError for zero."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == getattr(other, "name", None)

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"Field({self.name})"


def _int_if_integral(x: Fraction):
    return x.numerator if x.denominator == 1 else x


class RationalField(Field):
    """Q: scalars are ``int`` while integral, ``Fraction`` otherwise."""

    name = "Q"

    def from_int(self, n: int) -> int:
        return n

    def parse(self, text: str):
        """Parse an integer, ``p/q`` or decimal literal.

        A decimal exponent above MAX_EXPONENT in magnitude raises FieldError
        before the literal is evaluated.
        """
        try:
            _, e, exponent = text.lower().partition("e")
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise FieldError(f"exponent of rational literal {text!r} exceeds {MAX_EXPONENT}")
            return _int_if_integral(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def format(self, x) -> str:
        return str(x)

    def inv(self, x):
        """The exact inverse, an ``int`` when it is integral (x = ±1)."""
        if x == 0:
            raise FieldError("0 is not invertible")
        return _int_if_integral(1 / Fraction(x))


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= 2**64:
            raise FieldError(f"prime modulus {p} is not below 2^64")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"Z_{p}"

    def from_int(self, n: int) -> ModInt:
        return ModInt(n % self.p, self.p)

    def parse(self, text: str) -> ModInt:
        num, slash, den = text.partition("/")
        try:
            value = self.from_int(int(num))
            return value / self.from_int(int(den)) if slash else value
        except (ValueError, FieldError) as exc:
            raise FieldError(f"bad scalar literal {text!r}: {exc}") from exc

    def format(self, x: ModInt) -> str:
        return str(x.value)

    def inv(self, x: ModInt) -> ModInt:
        return x.inverse()


QQ = RationalField()


def field_from_spec(spec: str) -> Field:
    """Build a field from a CLI-style spec: ``q`` or ``p=<prime>``."""
    if spec in ("q", "Q", "rational", "rationals"):
        return QQ
    if spec.startswith("p="):
        return PrimeField(int(spec[2:]))
    raise FieldError(f"unknown field spec {spec!r}")
