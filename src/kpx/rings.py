"""Exact coefficient rings: integers, rationals, and integers mod n.

Elements are plain Python values (int, Fraction, or ModInt); the ring
objects provide construction, parsing, and metadata.  A rational that QQ
makes (from_int, from_fraction) is an int when integral and a Fraction
otherwise, as int arithmetic is much cheaper.  Sums and products are not
normalised: 1/2 + 1/2 is Fraction(1, 1), which compares, hashes and prints
like 1.
"""

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import CoefficientNotInRing, ParseError, quoted


@dataclass(frozen=True)
class ModInt:
    modulus: int
    value: int

    def __post_init__(self):  # one value per residue class: ModInt(6, 7) is ModInt(6, 1)
        object.__setattr__(self, "value", self.value % self.modulus)

    def _check(self, other):
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise CoefficientNotInRing("mixed moduli in arithmetic")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return v
        return ModInt(self.modulus, self.value + v)

    __radd__ = __add__

    def __neg__(self):
        return ModInt(self.modulus, -self.value)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return v
        return ModInt(self.modulus, self.value * v)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{self.value}"


class Ring:
    name = "?"
    is_field = False

    def __init__(self):
        # built once: every value is immutable, so callers can share them
        self._zero = self.from_int(0)
        self._one = self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, num, den):
        raise NotImplementedError

    def value(self, x):
        """x as a value of the ring, or CoefficientNotInRing naming it.  Every
        ring takes an int, by exact type: isinstance would let a bool in."""
        if type(x) is not int:
            raise CoefficientNotInRing(f"{x!r} is not a value of {self}")
        return self._zero + x

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def __eq__(self, other):
        # by value, so that two parses of zmod:6 are one ring
        return type(other) is type(self) and other.name == self.name

    def __hash__(self):
        return hash((type(self), self.name))

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def from_int(self, n):
        return int(n)

    def from_fraction(self, num, den):
        if den == 0:
            raise CoefficientNotInRing("zero denominator")
        if num % den != 0:
            raise CoefficientNotInRing(f"{num}/{den} is not an integer")
        return num // den


class RationalField(Ring):
    """QQ: the values it makes are int when integral and Fraction
    otherwise; nothing is a float."""

    name = "Q"
    is_field = True

    def value(self, x):
        return x if type(x) is Fraction else super().value(x)

    def from_int(self, n):
        return int(n)

    def from_fraction(self, num, den):
        if den == 0:
            raise CoefficientNotInRing("zero denominator")
        q = Fraction(num, den)
        return q.numerator if q.denominator == 1 else q


class IntegersMod(Ring):
    def __init__(self, n):
        if type(n) is not int:
            raise CoefficientNotInRing(f"modulus must be an int, got {n!r}")
        if n < 2:
            raise CoefficientNotInRing(f"modulus must be >= 2, got {n}")
        if n >= _MODULUS_BOUND:
            raise CoefficientNotInRing(f"modulus must be < {_MODULUS_BOUND}, got {n}")
        self.n = n
        self.name = f"Z/{n}"
        self.is_field = _is_prime(n)
        super().__init__()

    def from_int(self, m):
        return ModInt(self.n, m)

    def from_fraction(self, num, den):
        if gcd(den, self.n) != 1:
            raise CoefficientNotInRing(f"denominator {den} not invertible mod {self.n}")
        return self.from_int(num * pow(den, -1, self.n))

    def value(self, x):
        """An int is read mod n; a ModInt of modulus n is one already."""
        if type(x) is ModInt and x.modulus != self.n:
            raise CoefficientNotInRing(f"{x!r} mod {x.modulus} is not a value of {self}")
        return x if type(x) is ModInt else super().value(x)


# Miller-Rabin to these bases is exact below _MODULUS_BOUND, itself a strong
# pseudoprime to all of them (Sorenson-Webster 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MODULUS_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < _MODULUS_BOUND."""
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n = d 2^s + 1 passes base a iff a^d = 1 or a^(d 2^r) = -1 for some r < s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def integer(literal):
    """int(literal).  Digits that int() refuses are too many to convert: a ParseError
    says how many; any other bad literal stays a ValueError, for the caller to word."""
    try:
        return int(literal)
    except ValueError:
        digits = re.fullmatch(r"\s*[-+]?(\d+)\s*", literal)  # as int() reads them
        if digits is None:
            raise
        raise ParseError(f"integer of {len(digits[1])} digits is too long") from None


def text(c):
    """Every digit of a ring value: str() writes an int up to the process's
    digit limit and refuses one past it, which Decimal() converts exactly."""
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{text(c.numerator)}/{text(c.denominator)}"
    try:
        return str(c)
    except ValueError:  # an int, or a whole Fraction, past the digit limit
        return str(Decimal(int(c)))


ZZ = IntegerRing()
QQ = RationalField()


def parse_ring(text):
    """Parse a ring name: 'z', 'q', or 'zmod:N'."""
    t = text.strip().lower()
    if t == "z":
        return ZZ
    if t == "q":
        return QQ
    if t.startswith("zmod:"):
        try:
            return IntegersMod(integer(t.split(":", 1)[1]))
        except ParseError as exc:
            raise CoefficientNotInRing(f"bad modulus: {exc}") from None
        except ValueError:
            raise CoefficientNotInRing(f"bad modulus in {quoted(text)}") from None
    raise CoefficientNotInRing(f"unknown ring {quoted(text)}")
