"""Exact scalar arithmetic over the rationals and over prime fields.

Rational scalars are plain `fractions.Fraction` values (always reduced, positive
denominator).  Prime-field scalars are `Fp` residues kept canonical in [0, p).
A `Field` object mints, parses and formats scalars and decides integer
invertibility; the scalars themselves carry the arithmetic operators.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertibleError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Fp:
    """Residue class modulo a prime, kept canonical in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def inverse(self) -> "Fp":
        if self.v == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return Fp(pow(self.v, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return Fp(pow(self.v, k, self.p), self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"

    def __str__(self):
        return str(self.v)


class Field:
    """The rationals (characteristic 0) or the prime field F_p."""

    __slots__ = ("char",)

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or a prime, got {characteristic!r}")
        self.char = characteristic

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def prime(p: int) -> "Field":
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return Field(p)

    @property
    def is_rational(self) -> bool:
        return self.char == 0

    def zero(self):
        return Fraction(0) if self.char == 0 else Fp(0, self.char)

    def one(self):
        return Fraction(1) if self.char == 0 else Fp(1, self.char)

    def from_int(self, n: int):
        return Fraction(n) if self.char == 0 else Fp(n, self.char)

    def parse(self, s: str):
        """Parse "n" or "p/q" (rationals), or a decimal residue (prime field)."""
        s = s.strip()
        if self.char == 0:
            return Fraction(s)
        if "/" in s:
            num, den = s.split("/", 1)
            return Fp(int(num), self.char) / Fp(int(den), self.char)
        return Fp(int(s), self.char)

    def fmt(self, x) -> str:
        return str(x)

    def invertible(self, n: int) -> bool:
        """Whether the positive integer n is invertible over this field."""
        if n == 0:
            return False
        return self.char == 0 or n % self.char != 0

    def inv_int(self, n: int):
        if not self.invertible(n):
            raise NotInvertibleError(
                f"{n} is not invertible over {self.spec_str()}"
                + (f" (characteristic {self.char} divides it)" if self.char else ""))
        if self.char == 0:
            return Fraction(1, n)
        return Fp(pow(n, -1, self.char), self.char)

    def spec_str(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"

    @staticmethod
    def from_spec(s: str) -> "Field":
        s = s.strip()
        if s == "Q":
            return Field(0)
        if s.startswith("F"):
            return Field.prime(int(s[1:]))
        raise ValueError(f"unknown field spec {s!r} (expected 'Q' or 'F<p>')")

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return f"Field({self.char})"


QQ = Field(0)
