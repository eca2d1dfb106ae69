"""Ground fields for exact linear algebra: Q and prime fields F_p, p >= 5.

A Field object wraps raw scalar values (Fraction over Q, int in range(p) over
F_p) with a uniform arithmetic interface, so the rest of the package never
branches on characteristic.  Characteristics 2 and 3 are rejected: the theory
divides by 2, and the degree-3 identities would not determine their
polarizations in characteristic 3.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldMismatchError, JalgError


# the README's number syntax: an optionally signed integer or quotient
_NUMBER = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """The rationals (characteristic 0) or F_p for a prime p >= 5.

    Instances are interned: Field(5) is Field(5).  Raw element values are
    Fraction for Q and plain int (reduced mod p) for F_p.
    """

    _cache: dict[int, "Field"] = {}

    characteristic: int
    zero: object
    one: object

    def __new__(cls, characteristic: int = 0):
        got = cls._cache.get(characteristic)
        if got is not None:
            return got
        if characteristic != 0:
            if not _is_prime(characteristic):
                raise JalgError(f"characteristic {characteristic} is not prime")
            if characteristic < 5:
                raise JalgError(
                    f"characteristic {characteristic} not supported (need 0 or p >= 5)"
                )
        self = super().__new__(cls)
        self.characteristic = characteristic
        # values are immutable, so every caller can share one zero and one
        self.zero = Fraction(0) if characteristic == 0 else 0
        self.one = Fraction(1) if characteristic == 0 else 1
        cls._cache[characteristic] = self
        return self

    def __repr__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    # -- arithmetic on raw values ------------------------------------------

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def sub(self, a, b):
        if self.characteristic == 0:
            return a - b
        return (a - b) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic == 0:
            return 1 / a
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return self.sub(a, b) == 0

    # -- conversion ---------------------------------------------------------

    def coerce(self, value):
        """Turn an int, Fraction, or same-field raw value into a raw value.

        Over F_p a Fraction is accepted when its denominator is invertible.
        """
        if self.characteristic == 0:
            if type(value) is Fraction:  # immutable: no copy needed
                return value
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise JalgError(f"cannot coerce {value!r} into Q")
        if isinstance(value, int):
            return value % self.characteristic
        if isinstance(value, Fraction):
            num = value.numerator % self.characteristic
            den = value.denominator % self.characteristic
            if den == 0:
                raise JalgError(
                    f"cannot coerce {value} into F{self.characteristic}: "
                    f"its denominator is divisible by {self.characteristic}"
                )
            return self.mul(num, self.inv(den))
        raise JalgError(f"cannot coerce {value!r} into F{self.characteristic}")

    def coerce_vector(self, values) -> tuple:
        """tuple(map(self.coerce, values)), with no call per entry when the
        entries are plain ints over F_p or Fractions over Q.  Any other
        entry sends the whole vector through coerce, which refuses what it
        cannot take."""
        values = tuple(values)
        p = self.characteristic
        if p:
            # int.__rmod__ answers NotImplemented for every non-int
            out = tuple(map(p.__rmod__, values))
            if NotImplemented not in out:
                return out
        elif list(map(type, values)).count(Fraction) == len(values):
            return values
        return tuple(map(self.coerce, values))

    def parse(self, text: str):
        """Parse 'n' or 'n/d' (optionally signed) into a raw value.

        Other forms that Fraction would take (0.5, 1e3, 1_000) are rejected
        before conversion, so no exponent can build a huge integer."""
        text = text.strip()
        if not _NUMBER.fullmatch(text):
            raise JalgError(f"bad scalar {text!r} over {self}: expected n or n/d")
        if "/" in text and int(text.partition("/")[2]) == 0:
            raise JalgError(f"bad scalar {text!r} over {self}: the denominator is zero")
        return self.coerce(Fraction(text))

    def format(self, a) -> str:
        if self.characteristic == 0:
            return str(a)
        return str(a % self.characteristic)

    def elements(self):
        """Iterate all field elements.  Finite fields only."""
        if self.characteristic == 0:
            raise JalgError("cannot enumerate Q")
        return range(self.characteristic)

    def transport(self, value, target: "Field"):
        """Move a raw value into another field (Q -> F_p reduction, or identity).

        F_p -> Q and F_p -> F_q are rejected: there is no canonical lift.
        """
        if target is self:
            return value
        if self.characteristic == 0:
            return target.coerce(value)
        raise FieldMismatchError(f"no canonical map {self} -> {target}")


QQ = Field(0)
