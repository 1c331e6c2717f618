"""Exact rational numbers extended with +infinity.

All exponent arithmetic in this package is done on ExtRational so that
interpolation identities hold exactly, with no floating-point slack.  The
conventions are the ones used throughout Lebesgue-exponent bookkeeping:
1/inf = 0, 1/0 = inf, inf + finite = inf.  Indeterminate forms (inf - inf,
0 * inf, inf / inf) raise UndefinedExtendedValue instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from numbers import Rational

from .errors import UndefinedExtendedValue

__all__ = ["ExtRational", "INF", "Q"]


@total_ordering
class ExtRational:
    """An exact rational or the distinguished element +infinity.

    Finite values are stored as ``fractions.Fraction`` (lowest terms,
    positive denominator).  Instances are immutable and hashable.
    """

    __slots__ = ("_frac",)

    def __init__(self, numerator=0, denominator=None):
        if isinstance(numerator, ExtRational):
            if denominator is not None:
                raise TypeError("cannot give a denominator with an ExtRational")
            self._frac = numerator._frac
            return
        # an int or Fraction is never "inf", so it skips the slow equality tests
        exact = isinstance(numerator, (int, Fraction))
        if not exact and (numerator == "inf" or numerator == float("inf")):
            if denominator is not None:
                raise TypeError("cannot give a denominator with infinity")
            self._frac = None
            return
        if denominator is None:
            # a Fraction is immutable, so it is shared rather than copied
            self._frac = numerator if type(numerator) is Fraction else Fraction(numerator)
        elif denominator == 0:
            if numerator == 0:
                raise UndefinedExtendedValue("0/0")
            if numerator < 0:
                raise UndefinedExtendedValue("negative infinity is not representable")
            self._frac = None
        else:
            self._frac = Fraction(numerator, denominator)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _wrap(cls, frac) -> "ExtRational":
        out = object.__new__(cls)
        out._frac = frac
        return out

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def is_finite(self) -> bool:
        return self._frac is not None

    @property
    def numerator(self) -> int:
        return 1 if self._frac is None else self._frac.numerator

    @property
    def denominator(self) -> int:
        return 0 if self._frac is None else self._frac.denominator

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise UndefinedExtendedValue("infinity has no Fraction value")
        return self._frac

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtRational):
            return other
        if isinstance(other, (int, Rational)):
            return ExtRational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._frac is None or other._frac is None:
            return INF
        return ExtRational._wrap(self._frac + other._frac)

    __radd__ = __add__

    def __neg__(self):
        if self._frac is None:
            raise UndefinedExtendedValue("negative infinity is not representable")
        return ExtRational._wrap(-self._frac)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._frac is None:
            if self._frac is None:
                raise UndefinedExtendedValue("inf - inf")
            raise UndefinedExtendedValue("finite - inf")
        if self._frac is None:
            return INF
        return ExtRational._wrap(self._frac - other._frac)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._frac is None or other._frac is None:
            finite = other if self._frac is None else self
            if finite._frac == 0:
                raise UndefinedExtendedValue("0 * inf")
            if finite._frac is not None and finite._frac < 0:
                raise UndefinedExtendedValue("negative multiple of infinity")
            return INF
        return ExtRational._wrap(self._frac * other._frac)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._frac is None:
            if other._frac is None:
                raise UndefinedExtendedValue("inf / inf")
            if other._frac < 0:
                raise UndefinedExtendedValue("infinity divided by a negative")
            return INF
        if other._frac is None:
            return ExtRational._wrap(Fraction(0))
        if other._frac == 0:
            if self._frac == 0:
                raise UndefinedExtendedValue("0 / 0")
            if self._frac < 0:
                raise UndefinedExtendedValue("negative / 0")
            return INF
        return ExtRational._wrap(self._frac / other._frac)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if self._frac is None:
            if exponent <= 0:
                raise UndefinedExtendedValue("inf ** nonpositive")
            return INF
        if exponent < 0 and self._frac == 0:
            return INF
        return ExtRational._wrap(self._frac**exponent)

    def inv(self) -> "ExtRational":
        """Reciprocal with the conventions 1/inf = 0 and 1/0 = inf."""
        return ExtRational(1) / self

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._frac == other._frac

    def __hash__(self):
        return hash(self._frac) if self._frac is not None else hash(float("inf"))

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    # -- conversions ----------------------------------------------------------

    def __float__(self) -> float:
        return float("inf") if self._frac is None else float(self._frac)

    def __repr__(self) -> str:
        if self._frac is None:
            return "ExtRational(inf)"
        return f"ExtRational({self._frac.numerator}, {self._frac.denominator})"

    def __str__(self) -> str:
        if self._frac is None:
            return "inf"
        if self._frac.denominator == 1:
            return str(self._frac.numerator)
        return f"{self._frac.numerator}/{self._frac.denominator}"


INF = ExtRational._wrap(None)


def Q(numerator, denominator=None) -> ExtRational:
    """Shorthand constructor, also accepting strings like "3/2" and "inf".

    A string "p/0" follows the ExtRational(p, 0) convention: "1/0" is inf,
    "0/0" and "-1/0" raise UndefinedExtendedValue.
    """
    if isinstance(numerator, str) and denominator is None:
        s = numerator.strip()
        if s == "inf":
            return INF
        try:
            return ExtRational(Fraction(s))
        except ZeroDivisionError:
            return ExtRational(Fraction(s.partition("/")[0]), 0)
    return ExtRational(numerator, denominator)
