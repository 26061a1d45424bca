"""Exact coefficient ring Q[eps]/(eps^(p+1)).

Every symbolic computation in the package is exact in this ring: rational
coefficients, with all powers of the perturbation parameter above the
truncation order discarded.  :class:`EpsPoly`, one element of it with
`fractions.Fraction` coefficients, is the public view and constructor
type: ``DiffPoly`` takes and gives back its coefficients as EpsPoly, and an
operator can be scaled by one.  A ``DiffPoly`` itself stores them flat, one
int numerator per (monomial, eps degree) over one int denominator shared by
all its terms, and does its arithmetic on those ints (see the ``jets``
module).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OrderMismatch


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class _Frozen:
    """Base of the immutable value classes: they set their slots through
    object.__setattr__, and every ordinary assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class EpsPoly(_Frozen):
    """A truncated polynomial in eps with Fraction coefficients.

    Immutable.  `coeffs[i]` is the coefficient of eps^i; the tuple always has
    length `order + 1`.  Multiplication silently discards degrees above the
    truncation order, which is what makes eps nilpotent.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if order is not None:
            if len(coeffs) > order + 1:
                raise ValueError("more coefficients than the truncation order allows")
            coeffs = coeffs + (Fraction(0),) * (order + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("an EpsPoly needs at least the degree-0 coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int) -> "EpsPoly":
        return cls((_as_fraction(value),), order=order)

    @classmethod
    def zero(cls, order: int) -> "EpsPoly":
        return cls((Fraction(0),), order=order)

    @classmethod
    def one(cls, order: int) -> "EpsPoly":
        return cls((Fraction(1),), order=order)

    @classmethod
    def eps(cls, order: int, power: int = 1) -> "EpsPoly":
        """eps^power as a ring element (zero when power exceeds the order)."""
        if power < 0:
            raise ValueError("eps powers must be non-negative")
        coeffs = [Fraction(0)] * (order + 1)
        if power <= order:
            coeffs[power] = Fraction(1)
        return cls(coeffs)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def lowest_coefficient(self) -> Fraction:
        """First nonzero coefficient by increasing eps degree (0 if zero)."""
        for c in self.coeffs:
            if c != 0:
                return c
        return Fraction(0)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked setattr
        return EpsPoly, (self.coeffs,)

    # -- ring operations ---------------------------------------------------

    def _check_order(self, other: "EpsPoly") -> None:
        if self.order != other.order:
            raise OrderMismatch(
                f"mixed truncation orders {self.order} and {other.order}"
            )

    def _coerce(self, other):
        if isinstance(other, EpsPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return EpsPoly.from_rational(other, self.order)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_order(other)
        return EpsPoly(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return EpsPoly(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                if b != 0:
                    out[i + j] += a * b
        return EpsPoly(tuple(out))

    __rmul__ = __mul__

    def scale(self, r) -> "EpsPoly":
        r = _as_fraction(r)
        return EpsPoly(tuple(r * a for a in self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / _as_fraction(other))
        return NotImplemented

    def truncate(self, q: int) -> "EpsPoly":
        """Drop coefficients of degree above q; the result has order q."""
        if q < 0 or q > self.order:
            raise OrderMismatch(
                f"cannot truncate an order-{self.order} value to order {q}"
            )
        return EpsPoly(self.coeffs[: q + 1])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        from .printing import format_eps_poly

        return f"EpsPoly({format_eps_poly(self)!r}, order={self.order})"
