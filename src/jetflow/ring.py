"""Exact coefficient ring Q[eps]/(eps^(p+1)).

Every symbolic computation in the package is exact in this ring: rational
coefficients, with all powers of the perturbation parameter above the
truncation order discarded.  :class:`EpsPoly`, one element of it with
`fractions.Fraction` coefficients, is the public value type: ``DiffPoly``
takes and gives back its coefficients as EpsPoly, and an operator can be
scaled by one.  Its ring operations are ``DiffPoly.constant`` arithmetic
(see the ``jets`` module), the one implementation of the ring.
"""

from __future__ import annotations

import operator
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
    length `order + 1`.  A ring operation is DiffPoly constant arithmetic,
    so products discard degrees above the truncation order, which makes eps
    nilpotent, and mixed orders raise OrderMismatch.  Each keeps its own
    name here because the benchmark's per-layer tracer wraps it by name.
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
        return cls((0,) * power + (1,) if power <= order else (), order=order)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def lowest_coefficient(self) -> Fraction:
        """First nonzero coefficient by increasing eps degree (0 if zero)."""
        return next((c for c in self.coeffs if c), Fraction(0))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked setattr
        return EpsPoly, (self.coeffs,)

    # -- ring operations: DiffPoly constant arithmetic ----------------------

    def _apply(self, op, *operands):
        """op on this value and the operands, each EpsPoly lifted to a
        DiffPoly constant at its own order; a DiffPoly result is read back
        as an EpsPoly.  An operand outside the ring gives NotImplemented."""
        from .jets import ONE_MONOMIAL, DiffPoly

        if not all(isinstance(v, (EpsPoly, int, Fraction)) for v in operands):
            return NotImplemented
        result = op(*(DiffPoly.constant(v, v.order) if isinstance(v, EpsPoly)
                      else v for v in (self, *operands)))
        if not isinstance(result, DiffPoly):
            return result  # the bool of ==
        return result.terms.get(ONE_MONOMIAL) or EpsPoly.zero(self.order)

    def __add__(self, other):
        return self._apply(operator.add, other)

    __radd__ = __add__

    def __neg__(self):
        return self._apply(operator.neg)

    def __sub__(self, other):
        return self._apply(operator.sub, other)

    def __rsub__(self, other):
        return self._apply(lambda a, b: b - a, other)

    def __mul__(self, other):
        return self._apply(operator.mul, other)

    __rmul__ = __mul__

    def scale(self, r) -> "EpsPoly":
        return self._apply(operator.mul, _as_fraction(r))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._apply(operator.truediv, other)
        return NotImplemented

    def truncate(self, q: int) -> "EpsPoly":
        """Drop coefficients of degree above q; the result has order q."""
        if q < 0 or q > self.order:
            raise OrderMismatch(f"cannot truncate an order-{self.order} "
                                f"value to order {q}")
        return EpsPoly(self.coeffs[: q + 1])

    def __eq__(self, other):
        return self._apply(operator.eq, other)

    def __hash__(self):
        # a value equal to a rational hashes as that rational does
        head, *rest = self.coeffs
        return hash(self.coeffs) if any(rest) else hash(head)

    def __repr__(self):
        from .printing import format_eps_poly

        return f"EpsPoly({format_eps_poly(self)!r}, order={self.order})"
