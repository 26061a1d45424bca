"""Scalar pseudo-differential operators a*Dx^j plus two-sided a*Dx^-1*b terms.

The representable class is a finite sum of local terms (coefficient times a
non-negative power of the total derivative) and nonlocal terms of the fixed
shape a*Dx^-1*b.  It is closed under addition, adjoints, and composition with
local operators; compositions that would need Dx^-1 on both sides fail with
ClosureError instead of approximating.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, Mapping, Sequence, Tuple

from .errors import ClosureError, NotVariational, OrderMismatch
from .jets import (DiffPoly, EvolutionSystem, Functional, _accumulate, _dot,
                   _dx_tower, _homotopy_density, _jet_partials,
                   _monomial_order, _reduced, _unpack, _valuation, dt_total,
                   euler, integrate_x)
from .ring import EpsPoly, _Frozen


def _normalize_nonlocal(pairs, eps_order):
    """The canonical form of sum a*Dx^-1*b, the one apply_op integrates.

    Dx^-1 commutes with eps, so the sum is a tensor over Q[eps]: each a is
    expanded into eps-free monomials m, its eps powers move onto b, and the
    right factors of each m are summed into one B_m.  The m whose B_m agree
    up to a rational multiple and a power of eps share one term
    (sum c_m*eps^k_m*m)*Dx^-1*b, where b is their common B_m without its
    lowest eps power, scaled to 1 at its smallest key.  The terms are
    ordered by their smallest m.  Zero tests and equality are then exact.
    Every B_m is kept as int numerators over one common denominator, which
    the ratio B_m/c_m does not see.
    A local operator, which has no pairs, skips all of it, and so do a
    negation and a sum with a local operator, which keep the form of their
    canonical input (PseudoDiffOp._from_canonical).
    """
    if not pairs:
        return ()
    den = lcm(*(a._den * b._den for a, b in pairs))
    right: dict = {}  # m -> the numerators of B_m over den, as {(n, e): c}
    for a, b in pairs:
        s = den // (a._den * b._den)
        for (m, f), r in a._flat.items():
            B_m = right.setdefault(m, {})
            r *= s
            for (n, e), c in b._flat.items():
                if f + e <= eps_order:
                    _accumulate(B_m, (n, f + e), r * c)
    # b as (a frozenset of its ((n, e), numerator), its denominator)
    # -> {m: (k_m, numerator of c_m over den)}
    groups: dict = {}
    for m in sorted(right, key=_unpack):
        B = right[m]
        if B:
            k = min(e for _, e in B)
            lead = B[min(B, key=_monomial_order)]
            g = gcd(*B.values()) if lead > 0 else -gcd(*B.values())
            b = frozenset(((n, e - k), c // g) for (n, e), c in B.items())
            groups.setdefault((b, lead // g), {})[m] = (k, lead)
    return tuple(
        (_reduced({(m, k): c for m, (k, c) in scales.items()}, den, eps_order),
         DiffPoly._from_flat(dict(b), eps_order, b_den))
        for (b, b_den), scales in groups.items())


class PseudoDiffOp(_Frozen):
    """An operator sum(a_j * Dx^j) + sum(a * Dx^-1 * b), scalar in u."""

    __slots__ = ("local_terms", "nonlocal_terms", "eps_order")

    def __init__(self, local: Mapping[int, DiffPoly] = (),
                 nonlocal_terms: Sequence[Tuple[DiffPoly, DiffPoly]] = (),
                 eps_order: int = None):
        local = dict(local)
        coeffs = list(local.values()) + [p for pair in nonlocal_terms for p in pair]
        if eps_order is None:
            if not coeffs:
                raise ValueError("cannot infer the eps order of an empty operator")
            eps_order = coeffs[0].eps_order
        for c in coeffs:
            if c.eps_order != eps_order:
                raise OrderMismatch("operator coefficients must share the eps order")
        clean = {j: c for j, c in local.items() if not c.is_zero()}
        if any(j < 0 for j in clean):
            raise ValueError("local exponents must be non-negative; use Dxi for Dx^-1")
        object.__setattr__(self, "local_terms", clean)
        object.__setattr__(self, "nonlocal_terms",
                           _normalize_nonlocal(nonlocal_terms, eps_order))
        object.__setattr__(self, "eps_order", eps_order)

    @classmethod
    def _from_canonical(cls, local: Mapping[int, DiffPoly], nonlocal_terms,
                        eps_order: int) -> "PseudoDiffOp":
        """Wrap local terms of one eps order and nonlocal terms already in
        the canonical form of _normalize_nonlocal as they are, less the
        zero local coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "local_terms",
                           {j: c for j, c in local.items() if not c.is_zero()})
        object.__setattr__(self, "nonlocal_terms", nonlocal_terms)
        object.__setattr__(self, "eps_order", eps_order)
        return self

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked setattr
        return PseudoDiffOp, (self.local_terms, self.nonlocal_terms,
                              self.eps_order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, eps_order: int) -> "PseudoDiffOp":
        return cls({}, (), eps_order)

    @classmethod
    def from_poly(cls, c: DiffPoly) -> "PseudoDiffOp":
        """Multiplication operator f -> c*f."""
        return cls._from_canonical({0: c}, (), c.eps_order)

    @classmethod
    def dx(cls, eps_order: int, power: int = 1) -> "PseudoDiffOp":
        one = DiffPoly.constant(1, eps_order)
        return cls({power: one}, (), eps_order)

    @classmethod
    def dxi(cls, eps_order: int) -> "PseudoDiffOp":
        one = DiffPoly.constant(1, eps_order)
        return cls({}, ((one, one),), eps_order)

    @classmethod
    def identity(cls, eps_order: int) -> "PseudoDiffOp":
        return cls.dx(eps_order, 0)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.local_terms and not self.nonlocal_terms

    def is_local(self) -> bool:
        return not self.nonlocal_terms

    def max_local_order(self) -> int:
        return max(self.local_terms, default=-1)

    def _dx_power(self):
        """j when this operator is exactly Dx^j, else None."""
        if len(self.local_terms) == 1 and not self.nonlocal_terms:
            (j, c), = self.local_terms.items()
            if c._flat == {(0, 0): 1} and c._den == 1:
                return j
        return None

    def __eq__(self, other):
        if not isinstance(other, PseudoDiffOp):
            return NotImplemented
        return (self.eps_order == other.eps_order
                and self.local_terms == other.local_terms
                and self.nonlocal_terms == other.nonlocal_terms)

    def __repr__(self):
        from .printing import format_operator

        return f"PseudoDiffOp({format_operator(self)!r}, p={self.eps_order})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, DiffPoly):
            other = PseudoDiffOp.from_poly(other)
        if not isinstance(other, PseudoDiffOp):
            return NotImplemented
        if self.eps_order != other.eps_order:
            raise OrderMismatch("mixed truncation orders")
        local = _collect([*self.local_terms.items(), *other.local_terms.items()])
        nonlocal_terms = self.nonlocal_terms + other.nonlocal_terms
        if self.nonlocal_terms and other.nonlocal_terms:  # two forms to merge
            return PseudoDiffOp(local, nonlocal_terms, self.eps_order)
        return PseudoDiffOp._from_canonical(local, nonlocal_terms, self.eps_order)

    __radd__ = __add__

    def __neg__(self):
        # negating each left factor keeps the canonical form: the right
        # factors, which are scaled to 1, do not change
        return PseudoDiffOp._from_canonical(
            {j: -c for j, c in self.local_terms.items()},
            tuple((-a, b) for a, b in self.nonlocal_terms), self.eps_order)

    def __sub__(self, other):
        if isinstance(other, DiffPoly):
            other = PseudoDiffOp.from_poly(other)
        if not isinstance(other, PseudoDiffOp):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, DiffPoly):
            return PseudoDiffOp.from_poly(other) + (-self)
        return NotImplemented

    def scale(self, factor) -> "PseudoDiffOp":
        """Multiply by a constant of the ring (rational or EpsPoly).

        Constants commute with Dx^-1, so this is safe for nonlocal terms.
        """
        return PseudoDiffOp({j: c * factor for j, c in self.local_terms.items()},
                            tuple((a * factor, b) for a, b in self.nonlocal_terms),
                            self.eps_order)

    def __mul__(self, other):
        """Operator composition (with promotion of polynomials on the right)."""
        if isinstance(other, DiffPoly):
            other = PseudoDiffOp.from_poly(other)
        if isinstance(other, PseudoDiffOp):
            return compose(self, other)
        if isinstance(other, (int, Fraction, EpsPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, DiffPoly):
            return compose(PseudoDiffOp.from_poly(other), self)
        if isinstance(other, (int, Fraction, EpsPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be non-negative integers")
        j = self._dx_power()
        if j is not None:
            return PseudoDiffOp.dx(self.eps_order, j * n)
        result = PseudoDiffOp.identity(self.eps_order)
        for _ in range(n):
            result = compose(result, self)
        return result


# ---------------------------------------------------------------------------
# Action on differential functions


def apply_op(A: PseudoDiffOp, Q: DiffPoly) -> DiffPoly:
    """Apply the operator to a differential function.

    Each stored nonlocal term a*Dx^-1*b takes one Dx^-1: with k the lowest
    eps degree of a, it adds (a/eps^k)*Dx^-1(eps^k*b*Q), so the eps factor
    is integrated with b.  The canonical form already merges the monomials
    of the left factors whose right factors agree up to a rational multiple
    and a power of eps, so the value does not depend on how the operator is
    written.  A product that is not exact raises NotExact with its Euler
    obstruction.  The local and nonlocal products are summed by one _dot.
    """
    if A.eps_order != Q.eps_order:
        raise OrderMismatch("operator and argument have different eps orders")
    tower = _dx_tower(Q, A.max_local_order())
    pairs = [(c, tower[j]) for j, c in A.local_terms.items()]
    for a, b in A.nonlocal_terms:
        k = _valuation(a)
        pairs.append((_eps_shift(a, -k), integrate_x(_eps_shift(b, k) * Q)))
    return _dot(pairs, Q.eps_order)


def _eps_shift(P: DiffPoly, k: int) -> DiffPoly:
    """P*eps^k, for a k that keeps every eps degree in 0..p."""
    return DiffPoly._from_flat({(m, e + k): c for (m, e), c in P._flat.items()},
                               P.eps_order, P._den)


# ---------------------------------------------------------------------------
# Composition


def _leibniz(j: int, b: DiffPoly):
    """Dx^j o b = sum_m C(j, m) (D_x^m b) Dx^(j-m), as (j - m, coefficient)
    pairs from one D_x tower of b."""
    tower = _dx_tower(b, j)
    return [(j - m, tower[m] * comb(j, m) if 0 < m < j else tower[m])
            for m in range(j + 1)]


def _collect(pairs) -> Dict[int, DiffPoly]:
    """Sum (exponent, coefficient) pairs into {exponent: coefficient}."""
    local: Dict[int, DiffPoly] = {}
    for exp, coeff in pairs:
        local[exp] = local[exp] + coeff if exp in local else coeff
    return local


def _compose_local_nonlocal(j: int, c: DiffPoly, a: DiffPoly, b: DiffPoly):
    """(c Dx^j) o (a Dx^-1 b) -> (local pairs, one nonlocal term).

    Peeling one Dx at a time with Dx o (a Dx^-1 b) = a_x Dx^-1 b + a*b gives
    Dx^j o (a Dx^-1 b) = sum_i Dx^(j-1-i) o (a^(i) b) + a^(j) Dx^-1 b.
    """
    tower = _dx_tower(a, j)
    pairs = [(exp, c * coeff) for i in range(j)
             for exp, coeff in _leibniz(j - 1 - i, tower[i] * b)]
    return pairs, (c * tower[j], b)


def _compose_nonlocal_local(a: DiffPoly, b: DiffPoly, j: int, c: DiffPoly):
    """(a Dx^-1 b) o (c Dx^j) -> (local pairs, one nonlocal term).

    Lowering the right exponent with Dx^-1 o (g Dx) = g - Dx^-1 o g_x gives
    sum_i (-1)^i a (bc)^(i) Dx^(j-1-i) + (-1)^j a Dx^-1 (bc)^(j).
    """
    tower = [-g if i % 2 else g for i, g in enumerate(_dx_tower(b * c, j))]
    return [(j - 1 - i, a * tower[i]) for i in range(j)], (a, tower[j])


def compose(A: PseudoDiffOp, B: PseudoDiffOp) -> PseudoDiffOp:
    """Operator composition A o B inside the representable class."""
    if A.eps_order != B.eps_order:
        raise OrderMismatch("mixed truncation orders")
    if A.nonlocal_terms and B.nonlocal_terms:
        from .printing import format_operator

        raise ClosureError(
            "composition of two nonlocal operators leaves the class: "
            f"({format_operator(A)}) o ({format_operator(B)})"
        )
    pairs: list = []
    nonlocal_terms: list = []
    for j, a in A.local_terms.items():
        for k, b in B.local_terms.items():
            pairs.extend((exp + k, a * coeff) for exp, coeff in _leibniz(j, b))
        for c, d in B.nonlocal_terms:
            local, term = _compose_local_nonlocal(j, a, c, d)
            pairs.extend(local)
            nonlocal_terms.append(term)
    for a, b in A.nonlocal_terms:
        for k, c in B.local_terms.items():
            local, term = _compose_nonlocal_local(a, b, k, c)
            pairs.extend(local)
            nonlocal_terms.append(term)
    return PseudoDiffOp(_collect(pairs), nonlocal_terms, A.eps_order)


def adjoint(A: PseudoDiffOp) -> PseudoDiffOp:
    """Formal adjoint: (a Dx^j)* = (-Dx)^j o a, (a Dx^-1 b)* = -b Dx^-1 a."""
    local = _collect((exp, -coeff if j % 2 else coeff)
                     for j, a in A.local_terms.items()
                     for exp, coeff in _leibniz(j, a))
    nonlocal_terms = tuple((-b, a) for a, b in A.nonlocal_terms)
    return PseudoDiffOp(local, nonlocal_terms, A.eps_order)


def commutator(A: PseudoDiffOp, B: PseudoDiffOp) -> PseudoDiffOp:
    """[A, B] = A o B - B o A; propagates ClosureError."""
    return compose(A, B) - compose(B, A)


def _derive_coefficients(A: PseudoDiffOp, d) -> PseudoDiffOp:
    """Apply the derivation d to every local coefficient of A, and by
    Leibniz to both factors of each a Dx^-1 b."""
    local = {j: d(c) for j, c in A.local_terms.items()}
    nonlocal_terms = [term for a, b in A.nonlocal_terms
                      for term in ((d(a), b), (a, d(b)))]
    return PseudoDiffOp(local, nonlocal_terms, A.eps_order)


def op_time_derivative(A: PseudoDiffOp, sys: EvolutionSystem) -> PseudoDiffOp:
    """Differentiate the operator's coefficients along the flow of the system."""
    return _derive_coefficients(A, lambda c: dt_total(c, sys))


# ---------------------------------------------------------------------------
# Frechet derivative and the variational side


def frechet(P: DiffPoly) -> PseudoDiffOp:
    """The linearization sum_k (dP/du_k) Dx^k as a local operator."""
    return PseudoDiffOp(_jet_partials(P), (), P.eps_order)


def helmholtz_selfadjoint(g: DiffPoly) -> bool:
    """True when g is variational, i.e. its linearization is self-adjoint.

    Decided as reconstruct_density decides it, by one Euler derivative of
    the homotopy density: g is variational exactly when euler(h) == g
    (Olver, Applications of Lie Groups to Differential Equations, 2nd ed.,
    section 5.4).
    """
    return euler(_homotopy_density(g)) == g


def reconstruct_density(g: DiffPoly) -> Functional:
    """Invert the variational derivative with the homotopy formula.

    The density is h = int_0^1 u*g[lambda*u] d(lambda), which collapses
    termwise to u*m/(jet degree of m + 1).  g is variational exactly when
    euler(h) == g (Olver, Applications of Lie Groups to Differential
    Equations, 2nd ed., section 5.4), so one Euler derivative is the whole
    test.  On failure NotVariational carries frechet(g) minus its adjoint,
    which is then nonzero.
    """
    density = _homotopy_density(g)
    if euler(density) != g:
        D = frechet(g)
        raise NotVariational("linearization is not self-adjoint", D - adjoint(D))
    return Functional(density)
