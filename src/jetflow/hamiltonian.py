"""Hamiltonian-structure checks for perturbed evolution equations.

Skew-adjointness, Hamiltonian vector fields, Poisson brackets of functionals,
distinguished (Casimir) functionals, and the Hamiltonian-pair criterion via
functional multivectors.  The multivector calculus introduces an
anticommuting dependent variable theta; a functional multivector vanishes
modulo total x-derivatives exactly when its graded Euler derivative with
respect to theta vanishes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping, Tuple

from .errors import NotExact, Unsupported
from .jets import (DiffPoly, EvolutionSystem, Functional, Monomial,
                   diff_partial, dx_total, euler1, prolong_apply)
from .operators import (PseudoDiffOp, _derive_coefficients, adjoint,
                        apply_op, compose, frechet)
from .ring import EpsPoly, _Frozen

WedgeKey = Tuple[Monomial, Tuple[int, ...]]


def _sort_wedge(orders):
    """Sort theta jet orders, returning (sign, sorted tuple), the sign being
    the parity of the inversions; repeated orders give (0, ())."""
    ordered = tuple(sorted(orders))
    if len(set(ordered)) < len(ordered):
        return 0, ()
    return (-1) ** sum(a > b for a, b in combinations(orders, 2)), ordered


class MultiVector(_Frozen):
    """A functional multivector: sum of f[u] * theta_{k1} ^ ... ^ theta_{kg}.

    Stored as a map {wedge: DiffPoly} holding one nonzero coefficient
    polynomial per wedge of theta jet orders, each wedge strictly
    increasing; the Koszul sign of sorting a wedge is folded into its
    coefficient.  All arithmetic goes through DiffPoly.  Terms of different
    grades may coexist during intermediate arithmetic.  The constructor
    takes {(Monomial, wedge): EpsPoly}, with wedges in any order.
    """

    __slots__ = ("_parts", "eps_order")

    def __init__(self, terms: Mapping[WedgeKey, EpsPoly], eps_order: int):
        summed = MultiVector._summed(
            ((1, wedge, DiffPoly({mon: coeff}, eps_order))
             for (mon, wedge), coeff in terms.items()), eps_order)
        object.__setattr__(self, "_parts", summed._parts)
        object.__setattr__(self, "eps_order", eps_order)

    @classmethod
    def _summed(cls, pieces, eps_order: int) -> "MultiVector":
        """The sum of (sign, unsorted wedge, DiffPoly) pieces."""
        parts: dict = {}
        for sign, wedge, P in pieces:
            wedge_sign, wedge = _sort_wedge(wedge)
            if not wedge_sign or P.is_zero():
                continue
            if sign * wedge_sign < 0:
                P = -P
            parts[wedge] = parts[wedge] + P if wedge in parts else P
        self = object.__new__(cls)
        object.__setattr__(self, "_parts", {w: P for w, P in parts.items()
                                            if not P.is_zero()})
        object.__setattr__(self, "eps_order", eps_order)
        return self

    def __reduce__(self):
        # copy and pickle rebuild through _summed, not the blocked setattr
        return MultiVector._summed, (list(self._pieces()), self.eps_order)

    @classmethod
    def zero(cls, eps_order: int) -> "MultiVector":
        return cls._summed((), eps_order)

    @classmethod
    def from_poly(cls, P: DiffPoly, wedge: Tuple[int, ...] = ()) -> "MultiVector":
        return cls._summed([(1, wedge, P)], P.eps_order)

    def _pieces(self, sign: int = 1):
        return ((sign, wedge, P) for wedge, P in self._parts.items())

    def is_zero(self) -> bool:
        return not self._parts

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self.eps_order == other.eps_order and self._parts == other._parts

    def __add__(self, other: "MultiVector") -> "MultiVector":
        return MultiVector._summed([*self._pieces(), *other._pieces()],
                                   self.eps_order)

    def __neg__(self):
        return MultiVector._summed(self._pieces(-1), self.eps_order)

    def __sub__(self, other):
        return MultiVector._summed([*self._pieces(), *other._pieces(-1)],
                                   self.eps_order)

    def scale(self, r) -> "MultiVector":
        return MultiVector._summed(((1, w, P * r) for w, P in self._parts.items()),
                                   self.eps_order)

    def wedge(self, other: "MultiVector") -> "MultiVector":
        """Exterior product; coefficients multiply, wedges concatenate."""
        return MultiVector._summed(
            ((1, w1 + w2, P1 * P2)
             for w1, P1 in self._parts.items()
             for w2, P2 in other._parts.items() if set(w1).isdisjoint(w2)),
            self.eps_order)

    # -- calculus ----------------------------------------------------------

    def dx(self) -> "MultiVector":
        """Total x-derivative, acting on coefficients and theta jets alike."""
        pieces = []
        for wedge, P in self._parts.items():
            pieces.append((1, wedge, dx_total(P)))
            pieces.extend((1, wedge[:i] + (k + 1,) + wedge[i + 1:], P)
                          for i, k in enumerate(wedge))
        return MultiVector._summed(pieces, self.eps_order)

    def diff_theta(self, k: int) -> "MultiVector":
        """Graded left derivative with respect to theta_k."""
        return MultiVector._summed(
            ((-1 if i % 2 else 1, wedge[:i] + wedge[i + 1:], P)
             for wedge, P in self._parts.items()
             for i, w in enumerate(wedge) if w == k),
            self.eps_order)

    def diff_jet(self, order: int) -> "MultiVector":
        """Partial derivative of the coefficients with respect to u_order."""
        return MultiVector._summed(
            ((1, wedge, diff_partial(P, order)) for wedge, P in self._parts.items()),
            self.eps_order)

    def theta_orders(self) -> set:
        return {k for wedge in self._parts for k in wedge}

    def jet_vars(self) -> set:
        return set().union(*(P.jet_vars() for P in self._parts.values()))

    def euler_theta(self) -> "MultiVector":
        """Graded Euler operator sum_k (-D_x)^k d/d(theta_k)."""
        top = max(self.theta_orders(), default=-1)
        acc = self.diff_theta(top)  # zero when top is -1
        for k in range(top - 1, -1, -1):
            acc = self.diff_theta(k) - acc.dx()
        return acc

    def is_exact(self) -> bool:
        """Vanishing modulo total x-derivatives (graded Euler test)."""
        return self.euler_theta().is_zero()


def op_theta(A: PseudoDiffOp) -> MultiVector:
    """The grade-1 multivector A(theta) for a local operator."""
    if not A.is_local():
        raise Unsupported("multivector calculus supports local operators only")
    return MultiVector._summed(((1, (j,), c) for j, c in A.local_terms.items()),
                               A.eps_order)


def bivector_of(A: PseudoDiffOp) -> MultiVector:
    """Theta_A = (1/2) int theta ^ A(theta) dx for a local operator."""
    theta = MultiVector.from_poly(DiffPoly.constant(1, A.eps_order), (0,))
    return theta.wedge(op_theta(A)).scale(Fraction(1, 2))


def prolong_theta(W: MultiVector, target: MultiVector) -> MultiVector:
    """Prolonged action of the theta-valued characteristic W on `target`.

    Each u-jet direction d/du_k in the coefficients of `target` is replaced
    by the k-th total derivative of W, wedged in from the left.
    """
    tower = [W]
    out = MultiVector.zero(target.eps_order)
    for k in sorted(target.jet_vars()):
        while len(tower) <= k:
            tower.append(tower[-1].dx())
        out = out + tower[k].wedge(target.diff_jet(k))
    return out


# ---------------------------------------------------------------------------
# Public checks


def is_skew_adjoint(D: PseudoDiffOp) -> bool:
    return adjoint(D) == -D


def ham_vector_field(D: PseudoDiffOp, H: Functional) -> DiffPoly:
    """Characteristic D(delta H) of the Hamiltonian vector field of H."""
    return apply_op(D, euler1(H.density))


def poisson_bracket(P: Functional, L: Functional, D: PseudoDiffOp) -> Functional:
    """{P, L}_D as a functional with density delta(P) * D(delta L)."""
    density = euler1(P.density) * apply_op(D, euler1(L.density))
    return Functional(density)


def in_involution(P: Functional, L: Functional, D: PseudoDiffOp) -> bool:
    return poisson_bracket(P, L, D).is_null()


def is_distinguished(G: Functional, D: PseudoDiffOp) -> bool:
    """True when D(delta G) vanishes, i.e. G generates the trivial flow."""
    try:
        return ham_vector_field(D, G).is_zero()
    except NotExact:
        return False


def _pair_residual(D: PseudoDiffOp, E: PseudoDiffOp) -> MultiVector:
    """The graded Euler derivative of the pair trivector, zero exactly when
    D and E form a Hamiltonian pair.

    Builds Theta_D and Theta_E and sums the two prolonged trivectors, which
    vanish modulo total derivatives exactly when that derivative is zero.
    Local skew-adjoint operators only.
    """
    if not (D.is_local() and E.is_local()):
        raise Unsupported("pair_check supports local operators only")
    if not (is_skew_adjoint(D) and is_skew_adjoint(E)):
        raise Unsupported("pair_check requires skew-adjoint operators")
    theta_d = bivector_of(D)
    theta_e = bivector_of(E)
    trivector = (prolong_theta(op_theta(D), theta_e)
                 + prolong_theta(op_theta(E), theta_d))
    return trivector.euler_theta()


def pair_check(D: PseudoDiffOp, E: PseudoDiffOp) -> bool:
    """Hamiltonian-pair criterion via functional bivectors (_pair_residual)."""
    return _pair_residual(D, E).is_zero()


def flow_derivative_identity(D: PseudoDiffOp, sys: EvolutionSystem,
                             H: Functional) -> bool:
    """Check pr v_H(D) = D_K o D + D o D_K* along the flow it generates.

    Requires that D(delta H) reproduces the system right-hand side; a
    mismatch is reported as False.
    """
    K = ham_vector_field(D, H)
    if K != sys.rhs:
        return False
    DK = frechet(K)
    rhs = compose(DK, D) + compose(D, adjoint(DK))
    lhs = _derive_coefficients(D, lambda c: prolong_apply(K, c))
    return lhs == rhs
