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
from typing import Dict, Mapping, Tuple

from .errors import NotExact, Unsupported
from .jets import (DiffPoly, EvolutionSystem, Functional, Monomial,
                   _dx_monomial, diff_partial, euler1, prolong_apply)
from .operators import (PseudoDiffOp, adjoint, apply_op, compose, frechet)
from .ring import EpsPoly

# A multivector term is a coefficient (plain differential polynomial) times a
# wedge of theta jets, stored with strictly increasing jet orders; the Koszul
# sign of sorting is absorbed into the coefficient.
WedgeKey = Tuple[Monomial, Tuple[int, ...]]


def _sort_wedge(orders):
    """Sort theta jet orders, returning (sign, sorted tuple); repeated -> 0."""
    orders = list(orders)
    sign = 1
    for i in range(1, len(orders)):
        j = i
        while j > 0 and orders[j - 1] > orders[j]:
            orders[j - 1], orders[j] = orders[j], orders[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(orders, orders[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(orders)


class MultiVector:
    """A functional multivector: sum of f[u] * theta_{k1} ^ ... ^ theta_{kg}.

    Terms of different grades may coexist during intermediate arithmetic;
    grade is reported as the maximum wedge length present.
    """

    __slots__ = ("terms", "eps_order")

    def __init__(self, terms: Mapping[WedgeKey, EpsPoly], eps_order: int):
        clean = {}
        for (mon, wedge), coeff in terms.items():
            if not coeff.is_zero():
                clean[(mon, wedge)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "eps_order", eps_order)

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    @classmethod
    def zero(cls, eps_order: int) -> "MultiVector":
        return cls({}, eps_order)

    @classmethod
    def from_poly(cls, P: DiffPoly, wedge: Tuple[int, ...] = ()) -> "MultiVector":
        sign, wedge = _sort_wedge(wedge)
        if sign == 0:
            return cls.zero(P.eps_order)
        terms = {}
        for mon, coeff in P.terms.items():
            terms[(mon, wedge)] = coeff if sign > 0 else -coeff
        return cls(terms, P.eps_order)

    def is_zero(self) -> bool:
        return not self.terms

    def grade(self) -> int:
        return max((len(w) for _, w in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self.eps_order == other.eps_order and self.terms == other.terms

    def __add__(self, other: "MultiVector") -> "MultiVector":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms[key] + coeff if key in terms else coeff
        return MultiVector(terms, self.eps_order)

    def __neg__(self):
        return MultiVector({k: -c for k, c in self.terms.items()}, self.eps_order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r) -> "MultiVector":
        return MultiVector({k: c.scale(r) for k, c in self.terms.items()},
                           self.eps_order)

    def wedge(self, other: "MultiVector") -> "MultiVector":
        """Exterior product; coefficients multiply, wedges concatenate."""
        out: Dict[WedgeKey, EpsPoly] = {}
        for (m1, w1), c1 in self.terms.items():
            for (m2, w2), c2 in other.terms.items():
                sign, wedge = _sort_wedge(w1 + w2)
                if sign == 0:
                    continue
                c = c1 * c2
                if sign < 0:
                    c = -c
                if c.is_zero():
                    continue
                key = (m1.mul(m2), wedge)
                out[key] = out[key] + c if key in out else c
        return MultiVector(out, self.eps_order)

    # -- calculus ----------------------------------------------------------

    def dx(self) -> "MultiVector":
        """Total x-derivative, acting on coefficients and theta jets alike."""
        acc: Dict[WedgeKey, EpsPoly] = {}

        def add(key, coeff):
            if key in acc:
                acc[key] = acc[key] + coeff
            else:
                acc[key] = coeff

        for (mon, wedge), coeff in self.terms.items():
            for factor, new in _dx_monomial(mon):
                add((new, wedge), coeff if factor == 1 else coeff.scale(factor))
            for i, k in enumerate(wedge):
                sign, new_wedge = _sort_wedge(wedge[:i] + (k + 1,) + wedge[i + 1:])
                if sign == 0:
                    continue
                add((mon, new_wedge), coeff if sign > 0 else -coeff)
        return MultiVector(acc, self.eps_order)

    def diff_theta(self, k: int) -> "MultiVector":
        """Graded left derivative with respect to theta_k."""
        acc: Dict[WedgeKey, EpsPoly] = {}
        for (mon, wedge), coeff in self.terms.items():
            for i, w in enumerate(wedge):
                if w != k:
                    continue
                rest = wedge[:i] + wedge[i + 1:]
                c = coeff if i % 2 == 0 else -coeff
                key = (mon, rest)
                acc[key] = acc[key] + c if key in acc else c
        return MultiVector(acc, self.eps_order)

    def diff_jet(self, var) -> "MultiVector":
        """Partial derivative of the coefficients with respect to a u jet."""
        acc: Dict[WedgeKey, EpsPoly] = {}
        for (mon, wedge), coeff in self.terms.items():
            poly = DiffPoly.monomial(mon, coeff, self.eps_order)
            d = diff_partial(poly, var)
            for m2, c2 in d.terms.items():
                key = (m2, wedge)
                acc[key] = acc[key] + c2 if key in acc else c2
        return MultiVector(acc, self.eps_order)

    def theta_orders(self) -> set:
        out = set()
        for _, wedge in self.terms:
            out.update(wedge)
        return out

    def jet_vars(self) -> set:
        out = set()
        for mon, _ in self.terms:
            for var, _e in mon.jets:
                out.add(var)
        return out

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
    out = MultiVector.zero(A.eps_order)
    for j, c in A.local_terms.items():
        out = out + MultiVector.from_poly(c, (j,))
    return out


def bivector_of(A: PseudoDiffOp) -> MultiVector:
    """Theta_A = (1/2) int theta ^ A(theta) dx for a local operator."""
    theta = MultiVector.from_poly(DiffPoly.constant(1, A.eps_order), (0,))
    return theta.wedge(op_theta(A)).scale(Fraction(1, 2))


def prolong_theta(W: MultiVector, target: MultiVector) -> MultiVector:
    """Prolonged action of the theta-valued characteristic W on `target`.

    Each u-jet direction d/du_k in the coefficients of `target` is replaced
    by the k-th total derivative of W, wedged in from the left.
    """
    jet_vars = sorted(target.jet_vars())
    if any(comp != 0 for comp, _ in jet_vars):
        raise Unsupported("multivector calculus is scalar in u")
    tower = [W]
    out = MultiVector.zero(target.eps_order)
    for var in jet_vars:
        while len(tower) <= var[1]:
            tower.append(tower[-1].dx())
        out = out + tower[var[1]].wedge(target.diff_jet(var))
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


def pair_check(D: PseudoDiffOp, E: PseudoDiffOp) -> bool:
    """Hamiltonian-pair criterion via functional bivectors.

    Builds Theta_D and Theta_E and tests that the sum of the two prolonged
    trivectors vanishes modulo total derivatives.  Local operators only.
    """
    if not (D.is_local() and E.is_local()):
        raise Unsupported("pair_check supports local operators only")
    if not (is_skew_adjoint(D) and is_skew_adjoint(E)):
        raise Unsupported("pair_check requires skew-adjoint operators")
    theta_d = bivector_of(D)
    theta_e = bivector_of(E)
    trivector = (prolong_theta(op_theta(D), theta_e)
                 + prolong_theta(op_theta(E), theta_d))
    return trivector.is_exact()


def flow_derivative_identity(D: PseudoDiffOp, sys: EvolutionSystem,
                             H: Functional) -> bool:
    """Check pr v_H(D) = D_K o D + D o D_K* along the flow it generates.

    Requires that D(delta H) reproduces the system right-hand side; a
    mismatch is reported as False.
    """
    K = ham_vector_field(D, H)
    if K != sys.rhs[0]:
        return False
    DK = frechet(K)
    rhs = compose(DK, D) + compose(D, adjoint(DK))
    local = {j: prolong_apply(K, c) for j, c in D.local_terms.items()}
    nonlocal_terms = []
    for a, b in D.nonlocal_terms:
        nonlocal_terms.append((prolong_apply(K, a), b))
        nonlocal_terms.append((a, prolong_apply(K, b)))
    lhs = PseudoDiffOp(local, nonlocal_terms, D.eps_order)
    return lhs == rhs
