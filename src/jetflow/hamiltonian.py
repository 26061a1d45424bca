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
from typing import Mapping, Tuple

from .errors import NotExact, Unsupported
from .jets import (DiffPoly, EvolutionSystem, Functional, Monomial,
                   _accumulate, _dx_monomial, _exact, _partial_monomial,
                   euler1, prolong_apply)
from .operators import (PseudoDiffOp, adjoint, apply_op, compose, frechet)
from .ring import EpsPoly, _as_fraction

# A multivector is stored flat like a DiffPoly: one rational (an int when
# integral, else a Fraction) per (coefficient monomial, wedge of theta jets,
# eps degree), the wedge with strictly increasing jet orders; the Koszul sign
# of sorting is absorbed into the coefficient.
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
    grade is reported as the maximum wedge length present.  The constructor
    takes {(Monomial, wedge): EpsPoly} and stores it as a flat
    {(Monomial, wedge, e): rational} map.
    """

    __slots__ = ("_flat", "eps_order")

    def __init__(self, terms: Mapping[WedgeKey, EpsPoly], eps_order: int):
        flat = {(mon, wedge, e): _exact(c)
                for (mon, wedge), coeff in terms.items()
                for e, c in enumerate(coeff.coeffs) if c}
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "eps_order", eps_order)

    @classmethod
    def _from_flat(cls, flat: dict, eps_order: int) -> "MultiVector":
        self = object.__new__(cls)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "eps_order", eps_order)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    @classmethod
    def zero(cls, eps_order: int) -> "MultiVector":
        return cls._from_flat({}, eps_order)

    @classmethod
    def from_poly(cls, P: DiffPoly, wedge: Tuple[int, ...] = ()) -> "MultiVector":
        sign, wedge = _sort_wedge(wedge)
        return cls._from_flat({(mon, wedge, e): c if sign > 0 else -c
                               for (mon, e), c in P._flat.items() if sign},
                              P.eps_order)

    def is_zero(self) -> bool:
        return not self._flat

    def grade(self) -> int:
        return max((len(w) for _, w, _ in self._flat), default=0)

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self.eps_order == other.eps_order and self._flat == other._flat

    def __add__(self, other: "MultiVector") -> "MultiVector":
        flat = dict(self._flat)
        for key, c in other._flat.items():
            _accumulate(flat, key, c)
        return MultiVector._from_flat(flat, self.eps_order)

    def __neg__(self):
        return MultiVector._from_flat({k: -c for k, c in self._flat.items()},
                                      self.eps_order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r) -> "MultiVector":
        r = _exact(_as_fraction(r))
        return MultiVector._from_flat(
            {k: _exact(c * r) for k, c in self._flat.items()} if r else {},
            self.eps_order)

    def wedge(self, other: "MultiVector") -> "MultiVector":
        """Exterior product; coefficients multiply, wedges concatenate."""
        p = self.eps_order
        flat: dict = {}
        for (m1, w1, e1), c1 in self._flat.items():
            for (m2, w2, e2), c2 in other._flat.items():
                if e1 + e2 > p:
                    continue
                sign, wedge = _sort_wedge(w1 + w2)
                if sign:
                    _accumulate(flat, (m1.mul(m2), wedge, e1 + e2),
                                c1 * c2 if sign > 0 else -(c1 * c2))
        return MultiVector._from_flat(flat, p)

    # -- calculus ----------------------------------------------------------

    def dx(self) -> "MultiVector":
        """Total x-derivative, acting on coefficients and theta jets alike."""
        flat: dict = {}
        for (mon, wedge, e), c in self._flat.items():
            for factor, new in _dx_monomial(mon):
                _accumulate(flat, (new, wedge, e), c if factor == 1 else c * factor)
            for i, k in enumerate(wedge):
                sign, new_wedge = _sort_wedge(wedge[:i] + (k + 1,) + wedge[i + 1:])
                if sign:
                    _accumulate(flat, (mon, new_wedge, e), c if sign > 0 else -c)
        return MultiVector._from_flat(flat, self.eps_order)

    def diff_theta(self, k: int) -> "MultiVector":
        """Graded left derivative with respect to theta_k."""
        flat: dict = {}
        for (mon, wedge, e), c in self._flat.items():
            for i, w in enumerate(wedge):
                if w == k:
                    _accumulate(flat, (mon, wedge[:i] + wedge[i + 1:], e),
                                c if i % 2 == 0 else -c)
        return MultiVector._from_flat(flat, self.eps_order)

    def diff_jet(self, order: int) -> "MultiVector":
        """Partial derivative of the coefficients with respect to u_order."""
        flat: dict = {}
        for (mon, wedge, e), c in self._flat.items():
            d = _partial_monomial(mon, order)
            if d is not None:
                factor, new = d
                _accumulate(flat, (new, wedge, e), c if factor == 1 else c * factor)
        return MultiVector._from_flat(flat, self.eps_order)

    def theta_orders(self) -> set:
        return {k for _, wedge, _ in self._flat for k in wedge}

    def jet_vars(self) -> set:
        return {k for mon, _, _ in self._flat for k, _ in mon.jets}

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
    if K != sys.rhs:
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
