"""Differential polynomials on the jet space of one spatial variable.

A jet variable is an int k, the k-th x-derivative of the dependent variable
u (``u_0 = u``, ``u_1 = u_x``, ...).  A :class:`DiffPoly` is a finite sum
of monomials in ``x``, ``t`` and jet variables with coefficients in
Q[eps]/(eps^(p+1)).  Total derivatives, the Euler operator, prolongation
and formal integration all live here.

Coefficients are stored flat: a polynomial is one map
``{(Monomial, e): c}`` from a monomial and an eps degree e <= p to a
nonzero rational c.  A coefficient is a Python ``int`` whenever it is
integral and a ``Fraction`` with denominator > 1 otherwise, never a float,
so the common integer case skips Fraction arithmetic.  Every division
builds a ``Fraction`` first, because ``int / int`` is a float.  Every
primitive here works on that map, and products drop degree pairs above p
before multiplying.  The operator, engine, numeric and printing layers
read it; the multivector calculus is a map ``{wedge: DiffPoly}`` and does
all of its arithmetic through DiffPoly.  :class:`~jetflow.ring.EpsPoly`
stays the public scalar type: ``DiffPoly(terms, p)`` accepts a
``{Monomial: EpsPoly}`` mapping and ``DiffPoly.terms`` gives one back,
Fraction-valued, as a derived read-only view.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Tuple

from .errors import NotExact, OrderMismatch
from .ring import EpsPoly, _as_fraction

JetVar = int  # number of x-derivatives of u


class Monomial(NamedTuple):
    """x^a * t^b * product of jet-variable powers.

    ``jets`` is ``((order, exp), ...)`` with strictly increasing orders and
    exponents > 0.
    """

    x: int
    t: int
    jets: Tuple[Tuple[int, int], ...]

    def mul(self, other: "Monomial") -> "Monomial":
        if not self.jets or not other.jets:
            return Monomial(self.x + other.x, self.t + other.t,
                            self.jets or other.jets)
        merged = dict(self.jets)
        for k, e in other.jets:
            merged[k] = merged.get(k, 0) + e
        jets = tuple(sorted((k, e) for k, e in merged.items() if e))
        return Monomial(self.x + other.x, self.t + other.t, jets)

    def degree(self) -> int:
        return self.x + self.t + sum(e for _, e in self.jets)

    def jet_degree(self) -> int:
        return sum(e for _, e in self.jets)

    def max_jet_order(self) -> int:
        return self.jets[-1][0] if self.jets else -1

    def exponent(self, order: int) -> int:
        for k, e in self.jets:
            if k == order:
                return e
        return 0

    def with_exponent(self, order: int, exp: int) -> "Monomial":
        jets = dict(self.jets)
        if exp:
            jets[order] = exp
        else:
            jets.pop(order, None)
        return Monomial(self.x, self.t, tuple(sorted(jets.items())))


ONE_MONOMIAL = Monomial(0, 0, ())


def _exact(c):
    """A nonzero rational in stored form: an int when integral, else the
    Fraction itself."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _accumulate(flat: dict, key, c) -> None:
    """flat[key] += c, deleting the key when the sum cancels."""
    prev = flat.get(key)
    if prev is not None:
        c += prev
        if not c:
            del flat[key]
            return
    flat[key] = _exact(c)


class DiffPoly:
    """A differential polynomial with coefficients in Q[eps]/(eps^(p+1)).

    Treated as immutable: every operation returns a new value, and equality
    is term-map equality.  The terms are stored flat, one rational per
    (monomial, eps degree) in a private map ``{(Monomial, e): c}`` holding
    nonzero values only, each an int when integral and a Fraction
    otherwise, so a term of a single eps degree costs one number and a
    product skips every pair of degrees above p.  ``terms`` groups that map
    into a read-only ``{Monomial: EpsPoly}`` view, built on each access, for
    callers outside the package.
    """

    __slots__ = ("_flat", "eps_order")

    def __init__(self, terms: Mapping[Monomial, EpsPoly], eps_order: int):
        flat = {}
        for mon, coeff in terms.items():
            if coeff.order != eps_order:
                raise OrderMismatch(
                    f"coefficient order {coeff.order} != polynomial order {eps_order}"
                )
            for e, c in enumerate(coeff.coeffs):
                if c:
                    flat[mon, e] = _exact(c)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "eps_order", eps_order)

    @classmethod
    def _from_flat(cls, flat: dict, eps_order: int) -> "DiffPoly":
        """Wrap a {(Monomial, e): c} map of nonzero stored values as is."""
        self = object.__new__(cls)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "eps_order", eps_order)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    def _grouped(self) -> dict:
        """{Monomial: [value per eps degree, 0 where absent]}, in
        first-appearance order."""
        grouped: dict = {}
        zeros = [0] * (self.eps_order + 1)
        for (mon, e), c in self._flat.items():
            if mon not in grouped:
                grouped[mon] = list(zeros)
            grouped[mon][e] = c
        return grouped

    @property
    def terms(self) -> Mapping[Monomial, EpsPoly]:
        """The terms as a read-only {Monomial: EpsPoly} view."""
        return MappingProxyType({mon: EpsPoly(cs)
                                 for mon, cs in self._grouped().items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, eps_order: int) -> "DiffPoly":
        return cls._from_flat({}, eps_order)

    @classmethod
    def constant(cls, value, eps_order: int) -> "DiffPoly":
        if isinstance(value, EpsPoly):
            return cls({ONE_MONOMIAL: value}, eps_order)
        if type(value) is not int:
            value = _exact(_as_fraction(value))
        return cls._from_flat({(ONE_MONOMIAL, 0): value} if value else {},
                              eps_order)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._flat

    def rational_constant(self) -> Optional[Fraction]:
        """This polynomial as a pure rational number, or None."""
        if any(key != (ONE_MONOMIAL, 0) for key in self._flat):
            return None
        return Fraction(self._flat.get((ONE_MONOMIAL, 0), 0))

    def max_jet_order(self) -> int:
        """Highest derivative order present (-1 when jet-free)."""
        return max((m.max_jet_order() for m, _ in self._flat), default=-1)

    def total_degree(self) -> int:
        return max((m.degree() for m, _ in self._flat), default=0)

    def jet_vars(self) -> set:
        """The jet orders present."""
        return {k for m, _ in self._flat for k, _ in m.jets}

    def eps_component(self, degree: int) -> "DiffPoly":
        """The coefficient of eps^degree, as a polynomial of the same order."""
        return DiffPoly._from_flat(
            {(m, 0): c for (m, e), c in self._flat.items() if e == degree},
            self.eps_order)

    # -- arithmetic ----------------------------------------------------------

    def _check_compat(self, other: "DiffPoly") -> None:
        if self.eps_order != other.eps_order:
            raise OrderMismatch(
                f"mixed truncation orders {self.eps_order} and {other.eps_order}"
            )

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            return other
        if isinstance(other, (int, Fraction, EpsPoly)):
            return DiffPoly.constant(other, self.eps_order)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_compat(other)
        flat = dict(self._flat)
        for key, c in other._flat.items():
            _accumulate(flat, key, c)
        return DiffPoly._from_flat(flat, self.eps_order)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly._from_flat({k: -c for k, c in self._flat.items()},
                                   self.eps_order)

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

    def _scaled(self, r) -> "DiffPoly":
        r = _exact(r)
        flat = {k: _exact(c * r) for k, c in self._flat.items()} if r else {}
        return DiffPoly._from_flat(flat, self.eps_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_compat(other)
        p = self.eps_order
        flat: dict = {}
        for (m1, e1), c1 in self._flat.items():
            for (m2, e2), c2 in other._flat.items():
                if e1 + e2 <= p:
                    _accumulate(flat, (m1.mul(m2), e1 + e2), c1 * c2)
        return DiffPoly._from_flat(flat, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = DiffPoly.constant(1, self.eps_order)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.eps_order == other.eps_order and self._flat == other._flat

    def __repr__(self):
        from .printing import format_poly

        return f"DiffPoly({format_poly(self)!r}, p={self.eps_order})"


# ---------------------------------------------------------------------------
# Variable factory


class Context:
    """Factory for the atoms of the algebra at a fixed truncation order."""

    def __init__(self, eps_order: int = 1):
        if eps_order < 0:
            raise ValueError("eps_order must be non-negative")
        self.eps_order = eps_order

    def _mono(self, mon: Monomial) -> DiffPoly:
        return DiffPoly._from_flat({(mon, 0): 1}, self.eps_order)

    @property
    def x(self) -> DiffPoly:
        return self._mono(Monomial(1, 0, ()))

    @property
    def t(self) -> DiffPoly:
        return self._mono(Monomial(0, 1, ()))

    @property
    def eps(self) -> DiffPoly:
        return DiffPoly.constant(EpsPoly.eps(self.eps_order), self.eps_order)

    def u(self, order: int = 0) -> DiffPoly:
        if order < 0:
            raise ValueError("jet order must be non-negative")
        return self._mono(Monomial(0, 0, ((order, 1),)))

    def const(self, value) -> DiffPoly:
        return DiffPoly.constant(value, self.eps_order)

    @property
    def one(self) -> DiffPoly:
        return self.const(1)

    @property
    def zero(self) -> DiffPoly:
        return DiffPoly.zero(self.eps_order)


# ---------------------------------------------------------------------------
# Systems and functionals


class EvolutionSystem:
    """u_t = K[u, eps] with one differential polynomial K as right-hand side."""

    def __init__(self, rhs: DiffPoly, name: str = ""):
        if not isinstance(rhs, DiffPoly):
            raise TypeError("the right-hand side must be one DiffPoly")
        self.rhs = rhs
        self.eps_order = rhs.eps_order
        self.name = name


class Functional:
    """An equivalence class int T dx of densities modulo total x-derivatives."""

    def __init__(self, density: DiffPoly, name: str = ""):
        self.density = density
        self.name = name

    @property
    def eps_order(self) -> int:
        return self.density.eps_order

    def equivalent(self, other: "Functional") -> bool:
        """Equality modulo im D_x, decided by the Euler operator."""
        return euler(self.density - other.density).is_zero()

    def is_null(self) -> bool:
        return euler(self.density).is_zero()

    def __repr__(self):
        from .printing import format_poly

        label = f" '{self.name}'" if self.name else ""
        return f"Functional{label}({format_poly(self.density)!r})"


# ---------------------------------------------------------------------------
# Calculus


def diff_partial(P: DiffPoly, var) -> DiffPoly:
    """Partial derivative with respect to 'x', 't' or a jet order."""
    flat: dict = {}
    for (mon, e), c in P._flat.items():
        if var == "x":
            factor, new = mon.x, Monomial(mon.x - 1, mon.t, mon.jets)
        elif var == "t":
            factor, new = mon.t, Monomial(mon.x, mon.t - 1, mon.jets)
        else:
            factor = mon.exponent(var)
            new = mon.with_exponent(var, factor - 1) if factor else None
        if factor:
            _accumulate(flat, (new, e), c if factor == 1 else c * factor)
    return DiffPoly._from_flat(flat, P.eps_order)


def _dx_monomial(mon: Monomial):
    """Chain rule on one monomial: the (factor, monomial) terms of D_x(mon).

    x^a gives a*x^(a-1) and u_k^e gives e*u_k^(e-1)*u_(k+1); the results are
    pairwise distinct monomials.
    """
    x, t, jets = mon
    out = []
    if x:
        out.append((x, Monomial(x - 1, t, jets)))
    for i, (k, e) in enumerate(jets):
        head = jets[:i] + (((k, e - 1),) if e > 1 else ())
        rest = jets[i + 1:]
        # jets are sorted, so an existing u_(k+1) factor comes right after u_k
        if rest and rest[0][0] == k + 1:
            new = head + ((k + 1, rest[0][1] + 1),) + rest[1:]
        else:
            new = head + ((k + 1, 1),) + rest
        out.append((e, Monomial(x, t, new)))
    return out


def dx_total(P: DiffPoly) -> DiffPoly:
    """Total x-derivative: chain rule over x and every jet variable."""
    flat: dict = {}
    for (mon, e), c in P._flat.items():
        for factor, new in _dx_monomial(mon):
            _accumulate(flat, (new, e), c if factor == 1 else c * factor)
    return DiffPoly._from_flat(flat, P.eps_order)


def dx_total_n(P: DiffPoly, n: int) -> DiffPoly:
    for _ in range(n):
        P = dx_total(P)
    return P


def _dx_tower(P: DiffPoly, n: int, tower: Optional[list] = None) -> list:
    """[P, D_x P, ..., D_x^n P], each entry the derivative of the one before.

    A given tower (a list starting at P) is grown in place to order n at
    least and returned, so that its derivatives are computed only once.
    """
    if tower is None:
        tower = [P]
    while len(tower) <= n:
        tower.append(dx_total(tower[-1]))
    return tower


def dt_total(P: DiffPoly, sys: EvolutionSystem) -> DiffPoly:
    """Total t-derivative on solutions of u_t = K[u, eps]."""
    if P.eps_order != sys.eps_order:
        raise OrderMismatch("polynomial and system have different eps orders")
    return diff_partial(P, "t") + prolong_apply(sys.rhs, P)


def euler(P: DiffPoly) -> DiffPoly:
    """Variational derivative sum_k (-D_x)^k (dP/du_k).

    It vanishes exactly on total x-derivatives.  Evaluated in Horner form,
    acc = dP/du_k - D_x(acc) from the top order down to 0.
    """
    top = P.max_jet_order()
    acc = diff_partial(P, top)  # zero when top is -1
    for k in range(top - 1, -1, -1):
        acc = diff_partial(P, k) - dx_total(acc)
    return acc


euler1 = euler  # public alias


def _valuation(P: DiffPoly) -> int:
    """The lowest eps degree of P, or p + 1 when P is zero."""
    return min((e for _, e in P._flat), default=P.eps_order + 1)


def prolong_apply(direction, target: DiffPoly) -> DiffPoly:
    """Apply the Frechet derivative of `target` to `direction`.

    Equals the action of the prolonged evolutionary field with
    characteristic `direction` on `target`.  `direction` may also be given
    as its D_x tower, a list as `_dx_tower` builds it, which grows in place
    to the jet order `target` needs, so that callers can share it.

    Neither D_x nor a partial derivative lowers the eps valuation v, so
    every product here has valuation at least v(direction) + v(target).
    When that sum exceeds p the result is zero mod eps^(p+1), and it is
    returned before the tower grows: at p = 1 two O(eps) flows commute by
    truncation alone.  Mixed truncation orders raise OrderMismatch first.
    """
    tower = direction if isinstance(direction, list) else [direction]
    target._check_compat(tower[0])
    p = target.eps_order
    if _valuation(tower[0]) + _valuation(target) > p:
        return DiffPoly.zero(p)
    _dx_tower(tower[0], target.max_jet_order(), tower)
    out = DiffPoly.zero(p)
    for k in sorted(target.jet_vars()):
        out = out + diff_partial(target, k) * tower[k]
    return out


def _integrate_explicit_x(P: DiffPoly) -> DiffPoly:
    flat = {(Monomial(mon.x + 1, mon.t, mon.jets), e):
            _exact(Fraction(c, mon.x + 1)) if mon.x else c
            for (mon, e), c in P._flat.items()}
    return DiffPoly._from_flat(flat, P.eps_order)


def _antiderivative_in(P: DiffPoly, order: int) -> DiffPoly:
    flat = {}
    for (mon, e), c in P._flat.items():
        k = mon.exponent(order)
        flat[mon.with_exponent(order, k + 1), e] = (
            _exact(Fraction(c, k + 1)) if k else c)
    return DiffPoly._from_flat(flat, P.eps_order)


def integrate_x(P: DiffPoly) -> DiffPoly:
    """Invert D_x exactly, or raise NotExact with the Euler obstruction.

    Works by top-order descent: an exact polynomial is linear in its highest
    jet, and that jet has order at least 1, so peeling off the antiderivative
    of that linear part strictly lowers the top order.  The jet-free
    remainder integrates termwise in x.  A remainder that is not linear in a
    top jet of order at least 1 is not exact, and then neither is P.
    """
    result, rest = DiffPoly.zero(P.eps_order), P
    while True:
        top = rest.max_jet_order()
        if top == -1:
            return result + _integrate_explicit_x(rest)
        lead = diff_partial(rest, top)
        if top == 0 or any(m.exponent(top) for m, _ in lead._flat):
            raise NotExact("not a total x-derivative", euler(P))
        piece = _antiderivative_in(lead, top - 1)
        result = result + piece
        rest = rest - dx_total(piece)
