"""Differential polynomials on the jet space of one spatial variable.

A jet variable ``(alpha, k)`` stands for the k-th x-derivative of the
dependent variable ``u^alpha`` (``u_0 = u``, ``u_1 = u_x``, ...).  A
:class:`DiffPoly` is a finite sum of monomials in ``x``, ``t`` and jet
variables with :class:`~jetflow.ring.EpsPoly` coefficients.  Total
derivatives, the Euler operator, prolongation and formal integration all
live here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import NotExact, OrderMismatch
from .ring import EpsPoly

JetVar = Tuple[int, int]  # (component, number of x-derivatives)


class Monomial(NamedTuple):
    """x^a * t^b * product of jet-variable powers (sorted, exponents > 0)."""

    x: int
    t: int
    jets: Tuple[Tuple[JetVar, int], ...]

    def mul(self, other: "Monomial") -> "Monomial":
        merged = dict(self.jets)
        for var, e in other.jets:
            merged[var] = merged.get(var, 0) + e
        jets = tuple(sorted((v, e) for v, e in merged.items() if e))
        return Monomial(self.x + other.x, self.t + other.t, jets)

    def degree(self) -> int:
        return self.x + self.t + sum(e for _, e in self.jets)

    def jet_degree(self) -> int:
        return sum(e for _, e in self.jets)

    def max_jet_order(self) -> int:
        return max((var[1] for var, _ in self.jets), default=-1)

    def exponent(self, var: JetVar) -> int:
        for v, e in self.jets:
            if v == var:
                return e
        return 0

    def with_exponent(self, var: JetVar, exp: int) -> "Monomial":
        jets = dict(self.jets)
        if exp:
            jets[var] = exp
        else:
            jets.pop(var, None)
        return Monomial(self.x, self.t, tuple(sorted(jets.items())))


ONE_MONOMIAL = Monomial(0, 0, ())


class DiffPoly:
    """A differential polynomial with coefficients in Q[eps]/(eps^(p+1)).

    Treated as immutable: every operation returns a new value, zero
    coefficients are never stored, and equality is term-map equality.
    """

    __slots__ = ("terms", "eps_order", "num_components")

    def __init__(self, terms: Mapping[Monomial, EpsPoly], eps_order: int,
                 num_components: int = 1):
        clean = {}
        for mon, coeff in terms.items():
            if coeff.order != eps_order:
                raise OrderMismatch(
                    f"coefficient order {coeff.order} != polynomial order {eps_order}"
                )
            if not coeff.is_zero():
                clean[mon] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "eps_order", eps_order)
        object.__setattr__(self, "num_components", num_components)

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, eps_order: int, num_components: int = 1) -> "DiffPoly":
        return cls({}, eps_order, num_components)

    @classmethod
    def constant(cls, value, eps_order: int, num_components: int = 1) -> "DiffPoly":
        if isinstance(value, EpsPoly):
            coeff = value
        else:
            coeff = EpsPoly.from_rational(value, eps_order)
        return cls({ONE_MONOMIAL: coeff}, eps_order, num_components)

    @classmethod
    def monomial(cls, mon: Monomial, coeff: EpsPoly, eps_order: int,
                 num_components: int = 1) -> "DiffPoly":
        return cls({mon: coeff}, eps_order, num_components)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == ONE_MONOMIAL for m in self.terms)

    def constant_value(self) -> EpsPoly:
        """The coefficient of the empty monomial."""
        return self.terms.get(ONE_MONOMIAL, EpsPoly.zero(self.eps_order))

    def rational_constant(self) -> Optional[Fraction]:
        """This polynomial as a pure rational number, or None."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            return None
        coeff = self.constant_value()
        if any(c != 0 for c in coeff.coeffs[1:]):
            return None
        return coeff.coeffs[0]

    def max_jet_order(self) -> int:
        """Highest derivative order present (-1 when jet-free)."""
        return max((m.max_jet_order() for m in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((m.degree() for m in self.terms), default=0)

    def jet_vars(self) -> set:
        out = set()
        for m in self.terms:
            for var, _ in m.jets:
                out.add(var)
        return out

    def has_jets(self) -> bool:
        return any(m.jets for m in self.terms)

    def eps_component(self, degree: int) -> "DiffPoly":
        """The coefficient of eps^degree, as a polynomial of the same order."""
        out = {}
        for mon, coeff in self.terms.items():
            c = coeff.coeffs[degree]
            if c != 0:
                out[mon] = EpsPoly.from_rational(c, self.eps_order)
        return DiffPoly(out, self.eps_order, self.num_components)

    # -- arithmetic ----------------------------------------------------------

    def _check_compat(self, other: "DiffPoly") -> int:
        if self.eps_order != other.eps_order:
            raise OrderMismatch(
                f"mixed truncation orders {self.eps_order} and {other.eps_order}"
            )
        return max(self.num_components, other.num_components)

    def _coerce(self, other):
        if isinstance(other, DiffPoly):
            return other
        if isinstance(other, (int, Fraction, EpsPoly)):
            return DiffPoly.constant(other, self.eps_order, self.num_components)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        q = self._check_compat(other)
        terms = dict(self.terms)
        for mon, coeff in other.terms.items():
            if mon in terms:
                terms[mon] = terms[mon] + coeff
            else:
                terms[mon] = coeff
        return DiffPoly(terms, self.eps_order, q)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly({m: -c for m, c in self.terms.items()},
                        self.eps_order, self.num_components)

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
        q = self._check_compat(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                if c.is_zero():
                    continue
                mon = m1.mul(m2)
                if mon in terms:
                    terms[mon] = terms[mon] + c
                else:
                    terms[mon] = c
        return DiffPoly(terms, self.eps_order, q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(1, 1) / Fraction(other)
            return DiffPoly({m: c.scale(r) for m, c in self.terms.items()},
                            self.eps_order, self.num_components)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = DiffPoly.constant(1, self.eps_order, self.num_components)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.eps_order == other.eps_order and self.terms == other.terms

    def __repr__(self):
        from .printing import format_poly

        return f"DiffPoly({format_poly(self)!r}, p={self.eps_order})"

    def sort_key(self):
        """Deterministic structural key, used to canonicalize collections."""
        return tuple(sorted((m, c.coeffs) for m, c in self.terms.items()))


# ---------------------------------------------------------------------------
# Variable factory


class Context:
    """Factory for the atoms of the algebra at a fixed truncation order."""

    def __init__(self, eps_order: int = 1, num_components: int = 1):
        if eps_order < 0:
            raise ValueError("eps_order must be non-negative")
        if num_components < 1:
            raise ValueError("need at least one dependent variable")
        self.eps_order = eps_order
        self.num_components = num_components

    def _mono(self, mon: Monomial) -> DiffPoly:
        return DiffPoly.monomial(mon, EpsPoly.one(self.eps_order),
                                 self.eps_order, self.num_components)

    @property
    def x(self) -> DiffPoly:
        return self._mono(Monomial(1, 0, ()))

    @property
    def t(self) -> DiffPoly:
        return self._mono(Monomial(0, 1, ()))

    @property
    def eps(self) -> DiffPoly:
        return DiffPoly.constant(EpsPoly.eps(self.eps_order),
                                 self.eps_order, self.num_components)

    def u(self, order: int = 0, component: int = 0) -> DiffPoly:
        if order < 0:
            raise ValueError("jet order must be non-negative")
        if not 0 <= component < self.num_components:
            raise ValueError("component index out of range")
        return self._mono(Monomial(0, 0, (((component, order), 1),)))

    def const(self, value) -> DiffPoly:
        return DiffPoly.constant(value, self.eps_order, self.num_components)

    @property
    def one(self) -> DiffPoly:
        return self.const(1)

    @property
    def zero(self) -> DiffPoly:
        return DiffPoly.zero(self.eps_order, self.num_components)


# ---------------------------------------------------------------------------
# Systems and functionals


class EvolutionSystem:
    """u_t = K[u, eps] with a differential-polynomial right-hand side."""

    def __init__(self, rhs: Union[DiffPoly, Sequence[DiffPoly]], name: str = ""):
        if isinstance(rhs, DiffPoly):
            rhs = (rhs,)
        rhs = tuple(rhs)
        if not rhs:
            raise ValueError("an evolution system needs at least one equation")
        p = rhs[0].eps_order
        for k in rhs:
            if k.eps_order != p:
                raise OrderMismatch("all right-hand sides must share the eps order")
        self.rhs = rhs
        self.eps_order = p
        self.num_components = len(rhs)
        self.name = name

    def component(self, alpha: int = 0) -> DiffPoly:
        return self.rhs[alpha]


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
        diff = self.density - other.density
        return all(c.is_zero() for c in euler(diff))

    def is_null(self) -> bool:
        return all(c.is_zero() for c in euler(self.density))

    def __repr__(self):
        from .printing import format_poly

        label = f" '{self.name}'" if self.name else ""
        return f"Functional{label}({format_poly(self.density)!r})"


# ---------------------------------------------------------------------------
# Calculus


def diff_partial(P: DiffPoly, var) -> DiffPoly:
    """Partial derivative with respect to 'x', 't' or a jet variable."""
    terms: dict = {}
    for mon, coeff in P.terms.items():
        if var == "x":
            if mon.x == 0:
                continue
            new = Monomial(mon.x - 1, mon.t, mon.jets)
            factor = mon.x
        elif var == "t":
            if mon.t == 0:
                continue
            new = Monomial(mon.x, mon.t - 1, mon.jets)
            factor = mon.t
        else:
            e = mon.exponent(var)
            if e == 0:
                continue
            new = mon.with_exponent(var, e - 1)
            factor = e
        c = coeff.scale(factor)
        if new in terms:
            terms[new] = terms[new] + c
        else:
            terms[new] = c
    return DiffPoly(terms, P.eps_order, P.num_components)


def _dx_monomial(mon: Monomial):
    """Chain rule on one monomial: the (factor, monomial) terms of D_x(mon).

    x^a gives a*x^(a-1) and u_k^e gives e*u_k^(e-1)*u_(k+1); the results are
    pairwise distinct monomials.
    """
    x, t, jets = mon
    out = []
    if x:
        out.append((x, Monomial(x - 1, t, jets)))
    for i, ((comp, k), e) in enumerate(jets):
        head = jets[:i] + ((((comp, k), e - 1),) if e > 1 else ())
        rest = jets[i + 1:]
        bumped = (comp, k + 1)
        # jets are sorted, so an existing u_(k+1) factor comes right after u_k
        if rest and rest[0][0] == bumped:
            new = head + ((bumped, rest[0][1] + 1),) + rest[1:]
        else:
            new = head + ((bumped, 1),) + rest
        out.append((e, Monomial(x, t, new)))
    return out


def dx_total(P: DiffPoly) -> DiffPoly:
    """Total x-derivative: chain rule over x and every jet variable."""
    terms: dict = {}
    for mon, coeff in P.terms.items():
        for factor, new in _dx_monomial(mon):
            c = coeff if factor == 1 else coeff.scale(factor)
            terms[new] = terms[new] + c if new in terms else c
    return DiffPoly(terms, P.eps_order, P.num_components)


def dx_total_n(P: DiffPoly, n: int) -> DiffPoly:
    for _ in range(n):
        P = dx_total(P)
    return P


def _dx_tower(P: DiffPoly, n: int) -> list:
    """[P, D_x P, ..., D_x^n P], each entry the derivative of the one before."""
    tower = [P]
    for _ in range(n):
        tower.append(dx_total(tower[-1]))
    return tower


def dt_total(P: DiffPoly, sys: EvolutionSystem) -> DiffPoly:
    """Total t-derivative on solutions of u_t = K[u, eps]."""
    if P.eps_order != sys.eps_order:
        raise OrderMismatch("polynomial and system have different eps orders")
    return diff_partial(P, "t") + prolong_apply(sys.rhs, P)


def euler(P: DiffPoly) -> Tuple[DiffPoly, ...]:
    """Variational derivative, one component per dependent variable.

    Component alpha is sum_k (-D_x)^k (dP/du^alpha_k); it vanishes exactly
    on total x-derivatives.  Evaluated in Horner form,
    acc = dP/du^alpha_k - D_x(acc) from the top order down to 0.
    """
    out = []
    for alpha in range(P.num_components):
        top = max((var[1] for var in P.jet_vars() if var[0] == alpha),
                  default=-1)
        acc = diff_partial(P, (alpha, top))  # zero when top is -1
        for k in range(top - 1, -1, -1):
            acc = diff_partial(P, (alpha, k)) - dx_total(acc)
        out.append(acc)
    return tuple(out)


def euler1(P: DiffPoly) -> DiffPoly:
    """Euler operator for the scalar (single-component) case."""
    return euler(P)[0]


def prolong_apply(direction, target: DiffPoly) -> DiffPoly:
    """Apply the Frechet derivative of `target` to `direction`.

    Equals the action of the prolonged evolutionary field with
    characteristic `direction` on `target`.
    """
    if isinstance(direction, DiffPoly):
        direction = (direction,)
    tops: dict = {}
    for comp, order in target.jet_vars():
        tops[comp] = max(order, tops.get(comp, 0))
    towers = {comp: _dx_tower(direction[comp], top) for comp, top in tops.items()}
    out = DiffPoly.zero(target.eps_order, target.num_components)
    for var in target.jet_vars():
        comp, order = var
        out = out + diff_partial(target, var) * towers[comp][order]
    return out


def _integrate_explicit_x(P: DiffPoly) -> DiffPoly:
    terms = {}
    for mon, coeff in P.terms.items():
        new = Monomial(mon.x + 1, mon.t, mon.jets)
        terms[new] = coeff.scale(Fraction(1, mon.x + 1))
    return DiffPoly(terms, P.eps_order, P.num_components)


def _antiderivative_in(P: DiffPoly, var: JetVar) -> DiffPoly:
    terms = {}
    for mon, coeff in P.terms.items():
        e = mon.exponent(var)
        terms[mon.with_exponent(var, e + 1)] = coeff.scale(Fraction(1, e + 1))
    return DiffPoly(terms, P.eps_order, P.num_components)


def integrate_x(P: DiffPoly) -> DiffPoly:
    """Invert D_x exactly, or raise NotExact with the Euler obstruction.

    Works by top-order descent: an exact polynomial is linear in its highest
    jet, so peeling off the antiderivative of that linear part strictly
    lowers the top order.  The jet-free remainder integrates termwise in x.
    """
    obstruction = euler(P)
    if any(not c.is_zero() for c in obstruction):
        raise NotExact("not a total x-derivative",
                       obstruction[0] if len(obstruction) == 1 else obstruction)
    result = DiffPoly.zero(P.eps_order, P.num_components)
    while True:
        top = max(((var[1], var[0]) for var in P.jet_vars()), default=None)
        if top is None:
            return result + _integrate_explicit_x(P)
        order, comp = top
        if order == 0:
            # with a vanishing Euler operator this is unreachable; guard anyway
            raise NotExact("u-dependent remainder at jet order 0", P)
        var = (comp, order)
        lead = diff_partial(P, var)
        if not all(m.exponent(var) == 0 for m in lead.terms):
            raise NotExact("nonlinear in the top-order jet", P)
        piece = _antiderivative_in(lead, (comp, order - 1))
        result = result + piece
        P = P - dx_total(piece)


def max_jet_order(*polys: DiffPoly) -> int:
    return max((p.max_jet_order() for p in polys), default=-1)
