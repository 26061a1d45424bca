"""Differential polynomials on the jet space of one spatial variable.

A jet variable is an int k, the k-th x-derivative of the dependent variable
u (``u_0 = u``, ``u_1 = u_x``, ...).  A :class:`DiffPoly` is a finite sum
of monomials in ``x``, ``t`` and jet variables with coefficients in
Q[eps]/(eps^(p+1)).  Total derivatives, the Euler operator and the
homotopy density that inverts it, prolongation and formal integration all
live here.

Coefficients are stored flat: a polynomial is one map ``{(m, e): n}`` from
a packed monomial m and an eps degree e <= p to a nonzero int numerator n,
over one positive int denominator ``_den`` shared by every term, as FLINT's
``fmpq_poly`` stores a rational polynomial (Hart, "FLINT: Fast Library for
Number Theory", ICMS 2010).  The value of a term is n/``_den``, and the form
is canonical: gcd(``_den``, every numerator) = 1, so ``_den`` is 1 exactly
when every coefficient is integral and two equal polynomials have equal
maps and denominators.  Every primitive here runs in int arithmetic on that
map and divides the content out once per result, which it skips when the
denominator is 1; a division by k raises the denominator instead of
building a ``Fraction``.  Every sum of products, a single product included,
is one ``_dot``: the products of terms go into one new map over the
product of the operands' denominators, and degree pairs above p are
dropped before multiplying.  The operator,
engine, numeric and printing layers read it; the multivector calculus is a
map ``{wedge: DiffPoly}`` and does all of its arithmetic through DiffPoly.
Since no flat map changes once wrapped, ``dx_total(P)`` keeps its result
on P in the private slot ``_dx``, so every chain P, D_x P, D_x^2 P, ... is
computed once, whichever check needs it, and the partials dP/du_k of every
jet order are built in one pass and kept in the slot ``_dp``.  ``euler``
and ``integrate_x`` add D_x terms into maps they own, as ``dx_total`` does,
and integration decides whether a density is a total x-derivative.

A packed monomial is one int holding the exponent vector (x, t, u_0, u_1,
...) in fields of ``_W`` = 17 bits, x lowest, then t, then u_k in field
k + 2 (the packed exponent vectors of Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  A field holds an exponent up to ``_MAX_EXPONENT`` = 2^16 - 1 below
its top bit, a guard bit that every stored key keeps clear, so the sum of
two keys never carries from one field into the next.  A product of
monomials is then one int addition, a partial derivative one subtraction,
the ``u_(k+1)`` step of ``D_x`` one addition, and the highest jet order
of a key its ``bit_length``; an int has no fixed length, so jet orders are
unbounded.  Every operation that can raise an exponent (a product, D_x,
an antiderivative) checks the guard bits of the keys it builds and raises
ResourceLimit when one is set: an exponent has passed the cap.
:class:`Monomial` and the value type :class:`~jetflow.ring.EpsPoly` stay
public: ``DiffPoly(terms, p)`` packs a ``{Monomial: EpsPoly}`` mapping, and
``DiffPoly.terms`` gives one back as a derived, Fraction-valued read-only
view; EpsPoly's ring operations are this arithmetic on DiffPoly constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Tuple

from .errors import NotExact, OrderMismatch, ResourceLimit
from .ring import EpsPoly, _Frozen, _as_fraction

JetVar = int  # number of x-derivatives of u


class Monomial(NamedTuple):
    """x^a * t^b * product of jet-variable powers.

    ``jets`` is ``((order, exp), ...)`` with strictly increasing orders and
    exponents > 0.
    """

    x: int
    t: int
    jets: Tuple[Tuple[int, int], ...]

    def jet_degree(self) -> int:
        return sum(e for _, e in self.jets)


ONE_MONOMIAL = Monomial(0, 0, ())

# Packed monomials: field i of _W bits at bit _W*i, x in field 0, t in
# field 1 and u_k in field k + 2; the top bit of each field is its guard.
_W = 17
_MASK = (1 << _W) - 1
# The largest exponent of x, t or one jet.  One declaration can build u^16384
# under dsl.MAX_PRODUCT_PAIRS, and the product of two such terms still fits.
_MAX_EXPONENT = (1 << (_W - 1)) - 1
_JETS = 2 * _W  # the bit where the u_0 field starts


def _u(order: int) -> int:
    """The packed jet u_order."""
    return 1 << _W * (order + 2)


def _pack(mon: Monomial) -> int:
    """The packed key of a Monomial, in canonical form: zero exponents drop
    out and repeated jet orders add.  A negative x, t, jet order or
    exponent is a ValueError; an exponent above _MAX_EXPONENT is a
    ResourceLimit."""
    x, t, jets = mon
    if min(x, t, *(n for jet in jets for n in jet)) < 0:
        raise ValueError(f"a negative exponent or jet order in {mon}")
    exps = {-2: x, -1: t}
    for k, e in jets:
        exps[k] = exps.get(k, 0) + e
    if max(exps.values()) > _MAX_EXPONENT:
        raise ResourceLimit(f"an exponent exceeds the cap {_MAX_EXPONENT}")
    return sum(e << _W * (k + 2) for k, e in exps.items())


def _unpack(m: int) -> Monomial:
    """The Monomial of a packed key."""
    jets, k, rest = [], 0, m >> _JETS
    while rest:
        e = rest & _MASK
        if e:
            jets.append((k, e))
        k, rest = k + 1, rest >> _W
    return Monomial(m & _MASK, m >> _W & _MASK, tuple(jets))


def _monomial_order(key) -> tuple:
    """Sort key of a flat key (m, e): Monomial order, then eps degree."""
    return _unpack(key[0]), key[1]


def _span(flat) -> int:
    """The bitwise or of the packed monomials of a flat map: a field or a
    guard bit is nonzero in it exactly when it is in some key."""
    span = 0
    for m, _ in flat:
        span |= m
    return span


def _checked(m: int) -> int:
    """m, or ResourceLimit when one of its fields has reached its guard bit.

    A sum of two keys, or a key with one field raised by one, has each
    field below 2^_W, so an exponent past the cap shows as a set guard bit
    and never as a carry into the next field.  Checked on a product of
    terms, or on the _span of a new flat map.
    """
    ones = ((1 << _W * (m.bit_length() // _W + 1)) - 1) // _MASK  # 1 per field
    if m & ones << (_W - 1):
        raise ResourceLimit(f"an exponent exceeds the cap {_MAX_EXPONENT}")
    return m


def _degree(m: int) -> int:
    """The sum of the fields of m: its degree, or for m >> _JETS its jet
    degree."""
    d = 0
    while m:
        d, m = d + (m & _MASK), m >> _W
    return d


def _accumulate(flat: dict, key, c) -> None:
    """flat[key] += c, deleting the key when the sum cancels."""
    prev = flat.get(key)
    if prev is not None:
        c += prev
        if not c:
            del flat[key]
            return
    flat[key] = c


def _reduced(flat: dict, den: int, p: int) -> DiffPoly:
    """The polynomial of the numerators `flat` over the positive int den,
    wrapped in canonical form: the content that den shares with every
    numerator is divided out, in one pass and only when den is not 1."""
    if den != 1:
        g = gcd(den, *flat.values())
        if g != 1:
            flat = {key: c // g for key, c in flat.items()}
            den //= g
    return DiffPoly._from_flat(flat, p, den)


def _times(flat: dict, s: int) -> dict:
    """A new map of the numerators of flat times s: those of the same
    values over a denominator s times as large."""
    return {key: c * s for key, c in flat.items()} if s != 1 else dict(flat)


def _over_lcm(values: dict) -> tuple:
    """(numerators, den) of a {key: rational} map of nonzero ints and
    Fractions, den the lcm of their denominators in lowest terms, over which
    the form is canonical: a prime of den divides the denominator of some
    value to the full power, and so not that value's numerator."""
    den = lcm(*(c.denominator for c in values.values()))
    return {key: c.numerator * (den // c.denominator)
            for key, c in values.items()}, den


def _quotients(parts):
    """({key: c*s/k}, s) for the (key, c, k) triples, int c and k >= 1,
    with s the least positive int that makes every c*s/k an int."""
    s = lcm(*(k // gcd(c, k) for _, c, k in parts))
    return {key: c * s // k for key, c, k in parts}, s


def _dot(pairs, p: int) -> DiffPoly:
    """sum A*B over the (A, B) pairs of order-p polynomials, accumulated
    into one flat map (Monagan and Pearce, CASC 2007), skipping eps pairs
    with e1 + e2 > p.  The numerators are summed over the lcm of the
    products of the pairs' denominators: a pair whose product does not
    divide the denominator so far raises it and rescales the sum, and each
    term of A is scaled to it once.  The exponent cap is checked once, on
    the sum: a single product raises ResourceLimit as before, but a term
    past the cap that cancels inside the same sum does not, and the result
    is exact."""
    flat: dict = {}
    den = 1
    for A, B in pairs:
        d = A._den * B._den
        if den % d:
            new = lcm(den, d)
            flat, den = _times(flat, new // den), new
        s = den // d
        terms = B._flat.items()
        for (m1, e1), c1 in A._flat.items():
            if s != 1:
                c1 *= s
            for (m2, e2), c2 in terms:
                if e1 + e2 <= p:
                    _accumulate(flat, (m1 + m2, e1 + e2), c1 * c2)
    _checked(_span(flat))
    return _reduced(flat, den, p)


class DiffPoly(_Frozen):
    """A differential polynomial with coefficients in Q[eps]/(eps^(p+1)).

    Treated as immutable: every operation returns a new value, and equality
    is equality of the term map and the denominator.  The terms are stored
    flat, one nonzero int numerator per (monomial, eps degree) in a private
    map ``{(m, e): n}``, m a packed monomial, over one positive int
    denominator ``_den`` that shares no factor with every numerator, so a
    term of a single eps degree costs one int and a product skips every
    pair of degrees above p.  ``terms`` groups that map into a read-only
    ``{Monomial: EpsPoly}`` view, built on each access, for callers outside
    the package.
    """

    __slots__ = ("_flat", "_den", "eps_order", "_dx", "_dp")

    def __init__(self, terms: Mapping[Monomial, EpsPoly], eps_order: int):
        values: dict = {}
        for mon, coeff in terms.items():
            if coeff.order != eps_order:
                raise OrderMismatch(
                    f"coefficient order {coeff.order} != polynomial order {eps_order}"
                )
            m = _pack(mon)
            for e, c in enumerate(coeff.coeffs):
                if c:
                    _accumulate(values, (m, e), c)
        flat, den = _over_lcm(values)
        _set_flat(self, flat)
        _set_den(self, den)
        _set_order(self, eps_order)

    @classmethod
    def _from_flat(cls, flat: dict, eps_order: int, den: int = 1) -> "DiffPoly":
        """Wrap a {(packed monomial, e): n} map of nonzero int numerators
        over den, already in canonical form, as is."""
        self = object.__new__(cls)
        _set_flat(self, flat)
        _set_den(self, den)
        _set_order(self, eps_order)
        return self

    def __reduce__(self):
        # copy and pickle rebuild the terms only; a kept D_x and kept
        # partials are left behind
        return DiffPoly._from_flat, (dict(self._flat), self.eps_order,
                                     self._den)

    def _grouped(self) -> dict:
        """{packed monomial: [value per eps degree, 0 where absent]}, in
        first-appearance order."""
        grouped: dict = {}
        zeros = [0] * (self.eps_order + 1)
        for (m, e), c in self._flat.items():
            if m not in grouped:
                grouped[m] = list(zeros)
            grouped[m][e] = c
        return grouped

    @property
    def terms(self) -> Mapping[Monomial, EpsPoly]:
        """The terms as a read-only {Monomial: EpsPoly} view."""
        den = self._den
        return MappingProxyType({_unpack(m): EpsPoly([Fraction(c, den) for c in cs])
                                 for m, cs in self._grouped().items()})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, eps_order: int) -> "DiffPoly":
        return cls._from_flat({}, eps_order)

    @classmethod
    def constant(cls, value, eps_order: int) -> "DiffPoly":
        if isinstance(value, EpsPoly):
            return cls({ONE_MONOMIAL: value}, eps_order)
        if type(value) is int:
            return cls._from_flat({(0, 0): value} if value else {}, eps_order)
        r = _as_fraction(value)
        return cls._from_flat({(0, 0): r.numerator} if r else {}, eps_order,
                              r.denominator)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._flat

    def rational_constant(self) -> Optional[Fraction]:
        """This polynomial as a pure rational number, or None."""
        if any(key != (0, 0) for key in self._flat):
            return None
        return Fraction(self._flat.get((0, 0), 0), self._den)

    def max_jet_order(self) -> int:
        """Highest derivative order present (-1 when jet-free), read from
        the bit length of the highest field in use."""
        return max((_span(self._flat).bit_length() - 1) // _W - 2, -1)

    def total_degree(self) -> int:
        return max((_degree(m) for m, _ in self._flat), default=0)

    def jet_vars(self) -> set:
        """The jet orders present."""
        return {k for k, _ in _unpack(_span(self._flat)).jets}

    def eps_component(self, degree: int) -> "DiffPoly":
        """The coefficient of eps^degree, as a polynomial of the same order."""
        return _reduced(
            {(m, 0): c for (m, e), c in self._flat.items() if e == degree},
            self._den, self.eps_order)

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

    def _plus(self, other: "DiffPoly", sign: int) -> "DiffPoly":
        """self + other, or self - other when sign is -1, in one pass over
        the terms of other, over the lcm of the two denominators; only a
        side whose denominator differs from it is scaled."""
        self._check_compat(other)
        den = self._den
        if den == other._den:
            flat, s = dict(self._flat), sign
        else:
            den = lcm(den, other._den)
            flat = _times(self._flat, den // self._den)
            s = sign * (den // other._den)
        for key, c in other._flat.items():
            _accumulate(flat, key, c * s)
        return _reduced(flat, den, self.eps_order)

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly._from_flat({k: -c for k, c in self._flat.items()},
                                   self.eps_order, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._plus(self, -1)

    def _scaled(self, r) -> "DiffPoly":
        """self * r for an int or Fraction r."""
        flat = _times(self._flat, r.numerator) if r else {}
        return _reduced(flat, self._den * r.denominator, self.eps_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_compat(other)
        return _dot(((self, other),), self.eps_order)

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
        return (self.eps_order == other.eps_order and self._den == other._den
                and self._flat == other._flat)

    def __repr__(self):
        from .printing import format_poly

        return f"DiffPoly({format_poly(self)!r}, p={self.eps_order})"


# The setters of the slots that a new DiffPoly fills: they skip the blocked
# __setattr__ at about half the cost of object.__setattr__.
_set_flat, _set_den, _set_order = (DiffPoly.__dict__[slot].__set__
                                   for slot in ("_flat", "_den", "eps_order"))


# ---------------------------------------------------------------------------
# Variable factory


class Context:
    """Factory for the atoms of the algebra at a fixed truncation order."""

    def __init__(self, eps_order: int = 1):
        if eps_order < 0:
            raise ValueError("eps_order must be non-negative")
        self.eps_order = eps_order

    def _mono(self, m: int, e: int = 0) -> DiffPoly:
        return DiffPoly._from_flat({(m, e): 1}, self.eps_order)

    @property
    def x(self) -> DiffPoly:
        return self._mono(_pack(Monomial(1, 0, ())))

    @property
    def t(self) -> DiffPoly:
        return self._mono(_pack(Monomial(0, 1, ())))

    @property
    def eps(self) -> DiffPoly:
        return self._mono(0, 1) if self.eps_order else self.zero

    def u(self, order: int = 0) -> DiffPoly:
        if order < 0:
            raise ValueError("jet order must be non-negative")
        return self._mono(_u(order))

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
        """Equality modulo im D_x, decided by integration."""
        return _obstruction(self.density - other.density).is_zero()

    def is_null(self) -> bool:
        return _obstruction(self.density).is_zero()

    def __repr__(self):
        from .printing import format_poly

        label = f" '{self.name}'" if self.name else ""
        return f"Functional{label}({format_poly(self.density)!r})"


# ---------------------------------------------------------------------------
# Calculus


def diff_partial(P: DiffPoly, var) -> DiffPoly:
    """Partial derivative with respect to 'x', 't' or a jet order, an int
    k >= 0, read from the partials kept on P; any other var is a
    ValueError."""
    if isinstance(var, int) and not isinstance(var, bool) and var >= 0:
        dP = _jet_partials(P).get(var)
        return DiffPoly.zero(P.eps_order) if dP is None else dP
    if var != "x" and var != "t":
        raise ValueError(f"cannot differentiate by {var!r}: expected 'x', "
                         f"'t' or a jet order k >= 0")
    shift = 0 if var == "x" else _W
    one = 1 << shift
    flat = {}
    for (m, e), c in P._flat.items():
        n = m >> shift & _MASK
        if n:  # m -> m - one is one-to-one, so no two terms meet
            flat[m - one, e] = c if n == 1 else c * n
    return _reduced(flat, P._den, P.eps_order)


def _jet_partials(P: DiffPoly) -> dict:
    """{k: dP/du_k} for every jet order k in P, by increasing k, built in
    one pass over the terms and kept on P in the private slot ``_dp``."""
    dp = getattr(P, "_dp", None)
    if dp is not None:
        return dp
    flats: dict = {}
    for (m, e), c in P._flat.items():
        shift, rest = _JETS, m >> _JETS
        while rest:
            n = rest & _MASK
            if n:  # m -> m - u_k is one-to-one, so no two terms meet
                flats.setdefault(shift, {})[m - (1 << shift), e] = (
                    c if n == 1 else c * n)
            shift, rest = shift + _W, rest >> _W
    dp = {shift // _W - 2: _reduced(flat, P._den, P.eps_order)
          for shift, flat in sorted(flats.items())}
    object.__setattr__(P, "_dp", dp)
    return dp


def _dx_monomial(m: int):
    """Chain rule on one packed monomial: the (factor, monomial) terms of
    D_x(m), x first and then the jets by increasing order.

    x^a gives a*x^(a-1) and u_k^e gives e*u_k^(e-1)*u_(k+1), which adds
    _MASK shifted to the u_k field: one off u_k and one onto u_(k+1).  Only
    the nonzero jet fields are visited, and the results are pairwise
    distinct monomials.
    """
    out = []
    x = m & _MASK
    if x:
        out.append((x, m - 1))
    shift, rest = _JETS, m >> _JETS
    while rest:
        e = rest & _MASK
        if not e:  # skip to the next nonzero field
            skip = ((rest & -rest).bit_length() - 1) // _W * _W
            shift, rest = shift + skip, rest >> skip
            e = rest & _MASK
        out.append((e, m + (_MASK << shift)))
        shift, rest = shift + _W, rest >> _W
    return out


def _add_dx(flat: dict, terms: dict, sign: int) -> int:
    """flat += sign * D_x of the {(m, e): n} map `terms`, in place, both
    maps of numerators over one denominator; returns the _span of flat.  An
    exponent of u_(k+1) may pass the cap: then ResourceLimit is raised."""
    for (m, e), c in terms.items():
        if sign < 0:
            c = -c
        for factor, new in _dx_monomial(m):
            _accumulate(flat, (new, e), c if factor == 1 else c * factor)
    return _checked(_span(flat))


def dx_total(P: DiffPoly) -> DiffPoly:
    """Total x-derivative: chain rule over x and every jet variable.  The
    result is kept on P; one that raises ResourceLimit is not."""
    D = getattr(P, "_dx", None)
    if D is None:
        flat: dict = {}
        _add_dx(flat, P._flat, 1)
        D = _reduced(flat, P._den, P.eps_order)
        object.__setattr__(P, "_dx", D)
    return D


def dx_total_n(P: DiffPoly, n: int) -> DiffPoly:
    """D_x^n P for an int n >= 0; a negative n is a ValueError."""
    if n < 0:
        raise ValueError(f"cannot differentiate {n} times: expected n >= 0")
    return _dx_tower(P, n)[n]


def _dx_tower(P: DiffPoly, n: int) -> list:
    """[P, D_x P, ..., D_x^n P], each entry the derivative of the one
    before."""
    tower = [P]
    while len(tower) <= n:
        tower.append(dx_total(tower[-1]))
    return tower


def dt_total(P: DiffPoly, sys: EvolutionSystem) -> DiffPoly:
    """Total t-derivative on solutions of u_t = K[u, eps]."""
    if P.eps_order != sys.eps_order:
        raise OrderMismatch("polynomial and system have different eps orders")
    flow = prolong_apply(sys.rhs, P)
    if _span(P._flat) >> _W & _MASK:  # P holds t
        return diff_partial(P, "t") + flow
    return flow


def euler(P: DiffPoly) -> DiffPoly:
    """Variational derivative sum_k (-D_x)^k (dP/du_k).

    It vanishes exactly on total x-derivatives (Olver, Applications of Lie
    Groups to Differential Equations, 2nd ed., Theorem 4.7).  Evaluated in
    Horner form, acc = dP/du_k - D_x(acc) from the top order down to 0, from
    the partials kept on P, each step into one new map, all of them over
    the denominator of P, which every partial's divides.
    """
    partials, den = _jet_partials(P), P._den

    def numerators(k):  # those of dP/du_k over den, in a new map
        dP = partials.get(k)
        return {} if dP is None else _times(dP._flat, den // dP._den)

    top = max(partials, default=0)  # a jet-free P has euler(P) = 0
    acc = numerators(top)
    for k in range(top - 1, -1, -1):
        new = numerators(k)
        _add_dx(new, acc, -1)
        acc = new
    return _reduced(acc, den, P.eps_order)


euler1 = euler  # public alias


def _homotopy_density(g: DiffPoly) -> DiffPoly:
    """h = int_0^1 u*g[lambda*u] d(lambda), termwise u*m/(jet degree of m + 1)."""
    u = _u(0)
    flat, s = _quotients([((m + u, e), c, _degree(m >> _JETS) + 1)
                          for (m, e), c in g._flat.items()])
    _checked(_span(flat))
    return _reduced(flat, g._den * s, g.eps_order)


def _valuation(P: DiffPoly) -> int:
    """The lowest eps degree of P, or p + 1 when P is zero."""
    return min((e for _, e in P._flat), default=P.eps_order + 1)


def prolong_apply(direction: DiffPoly, target: DiffPoly) -> DiffPoly:
    """Apply the Frechet derivative of `target` to `direction`:
    sum_k (d target/du_k) * D_x^k direction.

    Equals the action of the prolonged evolutionary field with
    characteristic `direction` on `target`.  dx_total keeps the
    derivatives of `direction` on it, so every check that prolongs along
    one direction shares them.

    Neither D_x nor a partial derivative lowers the eps valuation v, so
    every product here has valuation at least v(direction) + v(target).
    When that sum exceeds p the result is zero mod eps^(p+1), and it is
    returned before any D_x is taken: at p = 1 two O(eps) flows commute by
    truncation alone.  Otherwise the sum is one _dot.  Mixed truncation
    orders raise OrderMismatch first.
    """
    target._check_compat(direction)
    p = target.eps_order
    if _valuation(direction) + _valuation(target) > p:
        return DiffPoly.zero(p)
    partials = _jet_partials(target)
    tower = _dx_tower(direction, max(partials, default=0))
    return _dot(((dP, tower[k]) for k, dP in partials.items()), p)


def integrate_x(P: DiffPoly) -> DiffPoly:
    """Invert D_x exactly, or raise NotExact with the Euler obstruction.

    Works by top-order descent: an exact polynomial is linear in its highest
    jet, and that jet has order at least 1, so peeling off the antiderivative
    of that linear part strictly lowers the top order.  The jet-free
    remainder integrates termwise in x.  A remainder that is not linear in a
    top jet of order at least 1 is not exact, and then neither is P.  The
    remainder and the result are two maps of numerators changed in place,
    over one running denominator: each step scans the remainder once for
    the terms that hold the top jet, and subtracts the D_x of their
    antiderivative from it.  A division that the numerators do not allow
    scales both maps and the denominator up, and the content is divided out
    once, from the result.
    """
    rest, result, den = dict(P._flat), {}, P._den
    span = _span(rest)
    while span >> _JETS:
        top = (span.bit_length() - 1) // _W - 2
        shift = _W * (top + 2)
        lift = (1 << shift - _W) - (1 << shift)  # u_top -> u_(top - 1)
        parts = []
        for (m, e), c in rest.items():
            n = m >> shift & _MASK
            if n:
                if n > 1 or not top:  # nonlinear in u_top, or u_top is u
                    raise NotExact("not a total x-derivative", euler(P))
                # over k + 1, k the exponent of u_(top - 1)
                parts.append(((m + lift, e), c, (m >> shift - _W & _MASK) + 1))
        piece, s = _quotients(parts)
        _checked(_span(piece))
        if s != 1:
            rest, result, den = _times(rest, s), _times(result, s), den * s
        result.update(piece)  # each piece holds u_(top - 1) and no higher jet
        span = _add_dx(rest, piece, -1)
    # jet-free: termwise in x
    tail, s = _quotients([((m + 1, e), c, (m & _MASK) + 1)
                          for (m, e), c in rest.items()])
    result = _times(result, s)
    result.update(tail)
    _checked(_span(result))
    return _reduced(result, den * s, P.eps_order)


def _obstruction(P: DiffPoly) -> DiffPoly:
    """euler(P), which is zero exactly when P is a total x-derivative, with
    that verdict decided by integrate_x: the Euler derivative is built only
    when the descent fails, or when its antiderivative would pass the
    exponent cap."""
    try:
        integrate_x(P)
    except NotExact as err:
        return err.obstruction
    except ResourceLimit:
        return euler(P)
    return DiffPoly.zero(P.eps_order)
