from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetflow import (Context, DiffPoly, EpsPoly, EvolutionSystem,
                     Functional, Monomial, NotExact, NotVariational,
                     OrderMismatch, ResourceLimit, diff_partial, dt_total,
                     dx_total, dx_total_n, euler1, format_poly,
                     helmholtz_selfadjoint, integrate_x, prolong_apply,
                     reconstruct_density, adjoint, apply_op, frechet,
                     noether_inverse, solve_operator_equation)
from jetflow.jets import (_MAX_EXPONENT, _dx_tower, _homotopy_density,
                         _jet_partials)

from conftest import diff_polys, rationals, stored_terms


@pytest.fixture(scope="module")
def v(ctx):
    class V:
        u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
        u4, u5 = ctx.u(4), ctx.u(5)
        x, t, eps = ctx.x, ctx.t, ctx.eps
    return V


def gardner_rhs(v):
    return 6 * (v.u + v.eps * v.u ** 2) * v.u1 - v.u3


def test_dx_total(v):
    assert dx_total(v.u ** 2) == 2 * v.u * v.u1
    assert dx_total(3 * v.u ** 2 + 2 * v.eps * v.u ** 3 - v.u2) == gardner_rhs(v)
    assert dx_total(v.x * v.u) == v.u + v.x * v.u1


def test_dt_total(v):
    sys = EvolutionSystem(gardner_rhs(v))
    K = gardner_rhs(v)
    assert dt_total(v.u, sys) == K
    assert dt_total(v.u ** 2 / 2, sys) == v.u * K
    expected = v.eps * (3 * v.u ** 2
                        + (6 * v.t * v.u + v.x) * (6 * v.u * v.u1 - v.u3))
    assert dt_total(v.eps * (3 * v.t * v.u ** 2 + v.x * v.u), sys) == expected


def test_dt_total_order_mismatch(v):
    other = Context(eps_order=2)
    sys = EvolutionSystem(other.u(1))
    with pytest.raises(OrderMismatch):
        dt_total(v.u, sys)


def test_euler(v):
    density = v.u ** 3 + v.eps / 2 * v.u ** 4 + v.u1 ** 2 / 2
    assert euler1(density) == 3 * v.u ** 2 + 2 * v.eps * v.u ** 3 - v.u2
    assert euler1(dx_total(v.u ** 2 * v.u2 + v.x * v.u1 ** 3)).is_zero()
    assert euler1(v.u ** 2 / 2) == v.u


def test_prolong_apply(v):
    assert prolong_apply(v.u1, v.u ** 2) == 2 * v.u * v.u1
    assert prolong_apply(v.eps * v.u1, v.u2 + v.eps * v.u1 ** 2) == v.eps * v.u3
    K = gardner_rhs(v)
    assert prolong_apply(K, v.u ** 2 / 2) == v.u * K


def test_prolong_apply_of_two_eps_multiples_grows_no_tower(v):
    direction = v.eps * v.u1
    assert prolong_apply(direction, v.eps * v.u * v.u3).is_zero()
    assert not hasattr(direction, "_dx")


def test_dx_total_is_kept_on_the_polynomial(v):
    K = gardner_rhs(v)
    first = dx_total(K)
    assert dx_total(K) is first
    assert _dx_tower(K, 3)[2] is _dx_tower(K, 5)[2]
    assert dx_total_n(K, 4) is _dx_tower(K, 5)[4]
    # equality, printing and terms ignore the kept derivative
    fresh = gardner_rhs(v)
    assert not hasattr(fresh, "_dx")
    assert K == fresh and fresh == K
    assert format_poly(K) == format_poly(fresh)
    assert K.terms == fresh.terms
    # D_x(u*u_x^top) holds u_x^(top + 1): nothing is kept, and it raises again
    P = DiffPoly({Monomial(0, 0, ((0, 1), (1, _MAX_EXPONENT))): EpsPoly((1, 0))},
                 1)
    for _ in range(2):
        with pytest.raises(ResourceLimit):
            dx_total(P)
        assert not hasattr(P, "_dx")


def test_partials_are_kept_on_the_polynomial(v):
    K = gardner_rhs(v)
    partials = _jet_partials(K)
    assert list(partials) == [0, 1, 3]
    assert _jet_partials(K) is partials
    assert diff_partial(K, 1) is partials[1]
    assert diff_partial(K, 2).is_zero() and diff_partial(K, 9).is_zero()
    assert partials[0] == 6 * v.u1 + 12 * v.eps * v.u * v.u1
    fresh = gardner_rhs(v)
    assert not hasattr(fresh, "_dp") and K == fresh


def test_dx_total_n(v):
    assert dx_total_n(v.u, 0) == v.u
    assert dx_total_n(v.u ** 2, 2) == 2 * v.u1 ** 2 + 2 * v.u * v.u2
    with pytest.raises(ValueError):
        dx_total_n(v.u, -1)


def test_prolong_apply_mixed_orders_raise_before_the_short_cut(v):
    # the valuations sum to 2 + 0 > 1, but the truncation orders differ
    ctx2 = Context(eps_order=2)
    with pytest.raises(OrderMismatch):
        prolong_apply(ctx2.eps ** 2 * ctx2.u(1), v.u2)


def test_integrate_x(v):
    assert integrate_x(v.u * v.u1) == v.u ** 2 / 2
    with pytest.raises(NotExact) as err:
        integrate_x(v.u1 ** 2)
    assert err.value.obstruction == -2 * v.u2
    assert integrate_x(v.eps * v.u1) == v.eps * v.u


def test_integrate_x_explicit_variables(v):
    # a jet-free remainder integrates termwise in x
    assert integrate_x(v.x ** 2 * v.t) == v.x ** 3 * v.t / 3
    assert integrate_x(v.u1 + 1 + v.x) == v.u + v.x + v.x ** 2 / 2


def test_helmholtz(v):
    assert helmholtz_selfadjoint(3 * v.u ** 2 - v.u2)
    assert not helmholtz_selfadjoint(v.u1)
    assert helmholtz_selfadjoint(v.eps * (6 * v.t * v.u + v.x))


def test_reconstruct_density(v):
    assert reconstruct_density(v.u).density == v.u ** 2 / 2
    F = reconstruct_density(3 * v.u ** 2 - v.u2)
    assert F.density == v.u ** 3 - v.u * v.u2 / 2
    assert F.equivalent(Functional(v.u ** 3 + v.u1 ** 2 / 2))
    G = reconstruct_density(v.eps * (6 * v.t * v.u + v.x))
    assert G.density == v.eps * (3 * v.t * v.u ** 2 + v.x * v.u)


def test_reconstruct_density_rejects_nonvariational(v):
    with pytest.raises(NotVariational):
        reconstruct_density(v.u1 ** 2)


# g is variational exactly when its linearization is self-adjoint (the
# Helmholtz condition, written out here), whatever test the package runs.
# Random g are rarely variational, so half the draws are Euler derivatives.
@settings(max_examples=100, deadline=None)
@given(st.one_of(diff_polys(max_jet_order=3),
                 diff_polys(max_jet_order=2).map(euler1)))
def test_reconstruct_density_matches_helmholtz_condition(g):
    D = frechet(g)
    variational = adjoint(D) == D
    assert helmholtz_selfadjoint(g) == variational
    if variational:
        assert euler1(reconstruct_density(g).density) == g
    else:
        with pytest.raises(NotVariational) as err:
            reconstruct_density(g)
        assert err.value.obstruction == D - adjoint(D)


def test_functional_equivalence_is_mod_dx(v):
    F = Functional(v.u ** 3 + v.u1 ** 2 / 2)
    G = Functional(v.u ** 3 - v.u * v.u2 / 2)
    H = Functional(v.u ** 3)
    assert F.equivalent(G) and G.equivalent(F)
    assert not F.equivalent(H)
    assert F.equivalent(F)


def test_arithmetic_guards(v):
    other = Context(eps_order=2)
    with pytest.raises(OrderMismatch):
        v.u + other.u(0)
    with pytest.raises(ValueError):
        v.u ** -1
    assert (v.u / 2) * 2 == v.u


@settings(max_examples=200, deadline=None)
@given(diff_polys())
def test_euler_kills_total_derivatives(p):
    assert euler1(dx_total(p)).is_zero()


@settings(max_examples=200, deadline=None)
@given(diff_polys())
def test_integrate_roundtrip(r):
    exact = dx_total(r)
    recovered = integrate_x(exact)
    # agreement up to a constant of integration
    difference = recovered - r
    assert dx_total(difference).is_zero()
    assert dx_total(recovered) == exact


@settings(max_examples=200, deadline=None)
@given(diff_polys(), diff_polys())
def test_functional_equality_invariant_under_exact_shifts(p, r):
    F = Functional(p)
    G = Functional(p + dx_total(r))
    assert F.equivalent(G)


@settings(max_examples=150, deadline=None)
@given(diff_polys(max_terms=2), diff_polys(max_terms=2))
def test_prolongation_is_frechet_action(q, p):
    assert prolong_apply(q, p) == apply_op(frechet(p), q)


# Reference forms written out term by term, independent of the derivative
# towers, the Horner evaluation and the per-monomial chain rule.

def _jet_orders(p):
    return sorted(p.jet_vars())


@settings(max_examples=200, deadline=None)
@given(diff_polys())
def test_dx_total_matches_chain_rule_oracle(p):
    ctx = Context(eps_order=p.eps_order)
    expected = diff_partial(p, "x")
    for k in _jet_orders(p):
        expected = expected + diff_partial(p, k) * ctx.u(k + 1)
    assert dx_total(p) == expected


@settings(max_examples=200, deadline=None)
@given(diff_polys())
def test_euler_matches_alternating_sum_oracle(p):
    expected = Context(eps_order=p.eps_order).zero
    for k in _jet_orders(p):
        term = dx_total_n(diff_partial(p, k), k)
        expected = expected + (-term if k % 2 else term)
    assert euler1(p) == expected


def _termwise_partial(P, k):
    """dP/du_k term by term, as a {(Monomial, eps degree): value} map."""
    out = {}
    for (mon, e), c in stored_terms(P).items():
        jets = dict(mon.jets)
        n = jets.pop(k, 0)
        if n:
            if n > 1:
                jets[k] = n - 1
            out[Monomial(mon.x, mon.t, tuple(sorted(jets.items()))), e] = c * n
    return out


def _from_stored(stored, p):
    """The DiffPoly of a {(Monomial, eps degree): value} map at order p."""
    grouped = {}
    for (mon, e), c in stored.items():
        grouped.setdefault(mon, [0] * (p + 1))[e] = c
    return DiffPoly({mon: EpsPoly(cs, order=p) for mon, cs in grouped.items()},
                    p)


@st.composite
def _exact_or_not(draw):
    """A polynomial at an order p in 0..3 with eps factors: the D_x of one,
    plus, half the time, another that holds a jet and is rarely exact."""
    p = draw(st.integers(0, 3))
    eps = Context(eps_order=p).eps

    def drawn(polys):
        return draw(polys) * eps ** draw(st.integers(0, p))

    P = dx_total(drawn(diff_polys(order=p)))
    if draw(st.booleans()):
        P = P + drawn(diff_polys(with_xt=False, order=p)
                      .filter(lambda q: q.max_jet_order() >= 0))
    return P


# ker E = im D_x (Olver, Applications of Lie Groups to Differential
# Equations, 2nd ed., Theorem 4.7): integration and the Euler operator
# decide exactness alike, and the obstruction is the Euler derivative.
@settings(max_examples=200, deadline=None)
@given(_exact_or_not())
def test_integration_decides_exactness_as_euler_does(P):
    E = euler1(P)
    try:
        F = integrate_x(P)
    except NotExact as err:
        assert not E.is_zero()
        assert err.obstruction == E
    else:
        assert E.is_zero()
        assert dx_total(F) == P


@settings(max_examples=200, deadline=None)
@given(_exact_or_not())
def test_euler_and_kept_partials_match_termwise_references(P):
    p = P.eps_order
    expected = DiffPoly.zero(p)
    for k in _jet_orders(P):
        partial = _termwise_partial(P, k)
        assert stored_terms(_jet_partials(P)[k]) == partial
        term = dx_total_n(_from_stored(partial, p), k)
        expected = expected + (-term if k % 2 else term)
    assert list(_jet_partials(P)) == _jet_orders(P)
    assert euler1(P) == expected


def _valuation(P):
    """The lowest eps degree of P, p + 1 for zero."""
    return min((e for c in P.terms.values()
                for e, x in enumerate(c.coeffs) if x),
               default=P.eps_order + 1)


@st.composite
def _eps_multiple_pairs(draw):
    """Two diff_polys at one order p in 1..3, each times eps^k, k in 0..p."""
    p = draw(st.integers(1, 3))
    eps = Context(eps_order=p).eps
    return tuple(draw(diff_polys(max_terms=2, order=p))
                 * eps ** draw(st.integers(0, p)) for _ in range(2))


# prolong_apply returns zero before it takes any D_x when the eps
# valuations of its arguments sum above p; the value must not change.
@settings(max_examples=150, deadline=None)
@given(_eps_multiple_pairs())
def test_prolong_apply_matches_frechet_sum_oracle(pair):
    direction, target = pair
    fresh = direction * 1  # equal to direction, with no D_x kept on it
    expected = Context(eps_order=target.eps_order).zero
    for k in _jet_orders(target):
        expected = expected + diff_partial(target, k) * dx_total_n(direction, k)
    assert prolong_apply(fresh, target) == expected
    if _valuation(direction) + _valuation(target) > target.eps_order:
        assert expected.is_zero() and not hasattr(fresh, "_dx")


# Stored coefficients are canonical: nonzero int numerators over one int
# denominator >= 1 that shares no factor with all of them, so that equal
# values store equal maps.  So are the stored monomials: jet orders strictly
# increasing, every exponent at least 1.

def _canonical(P):
    return (all(type(c) is int and c != 0 for c in P._flat.values())
            and type(P._den) is int and P._den >= 1
            and gcd(P._den, *P._flat.values()) == 1
            and all(all(e >= 1 for _, e in mon.jets)
                    and all(a < b for (a, _), (b, _)
                            in zip(mon.jets, mon.jets[1:]))
                    for mon, _ in stored_terms(P)))


@settings(max_examples=150, deadline=None)
@given(diff_polys(), diff_polys(), st.integers(1, 6), rationals.filter(bool))
def test_stored_coefficients_are_canonical(p, q, k, r):
    results = [p, p * q, p + q, p - q, -p, k - p, p * r, p / k, p / r,
               dx_total(p), diff_partial(p, "x"), diff_partial(p, 1),
               euler1(p), _homotopy_density(p), integrate_x(dx_total(p)),
               reconstruct_density(euler1(p)).density]
    for P in results:
        assert _canonical(P), (P._flat, P._den)
    # two routes to one value store one map over one denominator
    for left, right in [((p * q) / 2, p * (q / 2)), (p * r - q * r, (p - q) * r),
                        ((p + q) / k - q / k, p / k),
                        (dx_total(p / k), dx_total(p) / k)]:
        assert (left._flat, left._den) == (right._flat, right._den)


def test_ansatz_solution_coefficients_are_canonical(gardner):
    # the bounded ansatz of `noether gardner --char Q2 --op E`
    Q2, E = gardner.characteristics["Q2"], gardner.operators["E"]
    g = solve_operator_equation(E, Q2)
    assert g is not None and _canonical(g)
    assert _canonical(noether_inverse(Q2, E).density)
