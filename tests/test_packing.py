"""Packed monomials against the tuple arithmetic they replace.

A DiffPoly stores each monomial x^a t^b prod u_k^n_k as one int with a
17-bit field per exponent.  The references below work on Monomial tuples,
the way products, D_x and partial derivatives were computed before packing.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetflow import (Context, DiffPoly, EpsPoly, Functional, Monomial,
                     PseudoDiffOp, apply_op, diff_partial, dx_total, euler1,
                     format_poly, integrate_x, parse_model, prolong_apply)
from jetflow.errors import ResourceLimit
from jetflow.jets import _dot, _dx_monomial, _pack, _unpack

from conftest import diff_polys, stored_terms

ONE = EpsPoly.one(1)


# ---------------------------------------------------------------------------
# tuple reference


def ref_mul(a, b):
    merged = dict(a.jets)
    for k, e in b.jets:
        merged[k] = merged.get(k, 0) + e
    return Monomial(a.x + b.x, a.t + b.t, tuple(sorted(merged.items())))


def ref_with(mon, order, exp):
    jets = dict(mon.jets)
    if exp:
        jets[order] = exp
    else:
        jets.pop(order, None)
    return Monomial(mon.x, mon.t, tuple(sorted(jets.items())))


def ref_dx(mon):
    """[(factor, monomial)] of D_x(mon): x first, then the jets in order."""
    out = [(mon.x, Monomial(mon.x - 1, mon.t, mon.jets))] if mon.x else []
    for k, e in mon.jets:
        out.append((e, ref_mul(ref_with(mon, k, e - 1),
                               Monomial(0, 0, ((k + 1, 1),)))))
    return out


def ref_partial(mon, var):
    if var == "x":
        return mon.x, Monomial(mon.x - 1, mon.t, mon.jets)
    if var == "t":
        return mon.t, Monomial(mon.x, mon.t - 1, mon.jets)
    e = dict(mon.jets).get(var, 0)
    return e, ref_with(mon, var, e - 1)


def ref_apply(P, termwise):
    """sum of c * factor * new over the terms of P and (factor, new) in
    termwise(monomial), as a {(Monomial, e): value} map."""
    out = {}
    for (mon, e), c in stored_terms(P).items():
        for factor, new in termwise(mon):
            if factor:
                out[new, e] = out.get((new, e), 0) + c * factor
    return {key: c for key, c in out.items() if c}


def ref_dot(pairs, p):
    """sum of A*B over the (A, B) pairs of order p, as a {(Monomial, e):
    value} map."""
    out = {}
    for A, B in pairs:
        for (m1, e1), c1 in stored_terms(A).items():
            for (m2, e2), c2 in stored_terms(B).items():
                if e1 + e2 <= p:
                    key = ref_mul(m1, m2), e1 + e2
                    out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


# Monomials with exponents up to 2^14 and jet orders up to 40, so that the
# fields cross Python's 30-bit int digits and far jets leave empty fields.
wide_monomials = st.builds(
    lambda x, t, jets: Monomial(x, t, tuple(sorted(jets.items()))),
    st.integers(0, 2 ** 14), st.integers(0, 2 ** 14),
    st.dictionaries(st.integers(0, 40), st.integers(1, 2 ** 14), max_size=5))


@settings(max_examples=300, deadline=None)
@given(wide_monomials, wide_monomials)
def test_packed_monomials_match_the_tuple_arithmetic(a, b):
    pa, pb = _pack(a), _pack(b)
    assert _unpack(pa) == a and _unpack(pb) == b
    assert _unpack(pa + pb) == ref_mul(a, b)
    assert [(f, _unpack(m)) for f, m in _dx_monomial(pa)] == ref_dx(a)
    P = DiffPoly({a: ONE}, 1)
    for var in ("x", "t", *range(42)):
        factor, new = ref_partial(a, var)
        expected = {(new, 0): factor} if factor else {}
        assert stored_terms(diff_partial(P, var)) == expected
    # the highest jet order is read from the bit length
    assert P.max_jet_order() == (a.jets[-1][0] if a.jets else -1)
    assert P.total_degree() == a.x + a.t + a.jet_degree()
    assert P.jet_vars() == {k for k, _ in a.jets}


@settings(max_examples=150, deadline=None)
@given(diff_polys(max_jet_order=6), diff_polys(max_jet_order=6))
def test_polynomial_primitives_match_the_tuple_arithmetic(p, q):
    assert stored_terms(p * q) == ref_dot([(p, q)], p.eps_order)
    difference = dict(stored_terms(p))
    for key, c in stored_terms(q).items():
        difference[key] = difference.get(key, 0) - c
    assert stored_terms(p - q) == {k: c for k, c in difference.items() if c}
    assert stored_terms(1 - q) == stored_terms(-(q - 1))
    assert stored_terms(dx_total(p)) == ref_apply(p, ref_dx)
    for var in ("x", "t", 0, 1, 2, 5):
        assert stored_terms(diff_partial(p, var)) == ref_apply(
            p, lambda mon: [ref_partial(mon, var)])


@settings(max_examples=100, deadline=None)
@given(st.lists(wide_monomials, min_size=1, max_size=6, unique=True))
def test_terms_print_in_monomial_order(mons):
    # a sum prints its terms in the order of their Monomial tuples
    P = DiffPoly({mon: EpsPoly.one(0) for mon in mons}, 0)
    alone = [format_poly(DiffPoly({mon: EpsPoly.one(0)}, 0))
             for mon in sorted(mons)]
    assert format_poly(P) == " + ".join(alone)
    assert list(P.terms) == mons


# ---------------------------------------------------------------------------
# canonical monomials at the DiffPoly(terms, p) boundary


def test_zero_exponents_drop_out():
    P = DiffPoly({Monomial(0, 0, ((1, 0),)): ONE}, 1)
    assert P == DiffPoly.constant(1, 1)
    assert format_poly(P) == "1"
    assert list(P.terms) == [Monomial(0, 0, ())]


def test_unsorted_and_repeated_jets_merge():
    ctx = Context(eps_order=1)
    assert (DiffPoly({Monomial(0, 0, ((2, 1), (1, 1))): ONE}, 1)
            == ctx.u(1) * ctx.u(2))
    assert DiffPoly({Monomial(0, 0, ((1, 1), (1, 2))): ONE}, 1) == ctx.u(1) ** 3
    # two spellings of one monomial add up
    two = DiffPoly({Monomial(0, 0, ((1, 1), (2, 1))): ONE,
                    Monomial(0, 0, ((2, 1), (1, 1))): ONE}, 1)
    assert two == 2 * ctx.u(1) * ctx.u(2)


@pytest.mark.parametrize("mon", [
    Monomial(-1, 0, ()), Monomial(0, -1, ()), Monomial(0, 0, ((-1, 1),)),
    Monomial(0, 0, ((1, -1),)), Monomial(0, 0, ((1, 2), (1, -1))),
], ids=["x", "t", "jet-order", "exponent", "merged-exponent"])
def test_negative_exponents_and_orders_raise(mon):
    with pytest.raises(ValueError):
        DiffPoly({mon: ONE}, 1)


# ---------------------------------------------------------------------------
# diff_partial arguments


@pytest.mark.parametrize("var", ["u", "X", -1, 1.0, True, None, (1,)])
def test_diff_partial_rejects_other_variables(var):
    with pytest.raises(ValueError):
        diff_partial(Context(eps_order=1).u(1), var)


def test_euler_of_a_jet_free_polynomial_is_zero():
    ctx = Context(eps_order=1)
    assert euler1(ctx.x * ctx.t + 3 + ctx.eps).is_zero()
    assert euler1(ctx.zero).is_zero()


# ---------------------------------------------------------------------------
# field overflow


def power_of(order, n, extra=()):
    return DiffPoly({Monomial(0, 0, ((order, n), *extra)): ONE}, 1)


def test_an_overflowing_product_raises():
    # 2^15 + (2^15 - 1) is the largest exponent a field holds
    assert power_of(0, 2 ** 15) * power_of(0, 2 ** 15 - 1) == power_of(0, 2 ** 16 - 1)
    with pytest.raises(ResourceLimit):
        power_of(0, 2 ** 15) * power_of(0, 2 ** 15)
    with pytest.raises(ResourceLimit):
        power_of(3, 2 ** 16 - 1) * Context(eps_order=1).u(3)
    with pytest.raises(ResourceLimit):
        DiffPoly({Monomial(0, 0, ((0, 2 ** 16),)): ONE}, 1)
    # the sums of products: d(u^32769)/du = 32769*u^32768 times u^32768
    half = power_of(0, 2 ** 15)
    with pytest.raises(ResourceLimit):
        prolong_apply(half, power_of(0, 2 ** 15 + 1))
    with pytest.raises(ResourceLimit):
        apply_op(PseudoDiffOp.from_poly(half), half)
    # a*Dxi*1 on u^32768*u_x: a = u^32768 times u^32769/32769
    with pytest.raises(ResourceLimit):
        apply_op(PseudoDiffOp({}, ((half, DiffPoly.constant(1, 1)),), 1),
                 power_of(0, 2 ** 15, ((1, 1),)))
    # a term past the cap that cancels inside the same sum leaves it exact
    assert _dot(((half, half), (-half, half)), 1).is_zero()


def test_a_raised_field_past_the_cap_raises():
    ctx = Context(eps_order=1)
    top = 2 ** 16 - 1
    # D_x(u*u_x^top) holds u_x^(top + 1); the u_x field of D_x(u_x^top) falls
    dx_total(power_of(1, top))
    with pytest.raises(ResourceLimit):
        dx_total(power_of(0, 1, ((1, top),)))
    # the antiderivative in x of x^top needs x^(top + 1)
    x_top = DiffPoly({Monomial(top, 0, ()): ONE}, 1)
    with pytest.raises(ResourceLimit):
        integrate_x(x_top)
    assert integrate_x(ctx.x ** 3) == ctx.x ** 4 / 4


def test_a_raised_jet_field_past_the_cap_raises():
    top = 2 ** 16 - 1
    cap = f"^an exponent exceeds the cap {top}$"
    # the piece of u^top*u_x is u^(top + 1)/(top + 1)
    with pytest.raises(ResourceLimit, match=cap):
        integrate_x(power_of(0, top, ((1, 1),)))
    # euler(u*u_x^top*u_xx) takes D_x of d/du_xx = u*u_x^top, which holds
    # u_x^(top + 1)
    with pytest.raises(ResourceLimit, match=cap):
        euler1(power_of(0, 1, ((1, top), (2, 1))))
    # u^top*u_x is a total derivative, and its Euler derivative, which
    # takes no antiderivative, says so
    assert Functional(power_of(0, top, ((1, 1),))).is_null()


def test_two_of_the_largest_declared_powers_multiply():
    # u^16384 is the highest power one declaration reaches under
    # MAX_PRODUCT_PAIRS, and the product of two of them fits a field
    model = parse_model("set eps_order = 1;\ndensity A = u^16384;\n"
                        "density B = A*A;\n")
    B = model.densities["B"].density
    assert list(B.terms) == [Monomial(0, 0, ((0, 2 ** 15),))]
    with pytest.raises(ResourceLimit):
        parse_model("density A = u^16384;\ndensity B = A*A*A*A;\n")


# ---------------------------------------------------------------------------
# the sum-of-products kernel against a sum of single products and the tuple
# reference


@st.composite
def product_sums(draw):
    """(pairs, p): up to four pairs of polynomials of an order p in 0..3,
    each followed at random by a pair that cancels all of its product but
    the part from one more term."""
    p = draw(st.integers(0, 3))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        A, B = draw(diff_polys(order=p)), draw(diff_polys(order=p))
        pairs.append((A, B))
        if draw(st.booleans()):
            pairs.append((-A, B + draw(diff_polys(max_terms=1, order=p))))
    return pairs, p


@settings(max_examples=200, deadline=None)
@given(product_sums())
def test_dot_equals_the_sum_of_its_products(case):
    pairs, p = case
    found = _dot(pairs, p)
    expected = DiffPoly.zero(p)
    for A, B in pairs:
        expected = expected + A * B
    assert found == expected
    assert stored_terms(found) == ref_dot(pairs, p)
    assert all(type(c) is int and c for c in found._flat.values())
    assert found._den >= 1 and gcd(found._den, *found._flat.values()) == 1
