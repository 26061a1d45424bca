from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetflow import Context, EpsPoly, MultiVector, OrderMismatch, PseudoDiffOp

from conftest import eps_polys, rationals


def ep(*coeffs):
    return EpsPoly([Fraction(c) for c in coeffs])


def test_truncated_products():
    one_plus = ep(1, 1)
    one_minus = ep(1, -1)
    assert one_plus * one_minus == ep(1, 0)
    eps = EpsPoly.eps(1)
    assert eps * eps == EpsPoly.zero(1)
    assert ep(2, 3) * ep(4, 5) == ep(8, 22)


def test_truncate():
    assert ep(8, 22).truncate(0) == EpsPoly((Fraction(8),))
    assert EpsPoly.eps(1).truncate(1) == EpsPoly.eps(1)
    assert ep(3, 0).truncate(0) == EpsPoly((Fraction(3),))
    with pytest.raises(OrderMismatch):
        ep(3, 0).truncate(2)
    with pytest.raises(OrderMismatch):
        ep(3, 0).truncate(-1)


def test_mixed_orders_rejected():
    a = EpsPoly((1, 2))
    b = EpsPoly((1, 2, 3))
    for op in (lambda: a + b, lambda: a * b, lambda: a - b):
        with pytest.raises(OrderMismatch):
            op()


def test_scalar_coercion_and_division():
    a = ep(1, 2)
    assert a + 1 == ep(2, 2)
    assert 2 * a == ep(2, 4)
    assert a - Fraction(1, 2) == ep(Fraction(1, 2), 2)
    assert a / 2 == ep(Fraction(1, 2), 1)


def test_lowest_coefficient_and_reflected_subtraction():
    assert EpsPoly((0, 3, 5)).lowest_coefficient() == 3
    assert ep(Fraction(-1, 2), 2).lowest_coefficient() == Fraction(-1, 2)
    assert EpsPoly.zero(2).lowest_coefficient() == 0
    assert 1 - ep(1, 2) == ep(0, -2)
    assert Fraction(1, 3) - EpsPoly((0, 0, 1)) == EpsPoly((Fraction(1, 3), 0, -1))
    assert 1 - EpsPoly.zero(0) == EpsPoly.one(0)


def test_eps_constructor_beyond_order_is_zero():
    assert EpsPoly.eps(1, power=2).is_zero()
    assert EpsPoly.eps(2, power=2) == EpsPoly((0, 0, 1))


def test_immutability_and_hash():
    a = ep(1, 2)
    with pytest.raises(AttributeError):
        a.coeffs = ()
    assert hash(a) == hash(ep(1, 2))


@pytest.mark.parametrize("value", [
    EpsPoly((1, 2)),
    Context(1).u(1) + Context(1).eps,
    PseudoDiffOp.dx(1, 2),
    MultiVector.from_poly(Context(1).u(0), (0, 1)),
], ids=lambda value: type(value).__name__)
@pytest.mark.parametrize("attribute", ["eps_order", "coeffs", "nonesuch"])
def test_value_classes_refuse_every_assignment(value, attribute):
    # DiffPoly, EpsPoly, PseudoDiffOp and MultiVector share one guard
    with pytest.raises(AttributeError,
                       match=f"^{type(value).__name__} is immutable$"):
        setattr(value, attribute, None)


@settings(max_examples=300, deadline=None)
@given(eps_polys(), eps_polys(), eps_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + EpsPoly.zero(a.order) == a
    assert a * EpsPoly.one(a.order) == a
    assert (a - a).is_zero()


@settings(max_examples=300, deadline=None)
@given(eps_polys(), eps_polys())
def test_truncation_is_ring_homomorphism(a, b):
    assert (a * b).truncate(0) == a.truncate(0) * b.truncate(0)
    assert (a + b).truncate(0) == a.truncate(0) + b.truncate(0)


@settings(max_examples=200, deadline=None)
@given(eps_polys())
def test_eps_nilpotent(a):
    power = EpsPoly.one(a.order)
    for _ in range(a.order + 1):
        power = power * EpsPoly.eps(a.order)
    assert (power * a).is_zero()


@settings(max_examples=200, deadline=None)
@given(eps_polys(order=2), eps_polys(order=2))
def test_higher_order_ring(a, b):
    assert a * b == b * a
    assert (a * b).truncate(1) == a.truncate(1) * b.truncate(1)


def _cauchy(a, b):
    """The product of two coefficient lists of one length, truncated to it."""
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
                 for k in range(len(a)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda p: st.tuples(eps_polys(p), eps_polys(p))),
       rationals)
def test_ring_operations_match_a_coefficient_list_reference(pair, r):
    # an oracle that shares no code with DiffPoly: plain Fraction lists
    a, b = pair
    x, y = a.coeffs, b.coeffs
    assert (a + b).coeffs == tuple(s + t for s, t in zip(x, y))
    assert (a - b).coeffs == tuple(s - t for s, t in zip(x, y))
    assert (-a).coeffs == tuple(-s for s in x)
    assert (a * b).coeffs == _cauchy(x, y)
    assert (a + r).coeffs == (x[0] + r, *x[1:])
    assert (r - a).coeffs == (r - x[0], *(-s for s in x[1:]))
    assert (r * a).coeffs == a.scale(r).coeffs == tuple(r * s for s in x)
    if r:
        assert (a / r).coeffs == tuple(s / r for s in x)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2).flatmap(eps_polys), st.integers(3, 4).flatmap(eps_polys),
       rationals)
def test_equal_values_hash_equally(a, b, r):
    # x == y implies hash(x) == hash(y), for an int or Fraction y and for a
    # value b at another order as well; equality is transitive, through a
    # rational too, so the size of a set does not depend on insertion order
    constant = EpsPoly.from_rational(r, a.order)
    constant_b = EpsPoly.from_rational(r, b.order)
    others = (r, int(r), a, constant, EpsPoly(a.coeffs), b, constant_b)
    for x in (a, constant, b, constant_b):
        for y in others:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    for x, y, z in product(others, repeat=3):
        if x == y and y == z:
            assert x == z, (x, y, z)
    assert constant == r and r in {constant}
    assert constant == constant_b and hash(constant) == hash(constant_b)
    sizes = {len(set(order)) for order in permutations((r, a, b, constant,
                                                        constant_b))}
    assert len(sizes) == 1, sizes
