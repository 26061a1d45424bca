"""Differential tests against sympy, a CAS that shares no code with jetflow.

A DiffPoly becomes a sympy expression in x, t, eps and the function u(x),
with u_k as the k-th derivative of u(x).  Total x-derivatives are then
sympy's chain rule, and the Euler operator is
`sympy.calculus.euler.euler_equations`.  Both maps are linear in eps, so no
truncation is needed on the sympy side.
"""

import pytest
from hypothesis import given, settings

from jetflow import dx_total, euler1, integrate_x, reconstruct_density

from conftest import diff_polys

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

X, T, EPS = sympy.symbols("x t eps")
U = sympy.Function("u")(X)


def to_sympy(P):
    expr = sympy.Integer(0)
    for mon, coeff in P.terms.items():
        term = X ** mon.x * T ** mon.t
        for k, e in mon.jets:
            term *= sympy.diff(U, X, k) ** e
        expr += term * sum(sympy.Rational(c.numerator, c.denominator) * EPS ** i
                           for i, c in enumerate(coeff.coeffs))
    return expr


def same(a, b):
    return sympy.expand(a - b) == 0


@settings(max_examples=150, deadline=None)
@given(diff_polys())
def test_dx_total_matches_sympy_chain_rule(p):
    assert same(to_sympy(dx_total(p)), sympy.diff(to_sympy(p), X))


@settings(max_examples=150, deadline=None)
@given(diff_polys())
def test_euler_matches_sympy_euler_equations(p):
    # sympy drops an equation that folds to a constant, so add shift*u,
    # whose Euler derivative is the symbol shift
    shift = sympy.Symbol("shift")
    (equation,) = euler_equations(to_sympy(p) + shift * U, U, X)
    expected = equation.lhs - equation.rhs - shift
    assert same(to_sympy(euler1(p)), expected)


@settings(max_examples=100, deadline=None)
@given(diff_polys())
def test_integrate_x_round_trips_under_sympy_dx(q):
    p = dx_total(q)
    assert same(sympy.diff(to_sympy(integrate_x(p)), X), to_sympy(p))


@settings(max_examples=100, deadline=None)
@given(diff_polys())
def test_reconstruct_density_euler_matches_sympy(q):
    # g = euler1(q) is variational; shift*u as in the test above
    g = euler1(q)
    shift = sympy.Symbol("shift")
    density = reconstruct_density(g).density
    (equation,) = euler_equations(to_sympy(density) + shift * U, U, X)
    assert same(equation.lhs - equation.rhs - shift, to_sympy(g))
