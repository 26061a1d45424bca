"""Differential tests against sympy, a CAS that shares no code with jetflow.

A DiffPoly becomes a sympy expression in x, t, eps and the function u(x),
with u_k as the k-th derivative of u(x).  Total x-derivatives are then
sympy's chain rule, and the Euler operator is
`sympy.calculus.euler.euler_equations`.  Both maps are linear in eps, so no
truncation is needed on the sympy side.  The printer is checked by sympy's
own parser reading the printed text, with each jet as a plain symbol.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from jetflow import (DiffPoly, EpsPoly, dx_total, euler1, format_poly,
                     integrate_x, parse_model, reconstruct_density)

from conftest import diff_polys, stored_terms

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


def jet(k):
    return sympy.Symbol(f"jet{k}")


def read_printed(text):
    """sympy's reading of a printed polynomial: u, u_x, ..., u_xxxx and u{k}
    are the jet symbols and ^ is **."""
    text = re.sub(r"u\{(\d+)\}", r"jet\1", text).replace("^", "**")
    names = {"u" + ("_" + "x" * k if k else ""): jet(k) for k in range(5)}
    return sympy.parse_expr(text, local_dict=names)


def from_flat(P):
    """The polynomial of the stored {(monomial, eps degree): value} map."""
    expr = sympy.Integer(0)
    for (mon, e), c in stored_terms(P).items():
        term = sympy.Rational(c.numerator, c.denominator) * EPS ** e
        term *= X ** mon.x * T ** mon.t
        for k, power in mon.jets:
            term *= jet(k) ** power
        expr += term
    return expr


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda order: st.tuples(
    diff_polys(max_terms=4, max_jet_order=6, order=order),
    st.integers(0, order))))
def test_printed_poly_reads_back_under_sympy(args):
    # eps^k * p, whose terms often share the power of eps printed in front
    p, k = args
    order = p.eps_order
    eps_k = EpsPoly(tuple(int(i == k) for i in range(order + 1)), order=order)
    p = p * DiffPoly.constant(eps_k, order)
    assert same(read_printed(format_poly(p)), from_flat(p))


def polynomial_texts():
    """Model-file expressions in atoms of one term each, with + - * / by a
    nonzero integer, ^ 0..3, parentheses and unary minus."""
    # eps twice, so that products truncated above eps^p come up often
    atoms = st.sampled_from(["eps", "u", "u_x", "u_xxx", "u{4}", "x", "t",
                             "eps", "0", "1", "2", "12"])
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
        st.tuples(inner, st.integers(1, 7)).map(lambda a: f"{a[0]}/{a[1]}"),
        st.tuples(inner, st.integers(0, 3)).map(lambda a: f"({a[0]})^{a[1]}"),
        inner.map(lambda a: f"({a})"),
        inner.map(lambda a: f"-{a}")), max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), polynomial_texts())
@example(1, "eps*eps*u - 3*eps*u_x/2")
@example(2, "(1 + eps)^3/2 - u*(eps)^3")
@example(0, "eps*u + -(2*x)^2/4")
def test_parsed_arithmetic_matches_sympy(p, text):
    # sympy's reading of the text, expanded and truncated above eps^p
    model = parse_model(f"set eps_order = {p}; char Q = {text};")
    Q = model.characteristics["Q"]
    expected = sympy.expand(read_printed(text))
    truncated = sum(expected.coeff(EPS, k) * EPS ** k for k in range(p + 1))
    assert same(from_flat(Q), truncated)
