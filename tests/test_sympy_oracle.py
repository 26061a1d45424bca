"""Differential tests against sympy, a CAS that shares no code with jetflow.

A DiffPoly becomes a sympy expression in x, t, eps and the function u(x),
with u_k as the k-th derivative of u(x).  Total x-derivatives are then
sympy's chain rule, and the Euler operator is
`sympy.calculus.euler.euler_equations`.  Both maps are linear in eps, so no
truncation is needed on the sympy side.  The printer is checked by sympy's
own parser reading the printed text, with each jet as a plain symbol.
The Hamiltonian-pair check is compared with the Jacobi identity of the
pencil A + lambda*B, its brackets written out here with sympy.diff, and the
skew-adjointness test and the Poisson bracket with the pairing and the
bracket density written out the same way.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from jetflow import (Context, DiffPoly, EpsPoly, Functional, PseudoDiffOp,
                     dx_total, euler, euler1, format_poly, integrate_x,
                     is_skew_adjoint, load_fixture, pair_check, parse_model,
                     poisson_bracket, reconstruct_density)

from conftest import (P, diff_polys, eps_polys, local_ops, skew_ops,
                      stored_terms)

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


def truncated(expr, p=P):
    """expr expanded, with every power of eps above p dropped."""
    expr = sympy.expand(expr)
    return sum((expr.coeff(EPS, k) * EPS ** k for k in range(p + 1)),
               sympy.Integer(0))


def variational(expr):
    """The Euler derivative of the density expr by euler_equations."""
    # sympy drops an equation that folds to a constant, so add shift*u,
    # whose Euler derivative is the symbol shift
    shift = sympy.Symbol("shift")
    (equation,) = euler_equations(expr + shift * U, U, X)
    return equation.lhs - equation.rhs - shift


@settings(max_examples=150, deadline=None)
@given(diff_polys())
def test_dx_total_matches_sympy_chain_rule(p):
    assert same(to_sympy(dx_total(p)), sympy.diff(to_sympy(p), X))


@settings(max_examples=150, deadline=None)
@given(diff_polys())
def test_euler_matches_sympy_euler_equations(p):
    assert same(to_sympy(euler1(p)), variational(to_sympy(p)))


@settings(max_examples=100, deadline=None)
@given(diff_polys())
def test_integrate_x_round_trips_under_sympy_dx(q):
    p = dx_total(q)
    assert same(sympy.diff(to_sympy(integrate_x(p)), X), to_sympy(p))


@settings(max_examples=100, deadline=None)
@given(diff_polys())
def test_reconstruct_density_euler_matches_sympy(q):
    g = euler1(q)  # variational
    density = reconstruct_density(g).density
    assert same(variational(to_sympy(density)), to_sympy(g))


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
    assert same(from_flat(Q), truncated(read_printed(text), p))


# ---------------------------------------------------------------------------
# Hamiltonian pairs.  For local skew-adjoint A and B the bracket is
# {F, G}_A = int delta F * A(delta G) dx, and A and B are compatible, which
# is what pair_check decides, exactly when the lambda^1 coefficient of the
# Jacobiator {{F,G},H} + cyclic of the pencil A + lambda*B vanishes for all
# F, G, H (Magri, J. Math. Phys. 19, 1978): its density is then a total
# x-derivative.

GARDNER = load_fixture("gardner").operators
OPS = {"D": GARDNER["D"], "E": GARDNER["E"], **parse_model("""
operator S { u^2*Dx + Dx*u^2 }
operator C { u_x^2*Dx + Dx*u_x^2 }
""").operators}


def apply_local(A, f):
    """A(f) for a local operator, each Dx^j applied by sympy.diff."""
    return sum((to_sympy(c) * sympy.diff(f, X, j)
                for j, c in A.local_terms.items()), sympy.Integer(0))


def mixed_jacobiator(A, B, densities):
    """The Euler derivative, mod eps^(P+1), of the lambda^1 coefficient of
    the Jacobiator of A + lambda*B on the functionals of three densities."""
    grads = [variational(to_sympy(T)) for T in densities]

    def bracket_grad(A, f, g):  # delta {F, G}_A from delta F and delta G
        return variational(truncated(f * apply_local(A, g)))

    total = sympy.Integer(0)
    for i in range(3):
        f, g, h = grads[i:] + grads[:i]
        total += (bracket_grad(A, f, g) * apply_local(B, h)
                  + bracket_grad(B, f, g) * apply_local(A, h))
    return truncated(variational(truncated(total)))


@pytest.mark.parametrize("a, b, passes", [
    ("D", "E", True), ("S", "S", True), ("C", "C", False), ("D", "C", False)])
def test_pair_check_controls_agree_with_the_jacobiator(a, b, passes):
    # u^2*Dx + Dx*u^2 is of hydrodynamic type, u_x^2*Dx + Dx*u_x^2 is not
    A, B = OPS[a], OPS[b]
    assert pair_check(A, B) is passes
    u = Context(P).u(0)
    assert (mixed_jacobiator(A, B, (u, u ** 2, u ** 3)) == 0) is passes


named_ops = st.sampled_from(sorted(OPS)).map(OPS.__getitem__)
# a term of degree 2 or 3 in u and u_x: a density of lower degree has a
# constant gradient, whose brackets vanish
u, u_x = Context(P).u(0), Context(P).u(1)
small_densities = st.tuples(
    st.sampled_from([u ** i * u_x ** (n - i) for n in (2, 3)
                     for i in range(n + 1)]),
    eps_polys(nonzero=True)).map(lambda term: term[0] * term[1])


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.tuples(named_ops, named_ops),
                 st.tuples(skew_ops(), skew_ops())),
       st.tuples(small_densities, small_densities, small_densities))
def test_pair_check_implies_a_vanishing_jacobiator(pair, triple):
    A, B = pair
    if pair_check(A, B):
        assert mixed_jacobiator(A, B, triple) == 0


# ---------------------------------------------------------------------------
# Skew-adjointness and the Poisson bracket.  D is skew-adjoint exactly when
# int F*D(G) + G*D(F) dx vanishes for all F and G, that is when that density
# has a zero Euler derivative; {F, G}_D has the density delta F * D(delta G).

SKEW_CONTROLS = {"Dx": PseudoDiffOp.dx(P), "E": GARDNER["E"], **parse_model("""
operator S { u*Dx + Dx*u }
operator U { u*Dx }
""").operators}
small_functions = diff_polys(max_terms=2, max_jet_order=2, max_degree=2)
# pairs of u, u_x, x*u and u^2: enough to show that u*Dx is not skew
probes = (u, u_x, Context(P).x * u, u ** 2)
PROBES = [(a, b) for a in probes for b in probes]


def skew_pairing(D, F, G):
    """The Euler derivative, mod eps^(P+1), of F*D(G) + G*D(F)."""
    f, g = to_sympy(F), to_sympy(G)
    return truncated(variational(f * apply_local(D, g) + g * apply_local(D, f)))


@pytest.mark.parametrize("name, skew", [
    ("Dx", True), ("E", True), ("S", True), ("U", False)])
def test_skew_adjoint_controls_agree_with_the_pairing(name, skew):
    D = SKEW_CONTROLS[name]
    assert is_skew_adjoint(D) is skew
    pairings = [skew_pairing(D, F, G) for F, G in PROBES]
    assert all(p == 0 for p in pairings) is skew


@settings(max_examples=40, deadline=None)
@given(st.one_of(skew_ops(), local_ops(max_order=2)), small_functions,
       small_functions)
def test_a_skew_adjoint_operator_pairs_to_a_total_derivative(D, F, G):
    if is_skew_adjoint(D):
        assert skew_pairing(D, F, G) == 0
    else:
        # the symmetric part D + D* is nonzero, and some probe shows it
        assert any(skew_pairing(D, a, b) != 0 for a, b in PROBES)


def bracket_residual(D, F, G):
    """The sympy Euler derivative of delta F * D(delta G), mod eps^(P+1)."""
    f, g = variational(to_sympy(F)), variational(to_sympy(G))
    return truncated(variational(truncated(f * apply_local(D, g))))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from(sorted(OPS)).map(OPS.__getitem__),
                 skew_ops()),
       small_densities, small_densities)
@example(GARDNER["E"], u ** 3, u * u_x ** 2)
def test_the_bracket_residual_matches_sympy(D, F, G):
    # the residual of the involution check, mostly nonzero
    density = poisson_bracket(Functional(F), Functional(G), D).density
    assert same(to_sympy(euler(density)), bracket_residual(D, F, G))


def test_the_bracket_residuals_compared_are_mostly_nonzero():
    # every ordered pair of distinct degree-3 densities under E and S, but
    # u^2*u_x, a total derivative of zero gradient
    cubic = [u_x ** 3, u * u_x ** 2, u ** 3]
    residuals = [bracket_residual(OPS[name], F, G) for name in ("E", "S")
                 for F in cubic for G in cubic if F is not G]
    assert sum(r != 0 for r in residuals) > len(residuals) // 2
