"""The weight gradings behind the operator-inversion ansatz.

A term x^a t^b eps^e prod u_k^n_k has the feature (s - a, b, e, d), with
jet weight s = sum k*n_k and jet degree d = sum n_k; a grading w gives it
the weight w . feature.  The expected gradings, features and bases here are
written out by hand or enumerated by brute force, never with the engine's
helpers.
"""

from itertools import permutations, product
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from jetflow import (DiffPoly, EpsPoly, Monomial, ResourceLimit, apply_op,
                     solve_operator_equation)
from jetflow import engine

from conftest import diff_polys, local_ops, rationals, stored_terms


def span_equals(found, expected):
    found = [list(w) for w, _ in found]
    rank = sympy.Matrix(expected).rank()
    return (len(found) == rank and sympy.Matrix(found).rank() == rank
            and sympy.Matrix(found + expected).rank() == rank)


def feature(mon, e):
    s = sum(k * n for k, n in mon.jets)
    return (s - mon.x, mon.t, e, sum(n for _, n in mon.jets))


def weight(w, f):
    return sum(x * y for x, y in zip(w, f))


def test_gardner_E_gradings(gardner):
    # w(u) = 2, w(eps) = -2 per unit weight of D_x, and the t degree
    E, Qbar5 = gardner.operators["E"], gardner.characteristics["Qbar5"]
    gradings = engine._gradings(E, Qbar5)
    assert span_equals(gradings, [[1, 0, -2, 2], [0, 1, 0, 0]])
    # eps*u{5} has feature (5, 0, 1, 1) and -Dx^3 adds (3, 0, 0, 0), so a
    # preimage has the weight of (2, 0, 1, 1)
    for w, target in gradings:
        assert target == weight(w, (2, 0, 1, 1))


def test_burgers_R1_leaves_the_weight_of_u_free(burgers):
    # Dx + eps*u_x is homogeneous exactly when w(eps) = -w(u); the weights
    # of D_x, t and u are otherwise free
    R1, Q7 = burgers.operators["R1"], burgers.characteristics["Q7"]
    gradings = engine._gradings(R1, Q7)
    assert span_equals(gradings, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 1]])
    assert all(w[2] == -w[3] for w, _ in gradings)


def test_inhomogeneous_characteristic_inverts_through_the_dense_basis(
        ctx, gardner):
    # E(1 + u + t) mixes t-degrees 0 and 1 and (1, 0, -2, 2)-weights 3 and 5
    E = gardner.operators["E"]
    Q = apply_op(E, 1 + ctx.u(0) + ctx.t)
    assert engine._gradings(E, Q) == []
    g = solve_operator_equation(E, Q)
    assert g is not None and apply_op(E, g) == Q


def filtered_dense_basis(gradings, degree_bound, top):
    """Every (monomial, eps degree) pair at eps order 1 of degree <= bound
    and jet order <= top, in the order of their exponents (e, a, b, n_0,
    ..., n_top), kept when it has the preimage weight under every grading."""
    basis = []
    for e, a, b, *ns in product(range(2),
                                *[range(degree_bound + 1)] * (top + 3)):
        if a + b + sum(ns) > degree_bound:
            continue
        mon = Monomial(a, b, tuple((k, n) for k, n in enumerate(ns) if n))
        if all(weight(w, feature(mon, e)) == target for w, target in gradings):
            basis.append((mon, e))
    return basis


def test_graded_basis_is_the_filtered_dense_basis(gardner):
    # Q7 = eps*(2*u + x*u_x + 3*t*(6*u*u_x - u_xxx)) leaves E one grading,
    # Gardner's w(t) = -3
    E, Q = gardner.operators["E"], gardner.characteristics["Q7"]
    gradings = engine._gradings(E, Q)
    assert span_equals(gradings, [[1, -3, -2, 2]])
    degree_bound, top = Q.total_degree() + 1, 3
    expected = filtered_dense_basis(gradings, degree_bound, top)
    assert expected
    shapes = list(engine._shapes(gradings, 1, degree_bound))
    assert engine._graded_pairs(shapes, degree_bound, top) == expected
    # and E maps each of them to terms of the weight of Q
    q_feature = feature(*next(iter(stored_terms(Q))))
    for mon, e in expected:
        image = apply_op(E, DiffPoly({mon: EpsPoly.eps(1, e)}, 1))
        for key in stored_terms(image):
            for w, _ in gradings:
                assert weight(w, feature(*key)) == weight(w, q_feature)


@settings(max_examples=30, deadline=None)
@given(local_ops(), diff_polys(), st.integers(0, 2))
def test_graded_pairs_and_count_match_brute_force(D, Q, top):
    # each grading makes Q and D homogeneous, and the target is the weight
    # of a term of Q minus that of a term of D
    gradings = engine._gradings(D, Q)
    q_features = [feature(*key) for key in stored_terms(Q)]
    d_shifts = [(f[0] + j, *f[1:]) for j, c in D.local_terms.items()
                for f in (feature(*key) for key in stored_terms(c))]
    for w, target in gradings:
        assert len({weight(w, f) for f in q_features}) == 1
        assert len({weight(w, f) for f in d_shifts}) == 1
        assert target == weight(w, q_features[0]) - weight(w, d_shifts[0])
    degree_bound = Q.total_degree() + 1
    expected = filtered_dense_basis(gradings, degree_bound, top)
    shapes = list(engine._shapes(gradings, 1, degree_bound))
    # a tier of exactly the cap is built, and one pair more is refused
    for cap in (engine.MAX_ANSATZ_MONOMIALS, len(expected),
                max(len(expected) - 1, 0)):
        with mock.patch.object(engine, "MAX_ANSATZ_MONOMIALS", cap):
            if len(expected) > cap:
                with pytest.raises(ResourceLimit, match=(
                        f"jet order <= {top} and degree <= {degree_bound} has "
                        f"more monomials than the cap {cap}$")):
                    engine._graded_pairs(shapes, degree_bound, top)
            else:
                assert engine._graded_pairs(shapes, degree_bound,
                                            top) == expected


def test_dense_tier_size_is_the_binomial_count():
    # no grading: C(n + d, d) monomials of degree <= d in the n = top + 3
    # variables x, t, u_0..u_top, at each of 2 eps degrees
    for top in range(4):
        for degree in range(5):
            shapes = list(engine._shapes([], 1, degree))
            assert (len(engine._graded_pairs(shapes, degree, top))
                    == 2 * sympy.binomial(top + 3 + degree, degree))


@settings(max_examples=25, deadline=None)
@given(diff_polys(max_terms=2, max_jet_order=2, max_degree=2))
def test_images_under_E_invert(gardner, g):
    # g has jet order <= 2 and degree <= 2, inside the first order tier and
    # the degree bound of E(g), whose dense tier has at most 504 pairs
    E = gardner.operators["E"]
    Q = apply_op(E, g)
    found = solve_operator_equation(E, Q)
    assert found is not None and apply_op(E, found) == Q


@settings(max_examples=60, deadline=None)
@given(local_ops(), diff_polys())
def test_gradings_span_the_whole_null_space(D, Q):
    # sound gradings (checked above) that number 4 - rank of the feature
    # differences and are independent span every grading
    q_features = [feature(*key) for key in stored_terms(Q)]
    d_shifts = [(f[0] + j, *f[1:]) for j, c in D.local_terms.items()
                for f in (feature(*key) for key in stored_terms(c))]
    gradings = engine._gradings(D, Q)
    if not q_features or not d_shifts:
        assert gradings == []
        return
    differences = ([[x - y for x, y in zip(f, q_features[0])]
                    for f in q_features]
                   + [[x - y for x, y in zip(f, d_shifts[0])]
                      for f in d_shifts])
    free = 4 - sympy.Matrix(differences).rank()
    assert len(gradings) == free
    if free:
        assert sympy.Matrix([w for w, _ in gradings]).rank() == free
    assert all(type(x) is int for w, _ in gradings for x in w)


# small rational systems in 4 unknowns: each row a map of nonzero
# coefficients, some rows empty, with a rational right-hand side
system_rows = st.lists(
    st.tuples(st.dictionaries(st.integers(0, 3), rationals.filter(bool),
                              max_size=4),
              rationals),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(system_rows)
def test_solver_matches_sympy(rows):
    A = sympy.Matrix([[sympy.Rational(row.get(c, 0)) for c in range(4)]
                      for row, _ in rows])
    b = sympy.Matrix([sympy.Rational(rhs) for _, rhs in rows])
    solution = engine._solve_rational_system(rows)
    assert (solution is not None) == (A.rank() == A.row_join(b).rank())
    if solution is not None:
        for row, rhs in rows:
            assert sum(v * solution.get(c, 0) for c, v in row.items()) == rhs


@st.composite
def systems_with_a_combined_row(draw):
    """(rows, kind): up to four rows of system_rows, then for kind
    "dependent" a rational combination of two of them, right-hand sides
    combined alike, which leaves the rank and the solutions as they are,
    and for kind "inconsistent" the same row with 1 added to its
    right-hand side, which leaves no solution."""
    rows = draw(system_rows.filter(lambda rows: len(rows) <= 4))
    kind = draw(st.sampled_from(["none", "dependent", "inconsistent"]))
    if kind != "none":
        (a, ra), (b, rb) = (rows[draw(st.integers(0, len(rows) - 1))]
                            for _ in range(2))
        r, s = draw(rationals), draw(rationals)
        row = {c: r * a.get(c, 0) + s * b.get(c, 0) for c in {*a, *b}}
        rows = rows + [({c: v for c, v in row.items() if v},
                        r * ra + s * rb + (kind == "inconsistent"))]
    return rows, kind


@settings(max_examples=100, deadline=None)
@given(systems_with_a_combined_row())
def test_solution_does_not_depend_on_row_order(case):
    # the solver eliminates sparsest rows first; every order of the same
    # rows has the same pivot columns, so the same solution or None
    rows, kind = case
    solution = engine._solve_rational_system(rows)
    if kind == "inconsistent":
        assert solution is None
    if kind == "dependent":
        assert (solution is None) == (engine._solve_rational_system(
            rows[:-1]) is None)
    for order in permutations(rows):
        assert engine._solve_rational_system(list(order)) == solution


def test_nonlocal_recursion_operator_inverts_its_own_images(gardner):
    # R = 4*u + 3*eps*u^2 + (2 + 3*eps*u)*u_x*Dxi - Dx^2.  A term a*Dxi*b
    # adds f(a) + f(b) - (1, 0, 0, 0) to the feature of its argument, so
    # each grading of R and R(Q) gives the nonlocal term the weight of the
    # local ones, and the ansatz finds Q again
    R = gardner.operators["R"]
    assert R.nonlocal_terms
    local = [tuple(x + y for x, y in zip(feature(*key), (j, 0, 0, 0)))
             for j, c in R.local_terms.items() for key in stored_terms(c)]
    nonlocal_ = [tuple(x + y - z for x, y, z in zip(feature(*ka), feature(*kb),
                                                    (1, 0, 0, 0)))
                 for a, b in R.nonlocal_terms
                 for ka in stored_terms(a) for kb in stored_terms(b)]
    for name in ("Q1", "Q4", "Kbar1"):
        Q = gardner.characteristics[name]
        image = apply_op(R, Q)
        gradings = engine._gradings(R, image)
        assert span_equals(gradings, [[1, 0, -2, 2], [0, 1, 0, 0]]), name
        for w, _ in gradings:
            assert {weight(w, f) for f in nonlocal_} == {
                weight(w, f) for f in local}, (name, w)
            assert len({weight(w, f) for f in local}) == 1, (name, w)
        assert solve_operator_equation(R, image) == Q, name
