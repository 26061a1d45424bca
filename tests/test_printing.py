"""The printer renders every value exactly as the reference renderer does.

`reference_printing` is the renderer before each term was rendered in one
pass from its packed key.  The values drawn here cover what the two could
disagree on: Fraction coefficients, terms of several eps degrees, the
`eps^k*(...)` prefix of a polynomial whose terms share one eps degree, x
and t powers, jets u{k} with k > 4, and local and nonlocal operators.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_printing as reference
from jetflow import DiffPoly, EpsPoly, Monomial, PseudoDiffOp
from jetflow.printing import format_eps_poly, format_operator, format_poly

from conftest import rationals

ORDERS = (0, 1, 3)


@st.composite
def monomials(draw):
    jets = draw(st.dictionaries(st.integers(0, 7), st.integers(1, 3),
                                max_size=3))
    return Monomial(draw(st.integers(0, 3)), draw(st.integers(0, 2)),
                    tuple(sorted(jets.items())))


@st.composite
def polys(draw, p, max_terms=4):
    """A polynomial of order p.  Half of them have all their terms at one
    eps degree, the shape printed with an `eps^k*(...)` prefix."""
    shared = draw(st.none() | st.integers(0, p))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        coeffs = [0] * (p + 1)
        for e in ([shared] if shared is not None else range(p + 1)):
            coeffs[e] = draw(rationals)
        terms[draw(monomials())] = EpsPoly(coeffs, order=p)
    return DiffPoly(terms, p)


@st.composite
def operators(draw, p):
    local = draw(st.dictionaries(st.integers(0, 4), polys(p, 2), max_size=3))
    nonlocal_terms = draw(st.lists(st.tuples(polys(p, 2), polys(p, 2)),
                                   max_size=2))
    return PseudoDiffOp(local, nonlocal_terms, p)


@pytest.mark.parametrize("p", ORDERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_polynomials_print_as_the_reference(p, data):
    P = data.draw(polys(p))
    for latex in (False, True):
        assert format_poly(P, latex) == reference.format_poly(P, latex)


@pytest.mark.parametrize("p", ORDERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operators_print_as_the_reference(p, data):
    A = data.draw(operators(p))
    for latex in (False, True):
        assert format_operator(A, latex) == reference.format_operator(A, latex)


@pytest.mark.parametrize("p", ORDERS)
@given(data=st.data())
def test_eps_polynomials_print_as_the_reference(p, data):
    c = EpsPoly(data.draw(st.lists(rationals, min_size=p + 1,
                                   max_size=p + 1)), order=p)
    for latex in (False, True):
        assert format_eps_poly(c, latex) == reference.format_eps_poly(c, latex)
