from fractions import Fraction

import pytest
from hypothesis import strategies as st

from jetflow import (Context, DiffPoly, EpsPoly, Monomial, MultiVector,
                     PseudoDiffOp, adjoint, load_fixture)
from jetflow.jets import _unpack

P = 1  # truncation order used throughout the suite


@pytest.fixture(scope="session")
def ctx():
    return Context(eps_order=P)


@pytest.fixture(scope="session")
def gardner():
    return load_fixture("gardner")


@pytest.fixture(scope="session")
def burgers():
    return load_fixture("potential_burgers")


@pytest.fixture(scope="session")
def gardner_sys(gardner):
    return gardner.systems["gardner"]


@pytest.fixture(scope="session")
def burgers_sys(burgers):
    return burgers.systems["potential_burgers"]


def stored_terms(P):
    """The stored {(monomial, eps degree): value} map of P, each packed
    monomial decoded into its Monomial and each numerator n read as the
    rational n/P._den it stands for."""
    return {(_unpack(m), e): Fraction(c, P._den) for (m, e), c in P._flat.items()}


# ---------------------------------------------------------------------------
# hypothesis strategies

# The 33 rationals in [-4, 4] with denominator at most 3, simplest first so
# that examples shrink towards 0 (sampling is much cheaper than st.fractions).
rationals = st.sampled_from(sorted(
    {Fraction(n, d) for d in (1, 2, 3) for n in range(-4 * d, 4 * d + 1)},
    key=lambda r: (r.denominator, abs(r), r < 0)))


def eps_polys(order=P, nonzero=False):
    base = st.lists(rationals, min_size=order + 1, max_size=order + 1)
    strat = base.map(lambda cs: EpsPoly(cs, order=order))
    if nonzero:
        strat = strat.filter(lambda e: not e.is_zero())
    return strat


@st.composite
def monomials(draw, max_jet_order=4, max_degree=3, with_xt=True):
    degree_budget = draw(st.integers(0, max_degree))
    x = t = 0
    if with_xt:
        x = draw(st.integers(0, min(1, degree_budget)))
        degree_budget -= x
        t = draw(st.integers(0, min(1, degree_budget)))
        degree_budget -= t
    # the jet orders, one per factor, drawn as a single tuple
    n = draw(st.integers(0, degree_budget))
    orders = draw(st.tuples(*[st.integers(0, max_jet_order)] * n))
    jets = {}
    for k in orders:
        jets[k] = jets.get(k, 0) + 1
    return Monomial(x, t, tuple(sorted(jets.items())))


@st.composite
def diff_polys(draw, max_terms=3, max_jet_order=4, max_degree=3,
               with_xt=True, order=P):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        mon = draw(monomials(max_jet_order=max_jet_order,
                             max_degree=max_degree, with_xt=with_xt))
        terms[mon] = draw(eps_polys(order=order))
    return DiffPoly(terms, order)


@st.composite
def local_ops(draw, max_order=3, coeff_terms=2, coeff_degree=2,
              coeff_jet_order=2, order=P):
    terms = {}
    for j in range(max_order + 1):
        include = draw(st.booleans())
        if include:
            terms[j] = draw(diff_polys(max_terms=coeff_terms,
                                       max_jet_order=coeff_jet_order,
                                       max_degree=coeff_degree,
                                       with_xt=False, order=order))
    return PseudoDiffOp(terms, (), order)


@st.composite
def nonlocal_ops(draw, order=P):
    base = draw(local_ops(max_order=2, order=order))
    pairs = []
    if draw(st.booleans()):
        a = draw(diff_polys(max_terms=2, max_jet_order=2, max_degree=2,
                            with_xt=False, order=order))
        b = draw(diff_polys(max_terms=2, max_jet_order=2, max_degree=2,
                            with_xt=False, order=order))
        pairs.append((a, b))
    return PseudoDiffOp(base.local_terms, pairs, order)


def skew_ops(order=P):
    return local_ops(max_order=2, order=order).map(lambda A: A - adjoint(A))


@st.composite
def multivectors(draw, max_parts=3, max_grade=2, order=P):
    """diff_polys coefficients on wedges of up to max_grade distinct theta
    orders 0-3, drawn unsorted so that the Koszul sign is exercised."""
    out = MultiVector.zero(order)
    for _ in range(draw(st.integers(0, max_parts))):
        wedge = draw(st.lists(st.integers(0, 3), unique=True,
                              max_size=max_grade))
        coeff = draw(diff_polys(max_terms=2, order=order))
        out = out + MultiVector.from_poly(coeff, tuple(wedge))
    return out


# Model text from a small grammar of declarations and expressions, with a few
# random characters inserted; strings drawn lexeme by lexeme rarely form the
# expressions that reach the algebra, such as Dx/2.
expressions = st.recursive(
    st.sampled_from(["u", "u_x", "u_xxx", "u{2}", "u{65}", "x", "t", "eps",
                     "Dx", "Dxi", "0", "1", "2", "10", "A", "Q", "H", "zz"]),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*/"), e).map(" ".join),
        st.tuples(e, st.sampled_from("0123")).map("^".join),
        e.map("({})".format),
        e.map("-{}".format)),
    max_leaves=8)
declarations = st.one_of(
    st.tuples(st.sampled_from(["eps_order", "max_jet_order", "speed"]),
              st.sampled_from(["0", "1", "2", "65"]))
    .map("set {0[0]} = {0[1]};".format),
    st.tuples(st.sampled_from(["system s {{ rhs: {}; }}", "operator A {{ {} }}",
                               "char Q = {};", "density H = {};"]),
              expressions).map(lambda p: p[0].format(p[1])))


@st.composite
def model_texts(draw):
    text = "\n".join(draw(st.lists(declarations, max_size=4)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(
            ["²", "٣", "é", "$", "u{", "{", ";", "#", "\n", " "])) + text[i:]
    return text
