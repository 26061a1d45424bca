import pytest
from hypothesis import given, settings

from jetflow import (ClosureError, Context, DiffPoly, EpsPoly,
                     EvolutionSystem, NotExact, PseudoDiffOp,
                     adjoint, apply_op, commutator, compose, dx_total, euler1,
                     frechet, integrate_x, op_time_derivative)
from jetflow import operators

from conftest import (P, diff_polys, eps_polys, local_ops, nonlocal_ops,
                      skew_ops)


@pytest.fixture(scope="module")
def v(ctx):
    class V:
        u, u1, u2, u3, u4 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3), ctx.u(4)
        x, t, eps = ctx.x, ctx.t, ctx.eps
        one = ctx.one
        Dx = PseudoDiffOp.dx(1)
        Id = PseudoDiffOp.identity(1)
    return V


@pytest.fixture(scope="module")
def gardner_ops(gardner):
    return gardner.operators


def test_frechet(v):
    K = 6 * (v.u + v.eps * v.u ** 2) * v.u1 - v.u3
    D = frechet(K)
    assert D.local_terms[0] == 6 * (1 + 2 * v.eps * v.u) * v.u1
    assert D.local_terms[1] == 6 * (v.u + v.eps * v.u ** 2)
    assert D.local_terms[3] == -v.one
    burgers = frechet(v.u2 + v.eps * v.u1 ** 2)
    assert burgers == PseudoDiffOp.dx(1, 2) + (2 * v.eps * v.u1) * v.Dx
    assert frechet(v.u) == v.Id


def test_apply(v, gardner_ops):
    R = gardner_ops["R"]
    assert apply_op(R, v.eps * v.u1) == v.eps * (6 * v.u * v.u1 - v.u3)
    R1 = v.Dx + PseudoDiffOp.from_poly(v.eps * v.u1)
    assert apply_op(R1, v.eps * v.u1) == v.eps * v.u2
    assert apply_op(v.Dx, v.one).is_zero()


def test_apply_nonlocal_failure_carries_obstruction(v):
    with pytest.raises(NotExact) as err:
        apply_op(PseudoDiffOp.dxi(1), v.u1 ** 2)
    assert err.value.obstruction == -2 * v.u2


def test_compose(v):
    assert compose(v.Dx, v.Dx) == PseudoDiffOp.dx(1, 2)
    DK = PseudoDiffOp.dx(1, 2) + (2 * v.eps * v.u1) * v.Dx
    half_x = PseudoDiffOp.from_poly(v.x / 2)
    result = compose(DK, half_x)
    expected = ((v.x / 2) * PseudoDiffOp.dx(1, 2)
                + (1 + v.eps * v.x * v.u1) * v.Dx
                + PseudoDiffOp.from_poly(v.eps * v.u1))
    assert result == expected
    with pytest.raises(ClosureError):
        compose(v.u * PseudoDiffOp.dxi(1), v.u1 * PseudoDiffOp.dxi(1))


def test_compose_matches_application(v):
    A = v.u * v.Dx + PseudoDiffOp.from_poly(v.u1)
    B = PseudoDiffOp.dx(1, 2) + (v.eps * v.u) * v.Dx
    Q = v.u ** 2 + v.eps * v.u1
    assert apply_op(compose(A, B), Q) == apply_op(A, apply_op(B, Q))


def test_adjoint(v, gardner_ops):
    assert adjoint(v.Dx) == -v.Dx
    A = v.eps * (4 * v.u) * v.Id + (2 * v.u1) * PseudoDiffOp.dxi(1).scale(
        EpsPoly.eps(1)) - PseudoDiffOp.dx(1, 2).scale(EpsPoly.eps(1))
    star = adjoint(A)
    expected = (v.eps * (4 * v.u) * v.Id
                - PseudoDiffOp({}, ((2 * v.one, v.eps * v.u1),), 1)
                - PseudoDiffOp.dx(1, 2).scale(EpsPoly.eps(1)))
    assert star == expected
    E = gardner_ops["E"]
    assert adjoint(E) == -E


def test_commutator(v):
    DK = PseudoDiffOp.dx(1, 2) + (2 * v.eps * v.u1) * v.Dx
    R1 = v.Dx + PseudoDiffOp.from_poly(v.eps * v.u1)
    assert commutator(DK, R1) == PseudoDiffOp.from_poly(v.eps * v.u3)
    assert commutator(v.Dx, PseudoDiffOp.dx(1, 3)).is_zero()
    half_x = PseudoDiffOp.from_poly(v.x / 2)
    assert commutator(DK, half_x) == R1


def test_op_time_derivative(v, gardner_ops, gardner_sys):
    burgers = EvolutionSystem(v.u2 + v.eps * v.u1 ** 2)
    R1 = v.Dx + PseudoDiffOp.from_poly(v.eps * v.u1)
    assert op_time_derivative(R1, burgers) == PseudoDiffOp.from_poly(v.eps * v.u3)
    assert op_time_derivative(v.Dx, burgers).is_zero()
    # the Gardner recursion operator's time derivative, written out in full
    Rt = op_time_derivative(gardner_ops["R"], gardner_sys)
    local = (12 * v.u * v.u1 * (2 + 5 * v.eps * v.u)
             - (4 + 6 * v.eps * v.u) * v.u3)
    integrand = (6 * v.u * v.u2 * (2 + 5 * v.eps * v.u)
                 + 12 * v.u1 ** 2 * (1 + 5 * v.eps * v.u)
                 - v.u4 * (2 + 3 * v.eps * v.u)
                 - 3 * v.eps * v.u1 * v.u3)
    expected = PseudoDiffOp({0: local}, ((integrand, v.one),), 1)
    assert Rt == expected


def test_nonlocal_normalization_merges_rational_multiples(v):
    A = PseudoDiffOp({}, ((v.u, 2 * v.u1), (v.u ** 2, v.u1)), 1)
    B = PseudoDiffOp({}, ((2 * v.u + v.u ** 2, v.u1),), 1)
    assert A == B
    C = PseudoDiffOp({}, ((v.u, v.u1), (-v.u, v.u1)), 1)
    assert C.is_zero()
    # eps moves onto the left factor, and terms whose b's share monomials
    # merge once the eps-free monomials of b are summed
    A = PseudoDiffOp({}, ((v.u1, v.eps * v.u),), 1)
    assert A.nonlocal_terms == ((v.eps * v.u1, v.u),)
    B = PseudoDiffOp({}, ((v.u1, v.u + v.u2), (v.u1, v.u - v.u2)), 1)
    assert B == PseudoDiffOp({}, ((2 * v.u1, v.u),), 1)
    # sum c_i*eps*u_x*Dxi*b_i with sum c_i*b_i = 0, the shape of the old
    # false residual of the textbook Gardner recursion operator
    C = PseudoDiffOp({}, ((v.eps * v.u1, v.u * v.u1 + v.eps * v.u2),
                          (-v.eps * v.u1, v.u * v.u1 + 2 * v.eps * v.u2)), 1)
    assert C.is_zero()


def test_apply_puts_the_eps_factor_back_on_b(v):
    # eps*u_x*Dxi*u integrates eps*u*Q: for Q = u*u_x + eps*u^2*u_xx that is
    # eps*u^2*u_x mod eps^2, though u*Q alone is not exact
    A = PseudoDiffOp({}, ((v.eps * v.u1, v.u),), 1)
    Q = v.u * v.u1 + v.eps * v.u ** 2 * v.u2
    assert apply_op(A, Q) == v.eps * v.u1 * v.u ** 3 / 3
    # and an obstruction keeps the eps factor
    with pytest.raises(NotExact) as err:
        apply_op(A, v.u * v.u2)
    assert err.value.obstruction == euler1(v.eps * v.u ** 2 * v.u2)
    assert not err.value.obstruction.is_zero()


def test_apply_integrates_a_split_b_as_one(v):
    # Dxi*(u + eps*u_x) is stored as one term, so u + eps*u_x is integrated
    # against Q as a whole, though u*Q alone is not exact
    Q = v.u1 + v.eps * v.u2
    A = PseudoDiffOp({}, ((v.one, v.u + v.eps * v.u1),), 1)
    assert len(A.nonlocal_terms) == 1
    assert apply_op(A, Q) == v.u ** 2 / 2 + v.eps * v.u * v.u1
    # left factors 1 + eps and eps: one Dxi, though they differ by more
    # than a power of eps
    B = PseudoDiffOp({}, ((v.one, (1 + v.eps) * v.u + v.eps * v.u1),), 1)
    assert apply_op(B, Q) == (v.u ** 2 / 2
                              + v.eps * (v.u * v.u1 + v.u ** 2 / 2))


@settings(max_examples=100, deadline=None)
@given(diff_polys(max_terms=2, max_degree=2, max_jet_order=2, with_xt=False),
       diff_polys(max_terms=3, max_degree=2, max_jet_order=2, with_xt=False))
def test_apply_matches_termwise_integration(a, q):
    # q*D_x(q) is exact, so a*Dxi*q applies to D_x(q) however the canonical
    # form splits q by the eps powers of its terms
    A = PseudoDiffOp({}, ((a, q),), q.eps_order)
    Q = dx_total(q)
    assert apply_op(A, Q) == a * integrate_x(q * Q)


def _expand(pairs, p):
    """sum a*Dxi*b as {(m, n, e): c} over the eps-free monomials m of a and
    n of b, truncated at eps^p."""
    out = {}
    for a, b in pairs:
        for m, ca in a.terms.items():
            for n, cb in b.terms.items():
                for i, x in enumerate(ca.coeffs):
                    for j, y in enumerate(cb.coeffs):
                        if i + j <= p and x * y:
                            out[m, n, i + j] = out.get((m, n, i + j), 0) + x * y
    return {key: c for key, c in out.items() if c}


def _shape(b):
    """b without its lowest eps power, scaled to 1 at its smallest key."""
    flat = {(n, e): c for n, cb in b.terms.items()
            for e, c in enumerate(cb.coeffs) if c}
    k = min(e for _, e in flat)
    lead = flat[min(flat)]
    return {(n, e - k): c / lead for (n, e), c in flat.items()}


@settings(max_examples=100, deadline=None)
@given(nonlocal_ops(), nonlocal_ops(), eps_polys(nonzero=True))
def test_stored_nonlocal_terms_are_the_written_tensor(A, B, c):
    # stored terms of A, and those of B with their factors swapped and c
    # moved onto the right factor, written as one operator
    written = [*A.nonlocal_terms, *((b, a * c) for a, b in B.nonlocal_terms)]
    stored = PseudoDiffOp({}, written, P).nonlocal_terms
    assert _expand(stored, P) == _expand(written, P)
    assert PseudoDiffOp({}, stored, P).nonlocal_terms == stored
    shapes = [_shape(b) for _, b in stored]
    assert all(x != y for i, x in enumerate(shapes) for y in shapes[i + 1:])
    firsts = [min(a.terms) for a, _ in stored]
    assert firsts == sorted(firsts)


def test_left_monomials_whose_b_differ_by_eps_share_a_term(v):
    # the nonlocal part of the paper's R: u_x and u*u_x have right factors
    # 2 and 3*eps, which agree up to a rational multiple and a power of eps
    a = (2 + 3 * v.eps * v.u) * v.u1
    assert PseudoDiffOp({}, ((a, v.one),), 1).nonlocal_terms == ((a, v.one),)
    # the textbook Rt's 2*u_x*Dxi + 4*eps*u_x*Dxi*u is one term
    Rt = PseudoDiffOp({}, ((2 * v.u1, v.one), (4 * v.eps * v.u1, v.u)), 1)
    assert Rt.nonlocal_terms == ((2 * v.u1, 1 + 2 * v.eps * v.u),)


def _apply_counting_integrations(A, Q):
    """apply_op(A, Q) and the number of integrate_x calls it made."""
    calls = []

    def counting(poly):
        calls.append(poly)
        return integrate_x(poly)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "integrate_x", counting)
        return apply_op(A, Q), len(calls)


@settings(max_examples=50, deadline=None)
@given(nonlocal_ops())
def test_apply_integrates_once_per_stored_term(A):
    zero = DiffPoly.zero(P)
    assert _apply_counting_integrations(A, zero) == (zero, len(A.nonlocal_terms))


def test_apply_integrates_each_of_two_terms_once(v):
    A = PseudoDiffOp({}, ((v.u, v.u1), (v.u1, v.one)), 1)
    assert len(A.nonlocal_terms) == 2
    assert _apply_counting_integrations(A, v.one) == (v.u ** 2 + v.x * v.u1, 2)


@settings(max_examples=100, deadline=None)
@given(nonlocal_ops(), diff_polys(max_terms=2, max_degree=2, max_jet_order=2,
                                  with_xt=False))
def test_splitting_b_leaves_the_operator_unchanged(A, part):
    if not A.nonlocal_terms:
        return
    (a, b), *rest = A.nonlocal_terms
    split = PseudoDiffOp(A.local_terms, [(a, part), (a, b - part), *rest],
                         A.eps_order)
    assert split == A


@settings(max_examples=100, deadline=None)
@given(nonlocal_ops(), nonlocal_ops())
def test_adding_and_subtracting_returns_the_operator(A, B):
    assert (A + B) - B == A


@settings(max_examples=100, deadline=None)
@given(nonlocal_ops(), local_ops(), diff_polys(max_terms=2))
def test_negations_and_sums_with_a_local_side_are_canonical(A, L, f):
    # what they build is already in the nonlocal normal form, so
    # normalising it again must change nothing
    for op in (-A, A + L, L + A, A - L, L - A, A + f, f - A,
               PseudoDiffOp.from_poly(f)):
        assert op == PseudoDiffOp(op.local_terms, op.nonlocal_terms, P)


def test_scalar_only(v):
    with pytest.raises(TypeError):
        Context(eps_order=1, num_components=2)
    K = 6 * v.u * v.u1 - v.u3
    with pytest.raises(TypeError):
        EvolutionSystem([K, K])


def test_operator_linear_structure(v):
    A = v.u * v.Dx
    B = PseudoDiffOp.dx(1, 3)
    assert A + B - B == A
    assert (A - A).is_zero()
    assert (-A) + A == PseudoDiffOp.zero(1)
    assert (A * 2).local_terms[1] == 2 * v.u
    assert A ** 2 == compose(A, A)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_power_of_a_pure_dx_equals_the_composed_power(p):
    for j in range(4):
        A = PseudoDiffOp.dx(p, j)
        for n in range(7):
            composed = PseudoDiffOp.identity(p)
            for _ in range(n):
                composed = compose(composed, A)
            assert A ** n == composed == PseudoDiffOp.dx(p, j * n), (j, n)


@settings(max_examples=200, deadline=None)
@given(nonlocal_ops())
def test_adjoint_involution(A):
    assert adjoint(adjoint(A)) == A


@settings(max_examples=150, deadline=None)
@given(local_ops(), local_ops())
def test_adjoint_antihomomorphism_local(A, B):
    assert adjoint(compose(A, B)) == compose(adjoint(B), adjoint(A))


@settings(max_examples=100, deadline=None)
@given(nonlocal_ops(), local_ops(max_order=2))
def test_adjoint_antihomomorphism_mixed(A, B):
    assert adjoint(compose(A, B)) == compose(adjoint(B), adjoint(A))


@settings(max_examples=100, deadline=None)
@given(local_ops(max_order=2), local_ops(max_order=2),
       diff_polys(max_terms=2, max_degree=2, max_jet_order=2))
def test_compose_application_compatibility(A, B, Q):
    assert apply_op(compose(A, B), Q) == apply_op(A, apply_op(B, Q))


@settings(max_examples=100, deadline=None)
@given(diff_polys(max_terms=2, max_degree=2, max_jet_order=2), nonlocal_ops(),
       diff_polys(max_terms=2, max_degree=2, max_jet_order=2))
def test_multiplication_operator_composes_like_the_general_case(f, B, Q):
    # linear in the left factor, whether or not it has a term of order > 0
    F, Dx = PseudoDiffOp.from_poly(f), PseudoDiffOp.dx(P)
    assert compose(F, B) == compose(F + Dx, B) - compose(Dx, B)
    if B.is_local():
        assert apply_op(compose(F, B), Q) == f * apply_op(B, Q)


@settings(max_examples=60, deadline=None)
@given(local_ops(max_order=2, coeff_terms=1), local_ops(max_order=2, coeff_terms=1),
       local_ops(max_order=2, coeff_terms=1))
def test_jacobi_identity_local(A, B, C):
    total = (commutator(commutator(A, B), C)
             + commutator(commutator(B, C), A)
             + commutator(commutator(C, A), B))
    assert total.is_zero()


@settings(max_examples=80, deadline=None)
@given(skew_ops(), diff_polys(max_terms=2, max_degree=2, max_jet_order=2),
       diff_polys(max_terms=2, max_degree=2, max_jet_order=2))
def test_skew_operators_have_exact_symmetric_pairing(A, Pp, Q):
    density = Pp * apply_op(A, Q) + Q * apply_op(A, Pp)
    assert euler1(density).is_zero()


def test_non_skew_pairing_counterexample(v):
    A = PseudoDiffOp.dx(1, 2)
    density = v.u * apply_op(A, v.u) * 2
    assert not euler1(density).is_zero()
