"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Symbolic checks use exact equality in Q[eps]/(eps^2) and equality modulo
total x-derivatives for densities.  Run with `pytest tests/test_acceptance.py
-v -s` to see one line per criterion.
"""

import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings

from jetflow import (Context, EpsPoly, GridSpec,
                     NotExact, PseudoDiffOp, adjoint, apply_op,
                     check_conservation, check_recursion_operator,
                     check_symmetry, commutator, compose, dx_total, euler1,
                     frechet, generate_hierarchy, integrate_pde, integrate_x,
                     load_fixture, max_drift, monitor_functional,
                     noether_inverse, op_time_derivative, pair_check,
                     prolong_apply, sech_squared_profile)
from jetflow.hamiltonian import ham_vector_field, poisson_bracket

from conftest import diff_polys, local_ops, nonlocal_ops


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}", file=sys.stderr)
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


@pytest.fixture(scope="module")
def V():
    ctx = Context(eps_order=1)

    class V:
        u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
        u4, u5, u7 = ctx.u(4), ctx.u(5), ctx.u(7)
        x, t, eps = ctx.x, ctx.t, ctx.eps
        Dx = PseudoDiffOp.dx(1)
        g = load_fixture("gardner")
        pb = load_fixture("potential_burgers")

    V.gsys = V.g.systems["gardner"]
    V.bsys = V.pb.systems["potential_burgers"]
    V.E = V.g.operators["E"]
    V.R = V.g.operators["R"]
    return V


def test_criterion_01_gardner_hamiltonian_forms(V):
    with criterion(1, "Gardner Hamiltonian forms (both structures, exact)"):
        density = V.u ** 3 + V.eps / 2 * V.u ** 4 + V.u1 ** 2 / 2
        grad = euler1(density)
        K = V.gsys.rhs
        assert grad == 3 * V.u ** 2 + 2 * V.eps * V.u ** 3 - V.u2
        assert dx_total(grad) == K
        assert apply_op(V.E, V.u) == K


def test_criterion_02_all_characteristics_are_symmetries(V):
    with criterion(2, "7 Gardner + 12 potential-Burgers characteristics "
                      "pass the symmetry check with exact zero residual"):
        for i in range(1, 8):
            report = check_symmetry(V.g.characteristics[f"Q{i}"], V.gsys)
            assert report.passed and report.residual.is_zero(), f"gardner Q{i}"
        for i in range(1, 13):
            report = check_symmetry(V.pb.characteristics[f"Q{i}"], V.bsys)
            assert report.passed and report.residual.is_zero(), f"burgers Q{i}"


def test_criterion_03_noether_inverse_first_structure(V):
    with criterion(3, "noether_inverse under D_x reproduces P1,P2,P4,P5,P6; "
                      "all conserved"):
        for i in (1, 2, 4, 5, 6):
            F = noether_inverse(V.g.characteristics[f"Q{i}"], V.Dx)
            assert F.equivalent(V.g.densities[f"P{i}"]), f"P{i}"
            assert check_conservation(F, V.gsys).passed, f"P{i}"


def test_criterion_04_ansatz_solver_second_structure(V):
    with criterion(4, "bounded ansatz verifies Q_i = E(delta Pt_i) for "
                      "i in {2,4,5,7}"):
        for i in (2, 4, 5, 7):
            Q = V.g.characteristics[f"Q{i}"]
            fixture = V.g.densities[f"Pt{i}"]
            assert apply_op(V.E, euler1(fixture.density)) == Q, f"Pt{i}"
            F = noether_inverse(Q, V.E)
            assert F.equivalent(fixture), f"Pt{i}"


def test_criterion_05_generated_hamiltonian_symmetry(V):
    with criterion(5, "E(delta P5) equals the printed Qbar5 exactly and "
                      "inverts to Pbar5 under D_x"):
        Qbar5 = ham_vector_field(V.E, V.g.densities["P5"])
        expected = V.eps * (V.u5 - 10 * V.u * V.u3 - 20 * V.u1 * V.u2
                            + 30 * V.u ** 2 * V.u1)
        assert Qbar5 == expected
        assert Qbar5 == V.g.characteristics["Qbar5"]
        F = noether_inverse(Qbar5, V.Dx)
        assert F.equivalent(V.g.densities["Pbar5"])


def test_criterion_06_potential_burgers_recursion(V):
    with criterion(6, "potential Burgers: commutator identity, recursion "
                      "operators R1, R2, eps*R1, and R1(Q12), all exact"):
        K = V.bsys.rhs
        R1 = V.pb.operators["R1"]
        R2 = V.pb.operators["R2"]
        eps_u3 = PseudoDiffOp.from_poly(V.eps * V.u3)
        assert commutator(frechet(K), R1) == eps_u3
        assert op_time_derivative(R1, V.bsys) == eps_u3
        assert check_recursion_operator(R1, V.bsys).passed
        assert check_recursion_operator(R2, V.bsys).passed
        assert check_recursion_operator(R1.scale(EpsPoly.eps(1)), V.bsys).passed
        image = apply_op(R1, V.pb.characteristics["Q12"])
        assert image == V.eps * ((V.x ** 2 + 6 * V.t) * V.u1
                                 + 2 * V.x * (V.u + 2 * V.t * V.u2)
                                 + 4 * V.t ** 2 * V.u3)


def test_criterion_07_hamiltonian_pair(V):
    with criterion(7, "pair_check(D_x, E) holds at p = 1"):
        assert pair_check(V.Dx, V.E) is True


def test_criterion_08_barred_hierarchy(V):
    with criterion(8, "hierarchy from Kbar1: exact Kbar2, Kbar3; Hbar2, Hbar3 "
                      "mod D_x; symmetries and pairwise involution"):
        result = generate_hierarchy(V.R, V.g.characteristics["Kbar1"], 2,
                                    V.g.operators["D"], V.gsys)
        assert result.stopped_at is None
        K2 = V.eps * (V.u5 - 10 * V.u * V.u3 - 20 * V.u1 * V.u2
                      + 30 * V.u ** 2 * V.u1)
        K3 = V.eps * (-V.u7 + 14 * V.u * V.u5 + 42 * V.u1 * V.u4
                      + 70 * (V.u2 * V.u3 - V.u ** 2 * V.u3
                              + 2 * V.u ** 3 * V.u1
                              - 4 * V.u * V.u1 * V.u2 - V.u1 ** 3))
        assert result.flows[1] == K2 and result.flows[2] == K3
        assert result.functionals[1].equivalent(V.g.densities["Hbar2"])
        assert result.functionals[2].equivalent(V.g.densities["Hbar3"])
        for flow in result.flows:
            assert check_symmetry(flow, V.gsys).passed
        second = compose(V.R, V.g.operators["D"])
        for i, F in enumerate(result.functionals):
            for G in result.functionals[i + 1:]:
                assert poisson_bracket(F, G, V.g.operators["D"]).is_null()
                assert poisson_bracket(F, G, second).is_null()
        assert result.all_passed


def test_criterion_09_unbarred_hierarchy_obstruction(V):
    with criterion(9, "hierarchy from the Gardner RHS yields the printed K2 "
                      "and stops with a non-exactness obstruction"):
        result = generate_hierarchy(V.R, V.gsys.rhs, 2,
                                    V.g.operators["D"], V.gsys)
        assert len(result.flows) == 2
        assert result.flows[1].eps_component(1) == (
            55 * V.u ** 3 * V.u1 - 39 * V.u * V.u1 * V.u2
            - 9 * V.u ** 2 * V.u3 - 12 * V.u1 ** 3)
        assert result.stopped_at is not None
        _, obstruction = result.stopped_at
        assert not obstruction.is_zero()
        assert obstruction == euler1(result.flows[1])
        with pytest.raises(NotExact):
            apply_op(V.R, result.flows[1])


# -- criterion 10: randomized property suites, >= 1000 cases each ----------

N_CASES = 1000
prop_settings = settings(max_examples=N_CASES, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.data_too_large,
                                                HealthCheck.filter_too_much])


@prop_settings
@given(diff_polys())
def test_criterion_10a_euler_annihilates_exact_terms(p):
    assert euler1(dx_total(p)).is_zero()


@prop_settings
@given(diff_polys())
def test_criterion_10b_integrate_then_differentiate(p):
    exact = dx_total(p)
    assert dx_total(integrate_x(exact)) == exact


@prop_settings
@given(nonlocal_ops())
def test_criterion_10c_adjoint_involution(A):
    assert adjoint(adjoint(A)) == A


@prop_settings
@given(local_ops(max_order=2, coeff_terms=2), local_ops(max_order=2, coeff_terms=2))
def test_criterion_10d_adjoint_antihomomorphism(A, B):
    assert adjoint(compose(A, B)) == compose(adjoint(B), adjoint(A))


@prop_settings
@given(diff_polys(max_terms=2), diff_polys(max_terms=2))
def test_criterion_10e_frechet_prolongation_identity(q, p):
    assert prolong_apply(q, p) == apply_op(frechet(p), q)


@prop_settings
@given(local_ops(max_order=1, coeff_terms=1, coeff_degree=2),
       local_ops(max_order=2, coeff_terms=1, coeff_degree=1),
       local_ops(max_order=1, coeff_terms=1, coeff_degree=2))
def test_criterion_10f_jacobi_identity_for_commutators(A, B, C):
    total = (commutator(commutator(A, B), C)
             + commutator(commutator(B, C), A)
             + commutator(commutator(C, A), B))
    assert total.is_zero()


def test_criterion_10_report():
    with criterion(10, f"six property suites at {N_CASES} randomized cases "
                       "each (euler/dx, integrate/dx, adjoint involution, "
                       "adjoint anti-homomorphism, Frechet identity, Jacobi)"):
        pass


# -- criterion 11: numeric drift scaling ------------------------------------


def test_criterion_11_numeric_drift(V):
    with criterion(11, "numeric: P5 drift shrinks with eps (above the eps=0 "
                       "floor); mass drift < 1e-6 over T_end = 1"):
        start = time.time()
        drifts = {}
        mass_drifts = {}
        for eps in (0.0, 1e-3, 1e-2):
            grid = GridSpec(epsilon=eps)  # defaults: L=40, N=256, dt=1e-4, T=1
            traj = integrate_pde(V.gsys, grid, sech_squared_profile(grid))
            rows = monitor_functional(traj, V.g.densities["P5"], eps_value=1.0)
            drifts[eps] = max_drift(rows)
            mass_rows = monitor_functional(traj, V.g.densities["M"])
            mass_drifts[eps] = max_drift(mass_rows)
        noise_floor = drifts[0.0]
        assert drifts[1e-3] > noise_floor and drifts[1e-2] > noise_floor
        assert drifts[1e-3] < drifts[1e-2]
        assert all(d < 1e-6 for d in mass_drifts.values())
        assert time.time() - start < 120.0
