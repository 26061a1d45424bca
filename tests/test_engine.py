from itertools import combinations
from pathlib import Path

import pytest

from jetflow import (Context, DiffPoly, EpsPoly, EvolutionSystem,
                     Functional, NotExact, NotInImage, NotVariational,
                     PseudoDiffOp, ResourceLimit, apply_op, check_conservation,
                     check_recursion_operator, check_symmetry, compose,
                     dt_total, dx_total, euler1, frechet, generate_hierarchy,
                     noether_inverse, parse_model, poisson_bracket,
                     solve_operator_equation)
from jetflow import engine
from jetflow.errors import JetflowError, NotASymmetry

from conftest import stored_terms


MODELS = Path(__file__).parent / "models"


@pytest.fixture(scope="module")
def v(ctx):
    class V:
        u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
        u4, u5, u7 = ctx.u(4), ctx.u(5), ctx.u(7)
        x, t, eps = ctx.x, ctx.t, ctx.eps
        Dx = PseudoDiffOp.dx(1)
    return V


def test_check_symmetry_gardner(v, gardner, gardner_sys):
    for name in ("Q3", "Q7"):
        assert check_symmetry(gardner.characteristics[name], gardner_sys).passed
    report = check_symmetry(v.u, gardner_sys)
    assert not report.passed
    assert report.residual == -6 * (v.u + 2 * v.eps * v.u ** 2) * v.u1


def test_check_conservation(v, gardner, gardner_sys):
    r1 = check_conservation(gardner.densities["P1"], gardner_sys)
    assert r1.passed
    flux = r1.certificates["flux"]
    assert (dt_total(gardner.densities["P1"].density, gardner_sys)
            + dx_total(flux)).is_zero()
    assert check_conservation(gardner.densities["P6"], gardner_sys).passed
    # D_t(u_x) = D_x(u_t) makes u_x trivially conserved with flux -K
    r3 = check_conservation(Functional(v.u1), gardner_sys)
    assert r3.passed
    assert r3.certificates["flux"] == -gardner_sys.rhs
    # a density that is not conserved
    bad = check_conservation(Functional(v.u ** 3), gardner_sys)
    assert not bad.passed
    assert not bad.residual.is_zero()
    # a failure reports the Euler derivative of D_t(T), a pass the zero
    # polynomial
    assert bad.residual == euler1(dt_total(v.u ** 3, gardner_sys))
    assert isinstance(r1.residual, DiffPoly)
    assert r1.residual.is_zero()


def test_noether_inverse_dx(v, gardner, gardner_sys):
    expectations = {
        "Q1": gardner.densities["P1"],
        "Q2": gardner.densities["P2"],
        "Q4": gardner.densities["P4"],
        "Q5": gardner.densities["P5"],
        "Q6": gardner.densities["P6"],
    }
    for char, density in expectations.items():
        F = noether_inverse(gardner.characteristics[char], v.Dx)
        assert F.equivalent(density), char
        assert check_conservation(F, gardner_sys).passed, char


def test_noether_inverse_failures(v):
    with pytest.raises(NotInImage) as err:
        noether_inverse(v.u, v.Dx)
    assert err.value.obstruction == 1
    with pytest.raises(NotVariational) as err:
        noether_inverse(dx_total(v.u1 ** 2), v.Dx)
    assert str(err.value) == "preimage is not a variational derivative"
    assert err.value.obstruction == v.u1 ** 2


def test_noether_inverse_ansatz_second_structure(v, gardner):
    E = gardner.operators["E"]
    expectations = {
        "Q2": gardner.densities["Pt2"],
        "Q4": gardner.densities["Pt4"],
        "Q5": gardner.densities["Pt5"],
        "Q7": gardner.densities["Pt7"],
    }
    for char, density in expectations.items():
        F = noether_inverse(gardner.characteristics[char], E)
        assert F.equivalent(density), char
        # and the fixture functionals solve E(delta P) = Q directly
        assert apply_op(E, euler1(density.density)) == \
            gardner.characteristics[char], char


def test_solve_operator_equation_unsolvable(v, gardner):
    E = gardner.operators["E"]
    assert solve_operator_equation(E, v.x) is None


def test_solve_operator_equation_through_dxi(v):
    # a preimage under an operator with no local part has one jet order
    # more than the image: Dxi(u_xx) = u_x
    Dxi = PseudoDiffOp.dxi(1)
    assert solve_operator_equation(Dxi, v.u1) == v.u2
    assert solve_operator_equation(Dxi, v.eps * v.u3) == v.eps * v.u4


def test_hierarchy_step_cap(gardner, gardner_sys, monkeypatch):
    R, D = gardner.operators["R"], gardner.operators["D"]
    seed = gardner.characteristics["Kbar1"]
    monkeypatch.setattr(engine, "MAX_HIERARCHY_STEPS", 1)
    assert len(generate_hierarchy(R, seed, 1, D, gardner_sys).flows) == 2

    def residual(*args):
        raise AssertionError("a residual was computed")

    monkeypatch.setattr(engine, "check_symmetry", residual)
    with pytest.raises(ResourceLimit, match="2 hierarchy steps exceed the "
                                            "cap 1"):
        generate_hierarchy(R, seed, 2, D, gardner_sys)
    with pytest.raises(ValueError, match="must be non-negative"):
        generate_hierarchy(R, seed, -1, D, gardner_sys)


def test_ansatz_monomial_cap(v, gardner, monkeypatch):
    # E(1 + u + t) has t-degrees 0 and 1 and (1, 0, -2, 2)-weights 3 and 5,
    # so no grading of E keeps it homogeneous and the basis stays dense.
    # Its first order tier (jet order 3 - 3 = 0) has the C(3 + 4, 4) = 35
    # monomials in x, t, u of degree <= 4, times 2 eps degrees: 70 pairs
    E = gardner.operators["E"]
    Q = apply_op(E, 1 + v.u + v.t)
    monkeypatch.setattr(engine, "MAX_ANSATZ_MONOMIALS", 70)
    assert apply_op(E, solve_operator_equation(E, Q)) == Q
    monkeypatch.setattr(engine, "MAX_ANSATZ_MONOMIALS", 69)

    def applied(*args):
        raise AssertionError("an image was built")

    monkeypatch.setattr(engine, "apply_op", applied)
    with pytest.raises(ResourceLimit, match="an ansatz tier of jet order <= 0 "
                                            "and degree <= 4 has more "
                                            "monomials than the cap 69"):
        solve_operator_equation(E, Q)
    with pytest.raises(ResourceLimit):
        noether_inverse(Q, E)


def test_check_recursion_operator_modes(v, burgers, burgers_sys, gardner,
                                        gardner_sys):
    R1 = burgers.operators["R1"]
    R2 = burgers.operators["R2"]
    assert check_recursion_operator(R1, burgers_sys).passed
    assert check_recursion_operator(R2, burgers_sys).passed
    eps_R1 = R1.scale(EpsPoly.eps(1))
    assert check_recursion_operator(eps_R1, burgers_sys).passed
    # Gardner: the strict operator identity fails at order eps, the
    # eps-scaled operator passes, and the action route verifies R itself
    R = gardner.operators["R"]
    assert not check_recursion_operator(R, gardner_sys).passed
    assert check_recursion_operator(R.scale(EpsPoly.eps(1)), gardner_sys).passed
    seeds = [gardner.characteristics[n] for n in ("Q1", "Q4", "Kbar1")]
    report = check_recursion_operator(R, gardner_sys, mode="action", seeds=seeds)
    assert report.passed
    assert report.certificates["images"][0] == gardner_sys.rhs
    with pytest.raises(ValueError):
        check_recursion_operator(R, gardner_sys, mode="action", seeds=[])
    with pytest.raises(ValueError):
        check_recursion_operator(R, gardner_sys, mode="bogus")


def test_action_mode_fails_at_a_seed_whose_image_is_not_exact(v, gardner,
                                                            gardner_sys):
    # R(Q3) and R(Q7) are undefined: their products with the nonlocal right
    # factor are not exact.  The report fails with the NotExact obstruction,
    # the one the hierarchy stop paths report, and keeps the images before it
    R = gardner.operators["R"]
    Q1, Q3, Q7 = (gardner.characteristics[n] for n in ("Q1", "Q3", "Q7"))
    for seeds, obstruction, images in (
            ([Q3], -2 * v.eps, []),
            ([Q1, Q7], v.eps, [gardner_sys.rhs]),
            ([Q1, Q7, Q3], v.eps, [gardner_sys.rhs])):
        report = check_recursion_operator(R, gardner_sys, mode="action",
                                          seeds=seeds)
        assert not report.passed
        assert report.residual == obstruction
        assert report.certificates["images"] == images


def test_textbook_gardner_recursion_operator_passes(gardner, gardner_sys):
    # Rt = 4u + 4eps u^2 - Dx^2 + 2u_x Dxi + 4eps u_x Dxi u satisfies
    # R_t = [D_K, R] to O(eps); the fixture's R does not, because its
    # nonlocal left factor (2 + 3eps u)u_x is not a symmetry at O(eps)
    model = parse_model((MODELS / "gardner_Rt.jf").read_text())
    report = check_recursion_operator(model.operators["Rt"],
                                      model.systems["gardner"])
    assert report.passed and report.residual.is_zero()
    R = gardner.operators["R"]
    report = check_recursion_operator(R, gardner_sys)
    assert not report.passed
    assert all(e == 1 for c in report.residual.local_terms.values()
               for _, e in stored_terms(c))
    # the nonlocal part of R_t - [D_K, R] is (a_t - D_K(a))*Dxi
    (a, one), = R.nonlocal_terms
    K = gardner_sys.rhs
    expected = dt_total(a, gardner_sys) - apply_op(frechet(K), a)
    assert not expected.is_zero()
    assert report.residual.nonlocal_terms == ((expected, one),)


def test_burgers_double_recursion_yields_a_symmetry_but_not_printed_q3(
        v, burgers, burgers_sys):
    # applying 2*R2 after R1 to Q1 gives a third-order characteristic that
    # is a valid symmetry yet differs from the listed Q3; both sides are
    # checked, the identity itself is not asserted
    R1, R2 = burgers.operators["R1"], burgers.operators["R2"]
    image = 2 * apply_op(R2, apply_op(R1, burgers.characteristics["Q1"]))
    expected = (v.x * v.u2 + v.eps * v.x * v.u1 ** 2 + 2 * v.t * v.u3
                + 6 * v.eps * v.t * v.u1 * v.u2)
    assert image == expected
    assert check_symmetry(image, burgers_sys).passed
    assert image != burgers.characteristics["Q3"]


def test_generate_hierarchy_barred(v, gardner, gardner_sys):
    R = gardner.operators["R"]
    D = gardner.operators["D"]
    seed = gardner.characteristics["Kbar1"]
    result = generate_hierarchy(R, seed, 2, D, gardner_sys)
    assert result.stopped_at is None
    assert len(result.flows) == 3 and len(result.functionals) == 3
    K2 = v.eps * (v.u5 - 10 * v.u * v.u3 - 20 * v.u1 * v.u2
                  + 30 * v.u ** 2 * v.u1)
    K3 = v.eps * (-v.u7 + 14 * v.u * v.u5 + 42 * v.u1 * v.u4
                  + 70 * (v.u2 * v.u3 - v.u ** 2 * v.u3
                          + 2 * v.u ** 3 * v.u1
                          - 4 * v.u * v.u1 * v.u2 - v.u1 ** 3))
    assert result.flows[1] == K2
    assert result.flows[2] == K3
    assert result.functionals[1].equivalent(gardner.densities["Hbar2"])
    assert result.functionals[2].equivalent(gardner.densities["Hbar3"])
    assert result.all_passed


def test_generate_hierarchy_unbarred_stops(v, gardner, gardner_sys):
    R = gardner.operators["R"]
    D = gardner.operators["D"]
    result = generate_hierarchy(R, gardner_sys.rhs, 2, D, gardner_sys)
    assert len(result.flows) == 2
    eps_terms = result.flows[1].eps_component(1)
    assert eps_terms == (55 * v.u ** 3 * v.u1 - 39 * v.u * v.u1 * v.u2
                         - 9 * v.u ** 2 * v.u3 - 12 * v.u1 ** 3)
    assert result.stopped_at is not None
    index, obstruction = result.stopped_at
    assert not obstruction.is_zero()


def test_symmetries_are_order_one_approximations(v):
    # the fixture characteristics solve the criterion modulo eps^2 only;
    # raising the truncation order exposes the order-eps^2 defect
    for p in (1, 2):
        ctx = Context(eps_order=p)
        u, u1, u3 = ctx.u(0), ctx.u(1), ctx.u(3)
        K = 6 * (u + ctx.eps * u ** 2) * u1 - u3
        Q3 = 6 * ctx.t * u1 + 1 - 2 * ctx.eps * u
        sys_p = EvolutionSystem(K)
        report = check_symmetry(Q3, sys_p)
        if p == 1:
            assert report.passed
        else:
            assert not report.passed
            expected = 24 * ctx.eps * ctx.eps * u ** 2 * u1
            assert report.residual == expected
        # exact symmetries stay symmetries at every truncation order
        assert check_symmetry(u1, sys_p).passed
        assert check_symmetry(K, sys_p).passed


def test_generate_hierarchy_extends_past_printed_values(gardner, gardner_sys):
    # one application beyond the paper's table still closes: the fourth flow
    # exists at jet order 9, inverts through D_x, and all checks pass
    result = generate_hierarchy(gardner.operators["R"],
                                gardner.characteristics["Kbar1"], 3,
                                gardner.operators["D"], gardner_sys)
    assert result.stopped_at is None
    assert len(result.flows) == 4
    assert result.flows[3].max_jet_order() == 9
    assert result.all_passed


def test_generate_hierarchy_guards(v, gardner, gardner_sys):
    R = gardner.operators["R"]
    D = gardner.operators["D"]
    with pytest.raises(ValueError):
        generate_hierarchy(R, v.u, 1, D, gardner_sys)
    with pytest.raises(ResourceLimit):
        generate_hierarchy(R, gardner.characteristics["Kbar1"], 2, D,
                           gardner_sys, max_jet_order=6)


def test_hierarchy_seed_that_is_not_a_symmetry(v, gardner, gardner_sys):
    residual = check_symmetry(v.u, gardner_sys).residual
    with pytest.raises(NotASymmetry) as err:
        generate_hierarchy(gardner.operators["R"], v.u, 1,
                           gardner.operators["D"], gardner_sys)
    assert not residual.is_zero()
    assert err.value.obstruction == residual
    assert isinstance(err.value, JetflowError)
    assert isinstance(err.value, ValueError)


def test_hierarchy_second_bracket_not_exact(v, gardner, gardner_sys):
    # With D = E the second bracket R*E is applied to delta H[1], which
    # leaves a non-exact remainder: that pair fails with the obstruction,
    # and the rest of the report is kept.
    R, E = gardner.operators["R"], gardner.operators["E"]
    result = generate_hierarchy(R, gardner.characteristics["Q2"], 1, E,
                                gardner_sys)
    assert len(result.flows) == 2 and len(result.functionals) == 2
    assert result.stopped_at is None
    got = {r.name: r for r in result.reports}
    assert got["involution_D {H[0],H[1]}"].passed
    report = got["involution_E {H[0],H[1]}"]
    assert not report.passed
    with pytest.raises(NotExact) as err:
        apply_op(compose(R, E), euler1(result.functionals[1].density))
    assert report.residual == err.value.obstruction
    assert report.residual == -3 * v.eps * v.u1 * v.u2
    assert "commutation [v[0],v[1]]" in got


def test_hierarchy_involution_matches_poisson_bracket(v, gardner, gardner_sys):
    # every pair passes on the Gardner hierarchy and fails on the R = x + Dxi
    # one of test_hierarchy_tower_reuse_with_failing_checks
    cases = [(gardner.operators["R"], gardner.characteristics["Kbar1"], 3,
              gardner.operators["D"], gardner_sys),
             (PseudoDiffOp.from_poly(v.x) + PseudoDiffOp.dxi(1), v.u1, 3,
              v.Dx, EvolutionSystem(v.u3))]
    # and each residual is the Euler derivative of the bracket density
    for R, seed, steps, D, sys in cases:
        result = generate_hierarchy(R, seed, steps, D, sys)
        got = {r.name: r for r in result.reports}
        for (i, F), (j, G) in combinations(enumerate(result.functionals), 2):
            for name, op in (("D", D), ("E", compose(R, D))):
                report = got[f"involution_{name} {{H[{i}],H[{j}]}}"]
                bracket = poisson_bracket(F, G, op)
                assert report.passed == bracket.is_null()
                assert report.residual == euler1(bracket.density)


def _fresh_symmetry_reports(flows, sys):
    """The hierarchy's symmetry and commutation reports, each from a fresh
    public check_symmetry call."""
    names = ["seed symmetry"] + [f"symmetry K[{i}]"
                                 for i in range(1, len(flows))]
    reports = [check_symmetry(K, sys, name) for K, name in zip(flows, names)]
    for (i, F), (j, G) in combinations(enumerate(flows), 2):
        reports.append(check_symmetry(F, EvolutionSystem(G),
                                      f"commutation [v[{i}],v[{j}]]"))
    return reports


def _assert_reports_match_fresh_checks(result, sys):
    got = {r.name: r for r in result.reports}
    for expected in _fresh_symmetry_reports(result.flows, sys):
        report = got[expected.name]
        assert report.passed == expected.passed, expected.name
        assert report.residual == expected.residual, expected.name


def test_hierarchy_tower_reuse_matches_fresh_checks(gardner, gardner_sys):
    result = generate_hierarchy(gardner.operators["R"],
                                gardner.characteristics["Kbar1"], 4,
                                gardner.operators["D"], gardner_sys)
    assert len(result.flows) == 5
    _assert_reports_match_fresh_checks(result, gardner_sys)


def test_hierarchy_tower_reuse_with_failing_checks(v):
    # R = Dx o x o Dxi maps D_x(x^n u) to D_x(x^(n+1) u): every flow inverts
    # through D_x, but no two flows commute and only the seed is a symmetry
    # of u_t = u_xxx, so every residual but the seed's is nonzero and tells
    # the flows apart.
    R = PseudoDiffOp.from_poly(v.x) + PseudoDiffOp.dxi(1)
    sys = EvolutionSystem(v.u3)
    result = generate_hierarchy(R, v.u1, 3, v.Dx, sys)
    assert result.flows[1] == v.u + v.x * v.u1
    residuals = [r.residual for r in result.reports
                 if r.name.startswith(("symmetry", "commutation"))]
    assert sum(not r.is_zero() for r in residuals) == 9
    _assert_reports_match_fresh_checks(result, sys)


def test_reports_compare_field_wise_and_show_their_fields(v):
    report = engine.CheckReport("seed symmetry", True, v.u1, {"flux": v.u})
    assert report == engine.CheckReport("seed symmetry", True, v.u1,
                                        {"flux": v.u})
    assert report != engine.CheckReport("seed symmetry", False, v.u1,
                                        {"flux": v.u})
    assert report != engine.CheckReport("seed symmetry", True, v.u1)
    assert repr(report) == (f"CheckReport(name='seed symmetry', passed=True, "
                            f"residual={v.u1!r}, certificates={{'flux': "
                            f"{v.u!r}}})")
    result = engine.HierarchyResult([v.u1], [], (0, v.eps), [report])
    assert result == engine.HierarchyResult([v.u1], [], (0, v.eps), [report])
    assert result != engine.HierarchyResult([v.u1], [], None, [report])
    assert result != report
    assert repr(result) == (f"HierarchyResult(flows=[{v.u1!r}], "
                            f"functionals=[], stopped_at=(0, {v.eps!r}), "
                            f"reports=[{report!r}], assumptions=())")
