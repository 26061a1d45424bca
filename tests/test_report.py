import json

import pytest

from jetflow import (CheckReport, Functional, check_conservation,
                     format_poly, generate_hierarchy, load_fixture,
                     parse_model, print_model)
from jetflow.engine import NONDEGENERACY_ASSUMPTION
from jetflow.hamiltonian import MultiVector, bivector_of
from jetflow.operators import PseudoDiffOp
from jetflow.printing import format_eps_poly, format_operator, format_value
from jetflow.report import emit_report, model_hash
from jetflow.ring import EpsPoly


def test_latex_matches_paper_style(ctx):
    u, u1, u3 = ctx.u(0), ctx.u(1), ctx.u(3)
    eps = ctx.eps
    kbar1 = eps * (6 * u * u1 - u3)
    assert format_poly(kbar1, latex=True) == "\\varepsilon(6uu_x - u_{xxx})"
    assert format_poly(u ** 3 + u1 ** 2 / 2, latex=True) == \
        "u^{3} + \\frac{1}{2}u_x^{2}"


def test_latex_eps_is_spaced_from_a_following_letter(ctx):
    # "\\varepsilonu" would be one undefined control word to TeX
    u, eps = ctx.u(0), ctx.eps
    assert format_poly(3 * eps * u, latex=True) == "3\\varepsilon u"
    assert format_poly(3 * eps * u) == "3*eps*u"
    assert format_operator(PseudoDiffOp.from_poly(eps * u) + PseudoDiffOp(
        {1: eps}), latex=True) == "\\varepsilon u + \\varepsilon D_x"
    assert format_operator(PseudoDiffOp({}, ((eps, u),)), latex=True) == \
        "\\varepsilon D_x^{-1}u"
    # no space where no letter follows
    assert format_poly(eps * (u + 1), latex=True) == "\\varepsilon(1 + u)"
    assert format_eps_poly(EpsPoly((1, 1)), latex=True) == "1 + \\varepsilon"


def test_eps_poly_rendering():
    assert format_eps_poly(EpsPoly((8, 22))) == "8 + 22*eps"
    assert format_eps_poly(EpsPoly((1, -1))) == "1 - eps"
    assert format_eps_poly(EpsPoly.zero(1)) == "0"
    assert format_eps_poly(EpsPoly((0, 1))) == "eps"
    assert format_eps_poly(EpsPoly((0, 0, -3), order=2)) == "-3*eps^2"


def test_multivector_rendering(ctx):
    assert format_value(MultiVector.zero(1)) == "0"
    assert format_value(MultiVector.zero(1), latex=True) == "0"
    half = bivector_of(PseudoDiffOp.dx(1, 1))  # (1/2) theta ^ theta_x
    assert format_value(half) == "1/2*theta_0 ^ theta_1"
    assert (format_value(half, latex=True)
            == "\\frac{1}{2}\\theta_{0}\\wedge\\theta_{1}")
    u, eps = ctx.u, ctx.eps
    # a scalar part comes first; a wedge given out of order is sorted with
    # its sign folded into the coefficient
    W = (MultiVector.from_poly(-u(0) - eps * u(1))
         + MultiVector.from_poly(-eps * u(1), (2, 0)) - half.scale(4)
         + MultiVector.from_poly(u(0) + u(1), (1, 3, 5)))
    assert format_value(W) == ("-u - eps*u_x - 2*theta_0 ^ theta_1"
                               " + eps*u_x*theta_0 ^ theta_2"
                               " + (u + u_x)*theta_1 ^ theta_3 ^ theta_5")
    assert format_value(W, latex=True) == (
        "-u - \\varepsilon u_x - 2\\theta_{0}\\wedge\\theta_{1}"
        " + \\varepsilon u_x\\theta_{0}\\wedge\\theta_{2}"
        " + (u + u_x)\\theta_{1}\\wedge\\theta_{3}\\wedge\\theta_{5}")
    assert (format_value(MultiVector.from_poly(eps, (0, 1)), latex=True)
            == "\\varepsilon \\theta_{0}\\wedge\\theta_{1}")


def test_operator_rendering_round_trip_forms(ctx, gardner):
    text = format_operator(gardner.operators["R"])
    assert "Dxi" in text and "Dx^2" in text


@pytest.mark.parametrize("text, latex", [
    # a one-monomial coefficient of several eps degrees is one factor
    ("(1 + eps)*Dx", "(1 + \\varepsilon)D_x"),
    ("(1 - 2*eps)*u*Dx^2", "(1 - 2\\varepsilon)uD_x^{2}"),
    ("Dxi*(1 + 2*eps)*u", "D_x^{-1}(1 + 2\\varepsilon)u"),
    # a coefficient -1 is a sign, for Dxi as for Dx
    ("-Dxi", "-D_x^{-1}"),
    ("-Dx - Dxi", "-D_x - D_x^{-1}"),
    ("-Dxi*u_x", "-D_x^{-1}u_x"),
])
def test_operator_print_parse_round_trip(text, latex):
    model = parse_model(f"operator A {{ {text} }}\n")
    A = model.operators["A"]
    assert format_operator(A) == text
    assert format_operator(A, latex=True) == latex
    printed = print_model(model)
    assert f"operator A {{ {text} }}\n" in printed
    assert parse_model(printed).operators["A"] == A


def test_json_report_schema(ctx, gardner, gardner_sys):
    report = check_conservation(gardner.densities["P1"], gardner_sys, "claw")
    out = emit_report([report], "check-claw", "abc123", 1, 12, "json")
    payload = json.loads(out)
    assert payload["eps_order"] == 1
    assert payload["max_jet_order"] == 12
    assert payload["checks"][0]["verdict"] == "pass"
    assert payload["checks"][0]["residual"] == "0"
    assert "flux" in payload["checks"][0]["certificates"]


def test_failed_check_carries_obstruction(ctx, gardner_sys):
    bad = check_conservation(Functional(ctx.u(0) ** 3), gardner_sys, "claw")
    out = emit_report([bad], "check-claw", "abc123", 1, 12, "json")
    payload = json.loads(out)
    assert payload["checks"][0]["verdict"] == "fail"
    assert payload["checks"][0]["residual"] != "0"


def test_hierarchy_report_records_nondegeneracy_assumption(gardner, gardner_sys):
    result = generate_hierarchy(gardner.operators["R"],
                                gardner.characteristics["Kbar1"], 1,
                                gardner.operators["D"], gardner_sys)
    assert result.assumptions == (NONDEGENERACY_ASSUMPTION,)
    summary = CheckReport("hierarchy", True, None, {"hierarchy": result})
    payload = json.loads(emit_report([summary], "hierarchy", "x", 1, 12, "json"))
    rendered = payload["checks"][0]["certificates"]["hierarchy"]
    assert rendered["assumptions"] == [NONDEGENERACY_ASSUMPTION]


def test_text_and_latex_emitters(ctx, gardner, gardner_sys):
    report = check_conservation(gardner.densities["P5"], gardner_sys, "claw P5")
    text = emit_report([report], "check-claw", "abc", 1, 12, "text")
    assert "[PASS] claw P5" in text
    latex = emit_report([report], "check-claw", "abc", 1, 12, "latex")
    assert "\\varepsilon" in latex and "\\begin{description}" in latex


def test_latex_labels_are_escaped_and_braced():
    report = CheckReport("involution_D {H[0],H[1]}", True, None,
                         {"max_drift": "1.0e-03"})
    latex = emit_report([report], "hierarchy", "abc", 1, 12, "latex")
    assert "\\item[{involution\\_D \\{H[0],H[1]\\} (pass)}] residual $= 0$" in latex
    assert "  \\\\ max\\_drift: $1.0e-03$" in latex
    text = emit_report([report], "hierarchy", "abc", 1, 12, "text")
    assert "[PASS] involution_D {H[0],H[1]}" in text
    assert "max_drift: 1.0e-03" in text


def test_model_hash_deterministic(gardner):
    from jetflow import print_model

    assert model_hash(print_model(gardner)) == model_hash(print_model(
        load_fixture("gardner")))
