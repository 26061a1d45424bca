import importlib.util
import json
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from jetflow import (CheckReport, Monomial, dsl, engine, parse_model,
                     print_model)
from jetflow.cli import COMMANDS, build_parser, main
from jetflow.fixtures import GARDNER_SOURCE
from jetflow.numeric import (MAX_DENSITY_JET_ORDER, MAX_POINTS,
                             MAX_RHS_JET_ORDER)
from jetflow.report import emit_report, model_hash

from conftest import model_texts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_symmetry_pass(capsys):
    code, out, _ = run(capsys, "check-symmetry", "gardner",
                       "--char", "Q3", "--system", "gardner")
    assert code == 0
    assert "[PASS]" in out


def test_check_symmetry_fail_exit_code(capsys, tmp_path):
    model = tmp_path / "model.jf"
    model.write_text(GARDNER_SOURCE + "char NotASymmetry = u;\n")
    code, out, _ = run(capsys, "check-symmetry", str(model),
                       "--char", "NotASymmetry", "--system", "gardner")
    assert code == 1
    assert "[FAIL]" in out
    assert "residual" in out


def test_check_claw_and_flux(capsys):
    code, out, _ = run(capsys, "check-claw", "gardner",
                       "--density", "P6", "--system", "gardner")
    assert code == 0
    assert "flux" in out


def test_noether_json_schema(capsys):
    code, out, _ = run(capsys, "noether", "gardner",
                       "--char", "Q2", "--op", "D", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "noether"
    assert set(payload) == {"command", "model_hash", "eps_order",
                            "max_jet_order", "checks"}
    for check in payload["checks"]:
        assert {"name", "verdict", "residual"} <= set(check)
    assert payload["checks"][0]["verdict"] == "pass"
    assert "density" in payload["checks"][0]["certificates"]


def test_check_recursion_operator_mode(capsys):
    code, out, _ = run(capsys, "check-recursion", "potential_burgers",
                       "--op", "R2", "--system", "potential_burgers")
    assert code == 0


def test_check_recursion_action_mode(capsys):
    code, out, _ = run(capsys, "check-recursion", "gardner",
                       "--op", "R", "--system", "gardner",
                       "--mode", "action", "--seeds", "Q1,Q4,Kbar1")
    assert code == 0


def test_action_mode_reports_an_undefined_image(capsys):
    # R(Q3) is not exact: a failing report (exit 1), not a bare error
    argv = ("check-recursion", "gardner", "--op", "R", "--system", "gardner",
            "--mode", "action", "--seeds", "Q3")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert "[FAIL] recursion R on gardner [action]  residual: -2*eps" in out
    code, out, err = run(capsys, *argv[:-1], "Q1,Q7", "--format", "json")
    assert (code, err) == (1, "")
    (check,) = json.loads(out)["checks"]
    assert check["verdict"] == "fail"
    assert check["residual"] == "eps"
    assert check["certificates"]["images"] == ["6*u*u_x + 6*eps*u^2*u_x - u_xxx"]


def test_check_pair(capsys):
    code, out, _ = run(capsys, "check-pair", "gardner",
                       "--op1", "D", "--op2", "E")
    assert code == 0
    assert "[PASS]" in out


def test_a_failing_pair_reports_its_residual(capsys, tmp_path):
    # u_x^2 Dx + Dx u_x^2 is skew-adjoint but not Hamiltonian: the graded
    # Euler derivative of the pair trivector is the residual
    model = tmp_path / "pair.jf"
    model.write_text("operator C { u_x^2*Dx + Dx*u_x^2 }\n")
    argv = ("check-pair", str(model), "--op1", "C", "--op2", "C")
    residual = ("(48*u_x*u_xx^2 + 24*u_x^2*u_xxx)*theta_0 ^ theta_1"
                " + 72*u_x^2*u_xx*theta_0 ^ theta_2"
                " + 16*u_x^3*theta_0 ^ theta_3 + 24*u_x^3*theta_1 ^ theta_2")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert f"[FAIL] hamiltonian pair (C, C)  residual: {residual}\n" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    (check,) = json.loads(out)["checks"]
    assert (code, check["verdict"], check["residual"]) == (1, "fail", residual)
    code, out, _ = run(capsys, *argv, "--format", "latex")
    assert code == 1
    assert ("residual $= (48u_xu_{xx}^{2} + 24u_x^{2}u_{xxx})"
            "\\theta_{0}\\wedge\\theta_{1} + ") in out
    assert tex_faults(out) == []


def test_a_residual_is_zero_exactly_when_its_check_passes(capsys):
    for argv in verify_catalogue():
        if argv[0] == "print":
            continue
        _, out, _ = run(capsys, *argv, "--format", "json")
        for check in json.loads(out)["checks"]:
            assert ((check["residual"] == "0")
                    == (check["verdict"] == "pass")), (argv, check)


def test_hierarchy_report_contains_flows(capsys):
    code, out, _ = run(capsys, "hierarchy", "gardner", "--op", "R",
                       "--seed", "Kbar1", "--steps", "2", "--dop", "D",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    summary = payload["checks"][0]
    hierarchy = summary["certificates"]["hierarchy"]
    assert len(hierarchy["flows"]) == 3
    assert hierarchy["stopped_at"] is None
    assert "u{5}" in hierarchy["flows"][1]


def test_hierarchy_latex_format(capsys):
    code, out, _ = run(capsys, "check-symmetry", "gardner", "--char", "Kbar1",
                       "--system", "gardner", "--format", "latex")
    assert code == 0
    assert "\\begin{description}" in out


def test_latex_certificate_rendering(capsys):
    code, out, _ = run(capsys, "noether", "gardner",
                       "--char", "Q5", "--op", "D", "--format", "latex")
    assert code == 0
    assert "\\varepsilon" in out


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "check-symmetry", "no_such_model",
               "--char", "Q1", "--system", "gardner")[0] == 2
    assert run(capsys, "check-symmetry", "gardner",
               "--char", "nope", "--system", "gardner")[0] == 2
    assert run(capsys, "bogus-command")[0] == 2
    assert run(capsys, "check-symmetry", "gardner", "--char", "Q1",
               "--system", "gardner", "--format", "yaml")[0] == 2
    # an empty name is an unknown system, not a left-out --system
    assert run(capsys, "hierarchy", "gardner", "--op", "R", "--seed", "Kbar1",
               "--steps", "1", "--dop", "D", "--system", "")[:3:2] == (
        2, "error: unknown system '' (known: gardner)\n")


def test_parse_error_exit_2(capsys, tmp_path):
    model = tmp_path / "broken.jf"
    model.write_text("system s { rhs: u_x }")
    code, _, err = run(capsys, "check-symmetry", str(model),
                       "--char", "Q1", "--system", "s")
    assert code == 2
    assert "line 1" in err


def test_resource_limit_exit_3(capsys, tmp_path):
    model = tmp_path / "capped.jf"
    model.write_text(GARDNER_SOURCE + "set max_jet_order = 6;\n")
    # the cap is parsed fine after declarations; only eps_order is pinned early
    code, _, err = run(capsys, "hierarchy", str(model), "--op", "R",
                       "--seed", "Kbar1", "--steps", "2", "--dop", "D")
    assert code == 3
    assert "resource" in err.lower()


def test_print_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "print", "potential_burgers")
    assert code == 0
    model = tmp_path / "echo.jf"
    model.write_text(out)
    code2, out2, _ = run(capsys, "print", str(model))
    assert code2 == 0
    assert out2 == out


def test_print_operator_divided_by_a_constant(capsys, tmp_path):
    model = tmp_path / "half.jf"
    model.write_text("operator A { Dx/2 }\n")
    code, out, _ = run(capsys, "print", str(model))
    assert code == 0
    assert "operator A { 1/2*Dx }" in out


@pytest.mark.parametrize("text", ["char Q = ²*u_x;", "system s { rhs: u{²}; }"])
def test_non_ascii_digits_exit_2(capsys, tmp_path, text):
    model = tmp_path / "digits.jf"
    model.write_text(text + "\n", encoding="utf-8")
    code, _, err = run(capsys, "print", str(model))
    assert code == 2
    assert "Traceback" not in err


@settings(max_examples=20, deadline=None)
@given(model_texts())
@example("operator A { Dx/2 }")
@example("char Q = ²*u_x;")
def test_print_fuzzed_models_exit_0_2_or_3(tmp_path_factory, text):
    model = tmp_path_factory.mktemp("fuzz") / "model.jf"
    model.write_text(text, encoding="utf-8")
    assert main(["print", str(model)]) in (0, 2, 3)


def test_noether_outside_the_ansatz_image_fails(capsys):
    code, out, _ = run(capsys, "noether", "gardner", "--char", "Q1", "--op", "E")
    assert code == 1
    assert "[FAIL] noether Q1 via E  residual: u_x" in out


def test_validate_numeric_rows(capsys):
    code, out, _ = run(capsys, "validate-numeric", "gardner",
                       "--system", "gardner", "--density", "M",
                       "--epsilon", "0.01", "--t-end", "0.02",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"]["epsilon"] == 0.01
    rows = payload["rows"]
    assert rows and {"t", "value", "drift"} <= set(rows[0])
    assert rows[0]["drift"] == 0.0


def test_validate_numeric_divergence_fails(capsys):
    code, out, _ = run(capsys, "validate-numeric", "gardner",
                       "--system", "gardner", "--density", "M",
                       "--dt", "0.005", "--t-end", "0.05")
    assert code == 1


def test_a_diverged_numeric_run_reports_an_infinite_residual(capsys):
    # a failing check has a nonzero residual: the drift of a run that blew
    # up is unbounded, in every report format
    argv = ("validate-numeric", "gardner", "--system", "gardner",
            "--density", "M", "--dt", "0.1", "--t-end", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "[FAIL] numeric M on gardner (eps=0.01)  residual: inf\n" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    (check,) = json.loads(out)["checks"]
    assert (code, check["verdict"], check["residual"]) == (1, "fail", "inf")
    assert check["certificates"]["error"].startswith("non-finite value")
    code, out, _ = run(capsys, *argv, "--format", "latex")
    assert code == 1
    assert "(fail)}] residual $= \\infty$\n" in out


BIG = "1" + "0" * 400  # past the largest float


@pytest.mark.parametrize("model, argv, what", [
    (f"system s {{ rhs: {BIG}*u_x; }}\ndensity M = u;\n",
     ("--t-end", "0.001"), "a right-hand side coefficient"),
    (f"system s {{ rhs: u_x; }}\ndensity M = {BIG}*u;\n", (),
     "a density coefficient"),
    ("set eps_order = 2;\nsystem s { rhs: u_x + eps^2*u*u_x; }\n"
     "density M = u;\n", ("--epsilon", "1e200", "--t-end", "0.001"),
     "eps^2 at eps = 1e+200"),
    ("system s { rhs: u_x; }\ndensity M = t^400*u;\n",
     ("--t-end", "10", "--dt", "0.01"), "t^400 at t = "),
], ids=["rhs-coefficient", "density-coefficient", "eps-power", "t-power"])
def test_a_number_past_the_float_range_is_unsupported(capsys, tmp_path,
                                                      model, argv, what):
    # a coefficient, an eps power or a time power that does not fit a float
    # is an unsupported input (exit 2), not an OverflowError
    path = tmp_path / "model.jf"
    path.write_text(model)
    code, out, err = run(capsys, "validate-numeric", str(path), "--system",
                         "s", "--density", "M", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"unsupported: {what}")
    assert err.endswith(" does not fit a float\n")


def test_action_mode_without_seeds_is_usage_error(capsys):
    code, _, err = run(capsys, "check-recursion", "gardner", "--op", "R",
                       "--system", "gardner", "--mode", "action")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--dt", "0"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--dt", "-1"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--points", "0"),
    ("hierarchy", "gardner", "--op", "R", "--seed", "Kbar1", "--steps", "-1",
     "--dop", "D"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--epsilon", "nan"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--epsilon", "inf"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--amplitude", "nan"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--width", "0"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--width", "inf"),
    # no step at all, or a last step that stops short of t_end
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--t-end", "1e-5"),
    ("validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--t-end", "0.00015", "--dt", "0.0001"),
])
def test_bad_numbers_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "[PASS]" not in out


@pytest.mark.parametrize("contents", [None, b"\xff\xfe"],
                         ids=["directory", "not-utf-8"])
def test_unreadable_model_exits_2(capsys, tmp_path, contents):
    model = tmp_path
    if contents is not None:
        model = tmp_path / "model.jf"
        model.write_bytes(contents)
    code, out, err = run(capsys, "print", str(model))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read model {str(model)!r}: ")


# Each subcommand: its required arguments in usage order, and the defaults of
# its other options in the order they are declared
SUBCOMMANDS = {
    "check-symmetry": (["model", "--char", "--system"], {}),
    "check-claw": (["model", "--density", "--system"], {}),
    "noether": (["model", "--char", "--op"], {}),
    "check-recursion": (["model", "--op", "--system"],
                        {"mode": "operator", "seeds": None}),
    "check-pair": (["model", "--op1", "--op2"], {}),
    "hierarchy": (["model", "--op", "--seed", "--steps", "--dop"],
                  {"system": None}),
    "validate-numeric": (["model", "--system", "--density"],
                         {"epsilon": 0.01, "points": 256, "length": 40.0,
                          "dt": 1e-4, "t_end": 1.0, "amplitude": 2.0,
                          "width": 1.0}),
    "print": (["model"], {}),
}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_usage_help_and_defaults(capsys, name):
    required, defaults = SUBCOMMANDS[name]
    code, out, err = run(capsys, name)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        f"jetflow {name}: error: the following arguments are required: "
        + ", ".join(required))
    # the help lists every flag, in the order the subcommand declares them
    code, out, err = run(capsys, name, "--help")
    assert code == 0 and err == ""
    optional = ["--" + dest.replace("_", "-") for dest in defaults]
    assert re.findall(r"^  (-[-\w]+)", out, re.M) == [
        "-h", "--format", *required[1:], *optional]
    args = build_parser().parse_args(
        [name, "model.jf", *(x for flag in required[1:] for x in (flag, "1"))])
    assert args.format == "text"
    assert {dest: getattr(args, dest) for dest in defaults} == defaults


def full_parser_run(argv):
    """The exit code of main's argument phase with every subcommand's parser
    built, for an argv that ends there."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        check = COMMANDS[args.command].check
        if check and (error := check(args)):
            parser.error(error)
    except SystemExit as exc:
        return int(exc.code or 0)
    raise AssertionError(f"{argv} passed the argument checks")


def minimal_argv(name):
    required = SUBCOMMANDS[name][0]
    return [name, "gardner",
            *(x for flag in required[1:] for x in (flag, "1"))]


PARSE_PHASE_ARGVS = [
    [], ["-h"], ["--version"], ["-h", "print"], ["bogus-command"],
    *([name] for name in SUBCOMMANDS),
    *([name, "-h"] for name in SUBCOMMANDS),
    *(minimal_argv(name) + ["--bogus"] for name in SUBCOMMANDS),
    *(minimal_argv(name) + ["extra"] for name in SUBCOMMANDS),
    ["print", "gardner", "--version"],
    ["hierarchy", "gardner", "--op", "R", "--seed", "Kbar1", "--steps", "-1",
     "--dop", "D"],
    ["check-recursion", "gardner", "--op", "R", "--system", "gardner",
     "--mode", "action"],
    ["validate-numeric", "gardner", "--system", "gardner", "--density", "M",
     "--epsilon", "nan"],
    ["print", "gardner", "--format", "yaml"],
]


@pytest.mark.parametrize("argv", PARSE_PHASE_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parse_phase_output_matches_the_full_parser(capsys, monkeypatch, argv):
    # help, usage errors and argument-check errors print the same bytes and
    # exit with the same code whichever subparsers main builds
    monkeypatch.setenv("COLUMNS", "80")
    expected = (full_parser_run(argv), *capsys.readouterr())
    assert run(capsys, *argv) == expected


def test_each_call_reads_the_model_file_afresh(capsys, tmp_path):
    model = tmp_path / "model.jf"
    argv = ("check-symmetry", str(model), "--char", "Q", "--system", "S",
            "--format", "json")
    # u_x is a symmetry of u_t = u_xxx and u^2 is not; a second call on the
    # rewritten file reports the new model, so nothing was kept between calls
    for char, code, verdict in (("u_x", 0, "pass"), ("u^2", 1, "fail")):
        text = f"system S {{ rhs: u_xxx; }}\nchar Q = {char};\n"
        model.write_text(text)
        status, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert status == code
        canonical = print_model(parse_model(text))
        assert report["model_hash"] == model_hash(canonical)
        assert report["checks"][0]["verdict"] == verdict


NON_SKEW_MODEL = """set eps_order = 1;
system S { rhs: u_xxx; }
operator A { u*Dx }
operator B { Dx }
char Q = u^2;
"""


def test_check_pair_non_skew_operator_is_unsupported(capsys, tmp_path):
    model = tmp_path / "pair.jf"
    model.write_text(NON_SKEW_MODEL)
    code, out, err = run(capsys, "check-pair", str(model),
                         "--op1", "A", "--op2", "B")
    assert code == 2
    assert err.startswith("unsupported:")
    assert "Traceback" not in err


def test_hierarchy_seed_that_is_not_a_symmetry_fails(capsys, tmp_path):
    model = tmp_path / "seed.jf"
    model.write_text(NON_SKEW_MODEL)
    code, out, err = run(capsys, "hierarchy", str(model), "--op", "B",
                         "--seed", "Q", "--steps", "1", "--dop", "B",
                         "--format", "json")
    assert code == 1
    assert err == ""
    checks = json.loads(out)["checks"]
    assert [c["verdict"] for c in checks] == ["fail", "fail"]
    assert checks[1]["name"] == "seed symmetry"
    stopped = checks[0]["certificates"]["hierarchy"]["stopped_at"]
    assert stopped == {"index": 0, "obstruction": checks[1]["residual"]}


NO_SYSTEM_MODEL = """set eps_order = 1;
operator A { Dx }
char Q = u_x;
"""


def test_hierarchy_on_a_model_without_a_system_is_a_model_error(capsys, tmp_path):
    model = tmp_path / "nosystem.jf"
    model.write_text(NO_SYSTEM_MODEL)
    code, out, err = run(capsys, "hierarchy", str(model), "--op", "A",
                         "--seed", "Q", "--steps", "1", "--dop", "A")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "system" in err
    assert "Traceback" not in err


def test_hierarchy_stops_where_r_of_a_flow_is_not_exact(capsys):
    # R(Q7) takes Dxi of Q7 = eps*(D_x(x*u + 3*t*(3*u^2 - u_xx)) + u), which
    # is not exact (Euler obstruction eps), so K[1] is never built
    code, out, err = run(capsys, "hierarchy", "gardner", "--op", "R",
                         "--seed", "Q7", "--steps", "2", "--dop", "E",
                         "--format", "json")
    assert code == 1
    assert err == ""
    checks = json.loads(out)["checks"]
    stopped = checks[0]["certificates"]["hierarchy"]["stopped_at"]
    assert stopped == {"index": 1, "obstruction": "eps"}
    assert checks[0]["residual"] == "eps"
    assert [c["name"] for c in checks[1:]] == [
        "seed symmetry", "conservation H[0]", "D(delta H[0]) == K[0]"]


# R o Di has Dxi on both sides, so the second bracket is unavailable: the
# functionals are checked for involution under Di only.  K[2] = 1 + x^3/6
# is not a symmetry of u_t = u_xxx.
NONLOCAL_DOP_MODEL = """system s { rhs: u_xxx; }
operator R { Dx^2 + Dxi }
operator Di { Dxi }
char Q = x;
"""


def test_hierarchy_through_a_nonlocal_first_operator(capsys, tmp_path):
    model = tmp_path / "di.jf"
    model.write_text(NONLOCAL_DOP_MODEL)
    code, out, err = run(capsys, "hierarchy", str(model), "--op", "R",
                         "--seed", "Q", "--steps", "2", "--dop", "Di",
                         "--format", "json")
    assert code == 1
    assert err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["involution_D {H[0],H[1]}"]["verdict"] == "pass"
    assert not [name for name in checks if name.startswith("involution_E")]
    assert checks["symmetry K[2]"]["residual"] == "-1"


def test_hierarchy_inverts_through_dxi(capsys, tmp_path):
    # Dxi(u_xx) = u_x, so the seed Q1 inverts to u*u_xx/2; Gardner's flow K[1]
    # then has no preimage among the monomials on which Dxi acts
    model = tmp_path / "gardner_di.jf"
    model.write_text(GARDNER_SOURCE + "operator Di { Dxi }\n")
    code, out, err = run(capsys, "hierarchy", str(model), "--op", "R",
                         "--seed", "Q1", "--steps", "1", "--dop", "Di",
                         "--format", "json")
    assert code == 1
    assert err == ""
    hierarchy = json.loads(out)["checks"][0]["certificates"]["hierarchy"]
    assert hierarchy["functionals"] == ["1/2*u*u_xx"]
    assert hierarchy["stopped_at"]["index"] == 1


def test_validate_numeric_caps_exit_3(capsys):
    # t_end / dt of the last overflows to inf
    for args in (("--t-end", "1e9"), ("--points", str(2 * MAX_POINTS)),
                 ("--t-end", "1e300", "--dt", "1e-10")):
        code, out, err = run(capsys, "validate-numeric", "gardner",
                             "--system", "gardner", "--density", "M", *args)
        assert code == 3
        assert err.startswith("resource limit:")


@pytest.mark.parametrize("rhs, density", [
    (f"u{{{MAX_RHS_JET_ORDER + 1}}}", "u"),
    ("u_xxx", f"u{{{MAX_DENSITY_JET_ORDER + 1}}}^2"),
], ids=["rhs", "density"])
def test_validate_numeric_jet_order_caps_exit_2(capsys, tmp_path, rhs,
                                                density):
    model = tmp_path / "orders.jf"
    model.write_text(f"system S {{ rhs: {rhs}; }}\ndensity H = {density};\n")
    code, out, err = run(capsys, "validate-numeric", str(model), "--system",
                         "S", "--density", "H", "--t-end", "0.001")
    assert code == 2
    assert out == ""
    assert err.startswith("unsupported:")


@pytest.mark.parametrize("density", ["u_xxxxx", f"{BIG}*u"],
                         ids=["jet-order", "coefficient"])
def test_an_unsupported_density_is_refused_before_the_first_step(
        capsys, tmp_path, monkeypatch, density):
    # the density's evaluator is built before the run, not after 1e4 steps
    def integrate_pde(*args, **kwargs):
        pytest.fail("integrate_pde ran for a density it cannot evaluate")

    monkeypatch.setattr("jetflow.numeric.integrate_pde", integrate_pde)
    model = tmp_path / "density.jf"
    model.write_text(f"system s {{ rhs: u_x; }}\ndensity N = {density};\n")
    code, out, err = run(capsys, "validate-numeric", str(model), "--system",
                         "s", "--density", "N")
    assert (code, out) == (2, "")
    assert err.startswith("unsupported: ")


def test_parse_time_product_cap_exit_3(capsys, tmp_path):
    model = tmp_path / "power.jf"
    model.write_text(GARDNER_SOURCE + "char Q = (u + u_x + 1)^400;\n")
    start = time.process_time()
    code, _, err = run(capsys, "check-symmetry", str(model),
                       "--char", "Q", "--system", "gardner")
    assert code == 3
    assert err.startswith("resource limit:")
    assert time.process_time() - start < 5.0


def test_parse_time_product_cap_boundary(capsys, tmp_path, monkeypatch):
    # (u + u_x)*(u_xx + u_xxx + 1) pairs 2 x 3 terms, and u*u_x one more
    monkeypatch.setattr(dsl, "MAX_PRODUCT_PAIRS", 6)
    model = tmp_path / "pairs.jf"
    product = "char Q = (u + u_x)*(u_xx + u_xxx + 1)"
    model.write_text(product + ";\n")
    assert run(capsys, "print", str(model))[0] == 0
    model.write_text(product + " + u*u_x;\n")
    code, out, err = run(capsys, "print", str(model))
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")
    assert "more than 6 terms" in err


@pytest.mark.parametrize("line", [
    "char Q = " + "1" * 5000 + "*u_x;",   # past Python's int-string limit
    "set eps_order = 100000;",
    "char Qdeep = " + "(" * 300 + "u" + ")" * 300 + ";",
], ids=["long-literal", "huge-eps-order", "deep-nesting"])
def test_parse_time_literal_and_eps_order_caps_exit_3(capsys, tmp_path, line):
    model = tmp_path / "caps.jf"
    source = GARDNER_SOURCE.replace("set eps_order = 1;", "")
    model.write_text(line + "\n" + source)
    start = time.process_time()
    code, _, err = run(capsys, "check-symmetry", str(model),
                       "--char", "Q3", "--system", "gardner")
    assert code == 3
    assert err.startswith("resource limit:")
    assert "Traceback" not in err
    assert time.process_time() - start < 2.0


@pytest.mark.parametrize("atom", ["u{3000}", "u_" + "x" * 3000],
                         ids=["indexed", "spelt-out"])
def test_jet_index_cap_exit_3(capsys, tmp_path, atom):
    model = tmp_path / "jet.jf"
    model.write_text(GARDNER_SOURCE + f"char Qbig = {atom};\n")
    start = time.process_time()
    code, _, err = run(capsys, "check-symmetry", str(model),
                       "--char", "Qbig", "--system", "gardner")
    assert code == 3
    assert err.startswith("resource limit:")
    assert time.process_time() - start < 2.0


@pytest.mark.parametrize("setting", ["set max_jet_order = 1000;",
                                     "set max_jet_order = 64;"],
                         ids=["jet-order", "steps"])
def test_hierarchy_work_caps_exit_3(capsys, tmp_path, setting):
    model = tmp_path / "deep.jf"
    model.write_text(GARDNER_SOURCE + setting + "\n")
    start = time.process_time()
    code, _, err = run(capsys, "hierarchy", str(model), "--op", "R",
                       "--seed", "Kbar1", "--steps", "40", "--dop", "D")
    assert code == 3
    assert err.startswith("resource limit:")
    assert time.process_time() - start < 2.0


def test_ansatz_cap_exit_3(capsys, tmp_path, monkeypatch):
    # eps*u{7}*u^4 + t + u_x mixes t-degrees 0 and 1 and (1, 0, -2, 2)-weights
    # 15 and 3, so no grading of E keeps it homogeneous and the basis stays
    # dense.  Its first order tier (jet order 7 - 3 = 4) has the C(7 + 6, 6)
    # = 1716 monomials in x, t, u_0..u_4 of degree <= 6, times 2 eps
    # degrees: 3432 pairs, refused once the 1025th is drawn
    def applied(*args):
        raise AssertionError("an image was built")

    monkeypatch.setattr(engine, "apply_op", applied)
    model = tmp_path / "ansatz.jf"
    model.write_text(GARDNER_SOURCE + "char Big = eps*u{7}*u^4 + t + u_x;\n")
    start = time.process_time()
    code, out, err = run(capsys, "noether", str(model), "--char", "Big",
                         "--op", "E")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")
    assert ("an ansatz tier of jet order <= 4 and degree <= 6 has more "
            "monomials than the cap 1024") in err
    assert time.process_time() - start < 2.0


def test_ansatz_tier_far_past_the_cap_draws_one_pair_more(capsys, tmp_path,
                                                          monkeypatch):
    # u^8*u{20} and x*u^9 differ in (1, 0, -2, 2)-weight, so only the t
    # degree grades the basis: its first order tier (jet order 20 - 3 = 17,
    # degree <= 11) holds over 10^8 pairs, and drawing stops one past the cap
    def applied(*args):
        raise AssertionError("an image was built")

    drawn = []

    def monomial(*args):
        drawn.append(args)
        return Monomial(*args)

    monkeypatch.setattr(engine, "apply_op", applied)
    monkeypatch.setattr(engine, "Monomial", monomial)
    model = tmp_path / "ansatz.jf"
    model.write_text(GARDNER_SOURCE + "char Q = u^8*u{20} + x*u^9;\n")
    start = time.process_time()
    code, out, err = run(capsys, "noether", str(model), "--char", "Q",
                         "--op", "E")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: an ansatz tier of jet order <= 17 "
                          "and degree <= 11 has more monomials than the cap "
                          "1024")
    assert 0 < len(drawn) <= engine.MAX_ANSATZ_MONOMIALS + 1
    assert time.process_time() - start < 1.0


def test_failing_involutions_report_their_residual(capsys, tmp_path):
    # R = x + Dxi is no recursion operator of u_t = u_xxx: no pair of its
    # functionals is in involution, and each failure shows the Euler
    # derivative of the bracket density
    model = tmp_path / "linear.jf"
    model.write_text("system lin { rhs: u_xxx; }\noperator D { Dx }\n"
                     "operator R { x + Dxi }\nchar S = u_x;\n")
    code, out, _ = run(capsys, "hierarchy", str(model), "--op", "R",
                       "--seed", "S", "--steps", "3", "--dop", "D",
                       "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    involutions = [c for c in checks if c["name"].startswith("involution")]
    assert len(involutions) == 12
    assert all(c["verdict"] == "fail" and c["residual"] != "0"
               for c in involutions)
    named = {c["name"]: c for c in checks}
    assert named["involution_D {H[0],H[1]}"]["residual"] == "u"
    first_failure = next(c for c in checks[1:] if c["verdict"] == "fail")
    assert checks[0]["verdict"] == "fail"
    assert checks[0]["residual"] == first_failure["residual"] != "0"


def test_hierarchy_second_bracket_not_exact_is_reported(capsys):
    code, out, err = run(capsys, "hierarchy", "gardner", "--op", "R",
                         "--seed", "Q2", "--steps", "1", "--dop", "E",
                         "--format", "json")
    assert code == 1
    assert err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert len(checks) == 10
    assert checks["involution_D {H[0],H[1]}"]["verdict"] == "pass"
    bad = checks["involution_E {H[0],H[1]}"]
    assert bad["verdict"] == "fail"
    assert bad["residual"] == "-3*eps*u_x*u_xx"


# Byte-exact stdout of twelve commands, one per code path that a change of
# representation could reorder or reformat: a hierarchy (JSON), the ansatz
# Noether inversion (LaTeX) and the multivector pair check (text), plus a
# seven-step hierarchy (JSON, 28 involution pairs and 28 commutations) that
# pins the pairwise checks at depth, the ten-step hierarchy at the step cap
# (JSON, 199 checks, flow jet orders 3 to 23), a four-step hierarchy whose
# functionals the ansatz finds through the second structure E (JSON), the
# unbarred hierarchy of the Rt model at eps order 1 to steps 6 and 7 and at
# eps order 3 (JSON), and the canonical text of the two built-in models and
# the Rt model, which pins their model hashes.  Four more hierarchies exit 1,
# one per way the iteration ends in failure: an inversion at index 0 through
# D, a flow K[1] with no preimage through D (both JSON), R of a flow that is
# not exact (LaTeX), and a run that does not stop but fails a symmetry and
# the second bracket's involution (text, which pins its `hierarchy:` line).
# Replace a file only for an intended change of the CLI output.
GOLDEN = Path(__file__).parent / "golden"
DOP_E_STEPS4 = ["hierarchy", "gardner", "--op", "R", "--seed", "Kbar1",
                "--steps", "4", "--dop", "E", "--format", "json"]
# five inversions through E at jet order 24, whose ansatz systems are
# eliminated sparsest row first
DOP_E_JET24_STEPS5 = ["hierarchy", str(GOLDEN / "gardner_jet24.jf"), "--op",
                      "R", "--seed", "Kbar1", "--steps", "5", "--dop", "E",
                      "--format", "json"]


def stop_path(seed, steps, dop, fmt):
    return ["hierarchy", "gardner", "--op", "R", "--seed", seed, "--steps",
            str(steps), "--dop", dop, "--format", fmt]


@pytest.mark.parametrize("name, argv, exit_code", [
    ("hierarchy_gardner_R_Kbar1_steps4.json",
     ["hierarchy", "gardner", "--op", "R", "--seed", "Kbar1", "--steps", "4",
      "--dop", "D", "--format", "json"], 0),
    ("noether_gardner_Q2_E.tex",
     ["noether", "gardner", "--char", "Q2", "--op", "E", "--format", "latex"],
     0),
    ("check_pair_gardner_D_E.txt",
     ["check-pair", "gardner", "--op1", "D", "--op2", "E", "--format", "text"],
     0),
    ("hierarchy_gardner_jet24_R_Kbar1_steps7.json",
     ["hierarchy", str(GOLDEN / "gardner_jet24.jf"), "--op", "R", "--seed",
      "Kbar1", "--steps", "7", "--dop", "D", "--format", "json"], 0),
    ("hierarchy_gardner_jet24_R_Kbar1_steps10.json",
     ["hierarchy", str(GOLDEN / "gardner_jet24.jf"), "--op", "R", "--seed",
      "Kbar1", "--steps", "10", "--dop", "D", "--format", "json"], 0),
    ("hierarchy_gardner_R_Kbar1_steps4_dopE.json", DOP_E_STEPS4, 0),
    ("hierarchy_gardner_jet24_R_Kbar1_steps5_dopE.json", DOP_E_JET24_STEPS5, 0),
    # the unbarred hierarchy: O(1) flows, so every pair check multiplies
    ("hierarchy_gardner_Rt_jet24_Rt_Q1_steps6.json",
     ["hierarchy", str(GOLDEN / "gardner_Rt_jet24.jf"), "--op", "Rt", "--seed",
      "Q1", "--steps", "6", "--dop", "D", "--format", "json"], 0),
    # one step deeper: 109 checks, whose nonzero involution densities are
    # decided by integration
    ("hierarchy_gardner_Rt_jet24_Rt_Q1_steps7.json",
     ["hierarchy", str(GOLDEN / "gardner_Rt_jet24.jf"), "--op", "Rt", "--seed",
      "Q1", "--steps", "7", "--dop", "D", "--format", "json"], 0),
    # the Rt hierarchy in Q[eps]/(eps^4): every product keeps eps^2, eps^3
    ("hierarchy_gardner_Rt_eps3_Rt_Q1_steps4.json",
     ["hierarchy", str(GOLDEN / "gardner_Rt_eps3.jf"), "--op", "Rt", "--seed",
      "Q1", "--steps", "4", "--dop", "D", "--format", "json"], 0),
    # the canonical text of each model, which its model hash is taken of
    ("print_gardner.txt", ["print", "gardner"], 0),
    ("print_potential_burgers.txt", ["print", "potential_burgers"], 0),
    ("print_gardner_Rt.txt",
     ["print", str(Path(__file__).parent / "models" / "gardner_Rt.jf")], 0),
    # the stop paths: Q3 stops at index 0 (obstruction -2*eps), Q2 at index
    # 1 (9*eps*u_x*u_xx), Q7 where R(K[0]) is not exact (eps); Q2 through E
    # runs on, and involution_E {H[0],H[1]} fails with -3*eps*u_x*u_xx
    ("hierarchy_gardner_R_Q3_steps2.json", stop_path("Q3", 2, "D", "json"), 1),
    ("hierarchy_gardner_R_Q2_steps2.json", stop_path("Q2", 2, "D", "json"), 1),
    ("hierarchy_gardner_R_Q7_steps2_dopE.tex",
     stop_path("Q7", 2, "E", "latex"), 1),
    ("hierarchy_gardner_R_Q2_steps1_dopE.txt",
     stop_path("Q2", 1, "E", "text"), 1),
], ids=["hierarchy-json", "noether-latex", "check-pair-text",
        "hierarchy-deep-json", "hierarchy-cap-json", "hierarchy-dopE-json",
        "hierarchy-dopE-jet24-json",
        "hierarchy-Rt-json", "hierarchy-Rt-steps7-json",
        "hierarchy-Rt-eps3-json", "print-gardner", "print-potential-burgers",
        "print-gardner-Rt", "stop-index0-json", "stop-index1-json",
        "stop-not-exact-latex", "involution-e-fails-text"])
def test_golden_stdout(capsys, name, argv, exit_code):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def _passing_hierarchy(capsys, argv, checks):
    """The hierarchy certificate of a run that passes all its checks."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert len(report["checks"]) == checks
    assert all(c["verdict"] == "pass" for c in report["checks"])
    return report["checks"][0]["certificates"]["hierarchy"]


def _assert_magri(through_e, through_d, steps):
    # Flows are R^i(Kbar1) whichever operator inverts them, and R = E * Dxi
    # gives K_i = E(delta H_{i-1}) for the functionals found through D, so
    # functional i through E equals functional i - 1 through D modulo D_x.
    assert len(through_e["flows"]) == steps + 1
    assert through_e["flows"] == through_d["flows"]

    def functional(text):
        return parse_model(f"set eps_order = 1;\ndensity H = {text};"
                           ).densities["H"]

    for i in range(1, steps + 1):
        assert functional(through_e["functionals"][i]).equivalent(
            functional(through_d["functionals"][i - 1])), i


def test_hierarchy_through_e_matches_magri(capsys):
    through_e = _passing_hierarchy(capsys, DOP_E_STEPS4, 46)
    through_d = json.loads((GOLDEN / "hierarchy_gardner_R_Kbar1_steps4.json")
                           .read_text())["checks"][0]["certificates"]["hierarchy"]
    _assert_magri(through_e, through_d, 4)


def test_jet24_hierarchy_through_e_matches_magri(capsys):
    through_e = _passing_hierarchy(capsys, DOP_E_JET24_STEPS5, 64)
    dop = DOP_E_JET24_STEPS5.index("--dop") + 1
    through_d = _passing_hierarchy(
        capsys, [*DOP_E_JET24_STEPS5[:dop], "D", "--format", "json"], 64)
    _assert_magri(through_e, through_d, 5)


# A LaTeX report may use its own commands, the five that values use (the
# residual of a diverged numeric run is \infty, that of a failing pair a sum
# of \theta wedges), the line break and the escapes of its labels and prose,
# and no other control sequence.
TEX_COMMANDS = {"\\begin", "\\end", "\\item", "\\varepsilon", "\\frac",
                "\\infty", "\\theta", "\\wedge", "\\\\", "\\_", "\\{", "\\}",
                "\\#", "\\$", "\\%", "\\&", "\\^", "\\~", "\\textbackslash"}
TEX_TOKENS = re.compile(r"\\[A-Za-z]+|\\.|.")


def tex_faults(text):
    """What TeX would reject in a LaTeX report, line by line: an unknown
    control sequence, unbalanced braces or `$`, `_` or `^` outside math, a
    bare `#`, `%` or `&`, or an `\\item` label cut short by a `]` inside it."""
    faults = []
    for line in text.splitlines():
        if line.startswith("%"):  # a comment line
            continue
        tokens = TEX_TOKENS.findall(line)
        depth, math, label = 0, False, None
        for i, tok in enumerate(tokens):
            if label is not None and depth == 0 and tok == "]":
                # the first `]` outside braces ends the optional argument
                if not "".join(label).endswith(("(pass)}", "(fail)}")):
                    faults.append(f"label cut short: {line}")
                label = None
            elif label is not None:
                label.append(tok)
            if tok.startswith("\\") and tok not in TEX_COMMANDS:
                faults.append(f"control sequence {tok}: {line}")
            elif tok == "[" and tokens[i - 1:i] == ["\\item"]:
                label = []
            elif tok == "$":
                math = not math
            elif tok in ("{", "}"):
                depth += 1 if tok == "{" else -1
                if depth < 0:
                    faults.append(f"unbalanced braces: {line}")
                    depth = 0
            elif (tok in ("_", "^") and not math) or tok in ("#", "%", "&"):
                faults.append(f"bare {tok}: {line}")
        if depth or math:
            faults.append(f"unclosed brace or $: {line}")
    return faults


def test_tex_faults_finds_unescaped_labels_and_run_on_control_words():
    assert tex_faults("\\item[conservation H[0] (pass)] residual $= 0$")
    assert tex_faults("\\item[{involution_D {H[0],H[1]} (pass)}] residual $= 0$")
    assert tex_faults("\\item[{flux (pass)}] residual $= 6\\varepsilonu$")
    assert tex_faults("  \\\\ max_drift: $1.0$")
    assert tex_faults("  \\\\ error: (Dx^2) o (Dxi)")
    assert tex_faults("\\item[{a (pass)}] residual $= \\frac{1}{2$")
    assert tex_faults("\\item[{100% (pass)}] residual $= 0$")
    assert not tex_faults("% eps_order\n\\begin{description}\n"
                          "\\item[{involution\\_D \\{H[0],H[1]\\} (pass)}] "
                          "residual $= 6\\varepsilon u_x$\n  \\\\ max\\_drift: $1$")


def perfbench_module(name):
    """The benchmark's module perfbench/<name>.py, loaded by path."""
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verify_catalogue():
    """The commands of the benchmark's `verify` workload."""
    return [argv for argv, *_ in perfbench_module("workloads").CATALOGUE]


def test_tracer_restores_every_name_it_wraps():
    # the traced benchmark wraps the public functions of every layer and
    # the methods it names on classes, so each method it names must exist
    tracer = perfbench_module("tracer")
    modules = {layer: importlib.import_module(name)
               for layer, name in tracer.LAYERS.items()}
    wrapped = [(getattr(modules[layer], cls), attr)
               for layer, classes in tracer.METHODS.items()
               for cls, attrs in classes.items() for attr in attrs]
    originals = [vars(cls)[attr] for cls, attr in wrapped]
    owners = [module for name, module in sorted(sys.modules.items())
              if name == "jetflow" or name.startswith("jetflow.")]
    owners += list(dict.fromkeys(cls for cls, _ in wrapped))
    before = [dict(vars(owner)) for owner in owners]
    dx_total = modules["jets"].dx_total
    traced = tracer.Tracer()
    try:
        traced.install()
        for (cls, attr), original in zip(wrapped, originals):
            assert vars(cls)[attr] is not original, (cls, attr)
        assert modules["jets"].dx_total is not dx_total
    finally:
        traced.uninstall()
    for owner, names in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == names.keys(), owner
        assert all(now[name] is value for name, value in names.items()), owner


def test_latex_reports_are_well_formed(capsys):
    # `print` writes a model, not a report; validate-numeric adds the
    # certificate key max_drift
    commands = [argv for argv in verify_catalogue() if argv[0] != "print"]
    commands.append(["validate-numeric", "gardner", "--system", "gardner",
                     "--density", "H0", "--points", "32", "--dt", "1e-3",
                     "--t-end", "0.01"])
    for argv in commands:
        code, out, err = run(capsys, *argv, "--format", "latex")
        assert code in (0, 1) and err == "", argv
        assert out.count("\\item[") >= 1, argv
        assert tex_faults(out) == [], argv


def test_latex_prose_certificates_are_escaped_text(capsys):
    # an error message is prose: text mode, not run-together math symbols
    code, out, _ = run(capsys, "validate-numeric", "gardner", "--system",
                       "gardner", "--density", "M", "--dt", "0.005",
                       "--t-end", "0.05", "--format", "latex")
    assert code == 1
    assert "  \\\\ error: non-finite value at step 4 (t=0.02)\n" in out
    assert tex_faults(out) == []
    report = CheckReport("recursion R", False, None, {
        "error": "(Dx^2 + u_x*Dxi) o (Dxi) leaves the class",
        "max_drift": "3.162952e-05", "samples": "11"})
    out = emit_report([report], "check-recursion", "abc", 1, 12, "latex")
    assert ("  \\\\ error: (Dx\\^{}2 + u\\_x*Dxi) o (Dxi) leaves the class\n"
            in out)
    # a number is set in math mode, like a formula
    assert "  \\\\ max\\_drift: $3.162952e-05$\n  \\\\ samples: $11$" in out
    assert tex_faults(out) == []
