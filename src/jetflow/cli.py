"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or model errors,
3 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .dsl import ModelIR, parse_model, print_model
from .engine import (CheckReport, HierarchyResult, check_conservation,
                     check_recursion_operator, check_symmetry,
                     generate_hierarchy, noether_inverse)
from .errors import (ClosureError, Diverged, JetflowError, ModelError,
                     NotASymmetry, NotInImage, NotVariational, ResourceLimit,
                     Unsupported)
from .fixtures import FIXTURES, fixture_names
from .hamiltonian import pair_check
from .report import emit_report, model_hash


def load_model(spec: str) -> ModelIR:
    """Resolve a model argument: a file path or a built-in fixture name."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            return parse_model(handle.read())
    base = spec[:-3] if spec.endswith(".jf") else spec
    if base in FIXTURES:
        return parse_model(FIXTURES[base])
    raise ModelError(f"model {spec!r} is neither a file nor a built-in "
                     f"({', '.join(fixture_names())})")


def _named(table: dict, name: str, what: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none defined"
        raise ModelError(f"unknown {what} {name!r} (known: {known})")
    return table[name]


def _finish(checks: List[CheckReport], model: ModelIR, args) -> int:
    digest = model_hash(print_model(model))
    text = emit_report(checks, args.command, digest, model.eps_order,
                       model.max_jet_order, args.format)
    print(text)
    return 0 if all(c.passed for c in checks) else 1


def cmd_check_symmetry(args) -> int:
    model = load_model(args.model)
    Q = _named(model.characteristics, args.char, "characteristic")
    system = _named(model.systems, args.system, "system")
    report = check_symmetry(Q, system, f"symmetry {args.char} / {args.system}")
    return _finish([report], model, args)


def cmd_check_claw(args) -> int:
    model = load_model(args.model)
    T = _named(model.densities, args.density, "density")
    system = _named(model.systems, args.system, "system")
    report = check_conservation(T, system,
                                f"conservation {args.density} / {args.system}")
    return _finish([report], model, args)


def cmd_noether(args) -> int:
    model = load_model(args.model)
    Q = _named(model.characteristics, args.char, "characteristic")
    D = _named(model.operators, args.op, "operator")
    name = f"noether {args.char} via {args.op}"
    try:
        functional = noether_inverse(Q, D)
    except (NotInImage, NotVariational) as err:
        report = CheckReport(name, False, err.obstruction)
        return _finish([report], model, args)
    claws = []
    for sysname, system in model.systems.items():
        claws.append(check_conservation(functional, system,
                                        f"conservation of result / {sysname}"))
    report = CheckReport(name, True, None, {"density": functional})
    return _finish([report] + claws, model, args)


def cmd_check_recursion(args) -> int:
    model = load_model(args.model)
    R = _named(model.operators, args.op, "operator")
    system = _named(model.systems, args.system, "system")
    seeds = []
    if args.seeds:
        for token in args.seeds.split(","):
            seeds.append(_named(model.characteristics, token.strip(),
                                "characteristic"))
    try:
        report = check_recursion_operator(R, system, args.mode, seeds)
    except ClosureError as err:
        report = CheckReport(f"recursion({args.mode})", False, None,
                             {"error": str(err)})
    report.name = f"recursion {args.op} on {args.system} [{args.mode}]"
    return _finish([report], model, args)


def cmd_check_pair(args) -> int:
    model = load_model(args.model)
    D = _named(model.operators, args.op1, "operator")
    E = _named(model.operators, args.op2, "operator")
    ok = pair_check(D, E)
    report = CheckReport(f"hamiltonian pair ({args.op1}, {args.op2})", ok)
    return _finish([report], model, args)


def cmd_hierarchy(args) -> int:
    model = load_model(args.model)
    R = _named(model.operators, args.op, "operator")
    seed = _named(model.characteristics, args.seed, "characteristic")
    D = _named(model.operators, args.dop, "operator")
    if not (args.system or model.systems):
        raise ModelError("hierarchy needs a system, and the model declares none")
    system = _named(model.systems, args.system or next(iter(model.systems)),
                    "system")
    try:
        result = generate_hierarchy(R, seed, args.steps, D, system,
                                    max_jet_order=model.max_jet_order)
    except NotASymmetry as err:
        result = HierarchyResult([seed], [], (0, err.obstruction), [
            CheckReport("seed symmetry", False, err.obstruction)])
    failed = (r.residual for r in result.reports if not r.passed)
    summary = CheckReport(
        f"hierarchy {args.op} from {args.seed} ({args.steps} steps)",
        result.all_passed and result.stopped_at is None,
        next(failed, None) if result.stopped_at is None
        else result.stopped_at[1],
        {"hierarchy": result})
    return _finish([summary] + result.reports, model, args)


def cmd_validate_numeric(args) -> int:
    from .numeric import (integrate_pde, max_drift, monitor_functional,
                          sech_squared_profile)

    model = load_model(args.model)
    system = _named(model.systems, args.system, "system")
    T = _named(model.densities, args.density, "density")
    grid = args.grid
    ic = sech_squared_profile(grid, amplitude=args.amplitude, width=args.width)
    name = f"numeric {args.density} on {args.system} (eps={args.epsilon})"
    try:
        traj = integrate_pde(system, grid, ic)
    except Diverged as err:
        return _finish([CheckReport(name, False, None,
                                    {"error": str(err)})], model, args)
    rows = monitor_functional(traj, T)
    if args.format == "json":
        import json

        print(json.dumps({"command": args.command,
                          "grid": {"length": grid.length, "points": grid.points,
                                   "dt": grid.dt, "t_end": grid.t_end,
                                   "epsilon": grid.epsilon},
                          "rows": rows}, indent=2))
        return 0
    report = CheckReport(name, True, None,
                         {"max_drift": f"{max_drift(rows):.6e}",
                          "samples": str(len(rows))})
    return _finish([report], model, args)


def cmd_print(args) -> int:
    model = load_model(args.model)
    sys.stdout.write(print_model(model))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetflow",
        description="Verify approximate symmetries, conservation laws and "
                    "bi-Hamiltonian structures of perturbed evolution equations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="model file (.jf) or built-in name")
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")

    p = sub.add_parser("check-symmetry", help="verify a symmetry characteristic")
    common(p)
    p.add_argument("--char", required=True)
    p.add_argument("--system", required=True)
    p.set_defaults(func=cmd_check_symmetry)

    p = sub.add_parser("check-claw", help="verify a conservation-law density")
    common(p)
    p.add_argument("--density", required=True)
    p.add_argument("--system", required=True)
    p.set_defaults(func=cmd_check_claw)

    p = sub.add_parser("noether", help="invert D on a characteristic")
    common(p)
    p.add_argument("--char", required=True)
    p.add_argument("--op", required=True)
    p.set_defaults(func=cmd_noether)

    p = sub.add_parser("check-recursion", help="verify a recursion operator")
    common(p)
    p.add_argument("--op", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--mode", choices=("operator", "action"), default="operator")
    p.add_argument("--seeds", help="comma-separated characteristic names")
    p.set_defaults(func=cmd_check_recursion)

    p = sub.add_parser("check-pair", help="approximately-Hamiltonian-pair test")
    common(p)
    p.add_argument("--op1", required=True)
    p.add_argument("--op2", required=True)
    p.set_defaults(func=cmd_check_pair)

    p = sub.add_parser("hierarchy", help="generate a bi-Hamiltonian hierarchy")
    common(p)
    p.add_argument("--op", required=True, help="recursion operator")
    p.add_argument("--seed", required=True, help="seed characteristic")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dop", required=True, help="first Hamiltonian operator")
    p.add_argument("--system", help="defaults to the first declared system")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("validate-numeric", help="numerical drift monitoring")
    common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--epsilon", type=float, default=1e-2)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--length", type=float, default=40.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=2.0)
    p.add_argument("--width", type=float, default=1.0)
    p.set_defaults(func=cmd_validate_numeric)

    p = sub.add_parser("print", help="canonical form of a model")
    common(p)
    p.set_defaults(func=cmd_print)

    return parser


def _check_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject argument values argparse cannot check by itself (exit 2)."""
    if (args.command == "check-recursion" and args.mode == "action"
            and not args.seeds):
        parser.error("check-recursion --mode action needs --seeds")
    if args.command == "hierarchy" and args.steps < 0:
        parser.error("hierarchy --steps must be non-negative")
    if args.command == "validate-numeric":
        from .numeric import GridSpec

        try:
            args.grid = GridSpec(length=args.length, points=args.points,
                                 dt=args.dt, t_end=args.t_end,
                                 epsilon=args.epsilon)
        except ValueError as err:
            parser.error(f"validate-numeric: {err}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ResourceLimit as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3
    except Unsupported as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return 2
    except JetflowError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
