"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or model errors,
3 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from typing import Dict, List, Optional

from . import __version__
from .dsl import DECLARATIONS, ModelIR, parse_model, print_model
from .engine import (CheckReport, HierarchyResult, check_conservation,
                     check_recursion_operator, check_symmetry,
                     generate_hierarchy, noether_inverse)
from .errors import (Diverged, JetflowError, ModelError, NotASymmetry,
                     NotInImage, NotVariational, ResourceLimit, Unsupported)
from .fixtures import FIXTURES, fixture_names
from .hamiltonian import _pair_residual
from .jets import DiffPoly
from .report import emit_report, model_hash


def load_model(spec: str) -> ModelIR:
    """Resolve a model argument: a file path or a built-in fixture name."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ModelError(f"cannot read model {spec!r}: "
                             f"{getattr(err, 'strerror', None) or err}")
        return parse_model(text)
    base = spec[:-3] if spec.endswith(".jf") else spec
    if base in FIXTURES:
        return parse_model(FIXTURES[base])
    raise ModelError(f"model {spec!r} is neither a file nor a built-in "
                     f"({', '.join(fixture_names())})")


# What an option naming a model value reads: (ModelIR table, word for errors)
CHAR, OP, SYSTEM, DENSITY = (DECLARATIONS[keyword][:2] for keyword
                             in ("char", "operator", "system", "density"))


def _named(table: dict, name: str, what: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none defined"
        raise ModelError(f"unknown {what} {name!r} (known: {known})")
    return table[name]


def _resolve(model: ModelIR, args, flag: str, ref: tuple):
    table, given = getattr(model, ref[0]), getattr(args, flag[2:])
    if given is None:  # left out: the first declared, if any
        if not table:
            raise ModelError(f"{args.command} needs a {ref[1]}, "
                             f"and the model declares none")
        given = next(iter(table))
    return _named(table, given, ref[1])


def _finish(checks: List[CheckReport], model: ModelIR, args) -> int:
    digest = model_hash(print_model(model))
    print(emit_report(checks, args.command, digest, model.eps_order,
                      model.max_jet_order, args.format))
    return 0 if all(c.passed for c in checks) else 1


# Subcommand name -> Command.  A handler takes (args, model, *the values its
# ref options name) and returns its checks, or an exit code for no report.
Command = namedtuple("Command", "help handler options check")
COMMANDS: Dict[str, Command] = {}


def command(name: str, help: str, *options: tuple, check=None):
    """Declare the decorated handler as the subcommand `name`.  `check`
    returns the usage error in the parsed args that argparse misses, if any."""
    def declare(handler):
        COMMANDS[name] = Command(help, handler, options, check)
        return handler
    return declare


def _opt(flag: str, ref: Optional[tuple] = None, **kwargs) -> tuple:
    """An option: flag, argparse keywords and, for one that names a model
    value, its ref.  An option with a ref is required unless said otherwise."""
    return flag, {"required": ref is not None, **kwargs}, ref


@command("check-symmetry", "verify a symmetry characteristic",
         _opt("--char", CHAR), _opt("--system", SYSTEM))
def cmd_check_symmetry(args, model, Q, system):
    return [check_symmetry(Q, system, f"symmetry {args.char} / {args.system}")]


@command("check-claw", "verify a conservation-law density",
         _opt("--density", DENSITY), _opt("--system", SYSTEM))
def cmd_check_claw(args, model, T, system):
    return [check_conservation(T, system,
                               f"conservation {args.density} / {args.system}")]


@command("noether", "invert D on a characteristic",
         _opt("--char", CHAR), _opt("--op", OP))
def cmd_noether(args, model, Q, D):
    name = f"noether {args.char} via {args.op}"
    try:
        functional = noether_inverse(Q, D)
    except (NotInImage, NotVariational) as err:
        return [CheckReport(name, False, err.obstruction)]
    claws = [check_conservation(functional, system,
                                f"conservation of result / {sysname}")
             for sysname, system in model.systems.items()]
    return [CheckReport(name, True, DiffPoly.zero(Q.eps_order),
                        {"density": functional})] + claws


@command("check-recursion", "verify a recursion operator",
         _opt("--op", OP), _opt("--system", SYSTEM),
         _opt("--mode", choices=("operator", "action"), default="operator"),
         _opt("--seeds", help="comma-separated characteristic names"),
         check=lambda args: (args.mode == "action" and not args.seeds
                             and "check-recursion --mode action needs --seeds"))
def cmd_check_recursion(args, model, R, system):
    seeds = [_named(model.characteristics, name.strip(), "characteristic")
             for name in (args.seeds.split(",") if args.seeds else ())]
    report = check_recursion_operator(R, system, args.mode, seeds)
    report.name = f"recursion {args.op} on {args.system} [{args.mode}]"
    return [report]


@command("check-pair", "approximately-Hamiltonian-pair test",
         _opt("--op1", OP), _opt("--op2", OP))
def cmd_check_pair(args, model, D, E):
    residual = _pair_residual(D, E)
    return [CheckReport(f"hamiltonian pair ({args.op1}, {args.op2})",
                        residual.is_zero(), residual)]


@command("hierarchy", "generate a bi-Hamiltonian hierarchy",
         _opt("--op", OP, help="recursion operator"),
         _opt("--seed", CHAR, help="seed characteristic"),
         _opt("--steps", type=int, required=True),
         _opt("--dop", OP, help="first Hamiltonian operator"),
         _opt("--system", SYSTEM, required=False,
              help="defaults to the first declared system"),
         check=lambda args: (args.steps < 0
                             and "hierarchy --steps must be non-negative"))
def cmd_hierarchy(args, model, R, seed, D, system):
    try:
        result = generate_hierarchy(R, seed, args.steps, D, system,
                                    max_jet_order=model.max_jet_order)
    except NotASymmetry as err:
        result = HierarchyResult([seed], [], (0, err.obstruction), [
            CheckReport("seed symmetry", False, err.obstruction)])
    failed = (r.residual for r in result.reports if not r.passed)
    return [CheckReport(
        f"hierarchy {args.op} from {args.seed} ({args.steps} steps)",
        result.all_passed and result.stopped_at is None,
        next(failed, DiffPoly.zero(seed.eps_order))
        if result.stopped_at is None else result.stopped_at[1],
        {"hierarchy": result})] + result.reports


def _check_grid(args) -> Optional[str]:
    from .numeric import GridSpec

    try:
        args.grid = GridSpec(length=args.length, points=args.points,
                             dt=args.dt, t_end=args.t_end, epsilon=args.epsilon)
    except ValueError as err:
        return f"validate-numeric: {err}"
    if not math.isfinite(args.amplitude):
        return "validate-numeric: amplitude must be finite"
    if not (args.width and math.isfinite(args.width)):
        return "validate-numeric: width must be nonzero and finite"
    return None


@command("validate-numeric", "numerical drift monitoring",
         _opt("--system", SYSTEM), _opt("--density", DENSITY),
         _opt("--epsilon", type=float, default=1e-2),
         _opt("--points", type=int, default=256),
         _opt("--length", type=float, default=40.0),
         _opt("--dt", type=float, default=1e-4),
         _opt("--t-end", type=float, default=1.0),
         _opt("--amplitude", type=float, default=2.0),
         _opt("--width", type=float, default=1.0), check=_check_grid)
def cmd_validate_numeric(args, model, system, T):
    from dataclasses import asdict

    from .numeric import (_density, _drift_rows, integrate_pde, max_drift,
                          sech_squared_profile)

    grid = args.grid
    ic = sech_squared_profile(grid, amplitude=args.amplitude, width=args.width)
    # a density that cannot be evaluated is refused before the first step
    density = _density(T, grid, grid.epsilon)
    name = f"numeric {args.density} on {args.system} (eps={args.epsilon})"
    try:
        traj = integrate_pde(system, grid, ic)
    except Diverged as err:  # the drift of a run that blew up is unbounded
        return [CheckReport(name, False, math.inf, {"error": str(err)})]
    rows = _drift_rows(traj.times, traj.profiles, grid.dx, density)
    if args.format == "json":
        print(json.dumps({"command": args.command, "grid": asdict(grid),
                          "rows": rows}, indent=2))
        return 0
    return [CheckReport(name, True, 0,
                        {"max_drift": f"{max_drift(rows):.6e}",
                         "samples": str(len(rows))})]


@command("print", "canonical form of a model")
def cmd_print(args, model):
    sys.stdout.write(print_model(model))
    return 0


def _arguments(parser: argparse.ArgumentParser,
               spec: Command) -> argparse.ArgumentParser:
    """The parser, with the arguments of the subcommand `spec` declared."""
    parser.add_argument("model", help="model file (.jf) or built-in name")
    parser.add_argument("--format", choices=("text", "json", "latex"),
                        default="text")
    for flag, kwargs, _ in spec.options:
        parser.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with the parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="jetflow",
        description="Verify approximate symmetries, conservation laws and "
                    "bi-Hamiltonian structures of perturbed evolution equations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        _arguments(sub.add_parser(name, help=spec.help), spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one call of the CLI and return its exit code.

    When argv[0] names a subcommand, one parser, that of the subcommand
    alone, parses the rest: it prints the same help and errors as the
    subparser of build_parser(), whose name it takes as its prog.  Any
    other argv, and the errors argparse reports with the top-level usage
    (leftover arguments and the argument checks of a Command), go to the
    full parser.  Nothing is kept from one call to the next.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in COMMANDS:
            parser = _arguments(argparse.ArgumentParser(
                prog=f"jetflow {argv[0]}"), COMMANDS[argv[0]])
            args, extra = parser.parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args, extra = build_parser().parse_known_args(argv)
        spec = COMMANDS[args.command]
        error = (extra and f"unrecognized arguments: {' '.join(extra)}"
                 or spec.check and spec.check(args))
        if error:
            build_parser().error(error)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        model = load_model(args.model)
        values = [_resolve(model, args, flag, ref)
                  for flag, _, ref in spec.options if ref]
        checks = spec.handler(args, model, *values)
        return checks if isinstance(checks, int) else _finish(checks, model, args)
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
