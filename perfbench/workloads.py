"""The three benchmark workloads and their known answers.

Every op is one user-level request: an in-process `jetflow` CLI command for
`hierarchy` and `verify`, one eps value of the numeric drift experiment for
`drift`.  `run(key)` performs an op and returns its raw outcome;
`verify_pass(keys, outcomes)` judges every op of a finished pass against
answers written by hand from the fixtures and the acceptance criteria, never
from program output.  Verification runs after timing ends, untraced.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json

G = "gardner"
B = "potential_burgers"


def run_cli(argv):
    """Run one CLI command in-process; return (exit code, stdout)."""
    from jetflow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Hand-built expected values (criteria 8 and 9), from Context atoms.


class Expected:
    def __init__(self):
        from jetflow import Context, load_fixture

        ctx = Context(eps_order=1)
        u, u1, u2, u3 = ctx.u(0), ctx.u(1), ctx.u(2), ctx.u(3)
        u4, u5, u7 = ctx.u(4), ctx.u(5), ctx.u(7)
        eps = ctx.eps
        self.gardner = load_fixture(G)
        self.K2 = eps * (u5 - 10 * u * u3 - 20 * u1 * u2 + 30 * u ** 2 * u1)
        self.K3 = eps * (-u7 + 14 * u * u5 + 42 * u1 * u4
                         + 70 * (u2 * u3 - u ** 2 * u3 + 2 * u ** 3 * u1
                                 - 4 * u * u1 * u2 - u1 ** 3))
        # eps-part of R applied to the Gardner right-hand side (criterion 9)
        self.unbarred_K2_eps = (55 * u ** 3 * u1 - 39 * u * u1 * u2
                                - 9 * u ** 2 * u3 - 12 * u1 ** 3)

    @staticmethod
    def poly(text):
        from jetflow import parse_model

        return parse_model(f"set eps_order = 1;\nchar X = {text};").characteristics["X"]

    @staticmethod
    def functional(text):
        from jetflow import parse_model

        return parse_model(f"set eps_order = 1;\ndensity X = {text};").densities["X"]

    def density(self, name):
        return self.gardner.densities[name]


@functools.lru_cache(maxsize=None)
def expected():
    return Expected()


def _safe(check, *args):
    """A check that raises counts as a mismatch."""
    try:
        return check(*args) is True
    except Exception:
        return False


def _checks(stdout):
    return json.loads(stdout)["checks"]


def _hierarchy_certificate(checks):
    return checks[0]["certificates"]["hierarchy"]


def barred_hierarchy_ok(checks, exp, steps):
    """Flows 1-2 are Kbar2, Kbar3 and functionals 1-2 are Hbar2, Hbar3
    modulo D_x (criterion 8); every flow inverted, nothing stopped."""
    h = _hierarchy_certificate(checks)
    return (h["stopped_at"] is None
            and len(h["flows"]) == steps + 1
            and len(h["functionals"]) == steps + 1
            and exp.poly(h["flows"][1]) == exp.K2
            and exp.poly(h["flows"][2]) == exp.K3
            and exp.functional(h["functionals"][1]).equivalent(exp.density("Hbar2"))
            and exp.functional(h["functionals"][2]).equivalent(exp.density("Hbar3")))


def unbarred_hierarchy_ok(checks, exp):
    """From the Gardner right-hand side: one new flow with the printed eps
    part, then a non-exactness obstruction (criterion 9)."""
    h = _hierarchy_certificate(checks)
    stop = h["stopped_at"]
    return (len(h["flows"]) == 2
            and exp.poly(h["flows"][1]).eps_component(1) == exp.unbarred_K2_eps
            and stop is not None and stop["obstruction"] not in (None, "0"))


def density_is(name):
    """The inverted characteristic's density equals fixture `name` mod D_x."""
    def check(checks, exp):
        found = checks[0]["certificates"]["density"]
        return exp.functional(found).equivalent(exp.density(name))
    return check


# ---------------------------------------------------------------------------
# hierarchy: the deepest barred hierarchy under the default jet-order cap.


class Hierarchy:
    ARGV = ["hierarchy", G, "--op", "R", "--seed", "Kbar1", "--steps", "4",
            "--dop", "D", "--format", "json"]
    # 1 seed symmetry + 5 x (conservation, regeneration) + 4 flow symmetries
    # + 10 pairs x 2 brackets + 10 commutations + the summary entry.
    CHECKS = 46
    # At most 10 ops a run, so that op_tail_s is always the run's maximum:
    # with 11 to 20 ops, the percentile with 10 ops beyond it is at or
    # below the median.
    max_passes = 10

    def pass_keys(self, rng):
        return [0]

    def warmup(self):
        run_cli(hierarchy("Kbar1", 1) + ["--format", "json"])

    def run(self, key):
        return run_cli(self.ARGV)

    def verify_pass(self, keys, outcomes):
        return [_safe(self._verify, out) for out in outcomes]

    def _verify(self, outcome):
        code, stdout = outcome
        checks = _checks(stdout)
        return (code == 0 and len(checks) == self.CHECKS
                and all(c["verdict"] == "pass" for c in checks)
                and barred_hierarchy_ok(checks, expected(), 4))


# ---------------------------------------------------------------------------
# verify: a fixed catalogue of small checks (criteria 2-9, README examples).


def sym(model, char):
    return ["check-symmetry", model, "--char", char, "--system", model]


def claw(density):
    return ["check-claw", G, "--density", density, "--system", G]


def noether(char, op):
    return ["noether", G, "--char", char, "--op", op]


def recursion(model, op, *extra):
    return ["check-recursion", model, "--op", op, "--system", model, *extra]


def hierarchy(seed, steps):
    return ["hierarchy", G, "--op", "R", "--seed", seed, "--steps", str(steps),
            "--dop", "D"]


# (argv, exit code, verdict of the first check or None, extra check or None).
# With exit code 0 every check must pass; with 1 the first check must fail.
CATALOGUE = [
    # criterion 2, plus Qbar5 (criterion 5) and Kbar1 (the hierarchy seed)
    (sym(G, "Q1"), 0, "pass", None),
    (sym(G, "Q2"), 0, "pass", None),
    (sym(G, "Q3"), 0, "pass", None),
    (sym(G, "Q4"), 0, "pass", None),
    (sym(G, "Q5"), 0, "pass", None),
    (sym(G, "Q6"), 0, "pass", None),
    (sym(G, "Q7"), 0, "pass", None),
    (sym(G, "Qbar5"), 0, "pass", None),
    (sym(G, "Kbar1"), 0, "pass", None),
    (sym(B, "Q1"), 0, "pass", None),
    (sym(B, "Q2"), 0, "pass", None),
    (sym(B, "Q3"), 0, "pass", None),
    (sym(B, "Q4"), 0, "pass", None),
    (sym(B, "Q5"), 0, "pass", None),
    (sym(B, "Q6"), 0, "pass", None),
    (sym(B, "Q7"), 0, "pass", None),
    (sym(B, "Q8"), 0, "pass", None),
    (sym(B, "Q9"), 0, "pass", None),
    (sym(B, "Q10"), 0, "pass", None),
    (sym(B, "Q11"), 0, "pass", None),
    (sym(B, "Q12"), 0, "pass", None),
    # every Gardner density is conserved
    (claw("M"), 0, "pass", None),
    (claw("H0"), 0, "pass", None),
    (claw("H1"), 0, "pass", None),
    (claw("P1"), 0, "pass", None),
    (claw("P2"), 0, "pass", None),
    (claw("P4"), 0, "pass", None),
    (claw("P5"), 0, "pass", None),
    (claw("P6"), 0, "pass", None),
    (claw("Pt2"), 0, "pass", None),
    (claw("Pt4"), 0, "pass", None),
    (claw("Pt5"), 0, "pass", None),
    (claw("Pt7"), 0, "pass", None),
    (claw("Pbar5"), 0, "pass", None),
    (claw("Hbar2"), 0, "pass", None),
    (claw("Hbar3"), 0, "pass", None),
    # criterion 3: inversion through D
    (noether("Q1", "D"), 0, "pass", density_is("P1")),
    (noether("Q2", "D"), 0, "pass", density_is("P2")),
    (noether("Q4", "D"), 0, "pass", density_is("P4")),
    (noether("Q5", "D"), 0, "pass", density_is("P5")),
    (noether("Q6", "D"), 0, "pass", density_is("P6")),
    # criterion 4: the bounded ansatz through E
    (noether("Q2", "E"), 0, "pass", density_is("Pt2")),
    (noether("Q4", "E"), 0, "pass", density_is("Pt4")),
    (noether("Q5", "E"), 0, "pass", density_is("Pt5")),
    (noether("Q7", "E"), 0, "pass", density_is("Pt7")),
    # criterion 5: Qbar5 = E(delta P5), and it inverts to Pbar5 through D
    (noether("Qbar5", "E"), 0, "pass", density_is("P5")),
    (noether("Qbar5", "D"), 0, "pass", density_is("Pbar5")),
    # expected fail: -2*eps*u in Q3 is not a total x-derivative
    (noether("Q3", "D"), 1, "fail", None),
    # criterion 6 and the README's action-mode example
    (recursion(B, "R1"), 0, "pass", None),
    (recursion(B, "R2"), 0, "pass", None),
    (recursion(G, "R", "--mode", "action", "--seeds", "Q1,Q4,Kbar1"), 0, "pass", None),
    # expected fail: the commutator of R does not close (ClosureError)
    (recursion(G, "R"), 1, "fail", None),
    # criterion 7
    (["check-pair", G, "--op1", "D", "--op2", "E"], 0, "pass", None),
    # criterion 8, two steps
    (hierarchy("Kbar1", 2), 0, "pass",
     lambda checks, exp: barred_hierarchy_ok(checks, exp, 2)),
    # expected fail, criterion 9: the unbarred hierarchy is obstructed
    (hierarchy("Q2", 2), 1, "fail", unbarred_hierarchy_ok),
    # the canonical model text; checked by parsing it back
    (["print", G], 0, None, None),
]


class Verify:
    max_passes = 0

    def __init__(self):
        self._judged = {}  # (key, outcome) -> verdict; outputs repeat

    def pass_keys(self, rng):
        keys = list(range(len(CATALOGUE)))
        rng.shuffle(keys)
        return keys

    def warmup(self):
        for key in range(len(CATALOGUE)):
            self.run(key)

    def run(self, key):
        return run_cli(CATALOGUE[key][0] + ["--format", "json"])

    def verify_pass(self, keys, outcomes):
        verdicts = []
        for key, outcome in zip(keys, outcomes):
            if (key, outcome) not in self._judged:
                self._judged[key, outcome] = _safe(self._verify, CATALOGUE[key],
                                                   outcome)
            verdicts.append(self._judged[key, outcome])
        return verdicts

    @staticmethod
    def _verify(entry, outcome):
        from jetflow import parse_model

        exp = expected()
        argv, code, verdict, extra = entry
        found_code, stdout = outcome
        if found_code != code:
            return False
        if argv[0] == "print":
            return parse_model(stdout) == exp.gardner
        checks = _checks(stdout)
        if code == 0 and not all(c["verdict"] == "pass" for c in checks):
            return False
        if checks[0]["verdict"] != verdict:
            return False
        return extra is None or extra(checks, exp)


# ---------------------------------------------------------------------------
# drift: criterion 11 through the library, one eps value per op.


class Drift:
    max_passes = 0
    EPSILONS = (0.0, 1e-3, 1e-2)

    def __init__(self):
        from jetflow import load_fixture

        self.model = load_fixture(G)

    def pass_keys(self, rng):
        keys = list(self.EPSILONS)
        rng.shuffle(keys)
        return keys

    def warmup(self):
        from jetflow import GridSpec, integrate_pde, sech_squared_profile

        grid = GridSpec(t_end=1e-3)
        integrate_pde(self.model.systems[G], grid, sech_squared_profile(grid))

    def run(self, eps):
        from jetflow import (GridSpec, integrate_pde, max_drift,
                             monitor_functional, sech_squared_profile)

        grid = GridSpec(epsilon=eps)  # L=40, N=256, dt=1e-4, T=1
        traj = integrate_pde(self.model.systems[G], grid,
                             sech_squared_profile(grid))
        p5 = max_drift(monitor_functional(traj, self.model.densities["P5"],
                                          eps_value=1.0))
        mass = max_drift(monitor_functional(traj, self.model.densities["M"]))
        return p5, mass

    def verify_pass(self, keys, outcomes):
        """Criterion 11: P5 drift above the eps=0 floor and growing with
        eps; mass drift below 1e-6.  A failed inequality fails the pass."""
        def scaling():
            drift = {eps: out[0] for eps, out in zip(keys, outcomes)}
            return (drift[1e-3] > drift[0.0] and drift[1e-2] > drift[0.0]
                    and drift[1e-3] < drift[1e-2])

        holds = _safe(scaling)
        return [holds and _safe(lambda: out[1] < 1e-6) for out in outcomes]


WORKLOADS = {"hierarchy": Hierarchy, "verify": Verify, "drift": Drift}
