"""Numerical cross-check of approximate conservation.

Integrates a perturbed evolution equation pseudo-spectrally (classical RK4
in time, periodic domain) with eps substituted by a concrete number, then
monitors functional values along the trajectory.  Approximate conservation
shows up as functional drift that shrinks with eps.  Space derivatives take
one rfft and one batched irfft per evaluation (see _Evaluator); odd orders
drop the Nyquist mode (Trefethen, Spectral Methods in MATLAB, ch. 3).

Each right-hand side or density is compiled once per grid into a program:
a fixed tuple of (ufunc, args) steps bound to arrays the _Evaluator keeps,
so an evaluation runs those calls and nothing else, with no walk over the
terms and no new array.  integrate_pde binds two programs, u -> acc for k1
and stage -> k for k2..k4, and sums the stages in place.  The transforms
are the pocketfft ufuncs that np.fft.rfft and np.fft.irfft end in, called
directly with the default axes and a positional output, so they return the
same bits without the wrapper's per-call dtype, axis and norm handling.
The inverse transform is unscaled: the 1/n of a default-norm irfft is
folded into the multipliers, which is exact because n is a power of two.
Every operand a step hands to a ufunc is a kept array: coefficients, FFT
scales, exponents and the RK4 constants are 0-d float64 arrays built once,
because a ufunc converts a Python scalar operand on every call.  Python
floats are left only to the time arithmetic (the stage times and the saved
times).
Every floating-point operation, and its order, is that of the textbook
form `u + dt/6 (k1 + 2 k2 + 2 k3 + k4)` with default-norm FFTs and each
term multiplied out left to right (a coefficient of exactly +1 or -1 is an
add or a subtract instead, which is exact), so trajectories are bit for
bit those of that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from numpy.fft import _pocketfft_umath as pocketfft  # numpy >= 2.0

from .errors import Diverged, ResourceLimit, Unsupported
from .jets import DiffPoly, EvolutionSystem, Functional, _unpack

MAX_RHS_JET_ORDER = 6
MAX_DENSITY_JET_ORDER = 4
MAX_POINTS = 2 ** 14
MAX_STEPS = 10 ** 6
MAX_SAVED_VALUES = 2 ** 24  # saved profiles x points: 128 MiB of float64

# kept 0-d operands shared by every program: the FFT scale 1 and the zero
# polynomial's value
_ONE, _ZERO = np.array(1.0), np.array(0.0)
_ONE.flags.writeable = _ZERO.flags.writeable = False


@dataclass
class GridSpec:
    """Periodic spatial grid and time-stepping parameters.

    t_end must be a whole number of dt steps, at least one (up to rounding),
    so that a run ends exactly at t_end.
    """

    length: float = 40.0
    points: int = 256
    dt: float = 1e-4
    t_end: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.points < 16 or self.points & (self.points - 1):
            raise ValueError("points must be a power of two, at least 16")
        if not all(0 < v < np.inf for v in (self.dt, self.length, self.t_end)):
            raise ValueError("length, dt and t_end must be positive and finite")
        if not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        steps = self.t_end / self.dt  # inf is left to the step cap
        if steps < np.inf and (round(steps) < 1
                               or abs(steps - round(steps)) > 1e-9 * steps):
            raise ValueError("t_end must be a whole number of dt steps, "
                             "at least one")

    @property
    def dx(self) -> float:
        return self.length / self.points

    def x_grid(self) -> np.ndarray:
        return np.arange(self.points) * self.dx


@dataclass
class Trajectory:
    times: np.ndarray   # (nsave,)
    profiles: np.ndarray  # (nsave, points)
    grid: GridSpec


class _Evaluator:
    """A differential polynomial compiled for one grid and eps value.

    Building it compiles the polynomial into a program: a fixed tuple of
    (ufunc, args) steps bound to arrays it keeps, namely a source sample,
    the spectrum and derivative buffers, one scratch array, one power array
    and an output.  `bind(source, out)` builds a program that reads another
    kept source and writes another kept output, and `run(program, t)` runs
    it: the t-dependent coefficients, each computed as a Python float and
    written into the 0-d array its step reads, then `f(*args)` per step, with
    no walk over the terms, no branch per factor and no new array.  Every
    operand of a step is a kept array: each coefficient and each exponent
    above 2 is a 0-d float64 array, built with the program, and the FFT
    scale and the zero are shared 0-d constants, so no call converts a
    Python scalar; Python floats serve only the time arithmetic.  A call
    `evaluator(u, t)` copies u into the evaluator's own source, runs its
    program and returns a copy of the output.

    Every floating-point operation keeps the order of the textbook form: per
    term the coefficient (times t^k), then x^a, then each factor in order,
    a power taken first (np.square for ^2 and np.power above, as `f ** e`
    does); the first term is written into the output and the later ones are
    added in order.  A coefficient of exactly +1 or -1 drops its product
    and becomes an add or a subtract (a negation in first place), which is
    exact in IEEE arithmetic.  The derivatives take one rfft of the source,
    one product with the real-FFT multipliers (i k)^m / n of just the
    orders the terms use, and one unscaled batched irfft for all of them.

    A coefficient, a power of eps or a power of t that does not fit a float
    raises Unsupported.  A source must be a real float array of exactly
    `points` values: the pocketfft ufuncs silently crop or zero-pad a sample
    of another length, so every caller checks it first.
    """

    def __init__(self, poly: DiffPoly, grid: GridSpec, eps_value: float,
                 max_order: int, what: str):
        order = max(poly.max_jet_order(), 0)
        if order > max_order:
            raise Unsupported(f"{what} jet order {order} exceeds {max_order}")
        values: dict = {}
        den = poly._den
        for (m, e), c in poly._flat.items():
            try:
                c = c / den  # correctly rounded, as float(Fraction(c, den))
            except OverflowError:
                raise Unsupported(f"a {what} coefficient does not fit a "
                                  f"float") from None
            values[m] = values.get(m, 0.0) + c * _power(eps_value, e, "eps")
        monomials = [(value, _unpack(m)) for m, value in values.items()
                     if value != 0.0]
        orders = sorted({o for _, mon in monomials for o, _ in mon.jets}
                        - {0})
        # (i k)^m = i^m k^m; odd orders drop the Nyquist mode so that odd
        # derivatives stay real and skew.  points is a power of two, so the
        # 1/n folded in here is exact and the unscaled irfft returns the bits
        # of a default-norm irfft of the unscaled product
        m = np.array(orders, dtype=int).reshape(-1, 1)
        k = 2.0 * np.pi * np.fft.rfftfreq(grid.points, d=grid.dx)
        multipliers = np.array([1, 1j, -1, -1j])[m % 4] * k ** m
        multipliers[m[:, 0] % 2 == 1, -1] = 0.0
        self.multipliers = multipliers / grid.points
        self.spectrum = np.empty(grid.points // 2 + 1, dtype=complex)
        self.scaled = np.empty_like(self.multipliers)
        self.derivatives = np.empty((len(orders), grid.points))
        self.scratch = np.empty(grid.points)
        self.power = np.empty(grid.points)
        # per term its coefficient (a 0-d array, which run() rewrites for a
        # t^k term), its sign when that coefficient is exactly +1 or -1
        # (else 0) and its factors (array, exponent), None standing for the
        # source
        rows = dict(zip(orders, self.derivatives))
        x = grid.x_grid()
        self.timed = []
        self.terms = []
        for value, mon in monomials:
            coeff = np.array(value)
            if mon.t:
                self.timed.append((coeff, value, mon.t))
            factors = [(x ** mon.x, 1)] if mon.x else []
            factors += [(rows.get(o), e) for o, e in mon.jets]
            sign = value if factors and not mon.t and abs(value) == 1.0 else 0
            self.terms.append((coeff, sign, factors))
        self.source = np.empty(grid.points)
        self.out = np.empty(grid.points)
        self.program = self.bind(self.source, self.out)

    def bind(self, source: np.ndarray, out: np.ndarray) -> tuple:
        """The program that evaluates the polynomial at `source` into `out`,
        two kept float arrays of the grid's length."""
        steps = []
        if len(self.derivatives):
            # the calls np.fft.rfft(u) and np.fft.irfft(scaled, points,
            # norm="forward") make, whose normalisation factor is 1, with
            # the default axes and a positional out
            steps += [(pocketfft.rfft_n_even, (source, _ONE, self.spectrum)),
                      (np.multiply, (self.multipliers, self.spectrum,
                                     self.scaled)),
                      (pocketfft.irfft, (self.scaled, _ONE,
                                         self.derivatives))]
        if not self.terms:
            steps.append((np.copyto, (out, _ZERO)))
        for n, (coeff, sign, factors) in enumerate(self.terms):
            dest = self.scratch if n else out
            acc = None if sign else coeff
            for f, e in factors:
                f = source if f is None else f
                if e > 1:
                    power = dest if acc is None else self.power
                    steps.append((np.square, (f, power)) if e == 2 else
                                 (np.power, (f, np.array(float(e)), power)))
                    f = power
                if acc is not None:
                    steps.append((np.multiply, (acc, f, dest)))
                    f = dest
                acc = f
            # acc now holds the term: dest, a kept array or a 0-d one
            if n:
                steps.append((np.subtract if sign < 0 else np.add,
                              (out, acc, out)))
            elif sign < 0:
                steps.append((np.negative, (acc, out)))
            elif acc is not out:
                steps.append((np.copyto, (out, acc)))
        return tuple(steps)

    def run(self, program: tuple, t: float) -> None:
        """Run a program of bind() at time t."""
        for coeff, value, t_exp in self.timed:
            coeff[()] = value * _power(t, t_exp, "t")
        for f, args in program:
            f(*args)

    def __call__(self, u: np.ndarray, t: float) -> np.ndarray:
        """The polynomial at the sample u and time t, as a new array."""
        np.copyto(self.source, u)
        self.run(self.program, t)
        return self.out.copy()


def _power(base: float, e: int, name: str) -> float:
    """base ** e; Unsupported when it does not fit a float."""
    try:
        return base ** e
    except OverflowError:
        raise Unsupported(f"{name}^{e} at {name} = {base:g} does not fit a "
                          f"float") from None


def _checked_steps(grid: GridSpec) -> int:
    """RK4 steps to t_end; ResourceLimit past the point or step cap."""
    steps = grid.t_end / grid.dt  # may be inf, so compare before rounding
    if grid.points > MAX_POINTS or steps >= MAX_STEPS + 0.5:
        raise ResourceLimit(f"grid of {grid.points} points and {steps:.6g} "
                            f"steps exceeds the caps of {MAX_POINTS} points "
                            f"and {MAX_STEPS} steps")
    return int(round(steps))


def integrate_pde(sys: EvolutionSystem, grid: GridSpec, ic: np.ndarray,
                  save_every: Optional[int] = None) -> Trajectory:
    """March u_t = K[u, eps] with RK4 and spectral space derivatives.

    A profile is kept every `save_every` steps (default: about 200 in all),
    plus the first and the last.  Raises ValueError when `save_every` is
    below 1 or `ic` is complex, not finite or not of the grid's length,
    ResourceLimit before allocating anything when the grid exceeds
    MAX_POINTS or MAX_STEPS or the kept profiles would hold more than
    MAX_SAVED_VALUES floats, and Diverged (with the offending step) as soon
    as a non-finite value appears, which is how CFL violations surface.
    """
    nsteps = _checked_steps(grid)
    if save_every is None:
        save_every = max(1, nsteps // 200)
    if save_every < 1:
        raise ValueError("save_every must be at least 1")
    saved = 1 + -(-nsteps // save_every)  # step 0, every save_every-th, the last
    if saved * grid.points > MAX_SAVED_VALUES:
        raise ResourceLimit(f"{saved} saved profiles of {grid.points} points "
                            f"exceed the cap of {MAX_SAVED_VALUES} values")
    rhs = _Evaluator(sys.rhs, grid, grid.epsilon, MAX_RHS_JET_ORDER,
                     "right-hand side")
    if np.iscomplexobj(ic):
        raise ValueError("initial profile must be real")
    ic = np.asarray(ic, dtype=float)
    if ic.shape != (grid.points,):
        raise ValueError("initial profile length must match the grid")
    if not np.isfinite(ic).all():
        raise ValueError("initial profile must be finite")

    u = ic.copy()
    stage, acc, k = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    ones = np.ones_like(u)
    run = rhs.run
    first, later = rhs.bind(u, acc), rhs.bind(stage, k)
    times = [0.0]
    profiles = [u.copy()]
    t = 0.0
    dt = grid.dt
    half = 0.5 * dt
    # the step's constants as 0-d operands; the times stay Python floats
    c_half, c_dt, c_sixth = np.array(half), np.array(dt), np.array(dt / 6.0)
    add, multiply = np.add, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            # k1 into acc, k2..k4 into k; stage = u + c k and acc = k1 +
            # 2 k2 + 2 k3 + k4, summed in place in that order (k + k is
            # 2 k exactly)
            run(first, t)
            add(u, multiply(acc, c_half, stage), stage)
            run(later, t + half)
            add(u, multiply(k, c_half, stage), stage)
            add(acc, add(k, k, k), acc)
            run(later, t + half)
            add(u, multiply(k, c_dt, stage), stage)
            add(acc, add(k, k, k), acc)
            run(later, t + dt)
            add(acc, k, acc)
            multiply(acc, c_sixth, acc)
            add(u, acc, u)
            t = step * dt
            # u . 1 is non-finite when u is; a sum of finite values may
            # overflow, so confirm before raising
            if not math.isfinite(u.dot(ones)) and not np.isfinite(u).all():
                raise Diverged(f"non-finite value at step {step} (t={t:.6g})", step)
            if step % save_every == 0 or step == nsteps:
                times.append(t)
                profiles.append(u.copy())
    return Trajectory(np.array(times), np.array(profiles), grid)


def monitor_functional(traj: Trajectory, T: Functional,
                       eps_value: Optional[float] = None) -> List[dict]:
    """Evaluate int T dx along the trajectory; rows {t, value, drift}.

    Drift is relative to the initial value with a unit floor, so exactly
    conserved functionals report at the discretization noise level.  Raises
    ValueError, before any evaluation, unless the profiles are a real 2-D
    array of one row per time and one column per grid point.
    """
    points = traj.grid.points
    if np.iscomplexobj(traj.profiles):
        raise ValueError("trajectory profiles must be real")
    profiles = np.asarray(traj.profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != points:
        raise ValueError(f"trajectory profiles must be a 2-D array of "
                         f"{points} columns, one per grid point")
    if len(profiles) != len(traj.times):
        raise ValueError(f"trajectory has {len(profiles)} profiles but "
                         f"{len(traj.times)} times")
    if eps_value is None:
        eps_value = traj.grid.epsilon
    return _drift_rows(traj.times, profiles, traj.grid.dx,
                       _density(T, traj.grid, eps_value))


def _density(T: Functional, grid: GridSpec, eps_value: float) -> _Evaluator:
    """The evaluator of T's density; Unsupported when it cannot be built."""
    return _Evaluator(T.density, grid, eps_value, MAX_DENSITY_JET_ORDER,
                      "density")


def _drift_rows(times, profiles, dx: float, density: _Evaluator) -> List[dict]:
    """The rows of monitor_functional, from checked profiles."""
    rows = []
    initial = None
    # a value past the float range reads inf, as in integrate_pde
    with np.errstate(over="ignore", invalid="ignore"):
        for t, u in zip(times, profiles):
            value = float(np.sum(density(u, float(t)))) * dx
            if initial is None:
                initial = value
            drift = abs(value - initial) / max(1.0, abs(initial))
            rows.append({"t": float(t), "value": value, "drift": drift})
    return rows


def max_drift(rows: List[dict]) -> float:
    return max(row["drift"] for row in rows)


def sech_squared_profile(grid: GridSpec, amplitude: float = 2.0,
                         width: float = 1.0,
                         center: Optional[float] = None) -> np.ndarray:
    """A KdV-type solitary pulse, the default numeric initial condition."""
    _checked_steps(grid)  # the grid caps, before allocating
    if center is None:
        center = grid.length / 2.0
    x = grid.x_grid()
    return amplitude / np.cosh((x - center) / width) ** 2
