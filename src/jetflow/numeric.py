"""Numerical cross-check of approximate conservation.

Integrates a perturbed evolution equation pseudo-spectrally (classical RK4
in time, periodic domain) with eps substituted by a concrete number, then
monitors functional values along the trajectory.  Approximate conservation
shows up as functional drift that shrinks with eps.  Space derivatives take
one rfft and one batched irfft per evaluation (see _Evaluator); odd orders
drop the Nyquist mode (Trefethen, Spectral Methods in MATLAB, ch. 3).

The transforms are the pocketfft ufuncs that np.fft.rfft and np.fft.irfft
end in, called directly with the arguments those wrappers pass them, so
they return the same bits without the wrapper's per-call dtype, axis and
norm handling.  They write into arrays each _Evaluator allocates once, and
the RK4 loop sums its stages in place.  The inverse transform is unscaled:
the 1/n of a default-norm irfft is folded into the multipliers, which is
exact because n is a power of two.  Every floating-point operation, and its
order, is that of the textbook form `u + dt/6 (k1 + 2 k2 + 2 k3 + k4)` with
default-norm FFTs, so trajectories are bit for bit those of that form.
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

    Called with a periodic sample u and a time t, it returns the polynomial
    at every grid point as a new array.  It keeps the real-FFT multipliers
    (i k)^m / n of just the derivative orders its terms use, and the arrays
    the transforms write into, so a call is one rfft of u, one product, one
    unscaled batched irfft for all of those orders, and a product per term.
    A term names each factor by its row of derivatives, None meaning u.

    u must be a real float array of exactly `points` values: the pocketfft
    ufuncs silently crop or zero-pad a sample of another length, so every
    caller checks it first.
    """

    def __init__(self, poly: DiffPoly, grid: GridSpec, eps_value: float,
                 max_order: int, what: str):
        order = max(poly.max_jet_order(), 0)
        if order > max_order:
            raise Unsupported(f"{what} jet order {order} exceeds {max_order}")
        values: dict = {}
        for (m, e), c in poly._flat.items():
            values[m] = values.get(m, 0.0) + float(c) * eps_value ** e
        monomials = [(value, _unpack(m)) for m, value in values.items()
                     if value != 0.0]
        orders = sorted({o for _, mon in monomials for o, _ in mon.jets}
                        - {0})
        row = {o: i for i, o in enumerate(orders)}
        x = grid.x_grid()
        self.terms = [(value, x ** mon.x if mon.x else None, mon.t,
                       tuple((row.get(o), e) for o, e in mon.jets))
                      for value, mon in monomials]
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
        self.rows = list(self.derivatives)
        self.points = grid.points

    def __call__(self, u: np.ndarray, t: float) -> np.ndarray:
        rows = self.rows
        if rows:
            # the calls np.fft.rfft(u) and np.fft.irfft(scaled, points,
            # norm="forward") make, whose normalisation factor is 1
            pocketfft.rfft_n_even(u, 1, axes=[(0,), (), (0,)],
                                  out=self.spectrum)
            np.multiply(self.multipliers, self.spectrum, out=self.scaled)
            pocketfft.irfft(self.scaled, 1, axes=[(1,), (), (1,)],
                            out=self.derivatives)
        total = None
        for value, x_pow, t_exp, factors in self.terms:
            acc = value * t ** t_exp if t_exp else value
            if x_pow is not None:
                acc = acc * x_pow
            for i, e in factors:
                f = u if i is None else rows[i]
                acc = acc * (f if e == 1 else f ** e)
            # acc is a new array (or a float), never a kept one
            if total is None:
                total = acc
            else:
                total += acc
        if total is None or np.ndim(total) == 0:
            return np.full(self.points, total or 0.0)
        return total


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
    stage = np.empty_like(u)
    times = [0.0]
    profiles = [u.copy()]
    t = 0.0
    dt = grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            # stage = u + c k and acc = k1 + 2 k2 + 2 k3 + k4, summed in
            # place in that order; each k is a new array, free to scale
            acc = rhs(u, t)
            np.add(u, np.multiply(acc, half, out=stage), out=stage)
            k = rhs(stage, t + half)
            np.add(u, np.multiply(k, half, out=stage), out=stage)
            acc += np.multiply(k, 2.0, out=k)
            k = rhs(stage, t + half)
            np.add(u, np.multiply(k, dt, out=stage), out=stage)
            acc += np.multiply(k, 2.0, out=k)
            acc += rhs(stage, t + dt)
            acc *= sixth
            u += acc
            t = step * dt
            # a sum of finite values may overflow, so confirm before raising
            if not math.isfinite(u.sum()) and not np.isfinite(u).all():
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
    density = _Evaluator(T.density, traj.grid, eps_value,
                         MAX_DENSITY_JET_ORDER, "density")
    dx = traj.grid.dx
    rows = []
    initial = None
    for t, u in zip(traj.times, profiles):
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
