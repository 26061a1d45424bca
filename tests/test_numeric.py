from fractions import Fraction

import numpy as np
import pytest

from jetflow import (Context, Diverged, EvolutionSystem, Functional, GridSpec,
                     ResourceLimit, Unsupported, integrate_pde, max_drift,
                     monitor_functional, sech_squared_profile)
from jetflow.jets import _unpack
from jetflow.numeric import (MAX_DENSITY_JET_ORDER, MAX_POINTS,
                             MAX_RHS_JET_ORDER, MAX_SAVED_VALUES, MAX_STEPS,
                             Trajectory, _Evaluator, _ONE, pocketfft)


@pytest.fixture(scope="module")
def short_grid():
    return GridSpec(t_end=0.1, epsilon=0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(points=100)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(points=8)
    with pytest.raises(ValueError):
        GridSpec(dt=-1e-4)


@pytest.mark.parametrize("t_end, dt", [(1e-5, 1e-4), (1.5e-4, 1e-4),
                                       (0.3, 0.2)])
def test_grid_rejects_t_end_off_the_step_grid(t_end, dt):
    # no step, or a last step short of t_end, would report a run that was
    # never made
    with pytest.raises(ValueError, match="whole number of dt steps"):
        GridSpec(t_end=t_end, dt=dt)


def test_grid_accepts_whole_step_counts_up_to_rounding():
    for t_end, dt in ((1e-4, 1e-4), (0.3, 0.1), (1.0, 1e-4), (0.1, 1.25e-5)):
        GridSpec(t_end=t_end, dt=dt)
    # a ratio past the float range is left to the step cap
    GridSpec(t_end=1e300, dt=1e-10)


@pytest.mark.parametrize("field", ["length", "dt", "t_end"])
def test_grid_rejects_non_finite(field):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GridSpec(**{field: value})


def test_zero_initial_data_stays_zero(gardner_sys, short_grid):
    traj = integrate_pde(gardner_sys, short_grid,
                         np.zeros(short_grid.points))
    assert np.all(traj.profiles == 0.0)


def test_soliton_stable_and_resolution_consistent(gardner_sys):
    # the u_xxx term has CFL ~ dx^3, so doubling N needs dt/8
    coarse = GridSpec(t_end=0.1, epsilon=0.0)
    fine = GridSpec(points=512, dt=1.25e-5, t_end=0.1, epsilon=0.0)
    traj_c = integrate_pde(gardner_sys, coarse, sech_squared_profile(coarse))
    traj_f = integrate_pde(gardner_sys, fine, sech_squared_profile(fine))
    assert np.all(np.isfinite(traj_c.profiles))
    # compare the final profiles on the shared coarse grid points
    final_c = traj_c.profiles[-1]
    final_f = traj_f.profiles[-1][::2]
    assert np.max(np.abs(final_c - final_f)) < 1e-6


def test_cfl_violation_diverges_and_halving_dt_recovers(gardner_sys):
    bad = GridSpec(dt=5e-3, t_end=0.05, epsilon=0.0)
    with pytest.raises(Diverged) as err:
        integrate_pde(gardner_sys, bad, sech_squared_profile(bad))
    # the first non-finite step, as the textbook RK4 form reaches it
    assert err.value.step == 5
    ok = GridSpec(dt=1e-4, t_end=0.05, epsilon=0.0)
    integrate_pde(gardner_sys, ok, sech_squared_profile(ok))


def test_mass_conserved_at_scheme_precision(gardner, gardner_sys, short_grid):
    traj = integrate_pde(gardner_sys, short_grid,
                         sech_squared_profile(short_grid))
    rows = monitor_functional(traj, gardner.densities["M"])
    assert max_drift(rows) < 1e-10


def test_drift_rows_shape(gardner, gardner_sys, short_grid):
    traj = integrate_pde(gardner_sys, short_grid,
                         sech_squared_profile(short_grid))
    rows = monitor_functional(traj, gardner.densities["P1"])
    assert rows[0]["t"] == 0.0 and rows[0]["drift"] == 0.0
    assert rows[-1]["t"] == pytest.approx(short_grid.t_end)
    assert all(row["drift"] >= 0.0 for row in rows)


def test_monitor_functional_checks_the_trajectory_up_front(gardner):
    # the evaluator's transforms crop or pad a sample of the wrong length in
    # silence, so a trajectory that does not fit its grid is refused
    grid = GridSpec()
    times = np.array([0.0, 0.5])
    wide = Trajectory(times, np.ones((2, 300)), grid)
    for name in ("M", "P5"):
        with pytest.raises(ValueError, match="256 columns"):
            monitor_functional(wide, gardner.densities[name])
    fits = np.ones((2, grid.points))
    for bad, what in ((Trajectory(times[:1], fits, grid), "2 profiles"),
                      (Trajectory(times, fits[0], grid), "256 columns"),
                      (Trajectory(times, fits + 0j, grid), "real")):
        with pytest.raises(ValueError, match=what):
            monitor_functional(bad, gardner.densities["M"])
    rows = monitor_functional(Trajectory(times, fits, grid),
                              gardner.densities["M"])
    assert [row["value"] for row in rows] == [grid.length] * 2


def test_eps_scaling_of_functional_drift(gardner, gardner_sys):
    drifts = {}
    for eps in (1e-2, 1e-3):
        grid = GridSpec(t_end=0.2, epsilon=eps)
        traj = integrate_pde(gardner_sys, grid, sech_squared_profile(grid))
        rows = monitor_functional(traj, gardner.densities["P5"], eps_value=1.0)
        drifts[eps] = max_drift(rows)
    assert drifts[1e-3] < drifts[1e-2]
    assert drifts[1e-2] / drifts[1e-3] == pytest.approx(10.0, rel=0.2)


def test_eps_scaling_with_explicit_x_t_density(gardner, gardner_sys):
    # core of P6 = 3t*u^2 + x*u drifts at O(eps) under the Gardner flow;
    # the pulse stays far from the edge so the x weight is unambiguous
    drifts = {}
    for eps in (0.0, 1e-2, 1e-3):
        grid = GridSpec(t_end=0.2, epsilon=eps)
        traj = integrate_pde(gardner_sys, grid, sech_squared_profile(grid))
        rows = monitor_functional(traj, gardner.densities["P6"], eps_value=1.0)
        drifts[eps] = max_drift(rows)
    assert drifts[0.0] < drifts[1e-3] < drifts[1e-2]


def test_grid_refinement_sanity_burgers(burgers, burgers_sys):
    # double N, halve dt: stable for a second-order flow, drifts must agree
    # within the configured sanity factor
    ctx = Context(eps_order=1)
    mass = Functional(ctx.u(0))
    base = GridSpec(t_end=0.1, epsilon=1e-2)
    refined = GridSpec(points=512, dt=5e-5, t_end=0.1, epsilon=1e-2)
    drifts = []
    for grid in (base, refined):
        traj = integrate_pde(burgers_sys, grid, sech_squared_profile(grid))
        rows = monitor_functional(traj, mass)
        drifts.append(max_drift(rows))
    assert drifts[0] > 0
    ratio = max(drifts) / min(drifts)
    assert ratio < 10.0


def test_grid_refinement_sanity_gardner(gardner, gardner_sys):
    # third-order dispersion: the refined grid keeps the CFL number (dt/8)
    base = GridSpec(t_end=0.1, epsilon=1e-2)
    refined = GridSpec(points=512, dt=1.25e-5, t_end=0.1, epsilon=1e-2)
    drifts = []
    for grid in (base, refined):
        traj = integrate_pde(gardner_sys, grid, sech_squared_profile(grid))
        rows = monitor_functional(traj, gardner.densities["P5"], eps_value=1.0)
        drifts.append(max_drift(rows))
    ratio = max(drifts) / min(drifts)
    assert ratio < 10.0


def test_jet_order_caps():
    ctx = Context(eps_order=1)
    too_high = EvolutionSystem(ctx.u(7))
    grid = GridSpec(t_end=0.01)
    with pytest.raises(Unsupported):
        integrate_pde(too_high, grid, np.zeros(grid.points))
    sys_ok = EvolutionSystem(ctx.u(2))
    traj = integrate_pde(sys_ok, grid, np.zeros(grid.points))
    with pytest.raises(Unsupported):
        monitor_functional(traj, Functional(ctx.u(5) ** 2))


def test_jet_order_caps_at_the_boundary():
    # one RK4 step of a zero profile: the right-hand side cap is u{6} and the
    # density cap u_xxxx; one order more raises before any work
    rhs_cap, density_cap = MAX_RHS_JET_ORDER, MAX_DENSITY_JET_ORDER
    assert (rhs_cap, density_cap) == (6, 4)
    ctx = Context(eps_order=1)
    grid = GridSpec(t_end=1e-4)
    zero = np.zeros(grid.points)
    traj = integrate_pde(EvolutionSystem(ctx.u(rhs_cap)), grid, zero)
    assert len(traj.times) == 2 and np.all(traj.profiles == 0.0)
    with pytest.raises(Unsupported):
        integrate_pde(EvolutionSystem(ctx.u(rhs_cap + 1)), grid, zero)
    rows = monitor_functional(traj, Functional(ctx.u(density_cap) ** 2))
    assert [row["value"] for row in rows] == [0.0, 0.0]
    with pytest.raises(Unsupported):
        monitor_functional(traj, Functional(ctx.u(density_cap + 1) ** 2))


def test_explicit_x_t_in_density(gardner_sys):
    ctx = Context(eps_order=1)
    grid = GridSpec(t_end=0.01, epsilon=1e-2)
    traj = integrate_pde(gardner_sys, grid, sech_squared_profile(grid))
    rows = monitor_functional(traj, Functional(ctx.eps * (3 * ctx.t * ctx.u(0) ** 2
                                                          + ctx.x * ctx.u(0))))
    assert all(np.isfinite(row["value"]) for row in rows)


# (wavenumber, amplitude, phase) of 1/2 + cos x + 3 sin 2x + 1/4 cos(3x + 1)
TRIG_MODES = ((0, 0.5, 0.0), (1, 1.0, 0.0), (2, 3.0, -np.pi / 2),
              (3, 0.25, 1.0))


def _trig_rk4_step(x, m, dt):
    """One RK4 step of u_t = u_m from the trig polynomial, in closed form.

    RK4 maps each Fourier mode by the degree-4 Taylor polynomial of exp at
    z = dt * (i k)^m, where (i k)^m is the exact m-th derivative symbol.
    """
    out = np.zeros_like(x)
    for k, a, phase in TRIG_MODES:
        z = dt * (1j * k) ** m
        gain = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        out += (a * gain * np.exp(1j * (k * x + phase))).real
    return out


@pytest.mark.parametrize("m", range(7))
def test_spectral_derivatives_match_closed_form(m):
    ctx = Context(eps_order=1)
    # one step, with dt * k^m <= 1 up to the Nyquist wavenumber 8
    dt = 8.0 ** -m
    grid = GridSpec(length=2 * np.pi, points=16, dt=dt, t_end=dt)
    x = grid.x_grid()
    u0 = _trig_rk4_step(x, 0, 0.0)
    traj = integrate_pde(EvolutionSystem(ctx.u(m)), grid, u0)
    assert len(traj.times) == 2
    # (u(dt) - u0) / dt = (i k)^m (1 + z/2 + z^2/6 + z^3/24) per mode
    got = (traj.profiles[-1] - u0) / dt
    want = (_trig_rk4_step(x, m, dt) - u0) / dt
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    if m % 2:
        # the Nyquist mode (-1)^j of an odd derivative is zero, so the
        # flow leaves it exactly in place
        nyquist = np.cos(8 * x)
        traj = integrate_pde(EvolutionSystem(ctx.u(m)), grid, nyquist)
        assert np.array_equal(traj.profiles[-1], nyquist)


def _reference_gardner(grid, u0, eps):
    """RK4 for u_t = 6(u + eps u^2) u_x - u_xxx with one complex FFT
    derivative per order; odd orders drop the Nyquist mode."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.dx)

    def derivative(u, m):
        d_hat = (1j * k) ** m * np.fft.fft(u)
        d_hat[grid.points // 2] = 0.0
        return np.fft.ifft(d_hat).real

    def rhs(u):
        return 6.0 * (u + eps * u ** 2) * derivative(u, 1) - derivative(u, 3)

    u, dt = u0.copy(), grid.dt
    for _ in range(int(round(grid.t_end / dt))):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def test_gardner_run_matches_per_order_fft_reference(gardner_sys):
    grid = GridSpec(t_end=0.01, epsilon=1e-2)
    u0 = sech_squared_profile(grid)
    traj = integrate_pde(gardner_sys, grid, u0)
    expected = _reference_gardner(grid, u0, 1e-2)
    assert np.max(np.abs(traj.profiles[-1] - expected)) <= 1e-12


def _textbook_evaluator(poly, grid, eps_value):
    """The textbook evaluation of `poly`: per call a dict of derivatives from
    default-norm FFTs and the terms multiplied out into new arrays."""
    values = {}
    for (m, e), c in poly._flat.items():
        values[m] = (values.get(m, 0.0)
                     + float(Fraction(c, poly._den)) * eps_value ** e)
    terms = [(value, _unpack(m)) for m, value in values.items() if value]
    orders = sorted({o for _, mon in terms for o, _ in mon.jets} - {0})
    m = np.array(orders, dtype=int).reshape(-1, 1)
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.points, d=grid.dx)
    multipliers = np.array([1, 1j, -1, -1j])[m % 4] * k ** m
    multipliers[m[:, 0] % 2 == 1, -1] = 0.0
    x = grid.x_grid()

    def rhs(u, t):
        derivs = {0: u}
        derivs.update(zip(orders, np.fft.irfft(multipliers * np.fft.rfft(u),
                                               grid.points)))
        total = None
        for value, mon in terms:
            acc = value * t ** mon.t if mon.t else value
            if mon.x:
                acc = acc * x ** mon.x
            for order, e in mon.jets:
                acc = acc * (derivs[order] if e == 1 else derivs[order] ** e)
            total = acc if total is None else total + acc
        return total

    return rhs


def _textbook_profiles(system, grid, u0):
    """Every profile of the textbook RK4 run of `system`: the right-hand side
    of _textbook_evaluator, per step u + (dt/6)(k1 + 2 k2 + 2 k3 + k4) into a
    new array."""
    rhs = _textbook_evaluator(system.rhs, grid, grid.epsilon)
    u, t, dt = u0.copy(), 0.0, grid.dt
    profiles = [u]
    for step in range(1, int(round(grid.t_end / dt)) + 1):
        k1 = rhs(u, t)
        k2 = rhs(u + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(u + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(u + dt * k3, t + dt)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = step * dt
        profiles.append(u)
    return np.array(profiles)


POWERS_OF_TWO = [2 ** e for e in range(4, MAX_POINTS.bit_length())]


def test_direct_rfft_is_numpys_bit_for_bit():
    rng = np.random.default_rng(7)
    assert POWERS_OF_TWO[0] == 16 and POWERS_OF_TWO[-1] == MAX_POINTS
    for n in POWERS_OF_TWO:
        u = rng.standard_normal(n)
        # the program's call form: default axes, positional out, the scale
        # a kept 0-d 1.0; and the int scale that numpy's wrapper passes
        for scale in (_ONE, 1):
            spectrum = np.empty(n // 2 + 1, dtype=complex)
            pocketfft.rfft_n_even(u, scale, spectrum)
            assert np.array_equal(spectrum, np.fft.rfft(u)), (n, scale)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_direct_batched_irfft_is_numpys_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    for n in POWERS_OF_TWO:
        scaled = (rng.standard_normal((rows, n // 2 + 1))
                  + 1j * rng.standard_normal((rows, n // 2 + 1)))
        for scale in (_ONE, 1):
            derivatives = np.empty((rows, n))
            pocketfft.irfft(scaled, scale, derivatives)
            assert np.array_equal(
                derivatives, np.fft.irfft(scaled, n, norm="forward")), (n,
                                                                        scale)


def test_runs_are_bit_identical_to_the_textbook_form(gardner_sys):
    # kept buffers, the 1/n folded into the multipliers and the in-place
    # sums change no bit of any profile
    ctx = Context(eps_order=1)
    u = ctx.u
    mixed = EvolutionSystem(ctx.eps * (ctx.x * u(1) + 3 * ctx.t * u(0) ** 2
                                       + u(6)) + u(0) ** 2 * u(1) - u(3))
    for system, grid in (
            (gardner_sys, GridSpec(t_end=0.01, epsilon=1e-2)),
            (mixed, GridSpec(points=64, dt=1e-3, t_end=0.05, epsilon=0.1))):
        u0 = sech_squared_profile(grid)
        traj = integrate_pde(system, grid, u0, save_every=1)
        expected = _textbook_profiles(system, grid, u0)
        assert np.all(np.isfinite(expected))
        assert np.array_equal(traj.profiles, expected)


def _every_step_kind():
    """Polynomials whose programs hold every kind of compiled step: +1 and
    -1 coefficients first and later, on a power or a plain factor, powers 2
    to 4, constant, x^a and t^k terms (a t^k term alone and times u), eps
    terms and terms whose first factor is a derivative."""
    ctx = Context(eps_order=1)
    u, x, t, eps, one = ctx.u, ctx.x, ctx.t, ctx.eps, ctx.one
    return [
        u(0) ** 3 * u(1) + one - u(1) * u(2) + x ** 2 * u(1) / 100
        + eps * (t ** 2 * u(0) ** 2 - u(3)),
        -u(1) ** 2 + u(3) + t * u(0) - one / 2 + u(2) ** 3 / 4 - x * u(0)
        + u(0) ** 4 * u(1) / 8,
        -u(2) + t ** 3 / 2 + u(0) ** 2 * u(1) - eps * u(1) ** 2,
        u(1) - u(0) ** 3 + 3 * x * u(2),
        2 * one - u(1) * u(3),
        t ** 2 + u(1) + eps * x]


def test_every_compiled_step_matches_the_textbook_form():
    polys = _every_step_kind()
    grid = GridSpec(points=64, dt=1e-3, t_end=0.05, epsilon=0.1)
    kinds = set()
    for poly in polys:
        kinds |= {f for f, _ in _Evaluator(poly, grid, grid.epsilon,
                                           MAX_DENSITY_JET_ORDER, "rhs").program}
    assert kinds == {pocketfft.rfft_n_even, pocketfft.irfft, np.multiply,
                     np.square, np.power, np.negative, np.add, np.subtract,
                     np.copyto}
    u0 = sech_squared_profile(grid)
    for poly in polys:
        # the t^k terms are evaluated at t, t + dt/2 and t + dt
        traj = integrate_pde(EvolutionSystem(poly), grid, u0, save_every=1)
        expected = _textbook_profiles(EvolutionSystem(poly), grid, u0)
        assert np.all(np.isfinite(expected))
        assert np.array_equal(traj.profiles, expected)
        # and as a density, one call per saved profile
        for density in polys:
            textbook = _textbook_evaluator(density, grid, 1.0)
            rows = monitor_functional(traj, Functional(density), eps_value=1.0)
            assert [row["value"] for row in rows] == [
                float(np.sum(textbook(u, float(t)))) * grid.dx
                for t, u in zip(traj.times, traj.profiles)]


def test_a_compiled_program_holds_no_python_scalar(gardner_sys):
    # a ufunc converts a Python scalar operand on every call, so each
    # coefficient, exponent and FFT scale is a kept array
    grid = GridSpec(points=64, dt=1e-3, t_end=0.05, epsilon=0.1)
    for poly in [gardner_sys.rhs] + _every_step_kind():
        program = _Evaluator(poly, grid, grid.epsilon, MAX_DENSITY_JET_ORDER,
                             "rhs").program
        for f, args in program:
            assert all(isinstance(a, np.ndarray) for a in args), (poly, f)


def test_a_finite_run_whose_sum_overflows_completes():
    # the finiteness check reduces the profile to one number, which may
    # overflow on finite values; only a non-finite value is a divergence
    grid = GridSpec(points=16, dt=1e-3, t_end=0.01)
    big = np.full(16, 1e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(big))
    traj = integrate_pde(EvolutionSystem(Context(1).zero), grid, big)
    assert np.array_equal(traj.profiles[-1], big)


def test_evaluator_returns_a_new_array_per_call(gardner_sys):
    grid = GridSpec(epsilon=1e-2)
    rhs = _Evaluator(gardner_sys.rhs, grid, grid.epsilon, MAX_RHS_JET_ORDER,
                     "right-hand side")
    u = sech_squared_profile(grid)
    first = rhs(u, 0.0)
    kept = first.copy()
    second = rhs(0.5 * u, 0.0)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def test_constant_and_zero_polynomials_evaluate_to_full_arrays():
    grid = GridSpec(t_end=0.01, dt=1e-3)
    ctx = Context(1)
    traj = integrate_pde(EvolutionSystem(ctx.zero), grid,
                         sech_squared_profile(grid))
    # a zero right-hand side leaves the profile unchanged
    assert all(np.array_equal(profile, traj.profiles[0])
               for profile in traj.profiles)
    ones = monitor_functional(traj, Functional(ctx.one))
    assert {row["value"] for row in ones} == {grid.length}
    zeros = monitor_functional(traj, Functional(ctx.zero))
    assert {row["value"] for row in zeros} == {0.0}


def test_initial_profile_must_match_the_grid(gardner_sys, short_grid):
    ic = np.zeros(short_grid.points + 1)
    with pytest.raises(ValueError,
                       match="^initial profile length must match the grid$"):
        integrate_pde(gardner_sys, short_grid, ic)


def test_initial_profile_must_be_real_and_finite(gardner_sys, short_grid):
    ic = sech_squared_profile(short_grid)
    for bad, what in ((ic + 0j, "real"), (np.where(ic > 1.0, np.nan, ic),
                                          "finite"),
                      (np.where(ic > 1.0, np.inf, ic), "finite")):
        with pytest.raises(ValueError, match=what):
            integrate_pde(gardner_sys, short_grid, bad)


def test_step_and_point_caps_raise_before_allocating(gardner_sys):
    long_run = GridSpec(dt=1.0, t_end=MAX_STEPS + 1.0)
    wave = np.sin(16 * np.pi * np.arange(long_run.points) / long_run.points)
    with pytest.raises(ResourceLimit):
        integrate_pde(gardner_sys, long_run, wave)
    wide = GridSpec(points=4 * MAX_POINTS)
    with pytest.raises(ResourceLimit):
        sech_squared_profile(wide)
    with pytest.raises(ResourceLimit):
        integrate_pde(gardner_sys, wide, np.zeros(16))


def test_save_every_is_checked_before_allocating(gardner_sys, short_grid):
    ic = sech_squared_profile(short_grid)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="save_every"):
            integrate_pde(gardner_sys, short_grid, ic, save_every=bad)
    # one profile more than the cap allows; the cap trips before the initial
    # profile (here of the wrong length) is even looked at
    steps = MAX_SAVED_VALUES // MAX_POINTS
    grid = GridSpec(points=MAX_POINTS, dt=1.0, t_end=float(steps))
    with pytest.raises(ResourceLimit):
        integrate_pde(gardner_sys, grid, np.zeros(16), save_every=1)
