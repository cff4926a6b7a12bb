"""Stepper accuracy, dense events, monitors, and failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from trivortex.core import flat_rhs
from trivortex.errors import StepBudgetExceeded, StepSizeUnderflow
from trivortex.integrate import (
    EventSpec,
    IntegratorOptions,
    MonitorSpec,
    Trajectory,
    find_event,
    integrate,
)


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_closes_after_one_period():
    opts = IntegratorOptions(t_end=2.0 * math.pi)
    traj = integrate(_oscillator, [1.0, 0.0], opts)
    assert isinstance(traj, Trajectory)
    assert np.all(np.diff(traj.ts) > 0.0)
    assert np.allclose(traj.ys[-1], [1.0, 0.0], atol=1e-8)


def test_dipole_translates_at_unit_speed():
    f = flat_rhs([1.0, -1.0])
    y0 = [0.0, 0.5, 0.0, -0.5]
    T = 7.0
    traj = integrate(f, y0, IntegratorOptions(t_end=T))
    expect = np.array([T, 0.5, T, -0.5])
    assert np.allclose(traj.ys[-1], expect, atol=1e-8)


def test_collapse_free_zero_theta_solution():
    # one vortex decelerates to rest while its partner runs off linearly
    def exact_x(t):
        root = math.sqrt(t * t + 4.0)
        return (t - root) / 2.0, (t + root) / 2.0, t

    t0, t1 = -20.0, 20.0
    x1, x2, x3 = exact_x(t0)
    y0 = [x1, -1.0, x2, -1.0, x3, -2.0]
    f = flat_rhs([1.0, 1.0, -1.0])
    traj = integrate(f, y0, IntegratorOptions(t0=t0, t_end=t1))
    for t in np.linspace(t0, t1, 41):
        ex = exact_x(t)
        y = traj.interpolate(t)
        assert abs(y[0] - ex[0]) < 1e-6
        assert abs(y[2] - ex[1]) < 1e-6
        assert abs(y[4] - ex[2]) < 1e-6
        # the y-components never move in this solution
        assert np.allclose(y[[1, 3, 5]], [-1.0, -1.0, -2.0], atol=1e-6)


def test_simple_time_event():
    ev = EventSpec(func=lambda t, y: t - 1.0, id="tick")
    traj = integrate(
        lambda t, y: np.array([1.0]), [0.0], IntegratorOptions(t_end=2.0, events=[ev])
    )
    recs = find_event(traj, "tick")
    assert len(recs) == 1
    assert recs[0].t == pytest.approx(1.0, abs=1e-12)


def test_event_times_do_not_depend_on_step_density():
    ev = EventSpec(func=lambda t, y: y[0], id="node")
    times = []
    for max_step in (math.inf, 0.3, 0.05):
        opts = IntegratorOptions(t_end=9.0, max_step=max_step, events=[ev])
        traj = integrate(_oscillator, [1.0, 0.0], opts)
        times.append([r.t for r in find_event(traj, "node")])
    assert len(times[0]) == 3  # pi/2, 3pi/2, 5pi/2
    for alt in times[1:]:
        assert len(alt) == len(times[0])
        assert np.allclose(alt, times[0], atol=1e-10)
    assert np.allclose(times[0], [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2], atol=1e-9)


def test_direction_filter_and_terminal_stop():
    rising = EventSpec(func=lambda t, y: y[0], id="up", direction=1)
    falling = EventSpec(
        func=lambda t, y: y[0], id="down", direction=-1, terminal=True
    )
    opts = IntegratorOptions(t_end=20.0, events=[rising, falling])
    traj = integrate(_oscillator, [1.0, 0.0], opts)
    downs = find_event(traj, "down")
    ups = find_event(traj, "up")
    # first zero of cos is a falling crossing; integration stops there
    assert len(downs) == 1 and len(ups) == 0
    assert downs[0].t == pytest.approx(math.pi / 2, abs=1e-10)
    assert traj.ts[-1] == pytest.approx(math.pi / 2, abs=1e-10)


def test_monitor_reports_energy_drift():
    f = flat_rhs([1.0, 1.0, 1.0])
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    y0 = np.stack([np.cos(ang), np.sin(ang)], axis=1).ravel()

    def energy(t, y):
        x = y.reshape(3, 2)
        d = x[:, None, :] - x[None, :, :]
        r2 = (d**2).sum(-1)
        iu, ju = np.triu_indices(3, k=1)
        return float(-0.5 * np.sum(np.log(r2[iu, ju])))

    opts = IntegratorOptions(t_end=50.0, monitors=[MonitorSpec(func=energy, id="H")])
    traj = integrate(f, y0, opts)
    assert traj.drift["H"] <= 1e-9


def test_negative_span_runs_and_orders_samples():
    opts = IntegratorOptions(t0=0.0, t_end=-math.pi / 2)
    traj = integrate(_oscillator, [1.0, 0.0], opts)
    assert np.all(np.diff(traj.ts) > 0.0)
    assert traj.ts[0] == pytest.approx(-math.pi / 2)
    # cos(-pi/2), -sin(-pi/2)
    assert np.allclose(traj.ys[0], [0.0, 1.0], atol=1e-9)
    assert np.allclose(traj.interpolate(-1.0), [math.cos(1.0), math.sin(1.0)], atol=1e-9)


def test_blowup_triggers_step_underflow():
    def f(t, y):
        return np.array([1.0 / (0.5 - t)])

    with pytest.raises(StepSizeUnderflow):
        integrate(f, [0.0], IntegratorOptions(t_end=1.0))


def test_option_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=math.inf)
    with pytest.raises(ValueError):
        IntegratorOptions(max_step=-1.0)


def test_tolerance_halving_improves_scattering_endpoints():
    # fixed ensemble of dipole-plus-vortex launches, short approach length
    gammas = [1.0, 1.0, -1.0]
    f = flat_rhs(gammas)
    L, d = 15.0, 1.0
    rhos = [-2.5, -1.5, -0.5, 0.0, 1.0, 1.75, 2.5, 3.25, 4.0, 5.0]
    T = 40.0
    for rho in rhos:
        y0 = [-L, rho + d / 2, 0.0, -d, -L, rho - d / 2]
        ref = integrate(f, y0, IntegratorOptions(t_end=T, rtol=1e-13, atol=1e-13)).ys[-1]
        errs = []
        for rtol in (1e-6, 5e-7, 2.5e-7):
            out = integrate(f, y0, IntegratorOptions(t_end=T, rtol=rtol, atol=rtol * 1e-2)).ys[-1]
            errs.append(float(np.max(np.abs(out - ref))))
        assert errs[1] < errs[0] and errs[2] < errs[1]


def test_exhausted_step_budget_is_its_own_error():
    # a dipole needs far more than three steps for 100 time units; running
    # out of steps is not a step size underflow
    f = flat_rhs([1.0, -1.0])
    with pytest.raises(StepBudgetExceeded) as exc:
        integrate(f, [0.0, 0.5, 0.0, -0.5], IntegratorOptions(t_end=100.0, max_steps=3))
    assert not isinstance(exc.value, StepSizeUnderflow)
    assert exc.value.max_steps == 3 and "3 steps" in str(exc.value)
