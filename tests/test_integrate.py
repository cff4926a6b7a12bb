"""Stepper accuracy, dense output, invariant drift, and failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivortex.core import conserved, flat_rhs
from trivortex.errors import StepBudgetExceeded, StepSizeUnderflow
from trivortex.integrate import IntegratorOptions, Trajectory, integrate


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


def test_monitor_reports_energy_drift():
    # largest energy deviation over the accepted steps
    g = [1.0, 1.0, 1.0]
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    y0 = np.stack([np.cos(ang), np.sin(ang)], axis=1).ravel()
    traj = integrate(flat_rhs(g), y0, IntegratorOptions(t_end=50.0))
    H = conserved(traj.ys.reshape(-1, 3, 2), g).H
    assert np.max(np.abs(H - H[0])) <= 1e-9


def test_negative_span_runs_and_orders_samples():
    opts = IntegratorOptions(t0=0.0, t_end=-math.pi / 2)
    traj = integrate(_oscillator, [1.0, 0.0], opts)
    assert np.all(np.diff(traj.ts) > 0.0)
    assert traj.ts[0] == pytest.approx(-math.pi / 2)
    # cos(-pi/2), -sin(-pi/2)
    assert np.allclose(traj.ys[0], [0.0, 1.0], atol=1e-9)
    assert np.allclose(traj.interpolate(-1.0), [math.cos(1.0), math.sin(1.0)], atol=1e-9)


@pytest.mark.parametrize("t_end", [6.0, -6.0])
def test_dense_output_is_as_accurate_backward_as_forward(t_end):
    # a loose tolerance leaves few, long steps, so evaluating a sample on
    # the neighbouring step's interpolant shows at once
    traj = integrate(_oscillator, [1.0, 0.0], IntegratorOptions(t_end=t_end, rtol=1e-6))
    ts = np.linspace(0.0, t_end, 601)
    err = max(abs(traj.interpolate(float(t))[0] - math.cos(t)) for t in ts)
    assert err < 2e-6


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
    for bad in (
        {"rtol": math.inf}, {"atol": math.inf}, {"rtol": math.nan},
        {"atol": math.nan}, {"max_steps": 0},
    ):
        with pytest.raises(ValueError):
            IntegratorOptions(**bad)


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


@settings(max_examples=25, deadline=None)
@given(
    t_end=st.sampled_from([3.0, -3.0]),
    rtol=st.sampled_from([1e-5, 1e-8]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
)
def test_array_interpolate_equals_stacked_scalar_calls(t_end, rtol, fractions):
    f = flat_rhs([1.0, 1.0, -1.0])
    y0 = [-3.0, 1.0, 0.0, -1.0, -3.0, 0.0]
    traj = integrate(f, y0, IntegratorOptions(t_end=t_end, rtol=rtol))
    # arbitrary times plus every step boundary
    ts = np.concatenate((t_end * np.array(fractions), traj.ts))
    many = traj.interpolate(ts)
    stacked = np.stack([traj.interpolate(float(t)) for t in ts])
    assert many.shape == (len(ts), 6)
    assert many.tobytes() == stacked.tobytes()


def test_array_interpolate_rejects_times_outside_the_span():
    traj = integrate(_oscillator, [1.0, 0.0], IntegratorOptions(t_end=1.0))
    with pytest.raises(ValueError):
        traj.interpolate(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        traj.interpolate(np.array([0.5, math.nan]))


def test_step_consumer_sees_every_step_and_run_keeps_no_samples():
    opts = IntegratorOptions(t_end=6.0)
    full = integrate(_oscillator, [1.0, 0.0], opts)
    seen = []

    def take(step, t):
        seen.append((step.t0, step.h, t))
        return False

    traj = integrate(_oscillator, [1.0, 0.0], opts, on_step=take)
    assert traj.steps is None
    assert traj.ts.tolist() == [0.0, 6.0]
    assert traj.ys.tobytes() == full.ys[[0, -1]].tobytes()
    assert [s[0] for s in seen] == full.steps.t0.tolist()
    assert [s[1] for s in seen] == full.steps.h.tolist()
    assert [s[2] for s in seen] == full.ts[1:].tolist()
    with pytest.raises(ValueError):
        traj.interpolate(1.0)


def test_step_consumer_ends_the_run():
    full = integrate(_oscillator, [1.0, 0.0], IntegratorOptions(t_end=6.0))
    traj = integrate(
        _oscillator, [1.0, 0.0], IntegratorOptions(t_end=6.0),
        on_step=lambda step, t: t > 2.0,
    )
    stop = int(np.argmax(full.ts > 2.0))
    assert traj.ts[-1] == full.ts[stop]
    assert traj.ys[-1].tobytes() == full.ys[stop].tobytes()


@pytest.mark.parametrize("rho", [-0.5, 1.0, 2.5])
def test_forward_then_backward_returns_to_the_start(rho):
    # a dipole passing a lone vortex, run out and back
    f = flat_rhs([1.0, 1.0, -1.0])
    y0 = np.array([-15.0, rho + 0.5, 0.0, -1.0, -15.0, rho - 0.5])
    rtol = 1e-10
    fwd = integrate(f, y0, IntegratorOptions(t_end=40.0, rtol=rtol, atol=1e-12))
    back = integrate(
        f, fwd.ys[-1], IntegratorOptions(t0=40.0, t_end=0.0, rtol=rtol, atol=1e-12)
    )
    assert back.ts[0] == 0.0
    scale = float(np.abs(fwd.ys).max())
    assert float(np.abs(back.ys[0] - y0).max()) <= 10.0 * rtol * scale
