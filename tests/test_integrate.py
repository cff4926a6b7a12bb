"""Stepper accuracy, dense output, invariant drift, and failure modes."""

from __future__ import annotations

import importlib
import math
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivortex.core import conserved, flat_rhs
from trivortex.errors import NonFiniteRHS, StepBudgetExceeded, StepSizeUnderflow
from trivortex.integrate import IntegratorOptions, Segment, Trajectory, integrate
from trivortex.reduction import (
    HYPERBOLOID,
    SPHERE,
    heading_rate,
    reduce_state,
    reduced_rhs_flat,
)
from trivortex.scattering import ScatteringSetup, initial_state


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


def test_a_field_too_fast_for_a_first_step_is_a_step_underflow():
    # the starting-step guess squares rates past the float range, so its
    # first trial step comes out as 0
    with pytest.raises(StepSizeUnderflow) as info:
        integrate(lambda t, y: [1e200, -1e200], [0.0, 1.0], IntegratorOptions())
    assert (info.value.t, info.value.h) == (0.0, 0.0)


@pytest.mark.parametrize("t_end", [1e-15, 1e-16, -1e-15])
def test_span_shorter_than_the_minimum_step_is_one_step(t_end):
    # the step that ends the span is clamped to it, however short
    f = flat_rhs([1.0, 1.0, -1.0])
    y0 = [-3.0, 1.0, 0.0, -1.0, -3.0, 0.0]
    traj = integrate(f, y0, IntegratorOptions(t_end=t_end))
    assert sorted(traj.ts.tolist()) == sorted([0.0, t_end])
    start = traj.ys[int(t_end < 0.0)]
    assert start.tolist() == y0
    v = np.array(f(0.0, y0))
    assert np.allclose(traj.interpolate(t_end), y0 + t_end * v, rtol=0.0, atol=1e-28)


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


# The NumPy stage loop the float stepper replaced, kept as a test-only
# reference: the same tableau, controller and checks, with each stage sum
# a matrix-vector product and the state an array.
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_REF_A = (
    np.array([], dtype=np.float64),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_REF_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_REF_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)


def _reference_integrate(field, y0, opts):
    """(final state, accepted steps, rejected steps, RHS calls)."""
    calls = [0]

    def f(t, y):
        calls[0] += 1
        return np.asarray(field(t, y.tolist()), dtype=np.float64)

    y = np.array(y0, dtype=np.float64).ravel()
    t, t_end = float(opts.t0), float(opts.t_end)
    span = abs(t_end - t)
    s = 1.0 if t_end >= t else -1.0
    f0 = f(t, y)
    scale = opts.atol + opts.rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = f(t + h0 * s, y + h0 * s * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, span)
    err_prev = 1e-4
    k = np.empty((7, y.size))
    k[0] = f0
    accepted = rejected = 0
    while True:
        last = h >= abs(t_end - t)
        if last:
            h = abs(t_end - t)
        sh = s * h
        t_new = t_end if last else t + sh
        for i in range(1, 6):
            k[i] = f(t + sh * _REF_C[i], y + sh * (k[:i].T @ _REF_A[i]))
        y_new = y + sh * (k[:6].T @ _REF_B)
        k[6] = f(t_new, y_new)
        assert np.isfinite(k).all() and np.isfinite(y_new).all()
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        e = h * (k.T @ _REF_E) / scale
        err = math.sqrt(float(np.add.reduce(e * e)) / e.size)
        if err > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * err**-0.2)
            continue
        accepted += 1
        t, y = t_new, y_new
        k[0] = k[6]
        if last:
            return y, accepted, rejected, calls[0]
        factor = 0.9 * err ** -(0.2 - 0.75 * 0.04) * err_prev**0.04 if err > 0.0 else 10.0
        h *= min(10.0, max(0.2, factor))
        err_prev = max(err, 1e-10)


def _counting(field):
    calls = [0]

    def f(t, y):
        calls[0] += 1
        return field(t, y)

    return f, calls


def _lab_problem(rng, gamma):
    rho = float(rng.uniform(-1.2, 3.7))
    x, g = initial_state(ScatteringSetup(rho=rho, gamma=gamma, launch=40.0))
    return flat_rhs(g), x.ravel(), 60.0


def _dipole_problem(rng):
    # N = 2 takes the generic path of flat_rhs
    d = float(rng.uniform(0.5, 2.0))
    return flat_rhs([1.0, -1.0]), [0.0, 0.5 * d, 0.0, -0.5 * d], 20.0


def _reduced_problem(rng, geometry, with_heading):
    # a bound (1, 1, 1) triple, or a (1, 1, -1) launch through its encounter
    if geometry == SPHERE:
        g, t_end = [1.0, 1.0, 1.0], 20.0
        x = rng.uniform(-1.5, 1.5, size=(3, 2))
    else:
        g, t_end = [1.0, 1.0, -1.0], 60.0
        x = initial_state(ScatteringSetup(rho=float(rng.uniform(-1.2, 3.7)), launch=40.0))[0]
    spec, s0 = reduce_state(x, g)
    assert spec.geometry == geometry
    f3 = reduced_rhs_flat(spec, s0.Theta)
    y0 = [s0.X, s0.Y, s0.Z]
    if not with_heading:
        return f3, y0, t_end

    def f(t, v):
        return (*f3(t, v[:3]), heading_rate(v[0], v[1], s0.Theta))

    return f, y0 + [0.0], t_end


PROBLEMS = {
    **{f"lab-gamma-{g}": (lambda rng, g=g: _lab_problem(rng, g)) for g in (0.4, 1.0, 2.0)},
    "dipole": _dipole_problem,
    **{
        f"reduced-{geo}{'-heading' if hd else ''}": (
            lambda rng, geo=geo, hd=hd: _reduced_problem(rng, geo, hd)
        )
        for geo in (SPHERE, HYPERBOLOID)
        for hd in (False, True)
    },
}


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("seed", [3, 4])
def test_float_stepper_follows_the_numpy_reference(name, backward, seed):
    rng = np.random.default_rng(seed)
    field, y0, t_end = PROBLEMS[name](rng)
    opts = IntegratorOptions(t_end=t_end)
    if backward:
        # run back from where the reference ends up going forward
        y0 = _reference_integrate(field, y0, opts)[0]
        opts = IntegratorOptions(t0=t_end, t_end=0.0)
    want, accepted, rejected, ref_calls = _reference_integrate(field, y0, opts)
    assert ref_calls == 6 * (accepted + rejected) + 2
    f, calls = _counting(field)
    traj = integrate(f, y0, opts)
    got = traj.ys[0] if backward else traj.ys[-1]
    attempts, rest = divmod(calls[0] - 2, 6)
    assert rest == 0
    got_accepted = len(traj.ts) - 1
    assert abs(got_accepted - accepted) <= 0.01 * accepted
    assert abs((attempts - got_accepted) - rejected) <= 0.01 * rejected
    # a reduced launch starts far out on its leaf, so max|y| is over the run
    scale = float(np.abs(traj.ys).max())
    assert float(np.abs(got - want).max()) <= 10.0 * opts.rtol * scale


@pytest.mark.parametrize("max_steps", [1, 7, 40])
def test_rhs_calls_are_six_per_attempt_plus_two(max_steps):
    # f0 and the starting-step probe, then stages 2 to 7 of each attempt
    f, calls = _counting(flat_rhs([1.0, 1.0, -1.0]))
    y0 = [-3.0, 1.0, 0.0, -1.0, -3.0, 0.0]
    with pytest.raises(StepBudgetExceeded):
        integrate(f, y0, IntegratorOptions(t_end=1e4, max_steps=max_steps))
    assert calls[0] == 6 * max_steps + 2


@pytest.mark.parametrize("on_step", [False, True])
@pytest.mark.parametrize("rates", [2, 4])
def test_field_of_the_wrong_length_is_refused(rates, on_step):
    # zip would integrate the shorter of field and state and stop at the end
    def f(t, y):
        return [-v for v in (y * 2)[:rates]]

    with pytest.raises(ValueError, match=f"{rates} rates for a state of 3 floats"):
        integrate(f, [1.0, 2.0, 3.0], IntegratorOptions(t_end=1.0),
                  on_step=(lambda step, t: False) if on_step else None)


# The list-comprehension step loop the per-length loops replaced, kept as a
# float reference: the module's own tableau, start step and checks, one
# comprehension over the components per stage.
_ti = importlib.import_module("trivortex.integrate")


def _comprehension_integrate(f, y0, opts, on_step=None):
    """(accepted steps as (t0, h, y0, k), final t, final y); ``on_step`` as
    in ``integrate``."""
    y = np.asarray(y0, dtype=np.float64).ravel().tolist()
    t, t_end = float(opts.t0), float(opts.t_end)
    span = abs(t_end - t)
    s = 1.0 if t_end >= t else -1.0
    k1 = f(t, y)
    if type(k1) is np.ndarray:
        f, k1 = (lambda t, y, field=f: field(t, y).tolist()), k1.tolist()
    if not all(map(math.isfinite, k1)):
        raise NonFiniteRHS(t)
    if span == 0.0:
        return [], t, y
    g, rtol, atol = _ti, opts.rtol, opts.atol
    h = g._initial_step(f, t, y, k1, s, rtol, atol, span)
    err_prev, taken, nsteps = 1e-4, [], 0
    while True:
        nsteps += 1
        if nsteps > opts.max_steps:
            raise StepBudgetExceeded(t, opts.max_steps)
        last = h >= abs(t_end - t)
        if last:
            h = abs(t_end - t)
        elif h < g._MIN_STEP:
            raise StepSizeUnderflow(t, h)
        sh = s * h
        t_new = t_end if last else t + sh
        k2 = f(t + sh * g._C2, [v + sh * (g._A21 * a) for v, a in zip(y, k1)])
        k3 = f(t + sh * g._C3, [v + sh * (g._A31 * a + g._A32 * b)
                                for v, a, b in zip(y, k1, k2)])
        k4 = f(t + sh * g._C4, [v + sh * (g._A41 * a + g._A42 * b + g._A43 * c)
                                for v, a, b, c in zip(y, k1, k2, k3)])
        k5 = f(t + sh * g._C5, [v + sh * (g._A51 * a + g._A52 * b + g._A53 * c + g._A54 * d)
                                for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
        k6 = f(t + sh, [v + sh * (g._A61 * a + g._A62 * b + g._A63 * c + g._A64 * d
                                  + g._A65 * e)
                        for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
        y_new = [v + sh * (g._B1 * a + g._B3 * c + g._B4 * d + g._B5 * e + g._B6 * q)
                 for v, a, c, d, e, q in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t_new, y_new)
        if not all(map(math.isfinite, (*k2, *k3, *k4, *k5, *k6, *k7, *y_new))):
            raise NonFiniteRHS(t_new)
        err = g._rms([
            h * (g._E1 * a + g._E3 * c + g._E4 * d + g._E5 * e + g._E6 * q + g._E7 * w)
            / (atol + rtol * max(abs(u), abs(v)))
            for u, v, a, c, d, e, q, w in zip(y, y_new, k1, k3, k4, k5, k6, k7)
        ])
        if err > 1.0:
            h *= max(0.2, g._SAFETY * err**-0.2)
            continue
        taken.append((t, sh, y, (k1, k2, k3, k4, k5, k6, k7)))
        t, y, k1 = t_new, y_new, k7
        if on_step is not None and on_step(Segment(*taken[-1]), t):
            break
        if last:
            break
        factor = g._SAFETY * err**-g._EXPO * err_prev**g._BETA if err > 0.0 else 10.0
        h *= min(10.0, max(0.2, factor))
        err_prev = max(err, 1e-10)
    return taken, t, y


def _hex(x):
    """Every float of a number or a nesting of sequences, as float.hex."""
    if isinstance(x, (float, int, np.floating)):
        return float(x).hex()
    return [_hex(v) for v in x]


def _decay(t, y):
    # n = 1, forced
    return [math.cos(3.0 * t) - 0.1 * y[0]]


def _four_vortices(rng):
    g = [1.0, -0.7, 0.5, 1.2]
    return flat_rhs(g), rng.uniform(-2.0, 2.0, size=8).tolist(), 6.0


EXACT = {
    **PROBLEMS,
    "decay": lambda rng: (_decay, [0.3], 10.0),
    "four-vortices": _four_vortices,
    "oscillator-ndarray": lambda rng: (_oscillator, [1.0, 0.0], 6.0),
}


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("name", sorted(EXACT))
def test_step_loop_matches_the_comprehension_loop_bit_for_bit(name, backward):
    field, y0, t_end = EXACT[name](np.random.default_rng(5))
    opts = IntegratorOptions(t0=t_end, t_end=0.0) if backward else IntegratorOptions(t_end=t_end)
    steps, t, y = _comprehension_integrate(field, y0, opts)
    traj = integrate(field, y0, opts)
    assert _hex(traj.ys[0 if backward else -1]) == _hex(y)
    s = traj.steps
    assert _hex(s.t0) == _hex([p[0] for p in steps])
    assert _hex(s.h) == _hex([p[1] for p in steps])
    assert _hex(s.y0) == _hex([p[2] for p in steps])
    assert _hex(s.k) == _hex([p[3] for p in steps])
    # dense output is read off those steps, so it matches too
    ref = Trajectory(traj.ts, traj.ys, Segment(*(np.array(c) for c in zip(*steps))))
    ts = np.linspace(0.0, t_end, 41)
    assert traj.interpolate(ts).tobytes() == ref.interpolate(ts).tobytes()


@pytest.mark.parametrize("name", ["lab-gamma-1.0", "reduced-hyperboloid-heading", "decay"])
def test_step_consumer_and_early_stop_match_the_comprehension_loop(name):
    field, y0, t_end = EXACT[name](np.random.default_rng(6))
    opts = IntegratorOptions(t_end=t_end)
    for stop in (math.inf, 0.5 * t_end):
        seen, ref = [], []
        traj = integrate(field, y0, opts, on_step=lambda step, t: seen.append(step) or t > stop)
        _, t, y = _comprehension_integrate(
            field, y0, opts, on_step=lambda step, t: ref.append(step) or t > stop)
        assert _hex([(p.t0, p.h, p.y0, p.k) for p in seen]) == _hex(
            [(p.t0, p.h, p.y0, p.k) for p in ref])
        assert _hex(traj.ts.tolist()) == _hex([0.0, t]) and _hex(traj.ys[-1]) == _hex(y)


def test_rejected_steps_match_the_comprehension_loop():
    # at rtol 1e-13 the controller rejects some of the steps of this run
    opts = IntegratorOptions(t_end=10.0, rtol=1e-13, atol=1e-13)
    f, calls = _counting(_decay)
    steps, _, y = _comprehension_integrate(f, [0.3], opts)
    assert (calls[0] - 2) // 6 > len(steps)
    traj = integrate(_decay, [0.3], opts)
    assert _hex(traj.steps.t0) == _hex([p[0] for p in steps])
    assert _hex(traj.steps.k) == _hex([p[3] for p in steps])
    assert _hex(traj.ys[-1]) == _hex(y)


def _nan_after(t_bad):
    def f(t, y):
        return [math.nan if abs(t) > t_bad else -y[1], y[0]]
    return f


@pytest.mark.parametrize("error, field, y0, opts", [
    (StepBudgetExceeded, flat_rhs([1.0, -1.0]), [0.0, 0.5, 0.0, -0.5],
     IntegratorOptions(t_end=100.0, max_steps=3)),
    (StepSizeUnderflow, lambda t, y: [1.0 / (0.5 - t)], [0.0], IntegratorOptions(t_end=1.0)),
    (NonFiniteRHS, _nan_after(1.3), [1.0, 0.0], IntegratorOptions(t_end=4.0)),
    (NonFiniteRHS, _nan_after(1.3), [1.0, 0.0], IntegratorOptions(t_end=-4.0)),
])
def test_failures_come_at_the_comprehension_loops_time(error, field, y0, opts):
    with pytest.raises(error) as want:
        _comprehension_integrate(field, y0, opts)
    with pytest.raises(error) as got:
        integrate(field, y0, opts)
    assert str(got.value) == str(want.value)
    assert got.value.t.hex() == want.value.t.hex()
    # the traceback shows the generated loop's line that raised
    frame = traceback.extract_tb(got.value.__traceback__)[-1]
    assert frame.filename.startswith("<trivortex.integrate step loop n=")
    assert frame.line.startswith(f"raise {error.__name__}(")
