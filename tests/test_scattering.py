"""Scattering runs: launch geometry, outcomes, sweeps, reversibility."""

import concurrent.futures
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trivortex
from trivortex import core, elliptic, errors, reduction
from trivortex.core import flat_rhs, invariants, pair_kernel
from trivortex.elliptic import delta_alpha_closed
from trivortex.equilibria import separatrix_energy
from trivortex import scattering
from trivortex.errors import BadSetup, NoEscape, StepBudgetExceeded
from trivortex.integrate import IntegratorOptions, Segment, integrate
from trivortex.reduction import heading_rate, reduce_state, reduced_hamiltonian, shape_map
from trivortex.scattering import (
    DIRECT,
    EXCHANGE,
    EXTENDED_DIRECT,
    SWEEP_COLUMNS,
    ScatteringSetup,
    asymptotic_reduced_energy,
    initial_state,
    run,
    run_from_state,
    sweep,
)


@pytest.fixture(scope="module")
def oracle_runs():
    cases = [
        (1.0, 2.5),
        (1.0, 3.8),
        (1.0, -0.999),
        (2.0, 4.5),
        (2.0, -0.8),
        (2.0, -4.5),
    ]
    return {
        (g, r): run(ScatteringSetup(rho=r, gamma=g)) for g, r in cases
    }


def test_initial_state_reference_layout():
    pos, g = initial_state(ScatteringSetup(rho=0.0))
    assert pos.tolist() == [[-100.0, 0.5], [0.0, -1.0], [-100.0, -0.5]]
    assert g.tolist() == [1.0, 1.0, -1.0]
    assert ScatteringSetup(rho=0.0).theta() == 1.0


def test_theta_of_offset_examples():
    assert ScatteringSetup(rho=-4.5, gamma=2.0).theta() == -16.0
    assert ScatteringSetup(rho=3.5).theta() == 8.0
    assert ScatteringSetup(rho=-1.0).theta() == -1.0


@given(
    rho=st.floats(-6.0, 6.0),
    gamma=st.floats(0.2, 3.0),
    spacing=st.floats(0.3, 2.0),
)
def test_initial_state_zeroes_the_impulse(rho, gamma, spacing):
    setup = ScatteringSetup(
        rho=rho, gamma=gamma, launch=200.0, spacing=spacing
    )
    pos, g = initial_state(setup)
    impulse = g @ pos
    scale = max(1.0, gamma * (abs(rho) + spacing))
    assert abs(impulse[0]) <= 1e-14 * scale
    assert abs(impulse[1]) <= 1e-14 * scale
    theta = float(np.einsum("i,ij,ij->", g, pos, pos))
    assert theta == pytest.approx(setup.theta(), rel=1e-12, abs=1e-9)


def test_initial_state_rejects_bad_setups():
    with pytest.raises(BadSetup):
        initial_state(ScatteringSetup(rho=0.0, gamma=0.0))
    with pytest.raises(BadSetup):
        initial_state(ScatteringSetup(rho=0.0, gamma=-1.0))
    with pytest.raises(BadSetup):
        initial_state(ScatteringSetup(rho=0.0, spacing=0.0))
    with pytest.raises(BadSetup):
        initial_state(ScatteringSetup(rho=12.0, launch=100.0))
    with pytest.raises(BadSetup):
        initial_state(ScatteringSetup(rho=0.0, launch=5.0))


def test_run_from_state_rejects_wrong_sign_pattern():
    pos = np.array([[-50.0, 0.5], [0.0, -1.0], [-50.0, -0.5]])
    with pytest.raises(BadSetup):
        run_from_state(pos, np.array([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("bad", [-5.0, 0.0, math.nan, math.inf])
def test_time_budget_and_spacing_must_be_positive_and_finite(bad, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated despite a bad setup")

    monkeypatch.setattr(scattering, "integrate", never)
    pos, g = initial_state(ScatteringSetup(rho=0.5))
    with pytest.raises(BadSetup, match="time budget"):
        run_from_state(pos, g, t_max=bad)
    # a zero spacing would give a zero check window that never advances
    with pytest.raises(BadSetup, match="spacing"):
        run_from_state(pos, g, spacing=bad)
    _, rows = sweep([0.5], t_max=bad)
    assert rows[0][4] == "error:BadSetup"


def test_one_run_is_one_integration(monkeypatch):
    calls = []

    def counting(f, y0, opts, on_step=None):
        traj = integrate(f, y0, opts, on_step)
        calls.append((opts.t0, opts.t_end, len(traj.ts)))
        return traj

    monkeypatch.setattr(scattering, "integrate", counting)
    res = run(ScatteringSetup(rho=4.5, gamma=2.0))
    # one run from 0 that keeps only its first and last state
    assert calls == [(0.0, scattering.DEFAULT_TIME_BUDGET, 2)]
    # the escape test still reads the state on the 25 tau grid (tau = 2)
    assert res.escape_time > 0.0 and res.escape_time % 50.0 == 0.0


def test_budget_between_check_times_is_checked_at_its_end():
    # the rho = 2.5 pair first passes the escape test at 175; a budget of
    # 170 puts the last check at 170, where the pair has already escaped
    assert run(ScatteringSetup(rho=2.5)).escape_time == 175.0
    assert run(ScatteringSetup(rho=2.5), t_max=170.0).escape_time == 170.0


def test_asymptotic_energy_unit_strengths():
    assert asymptotic_reduced_energy(1.0) == pytest.approx(
        math.log(2.0), rel=1e-15
    )


def test_asymptotic_energy_hits_both_separatrix_levels():
    # at unit strengths the launch-family energy equals the separatrix
    # level exactly on the leaves -1 and 8, the offsets bounding the
    # exchange window
    e = asymptotic_reduced_energy(1.0)
    assert separatrix_energy(1.0, -1.0) == pytest.approx(e, rel=1e-12)
    assert separatrix_energy(1.0, 8.0) == pytest.approx(e, rel=1e-12)
    assert e == pytest.approx(0.5 * math.log(4.0), rel=1e-15)
    assert e == pytest.approx(0.5 * math.log(8.0 / 2.0), rel=1e-15)


@pytest.mark.parametrize("gamma", [0.6, 1.0, 2.3])
def test_asymptotic_energy_matches_launch_limit(gamma):
    # Richardson in 1/launch^2: two ratio-10 steps kill the leading and
    # next-order tails of the finite-launch reduced energy
    vals = []
    for launch in (1e2, 1e3, 1e4):
        pos, g = initial_state(
            ScatteringSetup(rho=0.3, gamma=gamma, launch=launch)
        )
        spec, s = reduce_state(pos, g)
        vals.append(reduced_hamiltonian(spec, s))
    first = (100.0 * vals[1] - vals[0]) / 99.0
    second = (100.0 * vals[2] - vals[1]) / 99.0
    extrapolated = (1e4 * second - first) / (1e4 - 1.0)
    assert extrapolated == pytest.approx(
        asymptotic_reduced_energy(gamma), abs=1e-6
    )


def test_outcome_oracles(oracle_runs):
    assert oracle_runs[(1.0, 2.5)].outcome == EXCHANGE
    assert oracle_runs[(1.0, -0.999)].outcome == EXCHANGE
    assert oracle_runs[(1.0, 3.8)].outcome == DIRECT
    assert oracle_runs[(2.0, 4.5)].outcome == EXTENDED_DIRECT
    assert oracle_runs[(2.0, -0.8)].outcome == EXTENDED_DIRECT
    # below the triangular-saddle energy on its leaf, so the temporary
    # swap is unreachable and the pair just flies by
    assert oracle_runs[(2.0, -4.5)].outcome == DIRECT


def test_final_partner_matches_outcome(oracle_runs):
    for (gamma, _), res in oracle_runs.items():
        want = 1 if res.outcome == EXCHANGE else 0
        assert res.partner == want
        # the escaping pair settles back to its launch separation
        assert res.partner_distance == pytest.approx(gamma, rel=0.01)


def test_exchange_keeps_upper_half_plane(oracle_runs):
    # unit-strength dichotomy: exchange crosses the vertical axis of the
    # shape plane and never the horizontal one; direct does the reverse
    for rho in (2.5, -0.999):
        res = oracle_runs[(1.0, rho)]
        assert res.x_crossings >= 1
        assert res.y_crossings == 0
        assert res.crossed_positive_x
    res = oracle_runs[(1.0, 3.8)]
    assert res.x_crossings == 0
    assert res.y_crossings >= 1
    assert not res.crossed_positive_x


def test_extended_direct_signature(oracle_runs):
    res = oracle_runs[(2.0, 4.5)]
    assert res.partner == 0
    assert res.crossed_positive_x
    assert res.x_crossings == 2
    assert res.y_crossings == 1
    assert res.delta_alpha > 2.0 * math.pi  # the excursion adds a loop


def test_reduced_and_lab_angles_agree(oracle_runs):
    for (gamma, _), res in oracle_runs.items():
        if gamma == 1.0:
            assert res.delta_alpha_reduced is not None
            assert abs(res.delta_alpha - res.delta_alpha_reduced) <= 1e-3
        else:
            assert res.delta_alpha_reduced is None


def test_heading_rate_is_summed_only_for_the_equal_pair_family(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return heading_rate(*args)

    monkeypatch.setattr(scattering, "heading_rate", counting)
    for gamma in (0.4, 2.0, 1.0):
        calls.clear()
        res = run(ScatteringSetup(rho=1.3, gamma=gamma))
        if gamma == 1.0:
            assert calls and res.delta_alpha_reduced is not None
        else:
            assert not calls and res.delta_alpha_reduced is None


def test_deflection_approaches_closed_form(oracle_runs):
    # finite launch distance leaves a tail gap of a few 1e-3
    for rho in (2.5, 3.8):
        res = oracle_runs[(1.0, rho)]
        want = delta_alpha_closed(1.0 + 2.0 * rho)
        assert res.delta_alpha == pytest.approx(want, abs=2e-2)


def test_invariant_drifts_stay_small(oracle_runs):
    for res in oracle_runs.values():
        assert res.energy_drift <= 1e-7
        assert res.theta_drift <= 1e-7
        assert res.impulse_drift <= 1e-7


def test_zero_leaf_exchanges_without_deflection():
    res = run(ScatteringSetup(rho=-0.5))
    assert res.theta == 0.0
    assert res.outcome == EXCHANGE
    assert abs(res.delta_alpha) <= 1e-3
    assert res.delta_alpha_reduced == 0.0


def test_runs_are_deterministic():
    a = run(ScatteringSetup(rho=3.8))
    b = run(ScatteringSetup(rho=3.8))
    assert a.delta_alpha == b.delta_alpha
    assert a.escape_time == b.escape_time
    assert a.min_distance == b.min_distance


def _result_hex(res):
    return {k: (v.hex() if isinstance(v, float) else v) for k, v in asdict(res).items()}


@pytest.mark.parametrize("rho,gamma", [(1.5, 2.0), (0.3, 1.0)])
def test_run_is_bit_identical_through_pair_kernel(rho, gamma, monkeypatch):
    # the three-vortex path of core.rhs against the stacked-state kernel,
    # both under the flat contract: six floats and three strengths in,
    # a list of six velocities out
    calls = []

    def through_pair_kernel(positions, circulations):
        calls.append(1)
        x = np.array(positions).reshape(3, 2)
        return core.pair_kernel(x, np.array(circulations))[0].ravel().tolist()

    setup = ScatteringSetup(rho=rho, gamma=gamma)
    fast = run(setup)
    monkeypatch.setattr(core, "rhs", through_pair_kernel)
    slow = run(setup)
    assert calls
    assert _result_hex(fast) == _result_hex(slow)


class _ReferenceAccumulator(scattering._Accumulator):
    """The window reduction as first written: pieces kept as tuples of the
    step's lists and stacked with np.array, the pair kernel and invariants
    formed on full (M, 3, 3, 2) pair arrays.  Test-only reference."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pieces = []

    def __call__(self, step, t1):
        a = step.t0
        while a < t1:
            b = min(self.t_check, t1)
            self.pieces.append((step.t0, step.h, step.y0, step.k, a, b))
            a = b
            if b == self.t_check:
                if self._check(b):
                    return True
                self.t_check = min(b + self.window, self.t_max)
        return False

    def _check(self, t):
        t0, h, y0, k, a, b = (np.array(c) for c in zip(*self.pieces))
        nodes_t = a[:, None] + (b - a)[:, None] * np.array([0.25, 0.5, 0.75, 1.0])
        nodes_t[:, -1] = b
        nodes = Segment(t0[:, None], h[:, None], y0[:, None], k[:, None])
        ts = np.concatenate((self.start[0], nodes_t.ravel()))
        ys = np.concatenate((self.start[1], nodes.eval(nodes_t).reshape(-1, 6)))
        self.pieces = []
        self.start = (ts[-1:], ys[-1:])
        headings = self.feed(ts, ys)

        cur = ys[-1].reshape(3, 2)
        self.partner, self.separation = scattering._partner(cur)
        centroid = 0.5 * (cur[2] + cur[self.partner])
        far = float(np.hypot(*(cur[1 - self.partner] - centroid)))
        back = int(np.searchsorted(ts, t - self.probe))
        target = float(self.g[1]) * self.spacing
        self.escaped = (
            abs(self.separation - target) <= scattering.SEPARATION_TOL * target
            and far > scattering.ESCAPE_DISTANCE * self.spacing
            and far > self.prev_far
            and abs(headings[-1] - headings[back]) < scattering.HEADING_TOL
        )
        self.prev_far = far
        self.escape_time = t
        return self.escaped

    def feed(self, ts, ys):
        r = ys.reshape(-1, 3, 2)
        v, rho2 = pair_kernel(r, self.g)
        raw = np.arctan2(v[:, 2, 1], v[:, 2, 0])
        if self.launch_heading is None:
            self.launch_heading = self.prev_heading = float(raw[0])
        headings = np.unwrap(np.concatenate(([self.prev_heading], raw)))[1:]
        self.prev_heading = float(headings[-1])
        self.delta_alpha = self.prev_heading - self.launch_heading

        x, y, _, _ = shape_map(r, self.spec)
        self.x_cross += int(np.sum(x[1:] * x[:-1] < 0.0))
        self.y_cross += int(np.sum(y[1:] * y[:-1] < 0.0))
        self.x_max = max(self.x_max, float(x.max()))

        if self.alpha_reduced is not None and self.theta != 0.0:
            q = heading_rate(x, y, self.theta)
            h = ts[4::4] - ts[:-4:4]
            self.alpha_reduced += float(np.sum(
                h / 12.0
                * (q[:-4:4] + 4.0 * q[1::4] + 2.0 * q[2::4] + 4.0 * q[3::4] + q[4::4])
            ))

        self.min_distance = min(self.min_distance, float(np.sqrt(rho2.min())))

        h_arr, th_arr, m_arr = invariants(r, self.g)
        h0, th0, m0 = self.ref
        drifts = (
            float(np.max(np.abs(h_arr - h0))) / max(1.0, abs(float(h0))),
            float(np.max(np.abs(th_arr - th0))) / max(1.0, abs(float(th0))),
            float(np.max(np.abs(m_arr - m0))),
        )
        self.drift = tuple(map(max, self.drift, drifts))
        return headings


REFERENCE_RUNS = [
    *((dict(rho=rho, gamma=gamma), {})
      for gamma in (0.4, 1.0, 2.0) for rho in (-1.1, 0.3, 1.5, 2.8)),
    # a budget between check times puts the last window's end at 170
    (dict(rho=2.5), {"t_max": 170.0}),
    (dict(rho=1.5, spacing=0.5, launch=200.0), {}),
]


_angle = st.one_of(
    st.floats(-4.0 * math.pi, 4.0 * math.pi),
    st.sampled_from((0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi)),
)


@settings(max_examples=300, deadline=None)
@given(prev=_angle, raw=st.lists(_angle, min_size=1, max_size=12))
def test_unwrap_is_numpy_unwrap_bit_for_bit(prev, raw):
    # exact +/-pi steps take the boundary branches; a NaN spreads as in np.unwrap
    for values in (raw, [*raw, math.nan, *raw]):
        raw_arr = np.array(values)
        want = np.unwrap(np.concatenate(([prev], raw_arr)))[1:]
        assert scattering._unwrap(prev, raw_arr).tobytes() == want.tobytes()


@pytest.mark.parametrize("setup, kw", REFERENCE_RUNS)
def test_window_reduction_is_bit_identical_to_the_reference(setup, kw, monkeypatch):
    fast = run(ScatteringSetup(**setup), **kw)
    monkeypatch.setattr(scattering, "_Accumulator", _ReferenceAccumulator)
    slow = run(ScatteringSetup(**setup), **kw)
    assert _result_hex(fast) == _result_hex(slow)


def _rows_hex(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def test_sweep_rows_match_serial_reference_rows(monkeypatch):
    rhos = [-1.1, 0.3, 2.8]
    _, rows = sweep(rhos, gamma=2.0, jobs=2)
    monkeypatch.setattr(scattering, "_Accumulator", _ReferenceAccumulator)
    _, want = sweep(rhos, gamma=2.0)
    assert all(row[4] == "" for row in want)
    assert _rows_hex(rows) == _rows_hex(want)

THRESHOLD_GRID = {
    (1.0, 100.0): [-2.0, -1.3, -0.7, 0.8, 2.0, 3.2, 4.5],
    (0.9, 100.0): [-1.4, -0.7, 0.5, 1.5, 2.1, 2.7, 3.6],
    (1.7, 200.0): [-1.5, -0.6, 2.0, 8.0, 13.0, 14.8, 16.0],
}


@pytest.mark.parametrize("gamma,launch", sorted(THRESHOLD_GRID))
def test_energy_threshold_sets_the_outcome(gamma, launch):
    # the swap-side excursion happens exactly when the launch energy
    # exceeds the saddle level on the launch leaf; the escaping pair can
    # only change members when the strengths match, so the above-level
    # class is an exchange at gamma 1 and a temporary swap otherwise
    e_inf = asymptotic_reduced_energy(gamma)
    for rho in THRESHOLD_GRID[(gamma, launch)]:
        theta = gamma * (1.0 + 2.0 * rho)
        level = separatrix_energy(gamma, theta)
        above = level is not None and e_inf > level
        res = run(ScatteringSetup(rho=rho, gamma=gamma, launch=launch))
        assert res.crossed_positive_x == above, (gamma, rho)
        if above:
            want = EXCHANGE if gamma == 1.0 else EXTENDED_DIRECT
        else:
            want = DIRECT
        assert res.outcome == want, (gamma, rho)


@pytest.mark.parametrize(
    "gamma,rho",
    [(1.0, 3.8), (1.0, 2.5), (1.0, -0.999), (2.0, 4.5), (2.0, -4.5)],
)
def test_mirrored_final_state_replays_the_class(gamma, rho, oracle_runs):
    # reflecting the escaped configuration reverses every velocity, so
    # integrating again retraces the encounter; the class must survive
    fwd = oracle_runs[(gamma, rho)]
    pos, g = initial_state(ScatteringSetup(rho=rho, gamma=gamma))
    traj = integrate(
        flat_rhs(g),
        pos.reshape(6),
        IntegratorOptions(t_end=fwd.escape_time),
    )
    mirrored = traj.ys[-1].reshape(3, 2).copy()
    mirrored[:, 1] *= -1.0
    back = run_from_state(mirrored, g)
    assert back.outcome == fwd.outcome
    assert back.delta_alpha == pytest.approx(fwd.delta_alpha, abs=1e-2)


def test_sweep_reports_in_input_order():
    rhos = [3.7, -1.2, 3.3, -0.8]
    cols, rows = sweep(rhos)
    assert cols == SWEEP_COLUMNS
    assert [row[0] for row in rows] == rhos
    by_rho = {row[0]: row for row in rows}
    assert by_rho[-1.2][3] == DIRECT
    assert by_rho[-0.8][3] == EXCHANGE
    assert by_rho[3.3][3] == EXCHANGE
    assert by_rho[3.7][3] == DIRECT
    assert all(row[4] == "" for row in rows)
    assert by_rho[-0.8][1] == pytest.approx(-0.6)


def test_sweep_parallel_matches_serial():
    rhos = [-1.2, -0.8, 3.3, 3.7]
    _, serial = sweep(rhos)
    _, parallel = sweep(rhos, jobs=2)
    assert serial == parallel


def test_sweep_flags_budget_exhaustion():
    _, rows = sweep([0.0], t_max=50.0)
    rho, theta, angle, outcome, flags = rows[0]
    assert flags == "near-separatrix"
    assert outcome == ""
    assert math.isnan(angle)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_rows_keep_the_callers_step_budget(jobs):
    # three steps cannot carry either pair from its launch to the target
    _, rows = sweep([2.5, -1.5], opts=IntegratorOptions(max_steps=3), jobs=jobs)
    assert [row[4] for row in rows] == ["error:StepBudgetExceeded"] * 2


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_job_counts_below_one(jobs):
    with pytest.raises(BadSetup):
        sweep([2.5], jobs=jobs)


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("jobs", [2.5, 2.0, 1.0, math.inf, math.nan, "2", None])
def test_sweep_rejects_a_job_count_that_is_no_integer_on_any_host(jobs, cpus, monkeypatch):
    # the pool is never reached: the count is refused before any row runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(scattering.os, "cpu_count", lambda: cpus)
    _RecordingPool.sizes = []
    with pytest.raises(BadSetup, match="integer"):
        sweep([1.0, 2.0, 3.0], launch=5.0, jobs=jobs)
    assert _RecordingPool.sizes == []


def test_sweep_takes_a_numpy_integer_job_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(scattering.os, "cpu_count", lambda: 4)
    _RecordingPool.sizes = []
    _, rows = sweep([1.0, 2.0, 3.0], launch=5.0, jobs=np.int64(2))
    assert _RecordingPool.sizes == [2]
    assert [r[4] for r in rows] == ["error:BadSetup"] * 3


def test_run_raises_when_budget_too_small():
    with pytest.raises(NoEscape):
        run(ScatteringSetup(rho=0.0), t_max=50.0)


@settings(max_examples=8, deadline=None)
@given(
    rho=st.one_of(st.floats(4.2, 8.0), st.floats(-5.0, -1.3))
)
def test_far_offsets_scatter_directly(rho):
    res = run(ScatteringSetup(rho=rho))
    assert res.outcome == DIRECT
    assert res.partner == 0
    assert not res.crossed_positive_x


class _RecordingPool:
    """Stands in for the process pool: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_starts_no_more_workers_than_rows_or_cpus(monkeypatch):
    # rows whose launch is too close fail fast, so no run is integrated
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(scattering.os, "cpu_count", lambda: 4)
    _RecordingPool.sizes = []
    _, rows = sweep([1.0, 2.0, 3.0], launch=5.0, jobs=100_000)
    assert _RecordingPool.sizes == [3]
    assert [r[4] for r in rows] == ["error:BadSetup"] * 3
    sweep([1.0] * 10, launch=5.0, jobs=100_000)
    assert _RecordingPool.sizes == [3, 4]
    sweep([1.0] * 10, launch=5.0, jobs=2)
    sweep([1.0], launch=5.0, jobs=100_000)  # one row runs in-process
    monkeypatch.setattr(scattering.os, "cpu_count", lambda: None)
    sweep([1.0] * 10, launch=5.0, jobs=100_000)
    assert _RecordingPool.sizes == [3, 4, 2]


def test_sweep_flags_an_exhausted_step_budget(monkeypatch):
    def exhausted(*args, **kwargs):
        raise StepBudgetExceeded(0.0, 3)

    monkeypatch.setattr(scattering, "integrate", exhausted)
    _, rows = sweep([2.5])
    assert rows == [(2.5, 6.0, rows[0][2], "", "error:StepBudgetExceeded")]
    assert math.isnan(rows[0][2])


def test_importing_the_package_loads_no_process_pool():
    # the pool is imported only by a sweep that starts one
    code = (
        "import sys, trivortex, trivortex.cli; "
        "pool = ('multiprocessing', 'concurrent.futures.process'); "
        "print(sorted(m for m in sys.modules if m.startswith(pool)))"
    )
    src = str(Path(trivortex.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert out.stdout == "[]\n"


def test_every_exported_name_resolves():
    missing = [name for name in trivortex.__all__ if not hasattr(trivortex, name)]
    assert missing == []
    # removed from the package: no module, CLI path or benchmark called them
    removed = {
        "trilinear", "TrilinearPoint", "ZeroDenominator", "complete_k",
        "complete_pi", "ClosedFormTerms", "closed_form_terms",
        "delta_alpha_legendre",
    }
    assert removed.isdisjoint(trivortex.__all__)
    assert not any(hasattr(trivortex, name) for name in removed)
    # and gone from their modules: the frame layer, whose one inverse is now
    # reduction.lift, and the R_F and principal-value R_J route
    gone = {
        reduction: ("JacobiFrame", "to_jacobi", "frame_from_vectors", "from_jacobi",
                    "to_nambu", "nambu_to_frame"),
        elliptic: ("carlson_rf", "carlson_rj", "_rf_core", "_check_real_triple"),
        errors: ("DomainError",),
    }
    for module, names in gone.items():
        assert [n for n in names if hasattr(module, n)] == []
        assert set(names).isdisjoint(trivortex.__all__)
