"""Scattering runs: launch geometry, outcomes, sweeps, reversibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivortex.core import flat_rhs
from trivortex.elliptic import delta_alpha_closed
from trivortex.equilibria import separatrix_energy
from trivortex import scattering
from trivortex.errors import BadSetup, NoEscape, StepBudgetExceeded
from trivortex.integrate import IntegratorOptions, integrate
from trivortex.reduction import reduce_state, reduced_hamiltonian
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
    monkeypatch.setattr(scattering, "ProcessPoolExecutor", _RecordingPool)
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
