"""Dipole against a lone vortex: launch states, outcomes, angle sweeps.

A translating pair carrying strengths (1, -1) is launched from far away
toward a stationary vortex of strength Gamma. The run integrates the lab
equations in chunks, accumulating the heading of the moving vortex and
the shape-plane signature of the encounter, until the outgoing pair
satisfies a finite-time surrogate of escape to infinity.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import as_circulations, as_positions, flat_rhs, invariants, pair_kernel
from .errors import BadSetup, NoEscape, VortexError
from .integrate import IntegratorOptions, integrate
from .reduction import ReducedSystemSpec, heading_rate, reduce_state, shape_map

FloatArray = NDArray[np.float64]

DIRECT = "Direct"
EXCHANGE = "Exchange"
EXTENDED_DIRECT = "ExtendedDirect"

# escape surrogate: outgoing pair within this fraction of its asymptotic
# separation, the bystander this many dipole scales away and receding,
# and the heading drifting less than this over one probe window
SEPARATION_TOL = 0.01
ESCAPE_DISTANCE = 50.0
HEADING_TOL = 1e-4

DEFAULT_TIME_BUDGET = 1.0e5

SWEEP_COLUMNS = ("rho", "Theta", "delta_alpha", "outcome", "flags")


@dataclass(frozen=True, slots=True)
class ScatteringSetup:
    """Launch geometry: pair (vortices 1 and 3) aimed at vortex 2.

    ``rho`` offsets the pair's track from the target, ``launch`` is how
    far out it starts, and ``spacing`` scales every length in the setup.
    """

    rho: float
    gamma: float = 1.0
    launch: float = 100.0
    spacing: float = 1.0

    def circulations(self) -> FloatArray:
        return np.array([1.0, self.gamma, -1.0])

    def theta(self) -> float:
        d = self.spacing
        return self.gamma * d * (2.0 * self.rho + d)


@dataclass(frozen=True, slots=True)
class ScatteringResult:
    """Outcome and diagnostics of one scattering run.

    ``partner`` is the index (0 or 1) of the vortex escaping alongside
    vortex 2 (index order matches the setup).  ``delta_alpha_reduced``
    is filled only for the (1, 1, -1) family, where the heading rate has
    a shape-plane expression.
    """

    delta_alpha: float
    delta_alpha_reduced: float | None
    outcome: str
    partner: int
    partner_distance: float
    min_distance: float
    escape_time: float
    theta: float
    x_crossings: int
    y_crossings: int
    crossed_positive_x: bool
    energy_drift: float
    theta_drift: float
    impulse_drift: float


def initial_state(setup: ScatteringSetup) -> tuple[FloatArray, FloatArray]:
    """Positions and strengths of the launch configuration.

    The pair straddles the line y = rho so the total linear impulse
    vanishes exactly and the center of vorticity sits at the origin.
    """
    rho, g, big_l, d = setup.rho, setup.gamma, setup.launch, setup.spacing
    if not (g > 0.0 and math.isfinite(g)):
        raise BadSetup(f"target strength must be positive, got {g}")
    if not (d > 0.0 and math.isfinite(d)):
        raise BadSetup(f"dipole scale must be positive, got {d}")
    if not big_l > 10.0 * max(1.0, abs(rho)):
        raise BadSetup(
            f"launch distance {big_l} too close for offset {rho}; "
            "need more than 10 times max(1, |rho|)"
        )
    half = 0.5 * g * d
    positions = np.array(
        [
            [-big_l, rho + half],
            [0.0, -d],
            [-big_l, rho - half],
        ]
    )
    return positions, setup.circulations()


def asymptotic_reduced_energy(gamma: float, spacing: float = 1.0) -> float:
    """Launch-family energy in the far limit, reduced normalization.

    Two of the three log terms cancel as the pair recedes, leaving the
    log of the pair separation plus the normalization offset carried by
    the reduced Hamiltonian for strengths (1, gamma, -1).
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"strength must be positive, got {gamma}")
    spec = ReducedSystemSpec.for_circulations([1.0, gamma, -1.0])
    return math.log(gamma * spacing) + spec.offset


def _pair_distances(pos: FloatArray) -> tuple[float, float]:
    d13 = float(np.hypot(*(pos[2] - pos[0])))
    d23 = float(np.hypot(*(pos[2] - pos[1])))
    return d13, d23


class _Accumulator:
    """Streaming per-chunk reductions so long runs stay in fixed memory."""

    def __init__(self, g: FloatArray, spec: ReducedSystemSpec, theta: float) -> None:
        self.g = g
        self.spec = spec
        self.theta = theta
        self.launch_heading: float | None = None
        self.prev_heading: float | None = None
        self.delta_alpha = 0.0
        self.alpha_reduced = 0.0
        self.x_cross = 0
        self.y_cross = 0
        self.x_max = -math.inf
        self.prev_x: float | None = None
        self.prev_y: float | None = None
        self.min_distance = math.inf
        self.ref: tuple[float, float, FloatArray] | None = None
        self.energy_drift = 0.0
        self.theta_drift = 0.0
        self.impulse_drift = 0.0
        self.ts_tail: FloatArray = np.empty(0)
        self.headings_tail: FloatArray = np.empty(0)

    def feed(self, ts: FloatArray, ys: FloatArray) -> None:
        r = ys.reshape(-1, 3, 2)
        v, rho2 = pair_kernel(r, self.g)
        raw = np.arctan2(v[:, 2, 1], v[:, 2, 0])
        if self.prev_heading is None:
            headings = np.unwrap(raw)
            self.launch_heading = float(headings[0])
        else:
            headings = np.unwrap(np.concatenate(([self.prev_heading], raw)))[1:]
        self.prev_heading = float(headings[-1])
        self.delta_alpha = float(headings[-1]) - float(self.launch_heading)
        self.ts_tail = ts
        self.headings_tail = headings

        x, y, _, _ = shape_map(r, self.spec)
        xs = np.concatenate(([self.prev_x], x)) if self.prev_x is not None else x
        ys_shape = (
            np.concatenate(([self.prev_y], y)) if self.prev_y is not None else y
        )
        self.x_cross += int(np.sum(xs[1:] * xs[:-1] < 0.0))
        self.y_cross += int(np.sum(ys_shape[1:] * ys_shape[:-1] < 0.0))
        self.x_max = max(self.x_max, float(x.max()))
        self.prev_x, self.prev_y = float(x[-1]), float(y[-1])

        if self.theta != 0.0:
            rates = heading_rate(x, y, self.theta)
            # Simpson over each accepted step, 4 equal subintervals
            n = (len(ts) - 1) // 4
            for i in range(n):
                s = 4 * i
                h = ts[s + 4] - ts[s]
                self.alpha_reduced += (
                    h
                    / 12.0
                    * (
                        rates[s]
                        + 4.0 * rates[s + 1]
                        + 2.0 * rates[s + 2]
                        + 4.0 * rates[s + 3]
                        + rates[s + 4]
                    )
                )

        self.min_distance = min(self.min_distance, float(np.sqrt(rho2.min())))

        h_arr, th_arr, m_arr = invariants(r, self.g)
        if self.ref is None:
            self.ref = (float(h_arr[0]), float(th_arr[0]), m_arr[0].copy())
        h0, th0, m0 = self.ref
        self.energy_drift = max(
            self.energy_drift,
            float(np.max(np.abs(h_arr - h0))) / max(1.0, abs(h0)),
        )
        self.theta_drift = max(
            self.theta_drift,
            float(np.max(np.abs(th_arr - th0))) / max(1.0, abs(th0)),
        )
        self.impulse_drift = max(
            self.impulse_drift, float(np.max(np.abs(m_arr - m0)))
        )

    def heading_at(self, t: float) -> float:
        i = int(np.searchsorted(self.ts_tail, t))
        i = min(max(i, 0), len(self.headings_tail) - 1)
        return float(self.headings_tail[i])


def _refine_chunk(
    traj, t0: float, y0: FloatArray
) -> tuple[FloatArray, FloatArray]:
    # 4 subintervals per accepted step; first node is the chunk start
    ts = [t0]
    ys = [y0]
    for seg in traj.segments:
        for u in (0.25, 0.5, 0.75, 1.0):
            ts.append(seg.t0 + u * seg.h)
            ys.append(seg.eval(seg.t0 + u * seg.h))
    return np.array(ts), np.array(ys)


def run_from_state(
    positions: FloatArray,
    circulations: FloatArray,
    opts: IntegratorOptions | None = None,
    *,
    spacing: float = 1.0,
    t_max: float = DEFAULT_TIME_BUDGET,
) -> ScatteringResult:
    """Integrate from an arbitrary configuration and classify the escape.

    The swap test compares the final companion of vortex 2 against its
    companion at the start, so a time-reflected exchange still registers
    as an exchange.
    """
    pos = as_positions(positions)
    g = as_circulations(circulations, 3)
    if not (g[0] > 0.0 and g[1] > 0.0 and g[2] < 0.0):
        raise BadSetup(
            "engine expects two positive strengths and a negative third, "
            f"got {tuple(g)}"
        )
    gamma = float(g[1])
    base = opts if opts is not None else IntegratorOptions()
    rspec, s0 = reduce_state(pos, g)
    theta = s0.Theta
    target_sep = gamma * spacing

    tau = gamma * spacing * spacing
    chunk = 25.0 * tau
    probe = 2.0 * tau

    f = flat_rhs(g)
    acc = _Accumulator(g, rspec, theta)
    d13, d23 = _pair_distances(pos)
    initial_partner = 0 if d13 <= d23 else 1

    t = 0.0
    y = pos.reshape(6).copy()
    prev_far = math.inf
    escaped = False
    while True:
        o = IntegratorOptions(
            rtol=base.rtol,
            atol=base.atol,
            max_step=base.max_step,
            t0=t,
            t_end=min(t + chunk, t_max),
            max_steps=base.max_steps,
        )
        traj = integrate(f, y, o)
        ts_f, ys_f = _refine_chunk(traj, t, y)
        acc.feed(ts_f, ys_f)

        t = float(traj.ts[-1])
        y = traj.ys[-1].copy()
        cur = y.reshape(3, 2)
        d13, d23 = _pair_distances(cur)
        partner = 0 if d13 <= d23 else 1
        sep = d13 if partner == 0 else d23
        bystander = 1 - partner
        centroid = 0.5 * (cur[2] + cur[partner])
        far = float(np.hypot(*(cur[bystander] - centroid)))
        steady = abs(acc.heading_at(t) - acc.heading_at(t - probe))
        if (
            abs(sep - target_sep) <= SEPARATION_TOL * target_sep
            and far > ESCAPE_DISTANCE * spacing
            and far > prev_far
            and steady < HEADING_TOL
        ):
            escaped = True
            break
        prev_far = far
        if t >= t_max:
            break
    if not escaped:
        raise NoEscape(
            f"no escape within the time budget {t_max:g} "
            "(separatrix slowdown or a bound interaction)"
        )

    swapped = partner != initial_partner
    if swapped:
        outcome = EXCHANGE
    elif acc.x_max > 0.0:
        outcome = EXTENDED_DIRECT
    else:
        outcome = DIRECT
    reduced: float | None = None
    if abs(gamma - 1.0) < 1e-12 and rspec.selector == "specialized-11m1":
        reduced = acc.alpha_reduced
    return ScatteringResult(
        delta_alpha=acc.delta_alpha,
        delta_alpha_reduced=reduced,
        outcome=outcome,
        partner=partner,
        partner_distance=sep,
        min_distance=acc.min_distance,
        escape_time=t,
        theta=theta,
        x_crossings=acc.x_cross,
        y_crossings=acc.y_cross,
        crossed_positive_x=acc.x_max > 0.0,
        energy_drift=acc.energy_drift,
        theta_drift=acc.theta_drift,
        impulse_drift=acc.impulse_drift,
    )


def run(
    setup: ScatteringSetup,
    opts: IntegratorOptions | None = None,
    *,
    t_max: float = DEFAULT_TIME_BUDGET,
) -> ScatteringResult:
    """Launch, integrate and classify one scattering experiment."""
    positions, g = initial_state(setup)
    return run_from_state(
        positions, g, opts, spacing=setup.spacing, t_max=t_max
    )


def _sweep_row(payload) -> tuple:
    rho, gamma, launch, spacing, rtol, atol, t_max = payload
    setup = ScatteringSetup(rho=rho, gamma=gamma, launch=launch, spacing=spacing)
    theta = setup.theta()
    try:
        res = run(
            setup,
            IntegratorOptions(rtol=rtol, atol=atol),
            t_max=t_max,
        )
    except NoEscape:
        return (rho, theta, math.nan, "", "near-separatrix")
    except VortexError as exc:
        return (rho, theta, math.nan, "", f"error:{type(exc).__name__}")
    return (rho, theta, res.delta_alpha, res.outcome, "")


def sweep(
    rhos,
    gamma: float = 1.0,
    opts: IntegratorOptions | None = None,
    *,
    launch: float = 100.0,
    spacing: float = 1.0,
    t_max: float = DEFAULT_TIME_BUDGET,
    jobs: int = 1,
) -> tuple[tuple[str, ...], list[tuple]]:
    """Scattering angle over a grid of offsets.

    Rows are independent; they are computed (optionally in parallel, on at
    most one worker per row and per CPU) and always reported in the order
    the offsets were given.  A row that hits the time budget is flagged
    rather than aborting the sweep.
    """
    base = opts if opts is not None else IntegratorOptions()
    payloads = [
        (float(r), gamma, launch, spacing, base.rtol, base.atol, t_max)
        for r in rhos
    ]
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]
    return SWEEP_COLUMNS, rows
