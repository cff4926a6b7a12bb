"""Dipole against a lone vortex: launch states, outcomes, angle sweeps.

A translating pair carrying strengths (1, -1) is launched from far away
toward a stationary vortex of strength Gamma. One integration of the lab
equations streams each accepted step into the heading of the moving
vortex and the shape-plane signature of the encounter, until the outgoing
pair satisfies a finite-time surrogate of escape to infinity.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .core import as_circulations, as_positions, flat_rhs, invariants, window_kernel
from .errors import BadSetup, NoEscape, VortexError
from .integrate import IntegratorOptions, Segment, integrate
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
_NODE_FRACTIONS = np.array([0.25, 0.5, 0.75, 1.0])  # a window's nodes on a piece of a step

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


def _partner(pos: FloatArray) -> tuple[int, float]:
    """Index (0 or 1) of the vortex nearer to vortex 3, and its distance."""
    d = np.hypot(*(pos[2] - pos[:2]).T)
    partner = int(d[1] < d[0])
    return partner, float(d[partner])


def _unwrap(prev: float, raw: FloatArray) -> FloatArray:
    """np.unwrap(np.concatenate(([prev], raw)))[1:], in its float operations."""
    dd = raw - np.concatenate(([prev], raw[:-1]))
    ddmod = np.mod(dd + math.pi, math.tau) - math.pi
    ddmod[(ddmod == -math.pi) & (dd > 0.0)] = math.pi
    return raw + np.where(np.abs(dd) < math.pi, 0.0, ddmod - dd).cumsum()


class _Accumulator:
    """Step consumer of one scattering run.

    Check times fall on every multiple of the window (25 tau) and at the
    time budget.  Each accepted step is cut at the check times it spans,
    and every piece contributes four equally spaced dense-output nodes.
    At a check time the nodes since the previous one go through the
    heading, shape-plane and drift reductions, so long runs stay in fixed
    memory, and the escape test then reads the dense state there.
    """

    def __init__(
        self, y0: FloatArray, g: FloatArray, spec: ReducedSystemSpec,
        theta: float, spacing: float, t_max: float,
    ) -> None:
        self.g = g
        self.spec = spec
        self.theta = theta
        self.spacing = spacing
        self.t_max = t_max
        tau = float(g[1]) * spacing * spacing
        self.window = 25.0 * tau
        self.probe = 2.0 * tau
        self.t_check = min(self.window, t_max)
        # flat float buffers: each piece's t0, h, a, b, and its step's y0 and seven stages
        self.times, self.y0s, self.ks = [], [], []
        self.start = (np.zeros(1), y0[None, :])
        self.ref = invariants(y0.reshape(3, 2), g)
        self.prev_far = math.inf
        self.escaped = False
        self.launch_heading: float | None = None
        self.alpha_reduced = 0.0 if spec.selector == "specialized-11m1" else None
        self.x_cross = 0
        self.y_cross = 0
        self.x_max = -math.inf
        self.min_distance = math.inf
        self.drift = (0.0, 0.0, 0.0)  # energy, angular impulse, impulse

    def __call__(self, step: Segment, t1: float) -> bool:
        """Take one accepted step ending at t1; True once escaped."""
        a = step.t0
        while a < t1:
            b = min(self.t_check, t1)
            self.times += (step.t0, step.h, a, b)
            self.y0s += step.y0
            for k in step.k:
                self.ks += k
            a = b
            if b == self.t_check:
                if self._check(b):
                    return True
                self.t_check = min(b + self.window, self.t_max)
        return False

    def _check(self, t: float) -> bool:
        # the window's nodes: its start, then four per piece of a step
        t0, h, a, b = np.fromiter(self.times, np.float64).reshape(-1, 4).T
        y0 = np.fromiter(self.y0s, np.float64).reshape(-1, 6)
        k = np.fromiter(self.ks, np.float64).reshape(-1, 7, 6)
        nodes_t = a[:, None] + (b - a)[:, None] * _NODE_FRACTIONS
        nodes_t[:, -1] = b
        # each piece's step, broadcast over its four node times
        nodes = Segment(t0[:, None], h[:, None], y0[:, None], k[:, None])
        ts = np.concatenate((self.start[0], nodes_t.ravel()))
        ys = np.concatenate((self.start[1], nodes.eval(nodes_t).reshape(-1, 6)))
        self.times, self.y0s, self.ks = [], [], []
        self.start = (ts[-1:], ys[-1:])
        headings = self.feed(ts, ys)

        cur = ys[-1].reshape(3, 2)
        self.partner, self.separation = _partner(cur)
        centroid = 0.5 * (cur[2] + cur[self.partner])
        far = float(np.hypot(*(cur[1 - self.partner] - centroid)))
        back = int(np.searchsorted(ts, t - self.probe))
        target = float(self.g[1]) * self.spacing
        self.escaped = (
            abs(self.separation - target) <= SEPARATION_TOL * target
            and far > ESCAPE_DISTANCE * self.spacing
            and far > self.prev_far
            and abs(headings[-1] - headings[back]) < HEADING_TOL
        )
        self.prev_far = far
        self.escape_time = t
        return self.escaped

    def feed(self, ts: FloatArray, ys: FloatArray) -> FloatArray:
        """Reduce one window of nodes, whose first node closed the previous
        window; returns their unwrapped headings."""
        (u, v), rho2_min, h_arr, th_arr, m_arr = window_kernel(ys, self.g)
        raw = np.arctan2(v, u)
        if self.launch_heading is None:
            self.launch_heading = self.prev_heading = float(raw[0])
        headings = _unwrap(self.prev_heading, raw)
        self.prev_heading = float(headings[-1])
        self.delta_alpha = self.prev_heading - self.launch_heading

        # windows share their boundary node: each neighbouring pair is tested once
        x, y, _, _ = shape_map(ys.reshape(-1, 3, 2), self.spec)
        self.x_cross += int(np.count_nonzero(x[1:] * x[:-1] < 0.0))
        self.y_cross += int(np.count_nonzero(y[1:] * y[:-1] < 0.0))
        self.x_max = max(self.x_max, float(x.max()))

        if self.alpha_reduced is not None and self.theta != 0.0:
            q = heading_rate(x, y, self.theta)
            # Simpson over each piece of a step, 4 equal subintervals
            h = ts[4::4] - ts[:-4:4]
            self.alpha_reduced += float(np.sum(
                h / 12.0
                * (q[:-4:4] + 4.0 * q[1::4] + 2.0 * q[2::4] + 4.0 * q[3::4] + q[4::4])
            ))

        self.min_distance = min(self.min_distance, float(np.sqrt(rho2_min)))
        h0, th0, m0 = self.ref
        drifts = (
            float(np.abs(h_arr - h0).max()) / max(1.0, abs(float(h0))),
            float(np.abs(th_arr - th0).max()) / max(1.0, abs(float(th0))),
            float(np.abs(m_arr - m0).max()),
        )
        self.drift = tuple(map(max, self.drift, drifts))
        return headings


def run_from_state(
    positions: FloatArray,
    circulations: FloatArray,
    opts: IntegratorOptions | None = None,
    *,
    spacing: float = 1.0,
    t_max: float = DEFAULT_TIME_BUDGET,
) -> ScatteringResult:
    """Integrate from an arbitrary configuration and classify the escape.

    One integration runs from 0 to at most ``t_max``; it and ``spacing``
    must be positive and finite.  The swap test compares the final
    companion of vortex 2 against its companion at the start, so a
    time-reflected exchange still registers as an exchange.
    """
    if not (0.0 < t_max < math.inf and 0.0 < spacing < math.inf):
        raise BadSetup(
            "time budget and spacing must be positive and finite, "
            f"got {t_max} and {spacing}"
        )
    pos = as_positions(positions)
    g = as_circulations(circulations, 3)
    if not (g[0] > 0.0 and g[1] > 0.0 and g[2] < 0.0):
        raise BadSetup(
            "engine expects two positive strengths and a negative third, "
            f"got {tuple(g)}"
        )
    base = opts if opts is not None else IntegratorOptions()
    rspec, s0 = reduce_state(pos, g)
    y0 = pos.reshape(6).copy()
    acc = _Accumulator(y0, g, rspec, s0.Theta, spacing, t_max)
    integrate(flat_rhs(g), y0, replace(base, t0=0.0, t_end=t_max), on_step=acc)
    if not acc.escaped:
        raise NoEscape(
            f"no escape within the time budget {t_max:g} "
            "(separatrix slowdown or a bound interaction)"
        )

    if acc.partner != _partner(pos)[0]:
        outcome = EXCHANGE
    elif acc.x_max > 0.0:
        outcome = EXTENDED_DIRECT
    else:
        outcome = DIRECT
    return ScatteringResult(
        delta_alpha=acc.delta_alpha,
        delta_alpha_reduced=acc.alpha_reduced,
        outcome=outcome,
        partner=acc.partner,
        partner_distance=acc.separation,
        min_distance=acc.min_distance,
        escape_time=acc.escape_time,
        theta=s0.Theta,
        x_crossings=acc.x_cross,
        y_crossings=acc.y_cross,
        crossed_positive_x=acc.x_max > 0.0,
        energy_drift=acc.drift[0],
        theta_drift=acc.drift[1],
        impulse_drift=acc.drift[2],
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


def _sweep_row(payload: tuple[ScatteringSetup, IntegratorOptions, float]) -> tuple:
    setup, opts, t_max = payload
    rho, theta = setup.rho, setup.theta()
    try:
        res = run(setup, opts, t_max=t_max)
    except NoEscape:
        return (rho, theta, math.nan, "", "near-separatrix")
    except VortexError as exc:
        return (rho, theta, math.nan, "", f"error:{type(exc).__name__}")
    return (rho, theta, res.delta_alpha, res.outcome, "")


# the process pool that sweep reuses: ((pid, workers), executor), or None;
# the lock makes checking and replacing it one step for sweeps on threads
_pool = None
_pool_lock = threading.RLock()


def _close_pool() -> None:
    """Shut the reused pool down, as leaving a ``with`` block would.

    A forked child only forgets the pool it inherited: the workers are its
    parent's.
    """
    global _pool
    with _pool_lock:
        if _pool is not None:
            (pid, _), pool = _pool
            _pool = None
            if pid == os.getpid():
                pool.shutdown()


def _pool_for(workers: int):
    """The process pool of this process with ``workers`` workers, started
    on first use; a pool of another size or process is closed first."""
    global _pool
    key = (os.getpid(), workers)
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            # imported here, so that importing the package loads no multiprocessing
            import atexit
            from concurrent.futures import ProcessPoolExecutor

            _close_pool()
            _pool = (key, ProcessPoolExecutor(max_workers=workers))
            atexit.unregister(_close_pool)
            atexit.register(_close_pool)
        return _pool[1]


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
    rather than aborting the sweep.  Raises BadSetup unless ``jobs`` is an
    integer of at least 1.

    A process keeps one pool for every sweep with the same worker count,
    and shuts it down at exit, when the count changes, or when a sweep
    through it raises.  Its workers keep the module state they were started
    with: a monkeypatch made after the pool starts does not reach them, and
    one undone after it stays in them, so no test may start the pool while
    a patch that changes rows is active.
    """
    if not (isinstance(jobs, (int, np.integer)) and jobs >= 1):
        raise BadSetup(f"jobs must be an integer of at least 1, got {jobs!r}")
    base = opts if opts is not None else IntegratorOptions()
    payloads = [
        (ScatteringSetup(float(r), gamma, launch, spacing), base, t_max)
        for r in rhos
    ]
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        pool = _pool_for(workers)
        try:
            rows = list(pool.map(_sweep_row, payloads))
        except BaseException:
            _close_pool()
            raise
    else:
        rows = [_sweep_row(p) for p in payloads]
    return SWEEP_COLUMNS, rows
