"""Adaptive Runge-Kutta integration with dense output and event location.

The stepper is the Dormand-Prince 5(4) embedded pair with first-same-as-last
stage reuse, a proportional-integral step controller, and the quartic
interpolant that goes with the pair.  Events are scalar functions whose
sign changes are located on the interpolant, so their times do not depend
on how densely the trajectory happens to be sampled.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import NonFiniteRHS, StepBudgetExceeded, StepSizeUnderflow

FloatArray = NDArray[np.float64]
RHS = Callable[[float, FloatArray], FloatArray]
Scalar = Callable[[float, FloatArray], float]

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = (
    np.array([], dtype=np.float64),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# y5 - y4, including the trailing FSAL stage
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# quartic interpolant weights: y(t0+u*h) = y0 + h * (K^T P) . (u, u^2, u^3, u^4)
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MIN_STEP = 1e-14
_SAFETY = 0.9
_BETA = 0.04          # integral gain of the controller
_EXPO = 0.2 - 0.75 * _BETA


@dataclass(slots=True)
class EventSpec:
    """Scalar event function with a direction filter.

    ``direction`` selects which sign changes count: +1 rising, -1 falling,
    0 either.  A terminal event stops the integration at its root.
    """

    func: Scalar
    id: str
    direction: int = 0
    terminal: bool = False


@dataclass(slots=True)
class MonitorSpec:
    """Scalar quantity whose drift from its initial value is tracked."""

    func: Scalar
    id: str


@dataclass(slots=True)
class IntegratorOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    t0: float = 0.0
    t_end: float = 1.0
    first_step: float | None = None
    events: Sequence[EventSpec] = ()
    monitors: Sequence[MonitorSpec] = ()
    max_steps: int = 5_000_000

    def __post_init__(self) -> None:
        if not (self.rtol > 0.0 and self.atol > 0.0):
            raise ValueError("rtol and atol must be positive")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("time span must be finite")
        if self.max_step <= 0.0:
            raise ValueError("max_step must be positive")


@dataclass(slots=True)
class EventRecord:
    t: float
    id: str
    y: FloatArray


@dataclass(slots=True)
class _Segment:
    """One accepted step with its interpolant."""

    t0: float
    h: float
    y0: FloatArray
    coef: FloatArray  # (k, 4) = K^T P

    def eval(self, t: float) -> FloatArray:
        u = (t - self.t0) / self.h
        powers = np.array([u, u * u, u**3, u**4])
        return self.y0 + self.h * (self.coef @ powers)


@dataclass(slots=True)
class Trajectory:
    """Sampled solution with event records and a drift report.

    Samples sit at the accepted steps, times strictly increasing.  ``drift``
    maps each monitor id to the largest absolute deviation from its value
    at the initial state.
    """

    ts: FloatArray
    ys: FloatArray
    events: list[EventRecord]
    drift: dict[str, float]
    segments: list[_Segment] = field(repr=False, default_factory=list)

    def interpolate(self, t: float) -> FloatArray:
        """Dense-output evaluation at any time inside the integrated span."""
        if not self.segments:
            raise ValueError("trajectory carries no dense segments")
        lo = self.segments[0].t0
        hi = self.segments[-1].t0 + self.segments[-1].h
        a, b = (lo, hi) if lo <= hi else (hi, lo)
        if not (a - 1e-12 <= t <= b + 1e-12):
            raise ValueError(f"t={t} outside integrated span [{a}, {b}]")
        starts = [s.t0 for s in self.segments]
        if len(starts) > 1 and starts[1] < starts[0]:
            # backward run: segment starts decrease
            idx = len(starts) - bisect_right(list(reversed(starts)), t)
            idx = min(max(idx, 0), len(starts) - 1)
        else:
            idx = min(max(bisect_right(starts, t) - 1, 0), len(starts) - 1)
        return self.segments[idx].eval(t)


def _initial_step(
    f: RHS, t0: float, y0: FloatArray, f0: FloatArray, s: float,
    rtol: float, atol: float, span: float, max_step: float,
) -> float:
    """Hairer-style starting step size guess."""
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * s * f0
    f1 = f(t0 + h0 * s, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span, max_step)


def _refine_root(seg: _Segment, g: Scalar, ta: float, tb: float, ga: float) -> float:
    """Bisect a sign change of g on the interpolant down to time tol 1e-12."""
    tol = 1e-13 + 4.0 * abs(tb) * np.finfo(float).eps
    while abs(tb - ta) > tol:
        tm = 0.5 * (ta + tb)
        if tm == ta or tm == tb:
            break
        gm = g(tm, seg.eval(tm))
        if gm == 0.0:
            return tm
        if (ga < 0.0) == (gm < 0.0):
            ta, ga = tm, gm
        else:
            tb = tm
    return 0.5 * (ta + tb)


def integrate(f: RHS, y0: FloatArray | Sequence[float], opts: IntegratorOptions) -> Trajectory:
    """Integrate y' = f(t, y) from opts.t0 to opts.t_end.

    Negative spans are allowed; samples are returned in increasing time
    either way.  Raises StepSizeUnderflow when the controller pushes the
    step below 1e-14, StepBudgetExceeded after ``max_steps`` step attempts,
    and NonFiniteRHS when the vector field stops being finite.
    """
    y = np.array(y0, dtype=np.float64).ravel()
    t = float(opts.t0)
    t_end = float(opts.t_end)
    span = abs(t_end - t)
    s = 1.0 if t_end >= t else -1.0

    f0 = np.asarray(f(t, y), dtype=np.float64)
    if not np.isfinite(f0).all():
        raise NonFiniteRHS(t)

    ts = [t]
    ys = [y.copy()]
    segments: list[_Segment] = []
    events: list[EventRecord] = []
    g_prev = [e.func(t, y) for e in opts.events]
    q0 = [m.func(t, y) for m in opts.monitors]
    drift = {m.id: 0.0 for m in opts.monitors}

    if span == 0.0:
        return Trajectory(np.array(ts), np.array(ys), events, drift, segments)

    h = opts.first_step if opts.first_step is not None else _initial_step(
        f, t, y, f0, s, opts.rtol, opts.atol, span, opts.max_step
    )
    h = min(h, span, opts.max_step)
    err_prev = 1e-4
    k = np.empty((7, y.size))
    k[0] = f0
    nsteps = 0
    finished = False

    while not finished:
        nsteps += 1
        if nsteps > opts.max_steps:
            raise StepBudgetExceeded(t, opts.max_steps)
        if h < _MIN_STEP:
            raise StepSizeUnderflow(t, h)
        if h >= abs(t_end - t):
            h = abs(t_end - t)
            t_new = t_end
            last = True
        else:
            t_new = t + s * h
            last = False

        for i in range(1, 6):
            yi = y + s * h * (k[:i].T @ _A[i])
            k[i] = f(t + s * h * _C[i], yi)
        y_new = y + s * h * (k[:6].T @ _B)
        k[6] = f(t_new, y_new)
        if not (np.isfinite(k).all() and np.isfinite(y_new).all()):
            raise NonFiniteRHS(t_new)

        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((h * (k.T @ _E) / scale) ** 2)))

        if err > 1.0:
            h *= max(0.2, _SAFETY * err**-0.2)
            continue

        seg = _Segment(t0=t, h=s * h, y0=y.copy(), coef=k.T @ _P)
        segments.append(seg)

        stop_at: float | None = None
        for idx, spec in enumerate(opts.events):
            g_new = spec.func(t_new, y_new)
            g_old = g_prev[idx]
            crossed = (g_old < 0.0 <= g_new) or (g_old > 0.0 >= g_new)
            if crossed:
                rising = g_old < g_new
                wanted = (
                    spec.direction == 0
                    or (spec.direction > 0 and rising)
                    or (spec.direction < 0 and not rising)
                )
                if wanted:
                    t_star = _refine_root(seg, spec.func, t, t_new, g_old)
                    rec = EventRecord(t=t_star, id=spec.id, y=seg.eval(t_star))
                    events.append(rec)
                    if spec.terminal and (stop_at is None or s * t_star < s * stop_at):
                        stop_at = t_star
            g_prev[idx] = g_new

        if stop_at is not None:
            t_new = stop_at
            y_new = seg.eval(stop_at)
            seg.h = stop_at - seg.t0
            last = True
            # drop any event records the truncation skipped past
            events = [r for r in events if s * r.t <= s * t_new + 1e-12]

        for mi, m in enumerate(opts.monitors):
            dq = abs(m.func(t_new, y_new) - q0[mi])
            if dq > drift[m.id]:
                drift[m.id] = dq

        t, y = t_new, y_new
        ts.append(t)
        ys.append(y.copy())
        k[0] = k[6] if stop_at is None else np.asarray(f(t, y), dtype=np.float64)

        if last:
            finished = True
        else:
            factor = _SAFETY * err**-_EXPO * err_prev**_BETA if err > 0.0 else 10.0
            h = min(h * min(10.0, max(0.2, factor)), opts.max_step)
            err_prev = max(err, 1e-10)

    ts_arr = np.array(ts)
    ys_arr = np.array(ys)
    if s < 0.0:
        ts_arr = ts_arr[::-1].copy()
        ys_arr = ys_arr[::-1].copy()
        events.sort(key=lambda r: r.t)
    return Trajectory(ts_arr, ys_arr, events, drift, segments)


def find_event(traj: Trajectory, event_id: str) -> list[EventRecord]:
    """All recorded roots of one event function, in time order."""
    return sorted((r for r in traj.events if r.id == event_id), key=lambda r: r.t)
