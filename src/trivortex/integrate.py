"""Adaptive Runge-Kutta integration with dense output.

The stepper is the Dormand-Prince 5(4) embedded pair with first-same-as-last
stage reuse, a proportional-integral step controller, and the quartic
interpolant that goes with the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import NonFiniteRHS, StepBudgetExceeded, StepSizeUnderflow

FloatArray = NDArray[np.float64]
RHS = Callable[[float, FloatArray], FloatArray]

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
class IntegratorOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    t0: float = 0.0
    t_end: float = 1.0
    max_steps: int = 5_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("time span must be finite")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(slots=True)
class Segment:
    """Accepted steps with their quartic interpolants: one step, or m steps
    stacked along a leading axis (``t0`` and the signed step ``h`` (m,),
    ``y0`` (m, k), ``coef`` = K^T P (m, k, 4))."""

    t0: float | FloatArray
    h: float | FloatArray
    y0: FloatArray
    coef: FloatArray

    def eval(self, t) -> FloatArray:
        """The interpolant at a time, (k,), or an array of times, (n, k);
        stacked steps take one time each.  The fixed-order elementwise sum
        gives a time the same bits alone or in an array."""
        u = np.asarray((t - self.t0) / self.h)[..., None]
        u2 = u * u
        c = self.coef
        return self.y0 + np.asarray(self.h)[..., None] * (
            c[..., 0] * u + c[..., 1] * u2 + c[..., 2] * (u2 * u) + c[..., 3] * (u2 * u2)
        )


@dataclass(slots=True)
class Trajectory:
    """Sampled solution with its dense output.

    Samples sit at the accepted steps, times strictly increasing.
    ``steps`` stacks the accepted steps in the order they were taken, so
    on a backward run they run against ``ts``.
    """

    ts: FloatArray
    ys: FloatArray
    steps: Segment | None = field(repr=False, default=None)

    def interpolate(self, t) -> FloatArray:
        """Dense output at a time, (k,), or an array of times, (n, k),
        inside the integrated span."""
        s = self.steps
        if s is None:
            raise ValueError("trajectory carries no dense output")
        t = np.asarray(t, dtype=np.float64)
        a, b = self.ts[0], self.ts[-1]
        inside = (a - 1e-12 <= t) & (t <= b + 1e-12)
        if not inside.all():
            raise ValueError(f"t={t[~inside][0]} outside integrated span [{a}, {b}]")
        # inner step boundaries only, so times at either end get an end step
        idx = np.searchsorted(self.ts[1:-1], t, side="right")
        if s.h[0] < 0.0:
            idx = len(s.h) - 1 - idx  # backward run: the last step starts at ts[0]
        return Segment(s.t0[idx], s.h[idx], s.y0[idx], s.coef[idx]).eval(t)


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


def integrate(
    f: RHS,
    y0: FloatArray | Sequence[float],
    opts: IntegratorOptions,
    on_step: Callable[[Segment, float], bool] | None = None,
) -> Trajectory:
    """Integrate y' = f(t, y) from opts.t0 to opts.t_end.

    Negative spans are allowed; samples are returned in increasing time
    either way.  Raises StepSizeUnderflow when the controller pushes the
    step below 1e-14, StepBudgetExceeded after ``max_steps`` step attempts,
    and NonFiniteRHS when the vector field stops being finite.

    ``on_step(step, t)`` receives each accepted step and the time it
    reached, and ends the run by returning True.  The run then keeps only
    its first and last state, and no dense output.
    """
    y = np.array(y0, dtype=np.float64).ravel()
    t = float(opts.t0)
    t_end = float(opts.t_end)
    span = abs(t_end - t)
    s = 1.0 if t_end >= t else -1.0

    f0 = np.asarray(f(t, y), dtype=np.float64)
    if not np.isfinite(f0).all():
        raise NonFiniteRHS(t)

    ts, ys, hs, coefs = [t], [y], [], []

    if span == 0.0:
        return Trajectory(np.array(ts), np.array(ys))

    h = _initial_step(f, t, y, f0, s, opts.rtol, opts.atol, span, opts.max_step)
    err_prev = 1e-4
    k = np.empty((7, y.size))
    k[0] = f0
    nsteps = 0

    while True:
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

        step = Segment(t0=t, h=s * h, y0=y, coef=k.T @ _P)
        t, y = t_new, y_new
        k[0] = k[6]
        if on_step is not None:
            if on_step(step, t):
                break
        else:
            ts.append(t)
            ys.append(y)
            hs.append(step.h)
            coefs.append(step.coef)

        if last:
            break
        factor = _SAFETY * err**-_EXPO * err_prev**_BETA if err > 0.0 else 10.0
        h = min(h * min(10.0, max(0.2, factor)), opts.max_step)
        err_prev = max(err, 1e-10)

    if on_step is not None:
        ts.append(t)
        ys.append(y)
    ts_arr = np.array(ts)
    ys_arr = np.array(ys)
    steps = None
    if hs:
        steps = Segment(ts_arr[:-1], np.array(hs), ys_arr[:-1], np.array(coefs))
    if s < 0.0:
        ts_arr = ts_arr[::-1].copy()
        ys_arr = ys_arr[::-1].copy()
    return Trajectory(ts_arr, ys_arr, steps)
