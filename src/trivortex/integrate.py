"""Adaptive Runge-Kutta integration with dense output.

The stepper is the Dormand-Prince 5(4) embedded pair with first-same-as-last
stage reuse, a proportional-integral step controller, and the quartic
interpolant that goes with the pair.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import NonFiniteRHS, StepBudgetExceeded, StepSizeUnderflow

FloatArray = NDArray[np.float64]
# the stepper passes a list of floats and reads any sequence of floats back
RHS = Callable[[float, list], Sequence[float]]

# Dormand-Prince 5(4) tableau: nodes C, stage weights A, solution weights B
# and the weights E of y5 - y4, E7 on the first-same-as-last stage; the
# zero weights B2 and E2 are left out
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21, _A31, _A32, _A41, _A42, _A43 = 1 / 5, 3 / 40, 9 / 40, 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200
_E6, _E7 = 22 / 525, -1 / 40
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
    t0: float = 0.0
    t_end: float = 1.0
    max_steps: int = 5_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("time span must be finite")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(slots=True)
class Segment:
    """Accepted steps with their quartic interpolants: one step of floats
    and lists, or m steps stacked along a leading axis (``t0`` and the signed
    step ``h`` (m,), ``y0`` (m, n), the seven stage slopes ``k`` (m, 7, n))."""

    t0: float | FloatArray
    h: float | FloatArray
    y0: Sequence[float] | FloatArray
    k: Sequence[Sequence[float]] | FloatArray

    def eval(self, t) -> FloatArray:
        """The interpolant at a time, (n,), or an array of times, (..., n);
        stacked steps take one time each.  K^T P is one batched product and
        the rest elementwise, so a time gives the same bits alone or in an array."""
        return _quartic(t, self.t0, self.h, self.y0, np.swapaxes(self.k, -1, -2) @ _P)


def _quartic(t, t0, h, y0, c) -> FloatArray:  # the interpolant, given c = K^T P
    u = np.asarray((t - t0) / h)[..., None]
    u2 = u * u
    return y0 + np.asarray(h)[..., None] * (
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
        """Dense output at a time, (n,), or an array of times, (..., n),
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
        # K^T P once per step the times fall in
        steps, at = np.unique(idx.ravel(), return_inverse=True)
        c = (np.swapaxes(s.k[steps], -1, -2) @ _P)[at.reshape(idx.shape)]
        return _quartic(t, s.t0[idx], s.h[idx], s.y0[idx], c)


def _rms(v: list[float]) -> float:
    # squares by multiplication: float ** raises OverflowError
    return math.sqrt(sum([x * x for x in v]) / len(v))


def _initial_step(
    f: RHS, t0: float, y0: list[float], f0: Sequence[float], s: float,
    rtol: float, atol: float, span: float,
) -> float:
    """Hairer-style starting step size guess."""
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / c for v, c in zip(y0, scale)])
    d1 = _rms([v / c for v, c in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:  # d1 overflowed: the field is too fast for any step
        raise StepSizeUnderflow(t0, h0)
    f1 = f(t0 + h0 * s, [v + h0 * s * d for v, d in zip(y0, f0)])
    d2 = _rms([(b - a) / c for a, b, c in zip(f0, f1, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


@functools.lru_cache(maxsize=16)
def _stepper(n: int):
    """The step loop for n floats, compiled once per n: ``each`` writes an expression
    out per component (yi, new zi, slope j's kj_i), in a component loop's float order."""
    def each(expr, sep=", "):
        return sep.join([expr.format(i=i) for i in range(n)])

    source = f"""\
def step_loop(f, t, y, k1, h, t_end, s, rtol, atol, max_steps, on_step, taken):
    err_prev = 1e-4
    for _ in range(max_steps):
        {each('y{i}')}, = y
        {each('k1_{i}')}, = k1
        last = h >= abs(t_end - t)
        if last:
            h = abs(t_end - t)
        elif h < _MIN_STEP:
            raise StepSizeUnderflow(t, h)
        sh = s * h
        t_new = t_end if last else t + sh
        {each('k2_{i}')}, = k2 = f(t + sh * _C2, [{each('y{i} + sh * (_A21 * k1_{i})')}])
        {each('k3_{i}')}, = k3 = f(t + sh * _C3, [{each('y{i} + sh * (_A31 * k1_{i} + _A32 * k2_{i})')}])
        {each('k4_{i}')}, = k4 = f(t + sh * _C4, [{each(
            'y{i} + sh * (_A41 * k1_{i} + _A42 * k2_{i} + _A43 * k3_{i})')}])
        {each('k5_{i}')}, = k5 = f(t + sh * _C5, [{each(
            'y{i} + sh * (_A51 * k1_{i} + _A52 * k2_{i} + _A53 * k3_{i} + _A54 * k4_{i})')}])
        {each('k6_{i}')}, = k6 = f(t + sh, [{each('y{i} + sh * (_A61 * k1_{i} + _A62 * k2_{i}'
                                                 ' + _A63 * k3_{i} + _A64 * k4_{i} + _A65 * k5_{i})')}])
        {each('z{i}')}, = y_new = [{each('y{i} + sh * (_B1 * k1_{i} + _B3 * k3_{i}'
                                       ' + _B4 * k4_{i} + _B5 * k5_{i} + _B6 * k6_{i})')}]
        {each('k7_{i}')}, = k7 = f(t_new, y_new)
        if not ({' and '.join([each(f'math.isfinite({k}{{i}})', ' and ')
                               for k in ('k2_', 'k3_', 'k4_', 'k5_', 'k6_', 'k7_', 'z')])}):
            raise NonFiniteRHS(t_new)
        err = math.sqrt(sum([{each('(r := h * (_E1 * k1_{i} + _E3 * k3_{i} + _E4 * k4_{i}'
                                   ' + _E5 * k5_{i} + _E6 * k6_{i} + _E7 * k7_{i})'
                                   ' / (atol + rtol * max(abs(y{i}), abs(z{i})))) * r')}]) / {n})
        if err > 1.0:
            h *= max(0.2, _SAFETY * err**-0.2)
            continue
        step = (t, sh, y, (k1, k2, k3, k4, k5, k6, k7))
        t, y, k1 = t_new, y_new, k7
        if on_step is None:
            taken.append(step)
        elif on_step(Segment(*step), t):
            break
        if last:
            break
        factor = _SAFETY * err**-_EXPO * err_prev**_BETA if err > 0.0 else 10.0
        h *= min(10.0, max(0.2, factor))
        err_prev = max(err, 1e-10)
    else:
        raise StepBudgetExceeded(t, max_steps)
    return t, y
"""
    name = f"<trivortex.integrate step loop n={n}>"
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)  # for tracebacks
    exec(compile(source, name, "exec"), globals(), scope := {})
    return scope["step_loop"]


def integrate(
    f: RHS,
    y0: FloatArray | Sequence[float],
    opts: IntegratorOptions,
    on_step: Callable[[Segment, float], bool] | None = None,
) -> Trajectory:
    """Integrate y' = f(t, y) from opts.t0 to opts.t_end.

    ``f`` takes the state as a list of floats and returns as many floats (an
    ndarray is read with ``tolist()``, another count raises ValueError).
    Negative spans are allowed; samples are returned in increasing time either
    way.  Raises StepSizeUnderflow when the controller pushes a step short of
    the span's end below 1e-14, StepBudgetExceeded after ``max_steps`` step
    attempts, and NonFiniteRHS when the vector field stops being finite.

    ``on_step(step, t)`` receives each accepted step and the time it
    reached, and ends the run by returning True.  The run then keeps only
    its first and last state, and no dense output.
    """
    y = np.asarray(y0, dtype=np.float64).ravel().tolist()
    t, t_end = float(opts.t0), float(opts.t_end)
    span = abs(t_end - t)
    s = 1.0 if t_end >= t else -1.0

    k1 = f(t, y)
    if type(k1) is np.ndarray:
        f, k1 = (lambda t, y, field=f: field(t, y).tolist()), k1.tolist()
    if len(k1) != len(y):
        raise ValueError(f"the field gave {len(k1)} rates for a state of {len(y)} floats")
    if not all(map(math.isfinite, k1)):
        raise NonFiniteRHS(t)

    if span == 0.0:
        return Trajectory(np.array([t]), np.array([y]))

    rtol, atol = opts.rtol, opts.atol
    h = _initial_step(f, t, y, k1, s, rtol, atol, span)
    first, taken = (t, y), []  # the run's start and, without on_step, its steps
    t, y = _stepper(len(y))(f, t, y, k1, h, t_end, s, rtol, atol, opts.max_steps, on_step, taken)

    ts_arr, ys_arr, steps = np.array((first[0], t)), np.array((first[1], y)), None
    if taken:
        t0s, hs, y0s, ks = zip(*taken)
        ts_arr, ys_arr = np.array((*t0s, t)), np.array((*y0s, y))
        steps = Segment(ts_arr[:-1], np.array(hs), ys_arr[:-1], np.array(ks))
    if s < 0.0:
        ts_arr = ts_arr[::-1].copy()
        ys_arr = ys_arr[::-1].copy()
    return Trajectory(ts_arr, ys_arr, steps)
