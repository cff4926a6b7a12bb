"""Symmetric elliptic integrals and the closed-form deflection angle.

Carlson's symmetric integral R_J evaluated by duplication for a positive
fourth argument, the only weight the closed form hands it, with conjugate
complex pairs accepted where the quartic's roots leave the real axis. A
double exponential quadrature of the deflection integral serves as the
reference route; the closed form must agree with it wherever both are
defined.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BoundaryTheta, NonFiniteResult, QuadratureNonConvergence

COMPLEX_PAIR = "ComplexPair"
REAL_REAL = "RealReal"
REAL_IMAG = "RealImag"
IMAG_IMAG = "ImagImag"

_RELERR = 1e-16
# |Theta| below 2**256 keeps Theta^4, the size of the quartic's constant
# term, inside the float range
_THETA_RANGE = 2.0**256


def _sqrt(w):
    if isinstance(w, complex):
        return cmath.sqrt(w)
    return math.sqrt(w)


def _rc_core(x, y):
    # y is positive, or complex inside the duplication on a conjugate pair
    a0 = (x + 2.0 * y) / 3.0
    q = (3.0 * _RELERR) ** (-0.125) * abs(a0 - x)
    an, xn, yn = a0, x, y
    scale = 1.0
    while scale * q >= abs(an):
        lam = 2.0 * _sqrt(xn) * _sqrt(yn) + yn
        an = 0.25 * (an + lam)
        xn = 0.25 * (xn + lam)
        yn = 0.25 * (yn + lam)
        scale *= 0.25
    s = (y - a0) * scale / an
    series = 1.0 + s * s * (
        0.3
        + s * (1.0 / 7.0 + s * (0.375 + s * (9.0 / 22.0 + s * (159.0 / 208.0 + s * 9.0 / 8.0))))
    )
    return series / _sqrt(an)


def _rj_core(x, y, z, p):
    # p > 0; x, y, z nonnegative with at most one zero, or y, z a conjugate pair
    a0 = (x + y + z + 2.0 * p) / 5.0
    delta = (p - x) * (p - y) * (p - z)
    q = (0.25 * _RELERR) ** (-1.0 / 6.0) * max(
        abs(a0 - x), abs(a0 - y), abs(a0 - z), abs(a0 - p)
    )
    an, xn, yn, zn, pn = a0, x, y, z, p
    scale = 1.0
    total = 0.0
    while scale * q >= abs(an):
        sx, sy, sz, sp = _sqrt(xn), _sqrt(yn), _sqrt(zn), _sqrt(pn)
        lam = sx * sy + sy * sz + sz * sx
        dn = (sp + sx) * (sp + sy) * (sp + sz)
        en = delta * scale**3 / (dn * dn)
        total = total + scale / dn * _rc_core(1.0, 1.0 + en)
        an = 0.25 * (an + lam)
        xn = 0.25 * (xn + lam)
        yn = 0.25 * (yn + lam)
        zn = 0.25 * (zn + lam)
        pn = 0.25 * (pn + lam)
        scale *= 0.25
    gx = (a0 - x) * scale / an
    gy = (a0 - y) * scale / an
    gz = (a0 - z) * scale / an
    gp = -0.5 * (gx + gy + gz)
    e2 = gx * gy + gy * gz + gz * gx - 3.0 * gp * gp
    e3 = gx * gy * gz + 2.0 * e2 * gp + 4.0 * gp**3
    e4 = (2.0 * gx * gy * gz + e2 * gp + 3.0 * gp**3) * gp
    e5 = gx * gy * gz * gp * gp
    series = (
        1.0
        - 3.0 * e2 / 14.0
        + e3 / 6.0
        + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0
        + 3.0 * e5 / 26.0
    )
    return scale * series / (an * _sqrt(an)) + 6.0 * total


def _refine_levels(center, term, tmax, tol, max_level):
    # trapezoid sums in the transformed variable t on |t| <= tmax, halving
    # the spacing each level; term(t) is weight times integrand at node t
    h = 1.0
    total = center
    k = 1
    while k * h <= tmax:
        total += term(k * h)
        total += term(-k * h)
        k += 1
    prev = total * h
    err = math.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        extra = 0.0
        k = 1
        while k * h <= tmax:
            extra += term(k * h)
            extra += term(-k * h)
            k += 2  # only the new midpoints of this level
        total += extra
        current = total * h
        err = abs(current - prev)
        if err <= tol * max(1.0, abs(current)) and level >= 3:
            return current
        prev = current
    raise QuadratureNonConvergence(prev, err, tol)


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12, max_level: int = 10) -> float:
    """Double exponential quadrature on a finite interval.

    Endpoint singularities up to inverse square roots are absorbed by the
    transform. Raises QuadratureNonConvergence when level refinement stalls
    above the requested tolerance.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def node(t):
        s = 0.5 * math.pi * math.sinh(t)
        x = mid + half * math.tanh(s)
        w = half * 0.5 * math.pi * math.cosh(t) / math.cosh(s) ** 2
        return x, w

    def term(t):
        x, w = node(t)
        return w * f(x) if w > 0.0 and a < x < b else 0.0

    x0, w0 = node(0.0)
    return _refine_levels(w0 * f(x0), term, 3.8, tol, max_level)


def _exp_sinh(g, tol: float = 1e-12, max_level: int = 10) -> float:
    # integral of g over (0, infinity); nodes u = exp(pi/2 sinh t)
    def term(t):
        s = 0.5 * math.pi * math.sinh(t)
        if abs(s) > 700.0:
            return 0.0
        u = math.exp(s)
        return u * 0.5 * math.pi * math.cosh(t) * g(u)

    return _refine_levels(0.5 * math.pi * g(1.0), term, 4.4, tol, max_level)


@dataclass(frozen=True, slots=True)
class QuarticFactorization:
    """Factorization class of the quartic under the deflection square root."""

    regime: str
    a_sq: float
    b_sq: float
    y_min: float
    theta: float


def _u_roots(theta: float):
    """Roots -B +/- 8 sqrt(Theta + 1) of ``p4_factor``'s quartic in u = Y^2,
    a conjugate pair below Theta = -1; raises on the regime boundaries and
    where the quartic's coefficients are past the float range."""
    if not math.isfinite(theta):
        raise ValueError("Theta must be finite")
    if not abs(theta) < _THETA_RANGE:
        raise NonFiniteResult(
            f"Theta = {theta!r} is past 2**256, where the quartic's "
            "coefficients leave the float range"
        )
    if theta in (-1.0, 0.0, 8.0):
        raise BoundaryTheta(
            f"Theta = {theta} sits on a factorization boundary"
        )
    t = theta
    b = t * t - 4.0 * t - 8.0
    gap = 8.0 * math.sqrt(abs(t + 1.0))
    s = complex(0.0, gap) if t < -1.0 else gap
    return -b + s, -b - s


def p4_factor(theta: float) -> QuarticFactorization:
    """Classify and factor the quartic q(Y) = Y^4 + 2B Y^2 + C.

    Here B = Theta^2 - 4 Theta - 8 and C = (Theta - 8) Theta^3; the
    discriminant gap B^2 - C equals 64 (Theta + 1), which fixes the regime
    boundaries. The lower integration limit is 0 when no real root exists
    and a when Y = a is the outermost real root.
    """
    r1, r2 = _u_roots(theta)
    t = theta
    if t < -1.0:
        rad = r1.real  # -B
        s = math.sqrt((t - 8.0) * t**3)
        return QuarticFactorization(
            COMPLEX_PAIR, 0.5 * (s + rad), 0.5 * (s - rad), 0.0, t
        )
    # 0.0 - r rather than -r: a vanishing root gives +0.0, not -0.0
    if t < 0.0:
        return QuarticFactorization(REAL_REAL, r1, r2, math.sqrt(r1), t)
    if t < 8.0:
        return QuarticFactorization(REAL_IMAG, r1, 0.0 - r2, math.sqrt(r1), t)
    return QuarticFactorization(IMAG_IMAG, 0.0 - r2, 0.0 - r1, 0.0, t)


def delta_alpha_quadrature(theta: float, tol: float = 1e-11) -> float:
    """Deflection angle by direct quadrature of the two-term integral.

    The substitution Y^2 = Y_min^2 + u^2 removes the inverse square root
    at the lower endpoint; the transformed integrand decays like u^-4, so
    the half-infinite double exponential rule converges quickly.
    """
    t = theta
    fac = p4_factor(t)
    c1 = t * t
    c2 = t * t - 8.0 * t

    def lead(ysq):
        return -8.0 * c1 / (ysq + c1) + 8.0 * c2 / (ysq + c2)

    if fac.regime in (REAL_REAL, REAL_IMAG):
        a_sq = fac.a_sq
        shift = a_sq - fac.b_sq if fac.regime == REAL_REAL else a_sq + fac.b_sq

        def g(u):
            ysq = a_sq + u * u
            return lead(ysq) / (math.sqrt(ysq) * math.sqrt(u * u + shift))

    elif fac.regime == COMPLEX_PAIR:
        b = t * t - 4.0 * t - 8.0
        off = -64.0 * (t + 1.0)  # C - B^2, positive here

        def g(u):
            return lead(u * u) / math.sqrt((u * u + b) ** 2 + off)

        if b < 0.0:
            # near the lower boundary the quartic almost touches zero at
            # Y^2 = -B, an interior spike the endpoint-clustered rules miss;
            # split there so both pieces see it as an endpoint
            ys = math.sqrt(-b)
            inner = tanh_sinh(g, 0.0, ys, tol=tol, max_level=12)
            outer = _exp_sinh(lambda v: g(ys + v), tol=tol, max_level=12)
            return inner + outer

    else:

        def g(u):
            return lead(u * u) / math.sqrt((u * u + fac.a_sq) * (u * u + fac.b_sq))

    return _exp_sinh(g, tol=tol, max_level=12)


def delta_alpha_closed(theta: float) -> float:
    """Deflection angle in closed form through symmetric integrals.

    A single expression covers all four factorization regimes: with
    u = Y^2 the two partial fractions each reduce to one R_J whose first
    three arguments are the lower limit's offsets from the quartic's
    u-roots, taken as a conjugate pair when no real roots exist. On the
    singular leaf Theta = 0 the angle vanishes identically.  Raises
    NonFiniteResult where the value is not a finite float.
    """
    if theta == 0.0:
        return 0.0
    r1, r2 = _u_roots(theta)
    if isinstance(r1, complex):
        u0 = 0.0
        args = (0.0, -r1, -r2)
    else:
        u0 = max(r1, 0.0)
        args = (u0, u0 - r1, u0 - r2)

    t = theta
    c1 = t * t
    c2 = t * t - 8.0 * t
    total = -8.0 * c1 * _rj_core(*args, u0 + c1) / 3.0
    total += 8.0 * c2 * _rj_core(*args, u0 + c2) / 3.0
    value = float(total.real) if isinstance(total, complex) else float(total)
    if not math.isfinite(value):
        raise NonFiniteResult(f"the closed form at Theta = {theta!r} is not a finite float")
    return value

