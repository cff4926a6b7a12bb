"""Planar point-vortex dynamics in the laboratory frame.

A vortex of strength ``g`` at the point ``p`` induces at ``r`` the velocity
``g * K(r - p)`` with kernel ``K(d) = (-d_y, d_x) / |d|^2``; the circulation
around it is ``2*pi*g``.  The induced motion conserves the interaction energy

    H = -(1/2) * sum_{i<j} g_i g_j log |r_i - r_j|^2,

the linear impulse ``M = sum_i g_i r_i`` and the angular impulse
``Theta = sum_i g_i |r_i|^2``.  When the total strength is nonzero the
centroid ``M / sum_i g_i`` is stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import CoincidentVortices

FloatArray = NDArray[np.float64]

# Below this pair separation the induced velocities are meaningless noise.
COINCIDENCE_FLOOR = 1e-12
_FLOOR2 = COINCIDENCE_FLOOR * COINCIDENCE_FLOOR


def as_positions(positions: FloatArray | Sequence[Sequence[float]]) -> FloatArray:
    """Coerce to an (N, 2) or (..., N, 2) float array, rejecting non-finite entries."""
    x = np.asarray(positions, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != 2:
        raise ValueError(f"positions must have shape (..., N, 2), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("positions contain non-finite values")
    return x


def as_circulations(
    circulations: FloatArray | Sequence[float], n: int | None = None
) -> FloatArray:
    g = np.asarray(circulations, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError(f"circulations must be one-dimensional, got shape {g.shape}")
    if n is not None and g.shape[0] != n:
        raise ValueError(f"expected {n} circulations, got {g.shape[0]}")
    if not np.isfinite(g).all():
        raise ValueError("circulations contain non-finite values")
    return g


def _pairs(x: FloatArray, guard: bool) -> tuple[FloatArray, FloatArray]:
    """Pairwise offsets and squared distances, +inf on the diagonal; with
    ``guard``, the first pair (i < j) closer than COINCIDENCE_FLOOR raises."""
    d = x[..., :, None, :] - x[..., None, :, :]
    rho2 = d[..., 0] ** 2 + d[..., 1] ** 2
    n = x.shape[-2]
    rho2.reshape(*rho2.shape[:-2], n * n)[..., :: n + 1] = np.inf
    if guard:
        k = int(np.argmin(rho2))
        if rho2.flat[k] < _FLOOR2:
            i, j = divmod(k % (n * n), n)
            raise CoincidentVortices(i, j, float(np.sqrt(rho2.flat[k])))
    return d, rho2


def _dot(a: FloatArray, g: FloatArray) -> FloatArray:
    # row-wise dot product over the last axis; each row rounds exactly as
    # np.dot(g, row) does, so a stack gives the numbers of its states
    return (a[..., None, :] @ g)[..., 0]


def pair_kernel(x: FloatArray, g: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Velocities (shaped like ``x``) and squared pair distances (+inf on the
    diagonal) of a validated (N, 2) state or (..., N, 2) stack.  Raises
    CoincidentVortices when a pair sits closer than COINCIDENCE_FLOOR."""
    d, rho2 = _pairs(x, True)
    w = g / rho2
    vx = -(w * d[..., 1]).sum(axis=-1)
    vy = (w * d[..., 0]).sum(axis=-1)
    return np.stack([vx, vy], axis=-1), rho2


def invariants(x: FloatArray, g: FloatArray) -> tuple[FloatArray, FloatArray, FloatArray]:
    """H, Theta and M (trailing axis of 2) over the leading axes of ``x``,
    inputs as for ``pair_kernel``; a coincident pair sends H to +/-inf."""
    _, rho2 = _pairs(x, False)
    iu, ju = np.triu_indices(g.shape[0], k=1)
    with np.errstate(divide="ignore"):
        h = -0.5 * np.sum(g[iu] * g[ju] * np.log(rho2[..., iu, ju]), axis=-1)
    theta = _dot(x[..., 0] ** 2 + x[..., 1] ** 2, g)
    m = np.stack([_dot(x[..., 0], g), _dot(x[..., 1], g)], axis=-1)
    return h, theta, m


def rhs(
    positions: FloatArray | Sequence[Sequence[float]] | list[float],
    circulations: FloatArray | Sequence[float],
) -> FloatArray | list[float]:
    """Velocities of every vortex under the mutual interaction.

    Parameters
    ----------
    positions : (N, 2) array, or an (..., N, 2) stack of states
    circulations : (N,) array of vortex strengths

    Returns the velocities, shaped like ``positions``.  Raises
    CoincidentVortices when any pair sits closer than COINCIDENCE_FLOOR.
    A flat list ``[x0, y0, x1, y1, x2, y2]`` of floats with three float
    strengths, which is what ``flat_rhs`` passes, takes an unrolled path
    and returns the flat list of velocities with pair_kernel's bits.
    """
    if type(positions) is list and len(positions) == 6 and len(circulations) == 3:
        return _three_vortex_rhs(positions, circulations)
    x = as_positions(positions)
    g = as_circulations(circulations, x.shape[-2])
    return pair_kernel(x, g)[0]


def _three_vortex_rhs(y: list[float], g: Sequence[float]) -> list[float]:
    """pair_kernel(x, g)[0].ravel() for N = 3 on Python floats, with its checks.

    Row i of pair_kernel sums w[i, j] * d[i, j] over j with NumPy's
    reduction, which starts from +0.0.  The diagonal term is a signed zero
    and changes no bit of such a sum, and two nonzero terms add alike in
    either order, so each row is ``0.0 + a + b`` over the other two columns.
    d[j, i] = -d[i, j] and rho2[j, i] = rho2[i, j] exactly, up to the sign
    of a zero offset, which the +0.0 start absorbs.  One sum screens the nine
    values; only a sum that is not finite sends them through the validators.
    """
    x0, y0, x1, y1, x2, y2 = y
    g0, g1, g2 = g
    try:  # NumPy scalars, floats too, may raise a RuntimeWarning here as an error
        finite = math.isfinite(x0 + y0 + x1 + y1 + x2 + y2 + g0 + g1 + g2)
    except RuntimeWarning:
        finite = False
    if not finite:  # the validators' checks and messages, positions first
        as_positions(np.reshape(y, (3, 2)))
        as_circulations(g)
    dx01, dy01 = x0 - x1, y0 - y1
    dx02, dy02 = x0 - x2, y0 - y2
    dx12, dy12 = x1 - x2, y1 - y2
    r01 = dx01 * dx01 + dy01 * dy01
    r02 = dx02 * dx02 + dy02 * dy02
    r12 = dx12 * dx12 + dy12 * dy12
    if r01 < _FLOOR2 or r02 < _FLOOR2 or r12 < _FLOOR2:
        # the first closest pair in (0, 1), (0, 2), (1, 2) order, as argmin
        (i, j), r = min(((0, 1), r01), ((0, 2), r02), ((1, 2), r12), key=lambda p: p[1])
        raise CoincidentVortices(i, j, math.sqrt(r))
    # w[i, j] = g[j] / rho2[i, j]
    w01, w02, w12 = g1 / r01, g2 / r02, g2 / r12
    w10, w20, w21 = g0 / r01, g0 / r02, g1 / r12
    return [
        -(0.0 + w01 * dy01 + w02 * dy02),
        0.0 + w01 * dx01 + w02 * dx02,
        -(0.0 + w10 * -dy01 + w12 * dy12),
        0.0 + w10 * -dx01 + w12 * dx12,
        -(0.0 + w20 * -dy02 + w21 * -dy12),
        0.0 + w20 * -dx02 + w21 * -dx12,
    ]


def window_kernel(ys: FloatArray, g: FloatArray) -> tuple:
    """pair_kernel's ``v[:, 2]`` as columns (u, v), the smallest squared pair
    distance, then invariants' H, Theta and M of an (M, 6) stack of three-vortex
    states, bit for bit, in one pass over its coordinate columns.  Rows follow
    ``_three_vortex_rhs``; a coincidence names the first state at the global
    minimum, as argmin does, and a NaN distance raises nothing and is returned."""
    x0, y0, x1, y1, x2, y2 = ys.T
    g0, g1, g2 = g
    dx01, dy01 = x0 - x1, y0 - y1
    dx02, dy02 = x0 - x2, y0 - y2
    dx12, dy12 = x1 - x2, y1 - y2
    r01 = dx01 * dx01 + dy01 * dy01
    r02 = dx02 * dx02 + dy02 * dy02
    r12 = dx12 * dx12 + dy12 * dy12
    closest = np.minimum(np.minimum(r01, r02), r12)
    r_min = closest.min()
    if r_min < _FLOOR2:
        m = int(np.argmin(closest))
        (i, j), r = min(((0, 1), r01[m]), ((0, 2), r02[m]), ((1, 2), r12[m]), key=lambda p: p[1])
        raise CoincidentVortices(i, j, math.sqrt(r))
    w20, w21 = g0 / r02, g1 / r12
    u = -(0.0 + w20 * -dy02 + w21 * -dy12)
    v = 0.0 + w20 * -dx02 + w21 * -dx12
    # NumPy's sum over the (0, 1), (0, 2), (1, 2) terms also starts from +0.0
    h = -0.5 * (0.0 + g0 * g1 * np.log(r01) + g0 * g2 * np.log(r02) + g1 * g2 * np.log(r12))
    x = ys.reshape(-1, 3, 2)
    m = np.stack((_dot(x[..., 0], g), _dot(x[..., 1], g)), axis=-1)
    return (u, v), r_min, h, _dot(x[..., 0] ** 2 + x[..., 1] ** 2, g), m


def hamiltonian(
    positions: FloatArray | Sequence[Sequence[float]],
    circulations: FloatArray | Sequence[float],
) -> float:
    """Interaction energy of the configuration.  Raises CoincidentVortices
    when any pair sits closer than COINCIDENCE_FLOOR."""
    x = as_positions(positions)
    g = as_circulations(circulations, x.shape[0])
    _pairs(x, True)
    return float(invariants(x, g)[0])


@dataclass(frozen=True, slots=True)
class ConservedSet:
    """Snapshot of the conserved quantities.

    Fields are floats for one state and arrays over the leading axes for a
    stack.  ``r0`` is the stationary centroid, present only when the total
    strength is nonzero.
    """

    H: float | FloatArray
    M: tuple[float, float] | tuple[FloatArray, FloatArray]
    Theta: float | FloatArray
    r0: tuple[float, float] | tuple[FloatArray, FloatArray] | None


def conserved(
    positions: FloatArray | Sequence[Sequence[float]],
    circulations: FloatArray | Sequence[float],
) -> ConservedSet:
    """Evaluate energy, linear impulse, angular impulse and the centroid.

    ``positions`` is one (N, 2) state or an (..., N, 2) stack.  Never
    raises: a coincident pair sends the energy to +/-inf rather than
    aborting, so the impulses stay reportable at singular snapshots.
    """
    x = as_positions(positions)
    g = as_circulations(circulations, x.shape[-2])
    h, theta, m = invariants(x, g)
    mx, my = m[..., 0], m[..., 1]
    if x.ndim == 2:
        h, theta, mx, my = float(h), float(theta), float(mx), float(my)
    total = float(g.sum())
    if abs(total) > 1e-12 * float(np.abs(g).sum()):
        r0 = (mx / total, my / total)
    else:
        r0 = None
    return ConservedSet(H=h, M=(mx, my), Theta=theta, r0=r0)


def flat_rhs(circulations: FloatArray | Sequence[float]):
    """Adapter producing a flat-vector callable for the integrator.

    The state is a list ``[x1, y1, ..., xN, yN]`` of floats; the returned
    function maps ``(t, y)`` to the list of velocities.  Three vortices
    take the unrolled path of ``rhs``, which builds no array.
    """
    g = as_circulations(circulations)
    n = g.shape[0]
    if n == 3:
        g3 = tuple(g.tolist())
        return lambda t, y: rhs(y, g3)

    def f(t: float, y: list[float]) -> list[float]:
        return rhs(np.asarray(y, dtype=np.float64).reshape(n, 2), g).ravel().tolist()

    return f
