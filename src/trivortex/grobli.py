"""Pairwise-distance dynamics of three vortices, with trilinear coordinates.

The squared side lengths of the vortex triangle close on themselves up to
one discrete bit: the orientation ``sigma`` (+1 when the vortices appear in
clockwise order, -1 counterclockwise).  That bit cannot be recovered from
the side lengths alone once the triangle degenerates, so this module serves
as a cross-check oracle along lab-frame trajectories rather than as a
standalone integrator: at a collinear state the side-length derivatives all
vanish and carry no information about how the flow continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FloatArray, as_circulations, as_positions
from .errors import InvalidTriangle, ZeroCirculationProduct, ZeroDenominator, ZeroSide

# heron radicand below this is treated as an inconsistent side triple
RADICAND_TOL = -1e-14


@dataclass(slots=True)
class TriangleState:
    """Squared pair distances and the orientation bit.

    Numbering follows the opposite-vertex convention: ``l23sq`` is the
    squared distance between vortices 2 and 3, and so on.
    """

    l23sq: float
    l31sq: float
    l12sq: float
    sigma: int

    def __post_init__(self) -> None:
        for name in ("l23sq", "l31sq", "l12sq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.sigma not in (1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")

    @property
    def sides_sq(self) -> tuple[float, float, float]:
        return (self.l23sq, self.l31sq, self.l12sq)


def from_positions(positions: FloatArray | Sequence[Sequence[float]]) -> TriangleState:
    """Triangle state of a three-vortex configuration.

    sigma is +1 when vertices 1,2,3 run clockwise, read off the sign of
    (r2-r1) x (r3-r1); an exactly collinear triple gets +1, where the choice
    does not matter because the area is zero.
    """
    x = as_positions(positions)
    if x.shape[0] != 3:
        raise ValueError(f"expected exactly three vortices, got {x.shape[0]}")
    cross = (x[1, 0] - x[0, 0]) * (x[2, 1] - x[0, 1]) - (x[1, 1] - x[0, 1]) * (
        x[2, 0] - x[0, 0]
    )
    sigma = 1 if cross <= 0.0 else -1
    d23 = float(((x[1] - x[2]) ** 2).sum())
    d31 = float(((x[2] - x[0]) ** 2).sum())
    d12 = float(((x[0] - x[1]) ** 2).sum())
    return TriangleState(l23sq=d23, l31sq=d31, l12sq=d12, sigma=sigma)


def heron_area(ts: TriangleState) -> float:
    """Triangle area from the squared sides.

    Uses Kahan's sorted-side product, which keeps full relative accuracy
    on needle shapes where the textbook expansion cancels. A barely
    negative radicand (within roundoff of zero at the triangle's scale)
    is clamped; anything more negative means the sides are not a planar
    triangle.
    """
    w2, v2, u2 = sorted((ts.l23sq, ts.l31sq, ts.l12sq))
    u, v, w = math.sqrt(u2), math.sqrt(v2), math.sqrt(w2)
    radicand = (u + (v + w)) * (w - (u - v)) * (w + (u - v)) * (u + (v - w))
    scale = u2 + v2 + w2
    if radicand < RADICAND_TOL * scale * scale:
        raise InvalidTriangle(
            f"squared sides ({ts.l23sq}, {ts.l31sq}, {ts.l12sq}) violate "
            f"the triangle inequality (radicand {radicand})"
        )
    return 0.25 * math.sqrt(max(radicand, 0.0))


def grobli_rhs(
    ts: TriangleState, circulations: FloatArray | Sequence[float]
) -> tuple[float, float, float]:
    """Time derivatives of (l23sq, l31sq, l12sq) under the vortex flow."""
    g = as_circulations(circulations, 3)
    a, b, c = ts.l23sq, ts.l31sq, ts.l12sq
    if a == 0.0 or b == 0.0 or c == 0.0:
        raise ZeroSide(f"zero side in squared side triple ({a}, {b}, {c})")
    area = heron_area(ts)
    pref = 4.0 * ts.sigma * area
    return (
        pref * g[0] * (1.0 / c - 1.0 / b),
        pref * g[1] * (1.0 / a - 1.0 / c),
        pref * g[2] * (1.0 / b - 1.0 / a),
    )


def grobli_invariant(
    ts: TriangleState, circulations: FloatArray | Sequence[float]
) -> float:
    """Conserved symmetric combination of the squared sides."""
    g = as_circulations(circulations, 3)
    prod = float(g[0] * g[1] * g[2])
    if prod == 0.0:
        raise ZeroCirculationProduct("invariant undefined when a circulation is zero")
    num = g[0] * g[1] * ts.l12sq + g[1] * g[2] * ts.l23sq + g[2] * g[0] * ts.l31sq
    return float(num / (3.0 * prod))


@dataclass(frozen=True, slots=True)
class TrilinearPoint:
    b1: float
    b2: float
    b3: float


def trilinear(
    ts: TriangleState,
    circulations: FloatArray | Sequence[float],
    L: float,
) -> TrilinearPoint:
    """Shape coordinates normalized by the invariant.

    With L != 0 the components sum to 3.  When |L| < 1e-12 the 1/L scaling
    is dropped and the components sum to 3*L, i.e. to 0 on the invariant's
    zero level.
    """
    g = as_circulations(circulations, 3)
    if any(gi == 0.0 for gi in g):
        raise ZeroDenominator("trilinear coordinates need nonzero circulations")
    scaled = abs(L) >= 1e-12
    denom = L if scaled else 1.0
    return TrilinearPoint(
        b1=float(ts.l23sq / (g[0] * denom)),
        b2=float(ts.l31sq / (g[1] * denom)),
        b3=float(ts.l12sq / (g[2] * denom)),
    )
