"""Two-stage reduction of three-vortex motion to a shape point.

Stage one trades lab positions for weighted relative vectors: the separation
of the first pair, the offset of the third vortex from that pair's center of
vorticity, and the overall center of vorticity, each carrying a virtual
strength.  Stage two scales the two relative vectors by the square roots of
their strengths and forms quadratic combinations (X, Y, Z): three real
functions invariant under simultaneous rotation, which is exactly the
symmetry left over.  The shape point lives on the sphere
Theta^2 = X^2 + Y^2 + Z^2 when the third strength weight is positive and on
the upper hyperboloid sheet Theta^2 = Z^2 - X^2 - Y^2 (Z >= 0) when it is
negative.  Y = 0 picks out collinear configurations in both geometries.

The reduced Hamiltonian is the lab energy written as a sum of weighted
logarithms of functions linear in (X, Z, Theta), so values, gradients and
Hessians are evaluated from one table of coefficients, the same for every
strength triple.  The printed normalizations of the dipole families differ
from the lab energy by a constant; each spec records it as its offset.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import FloatArray, as_circulations, as_positions
from .errors import DegenerateCirculationSum, SingularState
from .integrate import IntegratorOptions, Trajectory, integrate

SPHERE = "sphere"
HYPERBOLOID = "hyperboloid"

def _kappas(g: FloatArray) -> tuple[float, float, float]:
    g12 = g[0] + g[1]
    g123 = g12 + g[2]
    if abs(g12) < 1e-14:
        raise DegenerateCirculationSum(
            f"first-pair strength sum is zero: {g[0]} + {g[1]}"
        )
    if abs(g123) < 1e-14:
        raise DegenerateCirculationSum(f"total strength is zero: {tuple(g)}")
    return float(g[0] * g[1] / g12), float(g12 * g[2] / g123), float(g123)


def _relative_vectors(x: FloatArray, g: FloatArray) -> tuple[FloatArray, FloatArray]:
    # R1 and R2 of one state (3, 2) or a stack (..., 3, 2)
    r1, r2, r3 = x[..., 0, :], x[..., 1, :], x[..., 2, :]
    pair_cm = (g[0] * r1 + g[1] * r2) / (g[0] + g[1])
    return r1 - r2, pair_cm - r3


@dataclass(frozen=True, slots=True)
class NambuState:
    """Shape point with its leaf label Theta and geometry tag."""

    X: float
    Y: float
    Z: float
    Theta: float
    geometry: str

    def __post_init__(self) -> None:
        if self.geometry not in (SPHERE, HYPERBOLOID):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        res, scale = leaf_residual(self.geometry, self.X, self.Y, self.Z, self.Theta)
        # loose guard against mislabeled geometry; tight drift checks live
        # in the test suites where the provenance of the point is known
        if abs(res) > 1e-7 * scale:
            raise ValueError(
                f"point violates the {self.geometry} identity by {res:.3e}"
            )
        if self.geometry == HYPERBOLOID and self.Z < -1e-12 * scale:
            raise ValueError(f"hyperboloid sheet requires Z >= 0, got Z={self.Z}")


def leaf_residual(geometry: str, X, Y, Z, Theta) -> tuple:
    """Casimir defect Theta^2 - Q(X, Y, Z) of the leaf identity and its scale
    max(1, Theta^2, X^2 + Y^2 + Z^2), elementwise."""
    if geometry == SPHERE:
        res = -(X * X + Y * Y + Z * Z - Theta * Theta)
    else:
        res = -(Z * Z - X * X - Y * Y - Theta * Theta)
    return res, np.maximum(np.maximum(1.0, Theta * Theta), X * X + Y * Y + Z * Z)


def leaf_z(Theta, X, Y):
    """Height sqrt(Theta^2 + X^2 + Y^2) of the hyperboloid leaf, elementwise."""
    return np.sqrt(Theta * Theta + X * X + Y * Y)


def _nambu(kappa1: float, kappa2: float, R1: FloatArray, R2: FloatArray) -> tuple:
    # (X, Y, Z, Theta) of relative vectors over any leading axes
    s1, s2 = math.sqrt(kappa1), math.sqrt(abs(kappa2))
    a, b = s1 * R1[..., 0], s1 * R1[..., 1]
    c, d = s2 * R2[..., 0], s2 * R2[..., 1]
    h1, h2 = np.hypot(a, b), np.hypot(c, d)
    n1, n2 = h1 * h1, h2 * h2  # not ** 2: NumPy squares arrays but pow()s scalars
    X, Y = 2.0 * (a * c + b * d), 2.0 * (b * c - a * d)
    if kappa2 > 0.0:
        return X, Y, n1 - n2, n1 + n2
    return X, Y, n1 + n2, n1 - n2


@dataclass(frozen=True, slots=True)
class _LogTerm:
    """One c * log(a X + b Z + g Theta) contribution."""

    c: float
    a: float
    b: float
    g: float
    pair: tuple[int, int]

    def arg(self, X: float, Z: float, Theta: float) -> float:
        return self.a * X + self.b * Z + self.g * Theta


def _relabel(circulations: FloatArray) -> tuple[tuple[int, ...], bool, tuple[float, ...]]:
    g = [float(v) for v in circulations]
    if any(v == 0.0 for v in g):
        raise DegenerateCirculationSum("zero circulations are outside the reduction")
    reversed_time = sum(1 for v in g if v < 0.0) >= 2
    if reversed_time:
        g = [-v for v in g]
    pos = [i for i, v in enumerate(g) if v > 0.0]
    neg = [i for i, v in enumerate(g) if v < 0.0]
    perm = tuple(pos + neg)
    return perm, reversed_time, tuple(g[i] for i in perm)


@dataclass(frozen=True, slots=True)
class ReducedSystemSpec:
    """Frozen description of one reduced system.

    ``circulations`` are the relabeled strengths (first two positive, in
    their original relative order).  ``terms`` tabulate the lab energy
    less the constant ``log_scale``.  ``selector`` names the family, and
    ``offset`` is its printed normalization minus the lab energy: log 2
    for (1, 1, -1), a function of Gamma for (1, Gamma, -1) and 0 for every
    other triple.
    """

    circulations: tuple[float, float, float]
    kappa1: float
    kappa2: float
    kappa3: float
    selector: str
    offset: float
    log_scale: float
    terms: tuple[_LogTerm, ...]
    permutation: tuple[int, ...]
    time_reversed: bool

    @property
    def geometry(self) -> str:
        return SPHERE if self.kappa2 > 0.0 else HYPERBOLOID

    @classmethod
    def for_circulations(
        cls, circulations: FloatArray | Sequence[float]
    ) -> "ReducedSystemSpec":
        """Relabel, classify and tabulate the Hamiltonian terms."""
        g_in = as_circulations(circulations, 3)
        perm, rev, g = _relabel(g_in)
        k1, k2, k3 = _kappas(np.asarray(g))

        def close(u: float, v: float) -> bool:
            return abs(u - v) <= 1e-12 * max(1.0, abs(v))

        selector = "general-positive" if k2 > 0.0 else "general-negative"
        offset = 0.0
        if close(g[0], 1.0) and close(g[1], 1.0) and close(g[2], 1.0):
            selector = "specialized-111"
        elif close(g[0], 1.0) and close(g[2], -1.0) and g[1] > 0.0:
            G = g[1]
            if close(G, 1.0):
                selector, offset = "specialized-11m1", math.log(2.0)
            else:
                selector = "specialized-gamma"
                offset = G * math.log(1.0 + G) - 0.5 * math.log(G) + 0.5 * math.log(1.0 + G)

        # The lab energy is sum(c log(arg)) over these rows plus log_scale.
        # Each row is the lab energy's log argument divided by a positive
        # constant: the pair row becomes (0, 1, 1), and the row of pair
        # (i, 2) is divided by 2 kappa1 / g_i^2, so that its Z and Theta
        # coefficients sum to 1/2.  Written in the strengths, that row is
        # exact where g_i cancels g_2: (1, Gamma, -1) gets the (0, 2) row
        # (1/2, 1/2, 0), whose argument (X + Z)/2 carries no rounding near
        # that pair's collision.
        g12 = g[0] + g[1]
        total = (g[0] + g[2]) + g[1]  # exact where the first and third cancel

        def bystander(i: int, sign: float) -> tuple[_LogTerm, float]:
            j = 1 - i
            gt = (-g[2] - g[i]) * g12 / (4.0 * g[j] * -g[2])  # +0 where they cancel
            a = sign * 0.5 * math.sqrt(abs(total) * g[i] / (abs(g[2]) * g[j]))
            term = _LogTerm(-g[i] * g[2] / 2.0, a, 0.5 - gt, gt, (i, 2))
            return term, 2.0 * g[j] / (g[i] * g12)

        (t12, s12), (t02, s02) = bystander(1, -1.0), bystander(0, +1.0)
        terms = (_LogTerm(-g[0] * g[1] / 2.0, 0.0, 1.0, 1.0, (0, 1)), t12, t02)
        log_scale = sum(t.c * math.log(s) for t, s in zip(terms, (0.5 / k1, s12, s02)))
        return cls(
            circulations=g, kappa1=k1, kappa2=k2, kappa3=k3, selector=selector,
            offset=offset, log_scale=log_scale, terms=terms, permutation=perm,
            time_reversed=rev,
        )


def reduced_energy(spec: ReducedSystemSpec, X, Z, Theta):
    """Lab energy plus the spec's offset, elementwise and unchecked:
    non-finite wherever a log argument is <= 0."""
    h = 0.0
    for t in spec.terms:
        h = h + t.c * np.log(t.arg(X, Z, Theta))
    return h + (spec.log_scale + spec.offset)


def reduced_hamiltonian(spec: ReducedSystemSpec, s: NambuState):
    """Energy of a shape point, offset included: a float for
    one point, elementwise for arrays of X, Z and Theta.  Raises
    SingularState for the first point, in order, with a log argument <= 0."""
    args = np.array([t.arg(s.X, s.Z, s.Theta) for t in spec.terms]).reshape(len(spec.terms), -1)
    bad = np.argwhere(args.T <= 0.0)  # (point, term), in order; NaN is not <= 0
    if len(bad):
        point, term = bad[0]
        raise SingularState(spec.terms[term].pair, float(args[term, point]))
    h = reduced_energy(spec, s.X, s.Z, s.Theta)
    return h if np.ndim(h) else float(h)


def reduced_gradients(
    spec: ReducedSystemSpec, X: float, Z: float, Theta: float
) -> tuple[float, float]:
    """(H_X, H_Z) of the reduced Hamiltonian.

    The Y-derivative is identically zero for every triple, which is what
    collapses the evolution to the template used in ``nambu_rhs``.
    """
    hx = hz = 0.0
    for t in spec.terms:
        A = t.arg(X, Z, Theta)
        if A <= 0.0:
            raise SingularState(t.pair, A)
        w = t.c / A
        hx += w * t.a
        hz += w * t.b
    return hx, hz


def _rhs_from_gradients(
    geometry: str, X: float, Y: float, Z: float, hx: float, hz: float
) -> tuple[float, float, float]:
    if geometry == SPHERE:
        return (4 * Y * hz, 4 * Z * hx - 4 * X * hz, -4 * Y * hx)
    return (4 * Y * hz, -4 * Z * hx - 4 * X * hz, -4 * Y * hx)


def nambu_rhs(spec: ReducedSystemSpec, s: NambuState) -> tuple[float, float, float]:
    """Shape-point velocity (dX/dt, dY/dt, dZ/dt)."""
    hx, hz = reduced_gradients(spec, s.X, s.Z, s.Theta)
    return _rhs_from_gradients(spec.geometry, s.X, s.Y, s.Z, hx, hz)


def reduced_rhs_flat(spec: ReducedSystemSpec, theta: float):
    """Flat-vector adapter for the integrator on a fixed leaf: (X, Y, Z)
    floats in, the tuple of their rates out."""
    geometry = spec.geometry

    def f(t: float, y: Sequence[float]) -> tuple[float, float, float]:
        X, Y, Z = y
        hx, hz = reduced_gradients(spec, X, Z, theta)
        return _rhs_from_gradients(geometry, X, Y, Z, hx, hz)

    return f


def heading_rate(X, Y, Theta: float):
    """Heading rate -4 Theta Y^2 / ((X^2 + Y^2)(Theta^2 + Y^2)) of the lone
    vortex, (1, 1, -1) family, elementwise; zero on the Theta = 0 leaf and
    NaN where X = Y = 0.  Floats give a float."""
    if Theta == 0.0:
        return np.zeros(np.shape(X)) if isinstance(X, np.ndarray) else 0.0
    y2 = Y * Y
    num, den = -4.0 * Theta * y2, (X * X + y2) * (Theta * Theta + y2)
    try:
        return num / den
    except ZeroDivisionError:  # floats at X = Y = 0
        return float(np.divide(num, den))


def reduce_state(
    positions: FloatArray | Sequence[Sequence[float]],
    circulations: FloatArray | Sequence[float],
    spec: ReducedSystemSpec | None = None,
) -> tuple[ReducedSystemSpec, NambuState]:
    """Relabel, frame and map one lab state to its shape point."""
    if spec is None:
        spec = ReducedSystemSpec.for_circulations(circulations)
    X, Y, Z, theta = shape_map(positions, spec)
    return spec, NambuState(
        X=float(X), Y=float(Y), Z=float(Z), Theta=float(theta), geometry=spec.geometry
    )


def shape_map(
    positions: FloatArray | Sequence[Sequence[float]], spec: ReducedSystemSpec
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """(X, Y, Z, Theta) of a lab state (3, 2) or stack (..., 3, 2), as arrays
    over the leading axes holding what ``reduce_state`` gives per state."""
    x = as_positions(positions)[..., spec.permutation, :]
    R1, R2 = _relative_vectors(x, spec.circulations)
    return _nambu(spec.kappa1, spec.kappa2, R1, R2)


def integrate_reduced(
    spec: ReducedSystemSpec,
    s0: NambuState,
    opts: IntegratorOptions,
) -> Trajectory:
    """Integrate the shape-point dynamics on the leaf of ``s0``."""
    f = reduced_rhs_flat(spec, s0.Theta)
    return integrate(f, np.array([s0.X, s0.Y, s0.Z]), opts)


def lift(spec: ReducedSystemSpec, s: NambuState, phase: float = 0.0) -> FloatArray:
    """Lab positions (3, 2) over the shape point ``s``, the inverse of
    ``shape_map``: in the caller's labelling, with the center of vorticity
    at the origin and the first scaled Jacobi vector pointing along
    ``phase``, the angle that picks a point on the fiber circle."""
    g0, g1, g2 = spec.circulations
    n1 = 0.5 * (s.Z + s.Theta)  # |m1|^2 in both geometries
    if n1 < 0.0:
        raise ValueError(f"no preimage: |m1|^2 = {n1} < 0")
    m1 = math.sqrt(n1) * cmath.exp(1j * phase)
    w = complex(s.X, s.Y)
    if n1 == 0.0:
        if abs(w) > 1e-14:
            raise ValueError("X + iY must vanish when the first pair coincides")
        n2 = 0.5 * (s.Theta - s.Z) if spec.kappa2 > 0.0 else 0.5 * (s.Z - s.Theta)
        m2 = math.sqrt(max(n2, 0.0)) + 0.0j
    else:
        m2 = (w / (2.0 * m1)).conjugate()  # X + iY = 2 m1 conj(m2)
    R1 = m1 / math.sqrt(spec.kappa1)
    R2 = m2 / math.sqrt(abs(spec.kappa2))
    g12 = g0 + g1
    pair_cm = g2 / spec.kappa3 * R2
    r = (pair_cm + g1 / g12 * R1, pair_cm - g0 / g12 * R1, -(g12 / spec.kappa3) * R2)
    x = np.empty((3, 2))
    x[list(spec.permutation)] = [(v.real, v.imag) for v in r]
    return x


# nodes per side of the grid a leaf's level sets are traced on
LEVEL_GRID_NODES = 201

# marching squares.  A cell's corners 0..3 are (i, j), (i+1, j), (i+1, j+1)
# and (i, j+1); its edges 0..3 (bottom, right, top, left) run from corner
# _EDGE_CORNERS[e][0] to _EDGE_CORNERS[e][1].
_CORNER_OFFSETS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_EDGE_CORNERS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])
_CORNER_BITS = np.array([1, 2, 4, 8])
# edge pairs, one per segment, by the bits of the corners above the level;
# the two saddle cases 5 and 10 pair their edges by the centre value
_BELOW_CENTRE = (
    (), ((3, 0),), ((0, 1),), ((3, 1),), ((1, 2),), ((3, 0), (1, 2)),
    ((0, 2),), ((3, 2),), ((2, 3),), ((0, 2),), ((3, 2), (0, 1)),
    ((1, 2),), ((3, 1),), ((0, 1),), ((3, 0),), (),
)
_ABOVE_CENTRE = tuple(_BELOW_CENTRE[{5: 10, 10: 5}.get(k, k)] for k in range(16))
# (case, segment, end) -> edge, -1 past a case's last segment; the case
# index is the corner bits plus 16 when the centre lies above the level
_CASE_EDGES = np.array([
    [list(pair) for pair in pairs] + [[-1, -1]] * (2 - len(pairs))
    for pairs in _BELOW_CENTRE + _ABOVE_CENTRE
])


def contour_cells(h: FloatArray, levels: Sequence[float]) -> Iterator[tuple]:
    """Marching squares on a node grid ``h``: where it crosses each level.

    Yields one (pu, pv) per level, as it traces that level: the segment
    ends, each of shape (segments, 2), in fractional node indices along the
    two grid axes.
    Segments come cell by cell, row-major; cells with a non-finite corner
    give none.  An end lies on a cell edge at t = (level - fa) / (fb - fa)
    of the way from its first corner a to its second corner b.
    """
    corners = np.stack([h[:-1, :-1], h[1:, :-1], h[1:, 1:], h[:-1, 1:]], axis=-1)
    i, j = np.nonzero(np.isfinite(corners).all(axis=-1))
    f = corners[i, j]
    centre = 0.25 * (((f[:, 0] + f[:, 1]) + f[:, 2]) + f[:, 3])
    lo, hi = f.min(axis=1), f.max(axis=1)
    for level in levels:
        # only a cell with corners on both sides of the level has segments
        cell = np.nonzero((lo <= level) & (hi > level))[0]
        case = ((f[cell] > level) * _CORNER_BITS).sum(axis=1) + 16 * (centre[cell] > level)
        edges = _CASE_EDGES[case]
        used = edges[:, :, 0] >= 0
        seg = cell[np.nonzero(used)[0]]
        edges = edges[used]  # (segments, 2)
        a, b = _EDGE_CORNERS[edges, 0], _EDGE_CORNERS[edges, 1]
        fa = np.take_along_axis(f[seg], a, axis=1)
        fb = np.take_along_axis(f[seg], b, axis=1)
        t = (level - fa) / (fb - fa)
        start, step = _CORNER_OFFSETS[a], _CORNER_OFFSETS[b] - _CORNER_OFFSETS[a]
        pu = (i[seg, None] + start[..., 0]) + t * step[..., 0]
        pv = (j[seg, None] + start[..., 1]) + t * step[..., 1]
        yield pu, pv


def _leaf_point(geometry: str, theta: float, u, v) -> tuple:
    # the leaf's grid parametrisation: polar angles (u, v) on the sphere of
    # radius |theta|, (X, Y) = (u, v) on the hyperboloid sheet
    if geometry == SPHERE:
        r = abs(theta)
        return r * np.sin(u) * np.cos(v), r * np.sin(u) * np.sin(v), r * np.cos(u)
    return u, v, leaf_z(theta, u, v)


@dataclass(frozen=True, eq=False)
class LeafGrid:
    """Reduced energy on a ``LEVEL_GRID_NODES`` square grid over one leaf.

    The grid axes ``us`` and ``vs`` are the polar angles [0, pi] and
    [0, 2 pi] on the sphere and X, Y in [-window, window] on the
    hyperboloid sheet.  ``energy`` is non-finite at nodes where a log
    argument is <= 0.
    """

    geometry: str
    theta: float
    us: FloatArray
    vs: FloatArray
    energy: FloatArray

    @classmethod
    def sample(
        cls, spec: ReducedSystemSpec, theta: float, window: float | None = None
    ) -> "LeafGrid":
        """Sample the leaf ``theta``; ``window`` is the hyperboloid's
        half-width and is not used on the sphere."""
        n = LEVEL_GRID_NODES
        if spec.geometry == SPHERE:
            us, vs = np.linspace(0.0, math.pi, n), np.linspace(0.0, 2.0 * math.pi, n)
        else:
            us = vs = np.linspace(-window, window, n)
        X, _, Z = _leaf_point(spec.geometry, theta, *np.meshgrid(us, vs, indexing="ij"))
        with np.errstate(divide="ignore", invalid="ignore"):
            energy = reduced_energy(spec, X, Z, theta)
        return cls(spec.geometry, theta, us, vs, energy)

    def level_sets(self, levels: Sequence[float]) -> Iterator[tuple]:
        """(X, Y, Z) of the segment ends where the energy crosses each level,
        each of shape (segments, 2), yielded level by level in the order of
        ``contour_cells``."""
        us, vs = self.us, self.vs
        return (
            _leaf_point(self.geometry, self.theta,
                        us[0] + pu * (us[1] - us[0]), vs[0] + pv * (vs[1] - vs[0]))
            for pu, pv in contour_cells(self.energy, levels)
        )
