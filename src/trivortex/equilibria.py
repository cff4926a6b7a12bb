"""Critical points of the reduced flows.

Catalogs of equilibria and singular points for the identical-strengths
sphere and for the dipole-plus-vortex hyperboloid families, together with
linearizations, separatrix energy levels, critical impact offsets, and the
branch sweeps behind bifurcation diagrams.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import NonFiniteResult, NotAnEquilibrium
from .reduction import (
    HYPERBOLOID,
    SPHERE,
    NambuState,
    ReducedSystemSpec,
    leaf_z,
    nambu_rhs,
    reduced_gradients,
    reduced_hamiltonian,
)

EQUILIBRIUM = "equilibrium"
SINGULARITY = "singularity"

# saddle-node threshold for the asymmetric family
GAMMA_SADDLE_NODE = math.sqrt(3.0) / 2.0

_DISC_TOL = 1e-12
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class CriticalPoint:
    """One isolated critical point of a reduced flow.

    ``existence`` states the parameter window the point lives in as a
    human-readable predicate on (Gamma, Theta).  ``pair`` names the two
    vortices whose collision a singularity represents.  ``degenerate``
    marks branches evaluated exactly at their fold.
    """

    coords: tuple[float, float, float]
    theta: float
    geometry: str
    kind: str
    label: str
    existence: str
    eigenvalues: tuple[complex, complex, complex] | None = None
    pair: tuple[int, int] | None = None
    degenerate: bool = False

    def as_state(self) -> NambuState:
        X, Y, Z = self.coords
        return NambuState(X, Y, Z, self.theta, self.geometry)


def jacobian(
    spec: ReducedSystemSpec, point: CriticalPoint
) -> tuple[np.ndarray, tuple[complex, complex, complex]]:
    """Linearize the reduced flow at an equilibrium.

    Returns the 3x3 Jacobian together with its eigenvalues. The flow
    preserves both the energy and the leaf radius, so the characteristic
    cubic carries a guaranteed zero root; that root is deflated first and
    the surviving quadratic yields an exact +/- pair, real at saddles and
    purely imaginary at centers.
    """
    if spec.geometry != point.geometry:
        raise ValueError("spec geometry does not match the critical point")
    X, Y, Z = point.coords
    rate = nambu_rhs(spec, point.as_state())
    scale = max(1.0, abs(X), abs(Y), abs(Z))
    residual = max(abs(c) for c in rate)
    if residual > _RESIDUAL_TOL * scale:
        raise NotAnEquilibrium(residual)

    hx, hz = reduced_gradients(spec, X, Z, point.theta)
    hxx = hxz = hzz = 0.0  # the Hessian, whose only use is here
    for t in spec.terms:
        A = t.arg(X, Z, point.theta)
        w2 = t.c / (A * A)
        hxx -= w2 * t.a * t.a
        hxz -= w2 * t.a * t.b
        hzz -= w2 * t.b * t.b
    s = 1.0 if spec.geometry == SPHERE else -1.0
    jac = np.array(
        [
            [4.0 * Y * hxz, 4.0 * hz, 4.0 * Y * hzz],
            [
                s * 4.0 * Z * hxx - 4.0 * hz - 4.0 * X * hxz,
                0.0,
                s * 4.0 * hx + s * 4.0 * Z * hxz - 4.0 * X * hzz,
            ],
            [-4.0 * Y * hxx, -4.0 * hx, -4.0 * Y * hxz],
        ]
    )
    # trace and determinant both vanish, so the cubic is lambda^3 + m2*lambda
    m2 = (
        jac[0, 0] * jac[1, 1]
        - jac[0, 1] * jac[1, 0]
        + jac[0, 0] * jac[2, 2]
        - jac[0, 2] * jac[2, 0]
        + jac[1, 1] * jac[2, 2]
        - jac[1, 2] * jac[2, 1]
    )
    lam = cmath.sqrt(complex(-m2, 0.0))
    return jac, (complex(0.0), lam, -lam)


def _with_eigenvalues(
    spec: ReducedSystemSpec, points: list[CriticalPoint]
) -> list[CriticalPoint]:
    return [
        replace(p, eigenvalues=jacobian(spec, p)[1]) if p.kind == EQUILIBRIUM else p
        for p in points
    ]


def equilibria_111(theta: float) -> list[CriticalPoint]:
    """Catalog the eight critical points for three equal strengths.

    Five equilibria (three collinear saddles and the two poles) plus the
    three pair-collision singularities, all scaling linearly with the leaf
    radius ``theta``.
    """
    if not (theta > 0.0) or not math.isfinite(theta):
        raise ValueError("the identical-strengths leaf requires Theta > 0")
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, 1.0])
    window = "Theta > 0"
    half = 0.5 * theta
    wing = GAMMA_SADDLE_NODE * theta  # sqrt(3)/2 * Theta
    points = [
        CriticalPoint((0.0, 0.0, theta), theta, SPHERE, EQUILIBRIUM, "collinear-eq", window),
        CriticalPoint((wing, 0.0, -half), theta, SPHERE, EQUILIBRIUM, "collinear-eq", window),
        CriticalPoint((-wing, 0.0, -half), theta, SPHERE, EQUILIBRIUM, "collinear-eq", window),
        CriticalPoint((0.0, theta, 0.0), theta, SPHERE, EQUILIBRIUM, "pole+", window),
        CriticalPoint((0.0, -theta, 0.0), theta, SPHERE, EQUILIBRIUM, "pole-", window),
        CriticalPoint(
            (0.0, 0.0, -theta), theta, SPHERE, SINGULARITY, "pair-singularity",
            window, pair=(0, 1),
        ),
        CriticalPoint(
            (wing, 0.0, half), theta, SPHERE, SINGULARITY, "pair-singularity",
            window, pair=(1, 2),
        ),
        CriticalPoint(
            (-wing, 0.0, half), theta, SPHERE, SINGULARITY, "pair-singularity",
            window, pair=(0, 2),
        ),
    ]
    return _with_eigenvalues(spec, points)


def equilibria_11m1(theta: float) -> list[CriticalPoint]:
    """Critical points for strengths (1, 1, -1) at fixed leaf radius.

    Negative ``theta`` carries the two triangular equilibria and the
    equal-pair singularity; positive ``theta`` a single collinear
    equilibrium and no singularities.  At ``theta == 0`` the singular set
    is the whole cone Z == |X| with no isolated points, so the catalog is
    empty.
    """
    if not math.isfinite(theta):
        raise ValueError("Theta must be finite")
    if theta == 0.0:
        return []
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    # the (1, Gamma, -1) branches at Gamma = 1, under this family's names
    points = [
        replace(p, label="S_11") if p.label == "S_1Gamma"
        else replace(p, existence="Theta > 0") if p.label == "E_-1" else p
        for p in _branch_points(1.0, theta)
    ]
    return _with_eigenvalues(spec, points)


def _branches(gamma: float, theta: float) -> tuple[dict, bool]:
    """Every (1, Gamma, -1) branch on the leaf ``theta``.

    Maps each label, in catalog order, to (X, exists, window), and says
    whether the collinear pair sits exactly at its fold.  X is nan where
    the formula has no real or finite value.
    """
    g = gamma
    disc = 4.0 * g * g - 3.0
    pole = g * g - 1.0
    pair = disc >= -_DISC_TOL
    x_plus = x_minus = math.nan
    if pair:
        root = math.sqrt(max(disc, 0.0))
        # written to stay finite through Gamma = 1
        x_plus = 4.0 * g * theta * pole / (1.0 - 2.0 * g * g - root)
        if pole != 0.0:
            x_minus = g * theta * (1.0 - 2.0 * g * g - root) / pole
    branches = {
        "E_tri": (g * theta * (g - 1.0) / (g + 1.0), theta < 0.0, "Theta < 0"),
        "E_-1": (x_plus, theta > 0.0 and pair, "Theta > 0 and Gamma >= sqrt(3)/2"),
    }
    if theta > 0.0:
        branches["E_Gamma"] = (
            x_minus, pair and g < 1.0, "Theta > 0 and sqrt(3)/2 <= Gamma < 1"
        )
    else:
        branches["E_1"] = (x_minus, g > 1.0, "Theta < 0 and Gamma > 1")
    branches["S_1Gamma"] = (0.0, theta < 0.0, "Theta < 0")
    branches["S_-1Gamma"] = (
        2.0 * g * theta / pole if pole != 0.0 else math.nan,
        theta * (g - 1.0) > 0.0,
        "Theta*(Gamma-1) > 0",
    )
    return branches, abs(disc) <= _DISC_TOL


def equilibria_gamma(gamma: float, theta: float) -> list[CriticalPoint]:
    """Critical points for strengths (1, Gamma, -1), Gamma positive.

    Returns only the branches whose existence window contains (Gamma,
    Theta), or ``equilibria_11m1`` where the spec finds Gamma = 1. The
    two collinear roots merge in a saddle-node at Gamma = sqrt(3)/2;
    exactly at the fold both are returned, flagged degenerate.  Every
    branch X is proportional to Theta, so at ``theta == 0`` all of them
    meet the cone's apex and the catalog is empty, as for Gamma = 1.
    """
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError("Gamma must be positive and finite")
    spec = ReducedSystemSpec.for_circulations([1.0, gamma, -1.0])
    if spec.selector == "specialized-11m1":
        return equilibria_11m1(theta)
    if not math.isfinite(theta):
        raise ValueError("Theta must be finite")
    if theta == 0.0:
        return []
    return _with_eigenvalues(spec, _branch_points(gamma, theta))


def _branch_points(gamma: float, theta: float) -> list[CriticalPoint]:
    # the existing (1, Gamma, -1) branches on the leaf, without eigenvalues
    branches, fold = _branches(gamma, theta)
    points: list[CriticalPoint] = []
    for label, (x, exists, window) in branches.items():
        if not exists:
            continue
        x += 0.0  # no signed zero: x_+ is 0.0 / -2 at Gamma = 1
        if label == "E_tri":
            side = math.sqrt(3.0) * gamma * theta
            for y, tag in ((side, "E_tri+"), (-side, "E_tri-")):
                points.append(
                    CriticalPoint(
                        (x, y, float(leaf_z(theta, x, y))), theta, HYPERBOLOID,
                        EQUILIBRIUM, tag, window,
                    )
                )
            continue
        singular = label.startswith("S_")
        points.append(
            CriticalPoint(
                (x, 0.0, float(leaf_z(theta, x, 0.0))), theta, HYPERBOLOID,
                SINGULARITY if singular else EQUILIBRIUM, label, window,
                pair={"S_1Gamma": (0, 1), "S_-1Gamma": (1, 2)}.get(label),
                degenerate=fold and not singular,
            )
        )
    return points


def separatrix_energy(gamma: float, theta: float) -> float | None:
    """Energy level of the separatrix at the given strengths and leaf.

    The level is set by the governing saddle: the triangular pair for
    negative ``theta``, the collinear equilibrium for positive ``theta``
    when it exists. Returns None when no saddle exists, which happens for
    positive ``theta`` below the saddle-node threshold, and on the
    singular leaf ``theta == 0``.
    """
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError("Gamma must be positive and finite")
    if theta == 0.0:
        return None
    if theta > 0.0 and gamma < GAMMA_SADDLE_NODE - _DISC_TOL:
        return None
    spec = ReducedSystemSpec.for_circulations([1.0, gamma, -1.0])
    want = "E_tri+" if theta < 0.0 else "E_-1"
    for p in equilibria_gamma(gamma, theta):
        if p.label == want:
            return reduced_hamiltonian(spec, p.as_state())
    return None


def critical_rho(gamma: float) -> tuple[float, float | None]:
    """Critical impact offsets bounding the exchange window at unit d.

    The lower bound is -1 for every strength ratio. The upper bound
    equates the incoming pair's energy with the collinear saddle's level;
    it exists only above the saddle-node threshold sqrt(3)/2. Both values
    use the closed forms, with the leaf radius tied to the offset via
    Theta = Gamma*(2*rho + 1).  Raises NonFiniteResult where the upper
    bound, about 2 e Gamma^2 for large Gamma, is not a finite float.
    """
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise ValueError("Gamma must be positive and finite")
    g = gamma
    # collinear saddle on a leaf th, a power of two near 1/Gamma (1 for
    # Gamma < 1, where the power could overflow) so that no length
    # overflows; every length scales exactly with th, and scaling in Theta
    # then gives the critical leaf in closed form
    th = 2.0 ** -max(math.frexp(g)[1], 0)
    x, exists, _ = _branches(g, th)[0]["E_-1"]
    if not exists:
        return (-1.0, None)
    z = math.sqrt(th * th + x * x)
    # the saddle's log arguments are a1 = (z + th)(1 + G)/(2G), a2 and
    # a3 = G (z + x)/(1 + G); the critical leaf is G^2 (a1/a2)^G th / a3.
    # w = (z + x)/th is free of cancellation on either sign of x, and the
    # power is taken from a1 - a2 = th (1 + w/(1 + G))
    w = (z + x) / th if x >= 0.0 else th / (z - x)
    a2 = ((g * g + 1.0) * z + (1.0 - g * g) * th - 2.0 * g * x) / (2.0 * g * (1.0 + g))
    power = math.exp(g * math.log1p(th * (1.0 + w / (1.0 + g)) / a2))
    rho = 0.5 * (1.0 + g) * power / w - 0.5
    if not math.isfinite(rho):
        raise NonFiniteResult(f"the critical offset at Gamma = {g!r} is past the float range")
    return (-1.0, rho)


def bifurcation_sweep(
    theta: float, gammas: Sequence[float]
) -> tuple[tuple[str, ...], list[tuple]]:
    """Sample every branch's X component at the given strength ratios.

    Returns a column header and one row per Gamma, in the order given,
    with each branch's X value (nan where the branch formula has no real
    value) and a 0/1 existence flag. Every Gamma must be positive, finite
    and clear of the Gamma = 1 branch pole.
    """
    if theta == 0.0 or not math.isfinite(theta):
        raise ValueError("Theta must be nonzero and finite")
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("need at least one Gamma")
    for g in gammas:
        if not (g > 0.0 and math.isfinite(g)) or abs(g - 1.0) < 1e-12:
            raise ValueError(
                f"Gamma = {g!r} must be positive, finite and clear of the pole at 1"
            )

    rows = []
    for g in gammas:
        branches, _ = _branches(g, theta)
        rows.append(
            (g, *(v for x, exists, _ in branches.values() for v in (x, int(exists))))
        )
    columns = ("Gamma", *(f"{b}_{c}" for b in branches for c in ("X", "exists")))
    return columns, rows
