"""Triangle-coordinate oracle: areas, side dynamics, invariant."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trivortex.core import conserved, rhs
from trivortex.errors import (
    InvalidTriangle,
    ZeroCirculationProduct,
    ZeroSide,
)
from trivortex.grobli import (
    TriangleState,
    from_positions,
    grobli_invariant,
    grobli_rhs,
    heron_area,
)


def test_heron_reference_triangles():
    eq = TriangleState(1.0, 1.0, 1.0, sigma=1)
    assert heron_area(eq) == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    flat = TriangleState(1.0, 1.0, 4.0, sigma=1)
    assert heron_area(flat) == pytest.approx(0.0, abs=1e-12)
    right = TriangleState(1.0, 1.0, 2.0, sigma=1)
    assert heron_area(right) == pytest.approx(0.5, abs=1e-15)


def test_heron_rejects_impossible_sides():
    with pytest.raises(InvalidTriangle):
        heron_area(TriangleState(1.0, 1.0, 9.0, sigma=1))


def test_heron_keeps_accuracy_on_needles():
    # sliver whose area the textbook expansion loses to cancellation
    pts = np.array([[0.0, 0.04], [0.03125, 0.04], [5.0, 0.0]])
    area = heron_area(from_positions(pts))
    assert area == pytest.approx(0.000625, rel=1e-9)


def test_state_validation():
    with pytest.raises(ValueError):
        TriangleState(-1.0, 1.0, 1.0, sigma=1)
    with pytest.raises(ValueError):
        TriangleState(1.0, 1.0, 1.0, sigma=0)


def test_equilateral_side_derivatives_vanish():
    ts = TriangleState(2.0, 2.0, 2.0, sigma=-1)
    for g in ([1.0, 1.0, 1.0], [1.0, 0.7, -1.0], [2.0, -0.3, 0.9]):
        assert grobli_rhs(ts, g) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_collinear_state_loses_derivative_information():
    # area 0 wipes out the right-hand side: the coordinate singularity
    ts = TriangleState(1.0, 1.0, 4.0, sigma=1)
    assert grobli_rhs(ts, [1.0, 1.0, -1.0]) == pytest.approx((0.0, 0.0, 0.0), abs=1e-13)


def test_zero_side_raises():
    ts = TriangleState(1.0, 1.0, 4.0, sigma=1)
    ts.l23sq = 0.0
    with pytest.raises(ZeroSide):
        grobli_rhs(ts, [1.0, 1.0, 1.0])


def test_side_rates_match_chain_rule_of_lab_flow():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        x = rng.uniform(-2.0, 2.0, size=(3, 2))
        ts = from_positions(x)
        if heron_area(ts) < 1e-3 or min(ts.sides_sq) < 1e-2:
            continue
        g = rng.uniform(-2.0, 2.0, size=3)
        if np.any(np.abs(g) < 0.1):
            continue
        v = rhs(x, g)
        expect = (
            2.0 * float(np.dot(x[1] - x[2], v[1] - v[2])),
            2.0 * float(np.dot(x[2] - x[0], v[2] - v[0])),
            2.0 * float(np.dot(x[0] - x[1], v[0] - v[1])),
        )
        got = grobli_rhs(ts, g)
        assert np.allclose(got, expect, rtol=1e-10, atol=1e-10)
        checked += 1


def test_side_rates_match_finite_differences_along_trajectory():
    from trivortex.core import flat_rhs
    from trivortex.integrate import IntegratorOptions, integrate

    g = [1.0, 1.0, -1.0]
    y0 = [0.3, 0.1, -0.8, 0.9, 0.6, -1.1]
    traj = integrate(flat_rhs(g), y0, IntegratorOptions(t_end=2.0))
    eps = 1e-5
    for t in np.linspace(0.2, 1.8, 9):
        mid = traj.interpolate(t).reshape(3, 2)
        lo = traj.interpolate(t - eps).reshape(3, 2)
        hi = traj.interpolate(t + eps).reshape(3, 2)

        def sides(x):
            return np.array(
                [
                    ((x[1] - x[2]) ** 2).sum(),
                    ((x[2] - x[0]) ** 2).sum(),
                    ((x[0] - x[1]) ** 2).sum(),
                ]
            )

        fd = (sides(hi) - sides(lo)) / (2.0 * eps)
        got = np.array(grobli_rhs(from_positions(mid), g))
        assert np.allclose(got, fd, atol=1e-6)


def test_invariant_reference_and_conservation():
    eq = TriangleState(1.0, 1.0, 1.0, sigma=1)
    assert grobli_invariant(eq, [1.0, 1.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ZeroCirculationProduct):
        grobli_invariant(eq, [1.0, 0.0, 1.0])

    from trivortex.core import flat_rhs
    from trivortex.integrate import IntegratorOptions, integrate

    g = [1.0, 1.0, -1.0]
    y0 = [-12.0, 2.0, 0.0, -1.0, -12.0, 1.0]
    traj = integrate(flat_rhs(g), y0, IntegratorOptions(t_end=30.0))
    vals = [
        grobli_invariant(from_positions(y.reshape(3, 2)), g) for y in traj.ys
    ]
    assert max(abs(v - vals[0]) for v in vals) <= 1e-8


def test_invariant_ties_to_lab_impulses():
    # 3 * L * (g1 g2 g3) == (sum g) * Theta - |M|^2 at any state
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=(3, 2))
        g = rng.uniform(0.2, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        ts = from_positions(x)
        L = grobli_invariant(ts, g)
        c = conserved(x, g)
        lhs = 3.0 * L * g[0] * g[1] * g[2]
        rhs_val = g.sum() * c.Theta - c.M[0] ** 2 - c.M[1] ** 2
        assert lhs == pytest.approx(rhs_val, rel=1e-10, abs=1e-10)


coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(coord, coord, coord, coord, coord, coord)
def test_heron_agrees_with_shoelace(x1, y1, x2, y2, x3, y3):
    pts = np.array([[x1, y1], [x2, y2], [x3, y3]])
    cross = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    assume(abs(cross) > 1e-3)
    ts = from_positions(pts)
    area = abs(cross) / 2.0
    a, b, c = ts.l23sq, ts.l31sq, ts.l12sq
    # rounding the squared sides already perturbs the area by up to
    # eps * sum(|others - this| * this) / (32 area); no evaluation can
    # recover below that floor
    floor = (
        8.0
        * 2.3e-16
        * (abs(b + c - a) * a + abs(c + a - b) * b + abs(a + b - c) * c)
        / (32.0 * area)
    )
    assert heron_area(ts) == pytest.approx(area, rel=1e-8, abs=floor)
    # reflection flips the orientation bit
    flipped = from_positions(pts * np.array([1.0, -1.0]))
    assert flipped.sigma == -ts.sigma
