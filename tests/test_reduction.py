"""Reduction chain: shape map and its lift, reduced energies, rates, two routes."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trivortex.core import flat_rhs, hamiltonian, rhs as lab_rhs
from trivortex.errors import DegenerateCirculationSum, SingularState, VortexError
from trivortex.integrate import IntegratorOptions, integrate
from trivortex.reduction import (
    HYPERBOLOID,
    SPHERE,
    LeafGrid,
    NambuState,
    ReducedSystemSpec,
    contour_cells,
    heading_rate,
    integrate_reduced,
    leaf_residual,
    leaf_z,
    lift,
    nambu_rhs,
    reduce_state,
    reduced_energy,
    reduced_gradients,
    reduced_hamiltonian,
    shape_map,
)

RNG = np.random.default_rng(2024)


def _random_positions(n=3, lo=-2.0, hi=2.0):
    return RNG.uniform(lo, hi, size=(n, 2))


def test_virtual_strengths_for_reference_families():
    for g, want in (
        ([1.0, 1.0, 1.0], (0.5, 2.0 / 3.0, 3.0)),
        ([1.0, 1.0, -1.0], (0.5, -2.0, 1.0)),
        ([1.0, 2.0, -1.0], (2.0 / 3.0, -1.5, 2.0)),
    ):
        spec = ReducedSystemSpec.for_circulations(g)
        assert (spec.kappa1, spec.kappa2, spec.kappa3) == pytest.approx(want, abs=1e-14)


def _center_of_vorticity(x, g):
    return sum(gi * xi for gi, xi in zip(g, x)) / sum(g)


def test_frame_round_trip():
    # the lift puts the center of vorticity at the origin and the first
    # scaled Jacobi vector along the phase, and is x itself up to that frame
    for _ in range(20):
        x = _random_positions()
        g = RNG.uniform(0.2, 2.0, size=3) * np.array([1.0, 1.0, RNG.choice([-0.5, 1.0])])
        if abs(g.sum()) < 0.05 or abs(g[0] + g[1]) < 0.05:
            continue
        spec, s = reduce_state(x, g)
        phase = RNG.uniform(-math.pi, math.pi)
        y = lift(spec, s, phase)
        assert np.abs(_center_of_vorticity(y, g)).max() < 1e-12
        i, j = spec.permutation[:2]
        assert math.atan2(*(y[i] - y[j])[::-1]) == pytest.approx(phase, abs=1e-12)
        r1 = x[i] - x[j]
        y = lift(spec, s, math.atan2(r1[1], r1[0]))
        assert np.abs(y + _center_of_vorticity(x, g) - x).max() < 1e-12


def test_frame_special_points():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    # first pair coincident: Z + Theta = 0 and X = Y = 0
    x = lift(spec, NambuState(0.0, 0.0, 0.7, -0.7, HYPERBOLOID), phase=1.1)
    assert np.allclose(x[0], x[1], atol=1e-15)
    assert np.abs(x[2] - x[0]).max() > 0.1
    # third vortex at the first pair's center: Z = Theta and X = Y = 0
    x2 = lift(spec, NambuState(0.0, 0.0, 0.9, 0.9, HYPERBOLOID), phase=0.3)
    assert np.allclose(x2[2], (x2[0] + x2[1]) / 2.0, atol=1e-15)
    assert np.abs(x2[0] - x2[1]).max() > 0.1
    # off the leaf or over a coincident pair with X + iY != 0, no preimage
    with pytest.raises(ValueError):
        lift(spec, SimpleNamespace(X=0.0, Y=0.0, Z=0.5, Theta=-0.7))
    with pytest.raises(ValueError):
        lift(spec, SimpleNamespace(X=0.1, Y=0.0, Z=0.7, Theta=-0.7))


def test_degenerate_strength_sums_raise():
    # relabelling puts two strengths of one sign first, so only the total
    # can vanish
    x = _random_positions()
    for g in ([1.0, 1.0, -2.0], [-1.0, 0.5, 0.5], [0.3, -1.0, 0.7]):
        with pytest.raises(DegenerateCirculationSum):
            reduce_state(x, g)


def test_collinear_iff_shape_y_vanishes():
    for _ in range(100):
        base = RNG.uniform(-2.0, 2.0, size=2)
        direction = RNG.uniform(-1.0, 1.0, size=2)
        direction /= np.hypot(*direction)
        offs = RNG.uniform(-2.0, 2.0, size=3)
        x = base + offs[:, None] * direction
        _, s = reduce_state(x, [1.0, 1.0, -1.0])
        assert abs(s.Y) <= 1e-12 * max(1.0, s.Z)
    for _ in range(100):
        x = _random_positions()
        cross = (x[1, 0] - x[0, 0]) * (x[2, 1] - x[0, 1]) - (
            x[1, 1] - x[0, 1]
        ) * (x[2, 0] - x[0, 0])
        if abs(cross) < 1e-3:
            continue
        _, s = reduce_state(x, [1.0, 1.0, -1.0])
        assert abs(s.Y) > 1e-6


def test_parallelogram_identities():
    # with strengths (1,1,-1) and the center of vorticity at the origin,
    # the third vortex sits at the vector sum of the first two
    for _ in range(100):
        v1 = RNG.uniform(-2.0, 2.0, size=2)
        v2 = RNG.uniform(-2.0, 2.0, size=2)
        x = np.stack([v1, v2, v1 + v2])
        _, s = reduce_state(x, [1.0, 1.0, -1.0])
        assert s.X == pytest.approx(-v1 @ v1 + v2 @ v2, abs=1e-10)
        assert s.Y == pytest.approx(2.0 * (v1[0] * v2[1] - v1[1] * v2[0]), abs=1e-10)
        assert s.Z == pytest.approx(v1 @ v1 + v2 @ v2, abs=1e-10)
        assert s.Theta == pytest.approx(-2.0 * float(v1 @ v2), abs=1e-10)


def test_identical_strengths_equilateral_maps_to_pole():
    ang = 2.0 * np.pi * np.arange(3) / 3.0 + 0.37
    x = 1.3 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    spec, s = reduce_state(x, [1.0, 1.0, 1.0])
    assert spec.geometry == SPHERE
    assert abs(s.X) < 1e-12 and abs(s.Z) < 1e-12
    assert abs(abs(s.Y) - s.Theta) < 1e-12

    traj = integrate(flat_rhs([1.0, 1.0, 1.0]), x.ravel(), IntegratorOptions(t_end=8.0))
    points = np.stack(shape_map(traj.ys.reshape(-1, 3, 2), spec)[:3], axis=1)
    assert np.abs(points - points[0]).max() < 1e-8


def test_casimir_identity_both_geometries():
    for g in ([1.0, 0.8, 2.0], [1.0, 1.5, -0.7], [1.0, 1.0, -1.0], [1.0, 1.7, -1.0]):
        for _ in range(25):
            x = _random_positions()
            spec, s = reduce_state(x, g)
            scale = max(1.0, s.Theta**2)
            res, _ = leaf_residual(s.geometry, s.X, s.Y, s.Z, s.Theta)
            assert abs(res) <= 1e-10 * scale
            if spec.geometry == HYPERBOLOID:
                assert s.Z >= 0.0


def test_reduced_energy_reference_points():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    th = 2.7
    h = reduced_hamiltonian(spec, NambuState(0.0, 0.0, th, th, HYPERBOLOID))
    assert h == pytest.approx(0.5 * math.log(th / 2.0), abs=1e-13)
    th = -1.6
    s_tri = NambuState(0.0, math.sqrt(3.0) * abs(th), -2.0 * th, th, HYPERBOLOID)
    assert reduced_hamiltonian(spec, s_tri) == pytest.approx(
        0.5 * math.log(-4.0 * th), abs=1e-13
    )
    s1 = NambuState(0.0, math.sqrt(3.0), 2.0, -1.0, HYPERBOLOID)
    assert reduced_hamiltonian(spec, s1) == pytest.approx(math.log(2.0), abs=1e-14)


def test_selector_offsets_tie_printed_norms_to_lab_energy():
    for g in (
        [1.0, 1.0, -1.0],
        [1.0, 1.7, -1.0],
        [1.0, 0.9, -1.0],
        [1.0, 1.0, 1.0],
        [1.0, 0.8, 2.0],
        [1.0, 1.5, -0.7],
    ):
        for _ in range(10):
            x = _random_positions()
            spec, s = reduce_state(x, g)
            # measure against the lab energy with the center of vorticity
            # subtracted out of Theta's frame: reduction forgets R3, and
            # the pair energies depend only on relative positions anyway
            h_lab = hamiltonian(x, g)
            h_red = reduced_hamiltonian(spec, s)
            assert h_red - h_lab == pytest.approx(spec.offset, abs=1e-10)


def test_selector_detection_and_forcing():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    assert spec.selector == "specialized-11m1"
    assert ReducedSystemSpec.for_circulations([1.0, 2.0, -1.0]).selector == "specialized-gamma"
    assert ReducedSystemSpec.for_circulations([1.0, 1.0, 1.0]).selector == "specialized-111"
    assert ReducedSystemSpec.for_circulations([1.0, 0.8, 2.0]).selector == "general-positive"
    assert ReducedSystemSpec.for_circulations([1.0, 1.5, -0.7]).selector == "general-negative"
    forced = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0], selector="general-negative")
    assert forced.selector == "general-negative" and forced.offset == 0.0
    with pytest.raises(ValueError):
        ReducedSystemSpec.for_circulations([1.0, 0.8, 2.0], selector="specialized-11m1")
    with pytest.raises(DegenerateCirculationSum):
        ReducedSystemSpec.for_circulations([1.0, 0.0, -1.0])


def test_relabeling_and_time_reversal_flags():
    spec = ReducedSystemSpec.for_circulations([-1.0, 1.0, 1.0])
    assert spec.permutation == (1, 2, 0)
    assert not spec.time_reversed
    assert spec.circulations == (1.0, 1.0, -1.0)
    x = _random_positions()
    _, s_direct = reduce_state(x[[1, 2, 0]], [1.0, 1.0, -1.0])
    _, s_perm = reduce_state(x, [-1.0, 1.0, 1.0])
    assert (s_perm.X, s_perm.Y, s_perm.Z, s_perm.Theta) == pytest.approx(
        (s_direct.X, s_direct.Y, s_direct.Z, s_direct.Theta), abs=1e-13
    )
    rev = ReducedSystemSpec.for_circulations([-1.0, -1.0, 1.0])
    assert rev.time_reversed and rev.circulations == (1.0, 1.0, -1.0)


def test_singular_states_name_the_colliding_pair():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    with pytest.raises(SingularState) as exc:
        reduced_hamiltonian(spec, NambuState(0.0, 0.0, 1.0, -1.0, HYPERBOLOID))
    assert exc.value.pair == (0, 1)

    # the pair-collision ray touches the leaf tangentially, so approach it
    # from just inside the state validator's leaf tolerance
    G = 2.0
    spec_g = ReducedSystemSpec.for_circulations([1.0, G, -1.0])
    X = 2.0 * G / (G * G - 1.0)
    Z = math.sqrt(1.0 + X * X) - 1e-9
    with pytest.raises(SingularState) as exc2:
        reduced_hamiltonian(spec_g, NambuState(X, 0.0, Z, 1.0, HYPERBOLOID))
    assert exc2.value.pair == (1, 2)


def test_rhs_vanishes_at_reference_equilibria():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    th = 2.7
    assert nambu_rhs(spec, NambuState(0.0, 0.0, th, th, HYPERBOLOID)) == pytest.approx(
        (0.0, 0.0, 0.0), abs=1e-14
    )
    th = -1.0
    for sy in (1.0, -1.0):
        s = NambuState(0.0, sy * math.sqrt(3.0), 2.0, th, HYPERBOLOID)
        assert nambu_rhs(spec, s) == pytest.approx((0.0, 0.0, 0.0), abs=1e-13)


def _random_nambu(spec, theta_range=(-2.0, 2.0)):
    while True:
        X, Y = RNG.uniform(-1.5, 1.5, size=2)
        th = RNG.uniform(*theta_range)
        if spec.geometry == HYPERBOLOID:
            Z = math.sqrt(th * th + X * X + Y * Y)
            s = NambuState(X, Y, Z, th, HYPERBOLOID)
        else:
            r2 = th * th - X * X - Y * Y
            if r2 <= 1e-6:
                continue
            s = NambuState(X, Y, math.sqrt(r2), abs(th), SPHERE)
        try:
            reduced_hamiltonian(spec, s)
        except SingularState:
            continue
        return s


def test_rhs_orthogonal_to_energy_and_leaf_gradients():
    for g in ([1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 1.7, -1.0], [1.0, 0.8, 2.0]):
        spec = ReducedSystemSpec.for_circulations(g)
        for _ in range(25):
            s = _random_nambu(spec)
            v = np.array(nambu_rhs(spec, s))
            hx, hz, *_ = reduced_gradients(spec, s.X, s.Z, s.Theta)
            grad_h = np.array([hx, 0.0, hz])
            if spec.geometry == SPHERE:
                grad_c = np.array([s.X, s.Y, s.Z])
            else:
                grad_c = np.array([s.X, s.Y, -s.Z])
            scale = max(1.0, float(np.abs(v).max()))
            assert abs(v @ grad_h) <= 1e-12 * scale * max(1.0, abs(hx) + abs(hz))
            assert abs(v @ grad_c) <= 1e-12 * scale * max(1.0, float(np.abs(grad_c).max()))


def test_specialized_rows_match_general_cross_product():
    # (1,1,-1) closed rows
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    gen = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0], selector="general-negative")
    for _ in range(100):
        s = _random_nambu(spec)
        want = (
            -2.0 * s.Y / (s.Z + s.Theta) + 4.0 * s.Z * s.Y / (s.Z**2 - s.X**2),
            2.0 * s.X / (s.Z + s.Theta),
            4.0 * s.X * s.Y / (s.Z**2 - s.X**2),
        )
        assert nambu_rhs(spec, s) == pytest.approx(want, rel=1e-10, abs=1e-10)
        assert nambu_rhs(gen, s) == pytest.approx(want, rel=1e-10, abs=1e-10)

    # (1,G,-1) closed rows; the sign convention follows the general
    # cross-product template, which the lab-frame flow fixes unambiguously
    G = 2.0
    spec_g = ReducedSystemSpec.for_circulations([1.0, G, -1.0])
    gen_g = ReducedSystemSpec.for_circulations([1.0, G, -1.0], selector="general-negative")
    for _ in range(100):
        s = _random_nambu(spec_g)
        D = (G * G + 1.0) * s.Z + (1.0 - G * G) * s.Theta - 2.0 * G * s.X
        want = (
            -(2.0 * G * s.Y / (s.Z + s.Theta) - 2.0 * s.Y / (s.X + s.Z)
              - 2.0 * G * (1.0 + G * G) * s.Y / D),
            -(2.0 - 2.0 * G * s.X / (s.Z + s.Theta)
              + (2.0 * G * (1.0 + G * G) * s.X - 4.0 * G * G * s.Z) / D),
            -(2.0 * s.Y / (s.Z + s.X) - 4.0 * G * G * s.Y / D),
        )
        assert nambu_rhs(spec_g, s) == pytest.approx(want, rel=1e-10, abs=1e-10)
        assert nambu_rhs(gen_g, s) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_heading_rate_special_cases():
    assert heading_rate(0.4, 0.0, 1.0) == 0.0  # collinear instant
    assert heading_rate(0.5, 0.3, 0.0) == 0.0  # zero leaf
    with np.errstate(invalid="ignore"):
        assert math.isnan(heading_rate(0.0, 0.0, 1.0))


class DegenerateDenominator(VortexError):
    """The phase rate formula divides by a vanishing quantity."""


def theta2_rate(s: NambuState) -> float:
    """Phase rate of the lone vortex's position vector, shifted by pi/2, for
    the (1, 1, -1) family; a test reference with no caller in the package."""
    den = (s.X**2 + s.Y**2) * (s.Theta**2 + s.Y**2)
    if den == 0.0:
        raise DegenerateDenominator(
            f"phase rate undefined at X={s.X}, Y={s.Y}, Theta={s.Theta}"
        )
    root = float(leaf_z(s.Theta, s.X, s.Y))
    return (2.0 * s.Y**2 * root - 2.0 * s.Theta * s.X**2) / den


def test_phase_rate_special_cases():
    th, y = -1.2, 0.8
    s = NambuState(0.0, y, math.sqrt(th * th + y * y), th, HYPERBOLOID)
    assert theta2_rate(s) == pytest.approx(2.0 / math.sqrt(th * th + y * y), abs=1e-13)
    x = 0.7
    s2 = NambuState(x, 0.0, math.sqrt(th * th + x * x), th, HYPERBOLOID)
    assert theta2_rate(s2) == pytest.approx(-2.0 / th, abs=1e-13)
    with pytest.raises(DegenerateDenominator):
        theta2_rate(NambuState(0.0, 0.0, 1.0, 1.0, HYPERBOLOID))


def _scatter_traj(rho, t_end=10.0, L=8.0):
    g = [1.0, 1.0, -1.0]
    y0 = np.array([-L, rho + 0.5, 0.0, -1.0, -L, rho - 0.5])
    return integrate(flat_rhs(g), y0, IntegratorOptions(t_end=t_end)), g


def test_rates_match_finite_differences_of_mapped_run():
    traj, g = _scatter_traj(rho=2.6)
    eps = 1e-5
    for t in np.linspace(0.5, 9.5, 12):
        lo = traj.interpolate(t - eps).reshape(3, 2)
        hi = traj.interpolate(t + eps).reshape(3, 2)
        _, s = reduce_state(traj.interpolate(t).reshape(3, 2), g)

        v_lo, v_hi = lab_rhs(lo, g)[2], lab_rhs(hi, g)[2]
        da = math.atan2(v_hi[1], v_hi[0]) - math.atan2(v_lo[1], v_lo[0])
        da = (da + math.pi) % (2.0 * math.pi) - math.pi
        assert da / (2.0 * eps) == pytest.approx(heading_rate(s.X, s.Y, s.Theta), abs=1e-6)

        # position of the lone vortex relative to the (conserved) center
        w_lo = lo[2] - (lo[0] + lo[1] - lo[2])
        w_hi = hi[2] - (hi[0] + hi[1] - hi[2])
        dth = math.atan2(w_hi[1], w_hi[0]) - math.atan2(w_lo[1], w_lo[0])
        dth = (dth + math.pi) % (2.0 * math.pi) - math.pi
        assert dth / (2.0 * eps) == pytest.approx(theta2_rate(s), abs=1e-6)


def test_mapped_run_stays_on_leaf_and_matches_reduced_integration():
    traj, g = _scatter_traj(rho=2.5, t_end=12.0)
    spec = ReducedSystemSpec.for_circulations(g)
    assert spec.geometry == HYPERBOLOID
    X, Y, Z, theta = shape_map(traj.ys.reshape(-1, 3, 2), spec)
    res, _ = leaf_residual(spec.geometry, X, Y, Z, theta)
    assert (np.abs(res) <= 1e-8 * np.maximum(1.0, theta**2)).all()
    assert np.abs(theta - theta[0]).max() <= 1e-8

    s0 = NambuState(float(X[0]), float(Y[0]), float(Z[0]), float(theta[0]), spec.geometry)
    rtraj = integrate_reduced(spec, s0, IntegratorOptions(t_end=12.0))
    sup = float(np.abs(rtraj.interpolate(traj.ts) - np.stack([X, Y, Z], axis=1)).max())
    assert sup <= 1e-6


def test_reduced_energy_conserved_along_reduced_run():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.7, -1.0])
    s0 = _random_nambu(spec, theta_range=(0.5, 1.5))
    h0 = reduced_hamiltonian(spec, s0)
    rtraj = integrate_reduced(spec, s0, IntegratorOptions(t_end=20.0))
    for y in rtraj.ys[:: max(1, len(rtraj.ys) // 50)]:
        h = reduced_hamiltonian(
            spec, NambuState(y[0], y[1], y[2], s0.Theta, spec.geometry)
        )
        assert abs(h - h0) <= 1e-8


def test_shape_fiber_inverse():
    for g in ([1.0, 1.0, -1.0], [1.0, 0.8, 2.0]):
        spec = ReducedSystemSpec.for_circulations(g)
        for _ in range(20):
            s = _random_nambu(spec)
            x = lift(spec, s, phase=RNG.uniform(0.0, 2.0 * math.pi))
            _, s2 = reduce_state(x, g, spec)
            assert (s2.X, s2.Y, s2.Z, s2.Theta) == pytest.approx(
                (s.X, s.Y, s.Z, s.Theta), rel=1e-10, abs=1e-10
            )


_coord = st.floats(-50.0, 50.0, allow_nan=False)

# both geometries, plus every labelling of (1, Gamma, -1) and its time
# reversal, which the reduction relabels to (1, Gamma, -1) itself
_strengths = st.one_of(
    st.sampled_from(([1.0, 1.0, 1.0], [1.0, 0.8, 2.0], [1.0, 1.5, -0.7])),
    st.builds(
        lambda gamma, order, sign: [sign * (1.0, gamma, -1.0)[k] for k in order],
        st.floats(0.1, 3.0), st.permutations(range(3)), st.sampled_from((1.0, -1.0)),
    ),
)


def _pair_norms(x, spec):
    # |m1|^2 and |m2|^2, the squared scaled Jacobi vectors of x; the lift
    # loses about (n1 + n2) / n1 ulps as the first pair closes
    r = x[list(spec.permutation)]
    g0, g1, _ = spec.circulations
    r1 = r[0] - r[1]
    r2 = (g0 * r[0] + g1 * r[1]) / (g0 + g1) - r[2]
    return spec.kappa1 * float(r1 @ r1), abs(spec.kappa2) * float(r2 @ r2)


@settings(max_examples=200, deadline=None)
@given(st.lists(_coord, min_size=6, max_size=6), _strengths)
def test_jacobi_frame_round_trip(coords, g):
    # the lift of a state's shape point is the state, up to a rotation about
    # its center of vorticity and a shift of that center
    x = np.array(coords).reshape(3, 2)
    spec, s = reduce_state(x, g)
    n1, n2 = _pair_norms(x, spec)
    assume(n1 > 1e-4 * (n1 + n2))
    i, j = spec.permutation[:2]
    y = lift(spec, s, phase=math.atan2(x[i, 1] - x[j, 1], x[i, 0] - x[j, 0]))
    moved = x - _center_of_vorticity(x, g)
    scale = max(1.0, float(np.abs(moved).max()))
    assert np.abs(y - moved).max() <= 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_coord, min_size=6, max_size=6), _strengths,
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
def test_shape_point_round_trip(coords, g, phase):
    # every point of the fiber over a shape point maps back to it
    x = np.array(coords).reshape(3, 2)
    spec, s = reduce_state(x, g)
    n1, n2 = _pair_norms(x, spec)
    assume(n1 > 1e-4 * (n1 + n2))
    X, Y, Z, theta = shape_map(lift(spec, s, phase), spec)
    # |m1|^2 + |m2|^2 is |Theta| on the sphere and Z on the hyperboloid
    scale = max(1.0, abs(s.Z), abs(s.Theta))
    assert (X, Y, Z, theta) == pytest.approx(
        (s.X, s.Y, s.Z, s.Theta), rel=0.0, abs=1e-10 * scale
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(_coord, min_size=6, max_size=6), min_size=1, max_size=6),
    st.sampled_from(
        ([1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 0.4, -1.0], [2.0, -1.0, 0.5])
    ),
)
def test_stacked_shape_map_equals_each_state(states, g):
    x = np.array(states).reshape(-1, 3, 2)
    spec = ReducedSystemSpec.for_circulations(g)
    X, Y, Z, theta = shape_map(x, spec)
    for i, xi in enumerate(x):
        _, s = reduce_state(xi, g, spec)
        assert (X[i], Y[i], Z[i], theta[i]) == (s.X, s.Y, s.Z, s.Theta)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8),
    st.floats(-20.0, 20.0, allow_nan=False),
)
def test_stacked_heading_rate_equals_each_point(points, theta):
    X, Y = np.array(points).T
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = heading_rate(X, Y, theta)
        each = [heading_rate(x, y, theta) for x, y in points]
    np.testing.assert_array_equal(rates, each)  # NaN where X = Y = 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8),
    st.floats(-20.0, 20.0, allow_nan=False),
    st.sampled_from(
        ([1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, 0.4, -1.0], [2.0, -1.0, 0.5])
    ),
)
def test_stacked_reduced_energy_equals_each_point(points, theta, g):
    spec = ReducedSystemSpec.for_circulations(g)
    X, Z = np.array(points).T
    with np.errstate(divide="ignore", invalid="ignore"):
        h = reduced_energy(spec, X, Z, theta)
        each = [reduced_energy(spec, x, z, theta) for x, z in points]
    assert np.array(each).tobytes() == h.tobytes()
    for hi, (x, z) in zip(h, points):
        # the point call reads X, Z and Theta only; skip the leaf check
        s = SimpleNamespace(X=x, Z=z, Theta=theta)
        if math.isfinite(hi):
            assert reduced_hamiltonian(spec, s) == hi
        else:
            with pytest.raises(SingularState):
                reduced_hamiltonian(spec, s)


# one triple of strengths per selector
_SELECTOR_STRENGTHS = {
    "specialized-111": [1.0, 1.0, 1.0],
    "specialized-11m1": [1.0, 1.0, -1.0],
    "specialized-gamma": [1.0, 0.4, -1.0],
    "general-positive": [1.0, 0.8, 2.0],
    "general-negative": [2.0, -1.0, 0.5],
}


def _each_point(spec, X, Z, Theta):
    """The per-point calls in order: (energies, (pair, value) of the first
    failure or None)."""
    h = []
    for x, z, th in zip(X, Z, np.broadcast_to(Theta, np.shape(X)).tolist()):
        try:
            h.append(reduced_hamiltonian(spec, SimpleNamespace(X=x, Z=z, Theta=th)))
        except SingularState as exc:
            return h, (exc.pair, exc.value)
    return h, None


@pytest.mark.parametrize("selector", _SELECTOR_STRENGTHS)
def test_stacked_reduced_hamiltonian_equals_each_point(selector):
    spec = ReducedSystemSpec.for_circulations(_SELECTOR_STRENGTHS[selector])
    assert spec.selector == selector
    # leaf points on one leaf with a scalar Theta, as a trajectory table
    # has, and points spread over leaves with one Theta each
    for states, one_leaf in (([_random_nambu(spec, (1.7, 1.7)) for _ in range(40)], True),
                             ([_random_nambu(spec) for _ in range(40)], False)):
        X, Z, Theta = (np.array([getattr(s, k) for s in states]) for k in ("X", "Z", "Theta"))
        if one_leaf:
            Theta = states[0].Theta
        h = reduced_hamiltonian(spec, SimpleNamespace(X=X, Z=Z, Theta=Theta))
        each, failure = _each_point(spec, X.tolist(), Z.tolist(), Theta)
        assert failure is None and all(type(v) is float for v in each)
        assert h.dtype == np.float64 and h.tobytes() == np.array(each).tobytes()


@pytest.mark.parametrize("selector", _SELECTOR_STRENGTHS)
def test_stacked_reduced_hamiltonian_raises_the_first_point_failure(selector):
    spec = ReducedSystemSpec.for_circulations(_SELECTOR_STRENGTHS[selector])
    states = [_random_nambu(spec, (1.7, 1.7)) for _ in range(12)]
    X, Z, theta = np.array([s.X for s in states]), np.array([s.Z for s in states]), states[0].Theta
    # singular points, one per failing pair; the first two go in the middle
    # of the array
    singular = {}
    for x, z in RNG.uniform(-10.0, 10.0, size=(400, 2)).tolist():
        failure = _each_point(spec, [x], [z], theta)[1]
        if failure is not None:
            singular.setdefault(failure[0], (x, z))
    assert len(singular) >= 2
    (X[5], Z[5]), (X[9], Z[9]) = list(singular.values())[:2]
    each, failure = _each_point(spec, X.tolist(), Z.tolist(), theta)
    assert len(each) == 5 and failure is not None
    with pytest.raises(SingularState) as info:
        reduced_hamiltonian(spec, SimpleNamespace(X=X, Z=Z, Theta=theta))
    assert (info.value.pair, info.value.value) == failure
    assert type(info.value.value) is float


def test_reduced_hamiltonian_keeps_its_scalar_and_nan_cells():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    s = NambuState(0.3, 0.4, math.sqrt(1.0 + 0.25), 1.0, HYPERBOLOID)
    assert type(reduced_hamiltonian(spec, s)) is float
    # an argument of exactly zero is singular; the point call names the pair
    with pytest.raises(SingularState) as info:
        reduced_hamiltonian(spec, SimpleNamespace(X=np.array([0.5, 2.0]), Z=np.array([1.5, 2.0]),
                                                  Theta=1.0))
    assert (info.value.pair, info.value.value) == ((1, 2), 0.0)
    # NaN is not <= 0: its cell is NaN, and the others are the point values
    X, Z = np.array([0.5, math.nan, 0.2]), np.array([1.5, 1.5, math.nan])
    h = reduced_hamiltonian(spec, SimpleNamespace(X=X, Z=Z, Theta=1.0))
    assert math.isnan(h[1]) and math.isnan(h[2])
    assert h[0] == reduced_hamiltonian(spec, SimpleNamespace(X=0.5, Z=1.5, Theta=1.0))
    assert math.isnan(reduced_hamiltonian(spec, SimpleNamespace(X=math.nan, Z=1.5, Theta=1.0)))


# The per-cell marching squares that ``contour_cells`` replaced, kept as its
# reference.  Corner bits (f00, f10, f11, f01) -> edge pairs; edges 0..3
# are bottom, right, top, left.
_EDGE_ENDS = {0: ((0, 0), (1, 0)), 1: ((1, 0), (1, 1)),
              2: ((0, 1), (1, 1)), 3: ((0, 0), (0, 1))}
_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
}


def _cell_segments(f, level):
    # f = (f00, f10, f11, f01); returns [(edge_a, t_a, edge_b, t_b), ...]
    bits = (
        (f[0] > level)
        | ((f[1] > level) << 1)
        | ((f[2] > level) << 2)
        | ((f[3] > level) << 3)
    )
    if bits in (0, 15):
        return []
    if bits == 5:
        center = 0.25 * sum(f)
        pairs = [(3, 2), (0, 1)] if center > level else [(3, 0), (1, 2)]
    elif bits == 10:
        center = 0.25 * sum(f)
        pairs = [(3, 0), (1, 2)] if center > level else [(3, 2), (0, 1)]
    else:
        pairs = _CASES[bits]
    corner_vals = {(0, 0): f[0], (1, 0): f[1], (1, 1): f[2], (0, 1): f[3]}
    out = []
    for ea, eb in pairs:
        seg = []
        for e in (ea, eb):
            (ca, cb) = _EDGE_ENDS[e]
            fa, fb = corner_vals[ca], corner_vals[cb]
            seg.append((e, (level - fa) / (fb - fa)))
        out.append((seg[0][0], seg[0][1], seg[1][0], seg[1][1]))
    return out


def _edge_point(i, j, edge, t):
    (ax, ay), (bx, by) = _EDGE_ENDS[edge]
    return i + ax + t * (bx - ax), j + ay + t * (by - ay)


def _reference_contour(h, level):
    pu, pv = [], []
    for i in range(h.shape[0] - 1):
        for j in range(h.shape[1] - 1):
            corners = (h[i, j], h[i + 1, j], h[i + 1, j + 1], h[i, j + 1])
            if not all(map(math.isfinite, corners)):
                continue
            for ea, ta, eb, tb in _cell_segments(corners, level):
                ends = [_edge_point(i, j, e, t) for e, t in ((ea, ta), (eb, tb))]
                pu.append([ends[0][0], ends[1][0]])
                pv.append([ends[0][1], ends[1][1]])
    return np.array(pu).reshape(-1, 2), np.array(pv).reshape(-1, 2)


def _saddle_orientations(h, level):
    # (cells of case 5 or 10 with the centre above, and at or below, level)
    f = np.stack([h[:-1, :-1], h[1:, :-1], h[1:, 1:], h[:-1, 1:]], axis=-1)
    f = f[np.isfinite(f).all(axis=-1)]
    above = f > level
    saddle = (above[:, 0] == above[:, 2]) & (above[:, 1] == above[:, 3]) & (
        above[:, 0] != above[:, 1]
    )
    centre = 0.25 * f.sum(axis=1)
    return int(np.sum(saddle & (centre > level))), int(np.sum(saddle & (centre <= level)))


@pytest.mark.parametrize("seed", range(6))
def test_contour_cells_match_the_per_cell_reference(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(8, 24, size=2)
    # a checkerboard under noise makes saddle cells of both orientations
    ii, jj = np.indices((n, m))
    h = (-1.0) ** (ii + jj) + rng.normal(scale=0.8, size=(n, m))
    holes = rng.random((n, m)) < 0.08
    h[holes] = rng.choice([math.nan, math.inf, -math.inf], size=holes.sum())
    finite = h[np.isfinite(h)]
    levels = [*rng.choice(finite, size=4), *rng.uniform(-1.5, 1.5, size=3)]
    levels = list(map(float, levels))
    cells = list(contour_cells(h, levels))
    assert len(cells) == len(levels)
    seen = np.zeros(2, dtype=int)
    for level, (pu, pv) in zip(levels, cells):
        ref_u, ref_v = _reference_contour(h, level)
        assert pu.tobytes() == ref_u.tobytes()
        assert pv.tobytes() == ref_v.tobytes()
        seen += _saddle_orientations(h, level)
    assert seen.min() > 0


# a hyperboloid leaf at Gamma = 1 and Theta < 0, whose grid holds a
# singular node, and the (1, 1, 1) sphere, whose poles are singular rows
@pytest.mark.parametrize("g, theta, window", [
    ((1.0, 1.0, -1.0), -2.0, 8.0),
    ((1.0, 1.0, 1.0), 1.0, None),
], ids=["hyperboloid", "sphere"])
def test_level_sets_of_a_leaf_are_its_levels_one_by_one(g, theta, window):
    grid = LeafGrid.sample(ReducedSystemSpec.for_circulations(g), theta, window)
    finite = grid.energy[np.isfinite(grid.energy)]
    assert 0 < finite.size < grid.energy.size
    # the automatic levels: evenly between the 5th and 95th percentiles
    levels = np.linspace(*np.percentile(finite, [5.0, 95.0]), 9).tolist()
    together = list(contour_cells(grid.energy, levels))
    sets = list(grid.level_sets(levels))
    assert len(together) == len(sets) == len(levels)
    for level, cells, ends in zip(levels, together, sets):
        ((pu, pv),) = contour_cells(grid.energy, [level])
        assert cells[0].shape[0] > 0
        assert [c.tobytes() for c in cells] == [pu.tobytes(), pv.tobytes()]
        (alone,) = grid.level_sets([level])
        assert [c.tobytes() for c in ends] == [c.tobytes() for c in alone]
    ref_u, ref_v = _reference_contour(grid.energy, levels[4])
    assert [c.tobytes() for c in together[4]] == [ref_u.tobytes(), ref_v.tobytes()]


def test_contour_cells_of_no_levels():
    h = np.arange(20.0).reshape(4, 5)
    assert list(contour_cells(h, [])) == []
    grid = LeafGrid.sample(ReducedSystemSpec.for_circulations([1.0, 1.0, 1.0]), 1.0)
    assert list(grid.level_sets([])) == []


def test_contour_cells_of_a_grid_without_finite_cells():
    h = np.full((4, 5), math.nan)
    h[0, 0] = 1.0
    ((pu, pv),) = contour_cells(h, [0.5])
    assert pu.shape == pv.shape == (0, 2)
