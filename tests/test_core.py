"""Lab-frame dynamics: kernel, energy, impulses, equivariance."""

from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trivortex import core
from trivortex.core import (
    COINCIDENCE_FLOOR,
    ConservedSet,
    conserved,
    hamiltonian,
    invariants,
    pair_kernel,
    rhs,
    window_kernel,
)
from trivortex.errors import CoincidentVortices


def test_dipole_translates_rigidly():
    x = [(0.0, 0.5), (0.0, -0.5)]
    g = [1.0, -1.0]
    v = rhs(x, g)
    assert np.allclose(v[0], v[1], atol=1e-15)
    # velocity is perpendicular to the joining line
    joint = np.subtract(x[0], x[1])
    assert abs(np.dot(v[0], joint)) < 1e-15
    assert np.allclose(v[0], (1.0, 0.0), atol=1e-15)


def test_corotating_pair_is_antisymmetric():
    v = rhs([(0.5, 0.0), (-0.5, 0.0)], [1.0, 1.0])
    assert np.allclose(v[0], -v[1], atol=1e-15)
    assert abs(np.hypot(*v[0]) - np.hypot(*v[1])) < 1e-15
    # tangent to the circle through both vortices
    assert abs(v[0][0]) < 1e-15 and abs(v[1][0]) < 1e-15


def test_equilateral_triangle_rotates_rigidly():
    ang = 2.0 * np.pi * np.arange(3) / 3.0
    x = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    v = rhs(x, [1.0, 1.0, 1.0])
    speeds = np.hypot(v[:, 0], v[:, 1])
    assert np.allclose(speeds, speeds[0], atol=1e-14)
    radial = (v * x).sum(axis=1)
    assert np.max(np.abs(radial)) < 1e-14


def test_hamiltonian_unit_distances_vanish():
    assert hamiltonian([(0.0, 0.0), (1.0, 0.0)], [1.0, 1.0]) == 0.0
    side = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    assert abs(hamiltonian(side, [1.0, 1.0, 1.0])) < 1e-15


def test_hamiltonian_frozen_value():
    # independent arbitrary-precision evaluation of the three log terms
    x = [(-10.0, 0.5), (0.0, -1.0), (-10.0, -0.5)]
    h = hamiltonian(x, [1.0, 1.0, -1.0])
    assert h == pytest.approx(-0.009876864368116280, abs=1e-15)


def test_conserved_reports_impulses_and_centroid():
    c = conserved([(1.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [1.0, 1.0, -1.0])
    assert isinstance(c, ConservedSet)
    assert c.Theta == pytest.approx(-2.0)
    assert c.M == pytest.approx((0.0, 0.0))
    # total strength is 1, so the centroid exists
    assert c.r0 == pytest.approx((0.0, 0.0))
    assert math.isinf(c.H)


def test_centroid_absent_for_zero_total_strength():
    c = conserved([(0.0, 0.5), (0.0, -0.5)], [1.0, -1.0])
    assert c.r0 is None
    assert c.M == pytest.approx((0.0, 1.0))


def test_coincidence_guard_and_floor():
    x = [(0.0, 0.0), (5e-13, 0.0)]
    with pytest.raises(CoincidentVortices) as exc:
        rhs(x, [1.0, 1.0])
    assert exc.value.pair == (0, 1)
    with pytest.raises(CoincidentVortices):
        hamiltonian(x, [1.0, 1.0])
    # the floor is COINCIDENCE_FLOOR: a pair just outside it is admitted
    y = [(0.0, 0.0), (2.0 * COINCIDENCE_FLOOR, 0.0)]
    assert np.isfinite(rhs(y, [1.0, 1.0])).all()
    assert math.isfinite(hamiltonian(y, [1.0, 1.0]))


def _random_states(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        x = rng.uniform(-3.0, 3.0, size=(n, 2))
        # keep pairs honestly separated so tolerances are meaningful
        while True:
            d = x[:, None, :] - x[None, :, :]
            r2 = (d**2).sum(-1) + np.eye(n)
            if r2.min() > 1e-2:
                break
            x = rng.uniform(-3.0, 3.0, size=(n, 2))
        g = rng.uniform(-2.0, 2.0, size=n)
        g[np.abs(g) < 0.1] = 0.5
        yield x, g


def test_translation_equivariance():
    for x, g in _random_states(20, seed=11):
        shift = np.array([0.7, -1.3])
        assert np.allclose(rhs(x + shift, g), rhs(x, g), atol=1e-12)


def test_rotation_equivariance():
    for x, g in _random_states(20, seed=12):
        th = 1.234
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert np.allclose(rhs(x @ rot.T, g), rhs(x, g) @ rot.T, atol=1e-12)


def test_energy_is_stationary_along_flow():
    # dH/dt = sum_i grad_i H . v_i with the exact gradient of the log sum
    for x, g in _random_states(20, seed=13):
        n = x.shape[0]
        v = rhs(x, g)
        total = 0.0
        for i in range(n):
            gx = gy = 0.0
            for j in range(n):
                if j == i:
                    continue
                dx, dy = x[i] - x[j]
                r2 = dx * dx + dy * dy
                gx += -g[i] * g[j] * dx / r2
                gy += -g[i] * g[j] * dy / r2
            total += gx * v[i, 0] + gy * v[i, 1]
        assert abs(total) <= 1e-10


def test_impulse_identity_links_theta_and_pair_distances():
    # sum_{i<j} g_i g_j |r_i-r_j|^2 == (sum g) * Theta - |M|^2
    for x, g in _random_states(20, seed=14):
        c = conserved(x, g)
        lhs = 0.0
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                lhs += g[i] * g[j] * ((x[i] - x[j]) ** 2).sum()
        rhs_val = g.sum() * c.Theta - c.M[0] ** 2 - c.M[1] ** 2
        assert lhs == pytest.approx(rhs_val, rel=1e-10, abs=1e-10)


_coord = st.floats(-50.0, 50.0, allow_nan=False)
_stacks = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_coord, min_size=6, max_size=6), min_size=n, max_size=n)
)
_strengths = st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(_stacks, _strengths)
def test_stacked_kernel_and_invariants_equal_each_state(states, g):
    # one call on a stack gives, bit for bit, the per-state numbers
    x = np.array(states).reshape(-1, 3, 2)
    d = x[:, :, None, :] - x[:, None, :, :]
    assume(np.all((d**2).sum(axis=-1) + np.eye(3) > 1e-6))
    g = np.array(g)
    v, rho2 = pair_kernel(x, g)
    c = conserved(x, g)
    for i, xi in enumerate(x):
        assert np.array_equal(v[i], rhs(xi, g))
        pairs = ((0, 1), (0, 2), (1, 2))
        assert rho2[i].min() == min(((xi[a] - xi[b]) ** 2).sum() for a, b in pairs)
        ci = conserved(xi, g)
        assert (c.H[i], c.Theta[i], c.M[0][i], c.M[1][i]) == (ci.H, ci.Theta, *ci.M)
        if ci.r0 is None:
            assert c.r0 is None
        else:
            assert (c.r0[0][i], c.r0[1][i]) == ci.r0


_PAIRS = ((0, 1), (0, 2), (1, 2))
_unit = st.floats(-1.0, 1.0)


@st.composite
def _three_vortex_states(draw):
    """(3, 2) positions at scales 1e-3 to 1e3, generic, collinear (signed
    zero offsets) or with a near-coincident pair, and mixed-sign strengths."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    x = np.array([[draw(_unit), draw(_unit)] for _ in range(3)]) * scale
    kind = draw(st.sampled_from(("generic", "collinear", "near")))
    if kind == "collinear":
        axis = draw(st.integers(0, 1))
        x[:, axis] = x[0, axis]
    elif kind == "near":
        i, j = draw(st.sampled_from(_PAIRS))
        gap = scale * 10.0 ** draw(st.floats(-16.0, -9.0))
        x[j] = x[i] + gap * np.array([draw(_unit), draw(_unit)])
    g = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    return x, g


def _flat(x, g):
    """The state as flat_rhs passes it: six floats and three strengths."""
    return np.asarray(x, dtype=np.float64).ravel().tolist(), tuple(np.asarray(g).tolist())


def _velocities_or_coincidence(kernel):
    try:
        return [v.hex() for v in kernel()]
    except CoincidentVortices as exc:
        return exc.pair, exc.distance.hex()


@settings(max_examples=400, deadline=None)
@given(_three_vortex_states())
def test_three_vortex_rhs_is_pair_kernel_bit_for_bit(state):
    x, g = state
    want = _velocities_or_coincidence(lambda: pair_kernel(x, g)[0].ravel().tolist())
    # the stub proves rhs does not reach the stacked kernel for a flat state
    with mock.patch.object(core, "pair_kernel", side_effect=AssertionError):
        got = _velocities_or_coincidence(lambda: rhs(*_flat(x, g)))
    assert got == want


@pytest.mark.parametrize(
    "x, pair",
    [
        ([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)], (0, 1)),
        ([(0.0, 0.0), (1e-13, 0.0), (-1e-13, 0.0)], (0, 1)),
        ([(0.0, 0.0), (2e-13, 0.0), (-1e-13, 0.0)], (0, 2)),
        ([(0.0, 0.0), (1.0, 1.0), (1.0, 1.0 + 1e-13)], (1, 2)),
        ([(5.0, 5.0), (1.0, 1.0), (1.0, 1.0)], (1, 2)),
        ([(1e-13, 0.0), (0.0, 0.0), (0.0, 5e-14)], (1, 2)),
    ],
)
def test_three_vortex_rhs_names_the_closest_pair(x, pair):
    x, g = np.array(x), np.array([1.0, -0.5, 2.0])
    with pytest.raises(CoincidentVortices) as fast:
        rhs(*_flat(x, g))
    with pytest.raises(CoincidentVortices) as stacked:
        pair_kernel(x, g)
    assert fast.value.pair == stacked.value.pair == pair
    assert fast.value.distance.hex() == stacked.value.distance.hex()
    assert str(fast.value) == str(stacked.value)


def _value_error(x, g):
    with pytest.raises(ValueError) as exc:
        rhs(x, g)
    return str(exc.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_three_vortex_rhs_rejects_what_the_validators_reject(bad):
    x = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    g = np.array([1.0, 0.4, -1.0])
    # (3, 2) states take the validating path, flat lists the three-vortex one
    for k in range(6):
        xb = x.copy()
        xb.flat[k] = bad
        assert _value_error(*_flat(xb, g)) == _value_error(xb, g)
        assert _value_error(*_flat(xb, g)) == "positions contain non-finite values"
        gb = g.copy()
        gb[k % 3] = bad
        # positions are checked before strengths
        assert _value_error(*_flat(xb, gb)) == "positions contain non-finite values"
        assert _value_error(*_flat(x, gb)) == _value_error(x.tolist(), gb.tolist())
        assert _value_error(*_flat(x, gb)) == "circulations contain non-finite values"
    for count in (2, 4):
        assert _value_error(x, np.ones(count)) == f"expected 3 circulations, got {count}"


# finite states whose nine values sum past the float range, so the one-sum
# finiteness screen fails and the per-value checks pass them
_OVERFLOWING = [
    ([(1e308, 0.0), (1e308, 10.0), (1e308, 30.0)], [1.0, 0.4, -1.0]),
    ([(-1e308, 0.0), (-1e308, -10.0), (-1e308, 30.0)], [1.0, 2.0, -1.0]),
    ([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)], [1e308, 1e308, -1.0]),
    ([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)], [1.0, -1.7e308, -1.7e308]),
]


def _numpy_scalars(x, g):
    """The flat state with every value a NumPy scalar, which is a float too."""
    y, g = _flat(x, g)
    return [np.float64(v) for v in y], np.array(g)


@pytest.mark.parametrize("x, g", _OVERFLOWING)
def test_three_vortex_rhs_keeps_a_finite_state_whose_screen_sum_overflows(x, g):
    x, g = np.array(x), np.array(g)
    y, g3 = _flat(x, g)
    assert not math.isfinite(sum(y) + sum(g3))
    want = _velocities_or_coincidence(lambda: pair_kernel(x, g)[0].ravel().tolist())
    with mock.patch.object(core, "pair_kernel", side_effect=AssertionError):
        assert _velocities_or_coincidence(lambda: rhs(*_flat(x, g))) == want
        assert _velocities_or_coincidence(lambda: rhs(*_numpy_scalars(x, g))) == want


@pytest.mark.parametrize("x, g", _OVERFLOWING)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_three_vortex_rhs_names_a_bad_value_beside_an_overflowing_sum(x, g, bad):
    x, g = np.array(x), np.array(g)
    for flat in (_flat, _numpy_scalars):
        for k in range(6):
            xb = x.copy()
            xb.flat[k] = bad
            assert _value_error(*flat(xb, g)) == "positions contain non-finite values"
            gb = g.copy()
            gb[k % 3] = bad
            assert _value_error(*flat(x, gb)) == "circulations contain non-finite values"


@pytest.mark.parametrize("pos, neg", [("x", "x"), ("x", "g"), ("g", "x"), ("g", "g")])
def test_three_vortex_rhs_names_opposite_infinities_without_a_warning(pos, neg):
    # inf + -inf is NaN, and NumPy scalars warn of it: the message stays, no warning is raised
    x = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    g = np.array([1.0, 0.4, -1.0])
    (x if pos == "x" else g).flat[0] = math.inf
    (x if neg == "x" else g).flat[1] = -math.inf
    which = "positions" if "x" in (pos, neg) else "circulations"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flat in (_flat, _numpy_scalars):
            assert _value_error(*flat(x, g)) == f"{which} contain non-finite values"


@settings(max_examples=100, deadline=None)
@given(_three_vortex_states())
def test_three_vortex_rhs_takes_numpy_scalars_without_a_warning(state):
    x, g = state
    want = _velocities_or_coincidence(lambda: pair_kernel(x, g)[0].ravel().tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _velocities_or_coincidence(lambda: rhs(*_numpy_scalars(x, g))) == want


_gamma = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0)))


@st.composite
def _window_stacks(draw):
    """(M, 3, 2) stacks of states at scales 1e-3 to 1e3: generic, collinear,
    rounded to integers, with signed-zero coordinates, or with a
    near-coincident pair; strengths (1, Gamma, -1) or any triple, either
    sign and signed zeros included."""
    states = []
    for _ in range(draw(st.integers(1, 6))):
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        x = np.array([[draw(_unit), draw(_unit)] for _ in range(3)]) * scale
        kind = draw(st.sampled_from(("generic", "collinear", "integer", "zeros", "near")))
        if kind == "collinear":
            axis = draw(st.integers(0, 1))
            x[:, axis] = x[0, axis]
        elif kind == "integer":
            x = np.round(x)
        elif kind == "zeros":
            for i in draw(st.lists(st.integers(0, 5), max_size=4)):
                x.flat[i] = draw(st.sampled_from((0.0, -0.0)))
        elif kind == "near":
            i, j = draw(st.sampled_from(_PAIRS))
            gap = scale * 10.0 ** draw(st.floats(-16.0, -9.0))
            x[j] = x[i] + gap * np.array([draw(_unit), draw(_unit)])
        states.append(x)
    g = draw(st.one_of(
        st.tuples(st.just(1.0), _gamma, st.just(-1.0)), st.tuples(_gamma, _gamma, _gamma)
    ))
    return np.array(states), np.array(g)


def _pair_kernel_and_invariants(x, g):
    # what window_kernel returns: vortex 3's velocity columns, then the rest
    v, rho2 = pair_kernel(x, g)
    return ((v[:, 2, 0], v[:, 2, 1]), rho2.min(), *invariants(x, g))


def _bytes_or_coincidence(kernel):
    try:
        return [np.asarray(a).tobytes() for a in kernel()]
    except CoincidentVortices as exc:
        return exc.pair, exc.distance.hex(), str(exc)


@settings(max_examples=300, deadline=None)
@given(_window_stacks())
def test_window_kernel_is_pair_kernel_and_invariants_byte_for_byte(stack):
    x, g = stack
    want = _bytes_or_coincidence(lambda: _pair_kernel_and_invariants(x, g))
    assert _bytes_or_coincidence(lambda: window_kernel(x.reshape(-1, 6), g)) == want


@pytest.mark.parametrize(
    "states, pair",
    [
        # a tie inside one state goes to the earlier pair
        ([[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]], (0, 1)),
        ([[(1e-13, 0.0), (-1e-13, 0.0), (0.0, 0.0)]], (0, 2)),
        ([[(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)], [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]], (1, 2)),
        # the first state at the global minimum, not the first one below the floor
        ([[(0.0, 0.0), (1.0, 1.0), (1.0, 1.0 + 1e-13)], [(0.0, 0.0), (1e-14, 0.0), (5.0, 5.0)]],
         (0, 1)),
        ([[(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)], [(5.0, 5.0), (1.0, 1.0), (5.0, 5.0)]], (1, 2)),
        ([[(3.0, 1.0), (-3.0, 1.0), (0.0, 0.0)], [(2.0, 2.0), (1.0, 1.0), (2.0, 2.0 + 5e-14)]],
         (0, 2)),
    ],
)
def test_window_kernel_names_the_coincidence_pair_kernel_names(states, pair):
    x, g = np.array(states), np.array([1.0, 0.5, -1.0])
    with pytest.raises(CoincidentVortices) as columns:
        window_kernel(x.reshape(-1, 6), g)
    with pytest.raises(CoincidentVortices) as stacked:
        pair_kernel(x, g)
    assert columns.value.pair == stacked.value.pair == pair
    assert columns.value.distance.hex() == stacked.value.distance.hex()
    assert str(columns.value) == str(stacked.value)


def test_window_kernel_returns_a_nan_distance_instead_of_raising():
    # as rho2.min() and argmin do, a NaN hides a coincident pair elsewhere
    x = np.array([
        [(0.0, math.nan), (1.0, 0.0), (0.0, 1.0)],
        [(0.0, 0.0), (1e-13, 0.0), (5.0, 5.0)],
    ])
    g = np.array([1.0, 0.5, -1.0])
    got, want = window_kernel(x.reshape(-1, 6), g), _pair_kernel_and_invariants(x, g)
    assert math.isnan(got[1]) and math.isnan(want[1])
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
