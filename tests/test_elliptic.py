"""Symmetric integrals, quartic factorization, and the deflection angle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from trivortex import elliptic
from trivortex.elliptic import (
    COMPLEX_PAIR,
    IMAG_IMAG,
    REAL_IMAG,
    REAL_REAL,
    _rj_core,
    delta_alpha_closed,
    delta_alpha_quadrature,
    p4_factor,
    tanh_sinh,
)
from trivortex.errors import BoundaryTheta, NonFiniteResult, QuadratureNonConvergence

# frozen reference deflections, one per factorization regime plus the
# exact special value at Theta = 2
FROZEN_DEFLECTIONS = {
    -2.0: 0.9378251629949128553,
    -0.5: 0.5062816633637656473,
    4.0: -1.805252617543624833,
    10.0: -0.3623223918711310556,
    2.0: -math.pi / 3.0,
}


def test_rj_matches_reference_implementation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y, z = rng.uniform(0.0, 15.0, 3)
        p = rng.uniform(0.05, 15.0)
        mine = _rj_core(float(x), float(y), float(z), float(p))
        ref = float(special.elliprj(x, y, z, p))
        assert mine == pytest.approx(ref, rel=1e-11)


# all four regimes, and within 1e-9 of each boundary -1, 0 and 8
THETA_GRID = [float(t) for t in np.linspace(-30.0, 60.0, 451) if t not in (-1.0, 0.0, 8.0)]
THETA_GRID += [b + s * d for b in (-1.0, 0.0, 8.0) for d in (1e-9, 1e-6, 1e-3) for s in (-1, 1)]


def _closed_form_rj_calls(monkeypatch):
    # every (x, y, z, p) that delta_alpha_closed hands _rj_core on the grid
    calls = []

    def recording(*args):
        calls.append(args)
        return _rj_core(*args)

    monkeypatch.setattr(elliptic, "_rj_core", recording)
    for t in THETA_GRID:
        delta_alpha_closed(t)
    return calls


def test_closed_form_gives_rj_a_positive_weight(monkeypatch):
    calls = _closed_form_rj_calls(monkeypatch)
    assert len(calls) == 2 * len(THETA_GRID)
    regimes = {p4_factor(t).regime for t in THETA_GRID}
    assert regimes == {COMPLEX_PAIR, REAL_REAL, REAL_IMAG, IMAG_IMAG}
    for x, y, z, p in calls:
        assert type(p) is float and p > 0.0
        if isinstance(y, complex):
            assert x == 0.0 and z == y.conjugate()
        else:
            assert min(x, y, z) >= 0.0 and sorted((x, y, z))[1] > 0.0


def test_rj_core_matches_scipy_on_the_closed_form_arguments(monkeypatch):
    calls = _closed_form_rj_calls(monkeypatch)
    pairs = 0
    for args in calls:
        mine, ref = _rj_core(*args), complex(special.elliprj(*args))
        if isinstance(args[1], complex):  # the ComplexPair regime's conjugate pair
            pairs += 1
        else:
            assert isinstance(mine, float) and ref.imag == 0.0
        assert abs(mine - ref) <= 1e-13 * abs(ref)
    assert pairs > 100


def test_quadrature_helper_flags_stalls():
    # one refinement level cannot resolve an endpoint power this strong
    with pytest.raises(QuadratureNonConvergence):
        tanh_sinh(lambda x: x**-0.999, 0.0, 1.0, tol=1e-14, max_level=1)
    # no refinement level at all is a stall too, not an unbound error
    with pytest.raises(QuadratureNonConvergence):
        tanh_sinh(math.sqrt, 0.0, 1.0, max_level=0)


def _regime_samples(rng, regime, count):
    if regime == COMPLEX_PAIR:
        return -1.0 - rng.uniform(0.001, 9.0, count)
    if regime == REAL_REAL:
        return -rng.uniform(0.001, 0.999, count)
    if regime == REAL_IMAG:
        return rng.uniform(0.001, 7.999, count)
    return 8.0 + rng.uniform(0.001, 40.0, count)


def _u_roots(fac):
    # roots of the quartic in the variable u = Y^2 implied by each regime
    if fac.regime == COMPLEX_PAIR:
        a, b = math.sqrt(fac.a_sq), math.sqrt(fac.b_sq)
        r = complex(a, b) ** 2
        return np.array([r, r.conjugate()])
    if fac.regime == REAL_REAL:
        return np.array([fac.a_sq, fac.b_sq], dtype=complex)
    if fac.regime == REAL_IMAG:
        return np.array([fac.a_sq, -fac.b_sq], dtype=complex)
    return np.array([-fac.a_sq, -fac.b_sq], dtype=complex)


def test_p4_factor_regimes_and_reference_points():
    assert p4_factor(-2.0).regime == COMPLEX_PAIR
    assert p4_factor(-0.5).regime == REAL_REAL
    assert p4_factor(4.0).regime == REAL_IMAG
    assert p4_factor(10.0).regime == IMAG_IMAG
    f = p4_factor(4.0)
    assert f.a_sq == pytest.approx(8.0 + 8.0 * math.sqrt(5.0), rel=1e-14)
    assert f.b_sq == pytest.approx(8.0 * math.sqrt(5.0) - 8.0, rel=1e-14)
    assert f.y_min == pytest.approx(math.sqrt(f.a_sq), rel=1e-15)
    # the root that vanishes in rounding reads +0.0, not -0.0
    assert math.copysign(1.0, p4_factor(1e-9).b_sq) == 1.0
    for bad in (-1.0, 0.0, 8.0):
        with pytest.raises(BoundaryTheta):
            p4_factor(bad)


def test_a_leaf_past_the_float_range_raises_a_typed_error():
    # from |Theta| = 2**256 the quartic's constant term (Theta - 8) Theta^3
    # overflows; every route refuses such a leaf
    edge = 2.0**256
    for theta in (edge, -edge, -2e77, 2e154, 1.7976931348623157e308):
        for route in (p4_factor, delta_alpha_closed, delta_alpha_quadrature):
            with pytest.raises(NonFiniteResult):
                route(theta)
    below = math.nextafter(edge, 0.0)
    for theta in (below, -below):
        assert p4_factor(theta).regime == (IMAG_IMAG if theta > 0.0 else COMPLEX_PAIR)
        assert math.isfinite(delta_alpha_quadrature(theta))
    # inside the range the closed form's R_J arguments can still overflow
    with pytest.raises(NonFiniteResult, match="not a finite float"):
        delta_alpha_closed(-2e76)


def test_p4_factor_lower_limit_convention():
    assert p4_factor(-3.0).y_min == 0.0
    assert p4_factor(12.0).y_min == 0.0
    assert p4_factor(-0.4).y_min > 0.0
    assert p4_factor(5.0).y_min > 0.0


def test_p4_factor_reconstructs_quartic_coefficients():
    rng = np.random.default_rng(3)
    for regime in (COMPLEX_PAIR, REAL_REAL, REAL_IMAG, IMAG_IMAG):
        for t in _regime_samples(rng, regime, 100):
            t = float(t)
            fac = p4_factor(t)
            assert fac.regime == regime
            roots = _u_roots(fac)
            two_b = float(np.real(-(roots[0] + roots[1])))
            c0 = float(np.real(roots[0] * roots[1]))
            want_two_b = 2.0 * (t * t - 4.0 * t - 8.0)
            want_c0 = (t - 8.0) * t**3
            scale = max(1.0, abs(want_two_b), abs(want_c0))
            assert abs(two_b - want_two_b) <= 1e-10 * scale
            assert abs(c0 - want_c0) <= 1e-10 * scale


def test_p4_factor_roots_match_generic_rootfinder():
    rng = np.random.default_rng(5)
    for regime in (COMPLEX_PAIR, REAL_REAL, REAL_IMAG, IMAG_IMAG):
        for t in _regime_samples(rng, regime, 100):
            t = float(t)
            b2 = 2.0 * (t * t - 4.0 * t - 8.0)
            c0 = (t - 8.0) * t**3
            generic = np.sort_complex(np.roots([1.0, b2, c0]))
            mine = np.sort_complex(_u_roots(p4_factor(t)))
            scale = max(1.0, float(np.abs(generic).max()))
            assert np.max(np.abs(generic - mine)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(st.floats(-8.0, 12.0))
def test_p4_roots_really_annihilate_quartic(t):
    if min(abs(t + 1.0), abs(t), abs(t - 8.0)) < 1e-3:
        return
    fac = p4_factor(t)
    for u in _u_roots(fac):
        val = u * u + 2.0 * (t * t - 4.0 * t - 8.0) * u + (t - 8.0) * t**3
        assert abs(val) <= 1e-9 * max(1.0, abs(u) ** 2)


def test_frozen_deflections_both_routes():
    for t, want in FROZEN_DEFLECTIONS.items():
        assert delta_alpha_closed(t) == pytest.approx(want, abs=1e-13)
        assert delta_alpha_quadrature(t) == pytest.approx(want, abs=1e-10)


def test_closed_form_zero_on_singular_leaf():
    assert delta_alpha_closed(0.0) == 0.0


def test_boundary_rejection():
    for bad in (-1.0, 8.0):
        with pytest.raises(BoundaryTheta):
            delta_alpha_closed(bad)
    for bad in (-1.0, 0.0, 8.0):
        with pytest.raises(BoundaryTheta):
            delta_alpha_quadrature(bad)


def test_routes_agree_across_offset_grid():
    # same leaf span the scattering sweep uses, boundary bands removed
    for rho in np.linspace(-3.0, 5.0, 40):
        rho = float(rho)
        if min(abs(rho + 1.0), abs(rho + 0.5), abs(rho - 3.5)) < 0.05:
            continue
        t = 1.0 + 2.0 * rho
        closed = delta_alpha_closed(t)
        quad = delta_alpha_quadrature(t)
        assert abs(closed - quad) <= 1e-8, (rho, closed, quad)


def test_routes_agree_in_conjugate_pair_window():
    # here the u-roots carry negative real part, the delicate corner of
    # the complex duplication
    for t in (-1.05, -1.2, -1.3, -1.44):
        assert delta_alpha_closed(t) == pytest.approx(
            delta_alpha_quadrature(t), abs=1e-10
        )


def test_deflection_diverges_at_critical_offsets():
    # logarithmic growth toward each boundary; well inside the 1e-4 band
    # around rho = -1 and rho = 7/2 the winding exceeds 10 radians
    for t in (-1.0 - 2e-8, -1.0 + 2e-8, 8.0 - 2e-8, 8.0 + 2e-8):
        assert abs(delta_alpha_quadrature(t)) > 10.0


def test_deflection_vanishes_at_large_offset():
    for t in (101.0, -99.0):
        assert abs(delta_alpha_quadrature(t)) < 0.05
        assert abs(delta_alpha_closed(t)) < 0.05


def _legendre_terms(t):
    # modulus m, characteristics n1, n2 and the coefficients of K, Pi(n1)
    # and Pi(n2) in the deflection on the outer leaf Theta > 8
    if not (t > 8.0) or not math.isfinite(t):
        raise ValueError("the Legendre combination is only formed for Theta > 8")
    root = math.sqrt(t + 1.0)
    a_sq = t * t - 4.0 * t + 8.0 * root - 8.0
    b_sq = t * t - 4.0 * t - 8.0 * root - 8.0
    m = 16.0 * root / a_sq
    n1 = -4.0 / (t + 2.0 * root - 2.0)
    n2 = 4.0 * (t + 2.0 * root + 2.0) / (t * t)
    den = math.sqrt((t - 8.0) * t**3 * b_sq)
    c_k = -4.0 * t / math.sqrt(a_sq)
    c_pi1 = (
        -2.0 * t**3 + 4.0 * t * t + 64.0 * t + 64.0
        - 4.0 * root * (t * t - 8.0 * t - 16.0)
    ) / den
    c_pi2 = (
        -2.0 * t**3 + 12.0 * t * t - 32.0 * t - 64.0
        + 4.0 * (t * t - 16.0) * root
    ) / den
    return m, n1, n2, c_k, c_pi1, c_pi2


def _delta_alpha_legendre(t):
    # the outer-leaf deflection as a K and Pi combination, both from SciPy;
    # Pi(n, m) = K(m) + n/3 R_J(0, 1 - m, 1, 1 - n), principal value for n > 1
    m, n1, n2, c_k, c_pi1, c_pi2 = _legendre_terms(t)
    k = float(special.ellipk(m))

    def pi(n):
        return k + n / 3.0 * float(special.elliprj(0.0, 1.0 - m, 1.0, 1.0 - n))

    return c_k * k - (c_pi1 * pi(n1) + c_pi2 * pi(n2))


def test_legendre_combination_on_outer_leaf():
    m, n1, n2 = _legendre_terms(10.0)[:3]
    root = math.sqrt(11.0)
    a_sq = 100.0 - 40.0 + 8.0 * root - 8.0
    assert m == pytest.approx(16.0 * root / a_sq, rel=1e-14)
    assert n1 == pytest.approx(-4.0 / (8.0 + 2.0 * root), rel=1e-14)
    assert n2 == pytest.approx(4.0 * (12.0 + 2.0 * root) / 100.0, rel=1e-14)
    assert 0.0 < m < 1.0
    assert n1 < 0.0 < n2 < 1.0
    for t in (8.5, 9.0, 10.0, 14.0, 25.0, 80.0):
        assert _delta_alpha_legendre(t) == pytest.approx(
            delta_alpha_closed(t), abs=1e-8
        )
    with pytest.raises(ValueError):
        _legendre_terms(5.0)
    with pytest.raises(ValueError):
        _legendre_terms(-2.0)
