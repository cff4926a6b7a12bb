"""Symmetric integrals, quartic factorization, and the deflection angle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from trivortex.elliptic import (
    COMPLEX_PAIR,
    IMAG_IMAG,
    REAL_IMAG,
    REAL_REAL,
    ClosedFormTerms,
    carlson_rf,
    carlson_rj,
    closed_form_terms,
    complete_k,
    complete_pi,
    delta_alpha_closed,
    delta_alpha_legendre,
    delta_alpha_quadrature,
    p4_factor,
    tanh_sinh,
)
from trivortex.errors import BoundaryTheta, DomainError, QuadratureNonConvergence

# frozen reference deflections, one per factorization regime plus the
# exact special value at Theta = 2
FROZEN_DEFLECTIONS = {
    -2.0: 0.9378251629949128553,
    -0.5: 0.5062816633637656473,
    4.0: -1.805252617543624833,
    10.0: -0.3623223918711310556,
    2.0: -math.pi / 3.0,
}


def test_rf_degenerate_argument():
    for x in (0.3, 1.0, 7.5):
        assert carlson_rf(x, x, x) == pytest.approx(1.0 / math.sqrt(x), rel=1e-15)


def test_rf_matches_reference_implementation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y, z = rng.uniform(0.0, 20.0, 3)
        mine = carlson_rf(x, y, z)
        ref = float(special.elliprf(x, y, z))
        assert mine == pytest.approx(ref, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 50.0),
    st.floats(0.01, 50.0),
    st.floats(0.01, 50.0),
)
def test_rf_symmetric_under_permutation(x, y, z):
    base = carlson_rf(x, y, z)
    assert carlson_rf(z, x, y) == pytest.approx(base, rel=1e-14)
    assert carlson_rf(y, z, x) == pytest.approx(base, rel=1e-14)


def test_rf_domain_errors():
    with pytest.raises(DomainError):
        carlson_rf(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        carlson_rf(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        carlson_rf(math.nan, 1.0, 1.0)


def test_rj_matches_reference_implementation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y, z = rng.uniform(0.0, 15.0, 3)
        p = rng.uniform(0.05, 15.0)
        mine = carlson_rj(x, y, z, p)
        ref = float(special.elliprj(x, y, z, p))
        assert mine == pytest.approx(ref, rel=1e-11)


def test_rj_principal_value_matches_reference():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x, y, z = rng.uniform(0.01, 15.0, 3)
        p = -rng.uniform(0.05, 15.0)
        mine = carlson_rj(x, y, z, p)
        ref = float(special.elliprj(x, y, z, p))
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_rj_rejects_zero_weight():
    with pytest.raises(DomainError):
        carlson_rj(1.0, 2.0, 3.0, 0.0)
    with pytest.raises(DomainError):
        carlson_rj(-1.0, 2.0, 3.0, 1.0)


def test_complete_k_values():
    assert complete_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    direct = tanh_sinh(
        lambda t: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(t) ** 2),
        0.0,
        math.pi / 2.0,
        tol=1e-13,
    )
    assert complete_k(0.5) == pytest.approx(direct, abs=1e-10)
    with pytest.raises(DomainError):
        complete_k(1.0)


def test_complete_pi_values():
    for m in (0.0, 0.3, 0.8):
        assert complete_pi(0.0, m) == pytest.approx(complete_k(m), rel=1e-14)
    for n in (-0.5, 0.2, 0.9):
        assert complete_pi(n, 0.0) == pytest.approx(
            math.pi / (2.0 * math.sqrt(1.0 - n)), rel=1e-13
        )
    direct = tanh_sinh(
        lambda t: 1.0
        / (
            (1.0 - 0.3 * math.sin(t) ** 2)
            * math.sqrt(1.0 - 0.5 * math.sin(t) ** 2)
        ),
        0.0,
        math.pi / 2.0,
        tol=1e-13,
    )
    assert complete_pi(0.3, 0.5) == pytest.approx(direct, abs=1e-10)
    with pytest.raises(DomainError):
        complete_pi(1.0, 0.5)


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


def test_legendre_combination_on_outer_leaf():
    terms = closed_form_terms(10.0)
    assert isinstance(terms, ClosedFormTerms)
    root = math.sqrt(11.0)
    a_sq = 100.0 - 40.0 + 8.0 * root - 8.0
    assert terms.m == pytest.approx(16.0 * root / a_sq, rel=1e-14)
    assert terms.n1 == pytest.approx(-4.0 / (8.0 + 2.0 * root), rel=1e-14)
    assert terms.n2 == pytest.approx(4.0 * (12.0 + 2.0 * root) / 100.0, rel=1e-14)
    assert 0.0 < terms.m < 1.0
    assert terms.n1 < 0.0 < terms.n2 < 1.0
    for t in (8.5, 9.0, 10.0, 14.0, 25.0, 80.0):
        assert delta_alpha_legendre(t) == pytest.approx(
            delta_alpha_closed(t), abs=1e-8
        )
    with pytest.raises(DomainError):
        closed_form_terms(5.0)
    with pytest.raises(DomainError):
        closed_form_terms(-2.0)
