"""Critical-point catalogs, linearizations, thresholds, branch sweeps."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from trivortex.core import conserved, rhs as lab_rhs
from trivortex.equilibria import (
    EQUILIBRIUM,
    GAMMA_SADDLE_NODE,
    SINGULARITY,
    CriticalPoint,
    bifurcation_sweep,
    critical_rho,
    equilibria_111,
    equilibria_11m1,
    equilibria_gamma,
    jacobian,
    separatrix_energy,
)
from trivortex.errors import NonFiniteResult, NotAnEquilibrium
from trivortex.reduction import (
    HYPERBOLOID,
    SPHERE,
    ReducedSystemSpec,
    lift,
    nambu_rhs,
    reduced_hamiltonian,
)


def _by_label(points):
    out = {}
    for p in points:
        out.setdefault(p.label, []).append(p)
    return out


def _rhs_norm(circulations, point):
    spec = ReducedSystemSpec.for_circulations(circulations)
    return max(abs(c) for c in nambu_rhs(spec, point.as_state()))


def test_identical_strengths_catalog():
    pts = equilibria_111(1.0)
    assert len(pts) == 8
    coords = {p.coords for p in pts}
    w = math.sqrt(3.0) / 2.0
    assert coords == {
        (0.0, 0.0, 1.0), (w, 0.0, -0.5), (-w, 0.0, -0.5),
        (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
        (0.0, 0.0, -1.0), (w, 0.0, 0.5), (-w, 0.0, 0.5),
    }
    for p in pts:
        x, y, z = p.coords
        assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-14)
        if p.kind == EQUILIBRIUM:
            assert _rhs_norm([1.0, 1.0, 1.0], p) <= 1e-12
        else:
            assert p.pair is not None

    # linear scaling with the leaf radius
    for p, q in zip(pts, equilibria_111(2.5)):
        assert q.coords == pytest.approx(tuple(2.5 * c for c in p.coords), abs=1e-13)

    with pytest.raises(ValueError):
        equilibria_111(0.0)
    with pytest.raises(ValueError):
        equilibria_111(-1.0)


def test_identical_strengths_eigenvalues():
    by = _by_label(equilibria_111(1.0))
    for p in by["collinear-eq"]:
        lam = sorted(p.eigenvalues, key=abs)
        assert lam[0] == 0.0
        assert lam[1] == -lam[2]
        assert abs(lam[2]) == pytest.approx(3.0 * math.sqrt(3.0), abs=1e-8)
        assert lam[2].imag == 0.0  # saddle
    for tag in ("pole+", "pole-"):
        (p,) = by[tag]
        lam = sorted(p.eigenvalues, key=abs)
        assert lam[0] == 0.0
        assert lam[1] == -lam[2]
        assert abs(lam[2] - 3.0j) < 1e-8 or abs(lam[2] + 3.0j) < 1e-8  # center


def test_jacobian_rejects_non_equilibria_and_mismatches():
    spec = ReducedSystemSpec.for_circulations([1.0, 1.0, 1.0])
    fake = CriticalPoint((1.0, 0.0, 0.0), 1.0, SPHERE, EQUILIBRIUM, "collinear-eq", "")
    with pytest.raises(NotAnEquilibrium):
        jacobian(spec, fake)
    other = ReducedSystemSpec.for_circulations([1.0, 1.0, -1.0])
    pole = next(p for p in equilibria_111(1.0) if p.label == "pole+")
    with pytest.raises(ValueError):
        jacobian(other, pole)


def test_dipole_family_catalog():
    by = _by_label(equilibria_11m1(-1.0))
    assert set(by) == {"E_tri+", "E_tri-", "S_11"}
    assert by["E_tri+"][0].coords == pytest.approx((0.0, -math.sqrt(3.0), 2.0))
    assert by["E_tri-"][0].coords == pytest.approx((0.0, math.sqrt(3.0), 2.0))
    assert by["S_11"][0].coords == (0.0, 0.0, 1.0)
    assert by["S_11"][0].pair == (0, 1)

    pos = equilibria_11m1(1.0)
    assert [p.label for p in pos] == ["E_-1"]
    assert pos[0].coords == (0.0, 0.0, 1.0)

    for th in (-1.0, 1.0, 3.7, -0.4):
        for p in equilibria_11m1(th):
            x, y, z = p.coords
            assert z >= 0.0
            assert z * z - x * x - y * y == pytest.approx(th * th, abs=1e-12)
            if p.kind == EQUILIBRIUM:
                assert _rhs_norm([1.0, 1.0, -1.0], p) <= 1e-12

    assert equilibria_11m1(0.0) == []


@pytest.mark.parametrize("theta", [-2.5, -1.0, -0.3, 0.7, 1.0, 4.0])
def test_dipole_family_meets_its_closed_forms(theta):
    # (X, Y, Z), window and real eigenvalue pair +-lam of each Gamma = 1
    # point; every saddle has lam = sqrt(3) / |Theta|
    side, lam = math.sqrt(3.0) * theta, math.sqrt(3.0) / abs(theta)
    if theta < 0.0:
        want = {
            "E_tri+": ((0.0, side, -2.0 * theta), "Theta < 0", lam),
            "E_tri-": ((0.0, -side, -2.0 * theta), "Theta < 0", lam),
            "S_11": ((0.0, 0.0, -theta), "Theta < 0", None),
        }
    else:
        want = {"E_-1": ((0.0, 0.0, theta), "Theta > 0", lam)}
    got = equilibria_11m1(theta)
    assert [p.label for p in got] == list(want)
    for p in got:
        coords, window, real = want[p.label]
        assert p.existence == window
        for c, w in zip(p.coords, coords):
            assert math.copysign(1.0, c) == math.copysign(1.0, w)  # no -0
            assert abs(c - w) <= 1e-15 * abs(w)
        if real is not None:
            assert p.eigenvalues[1].imag == 0.0
            assert abs(abs(p.eigenvalues[1].real) - real) <= 1e-15 * real


def test_asymmetric_family_windows():
    assert {p.label for p in equilibria_gamma(0.9, 1.0)} == {"E_-1", "E_Gamma"}
    assert {p.label for p in equilibria_gamma(0.9, -1.0)} == {
        "E_tri+", "E_tri-", "S_1Gamma", "S_-1Gamma",
    }
    assert {p.label for p in equilibria_gamma(1.7, 1.0)} == {"E_-1", "S_-1Gamma"}
    assert {p.label for p in equilibria_gamma(1.7, -1.0)} == {
        "E_tri+", "E_tri-", "E_1", "S_1Gamma",
    }
    assert equilibria_gamma(0.4, 1.0) == []
    assert equilibria_gamma(0.5, 1.0) == []
    for th in (-2.2, -1.0, 0.0, 1.0):
        assert equilibria_gamma(1.0, th) == equilibria_11m1(th)
    with pytest.raises(ValueError):
        equilibria_gamma(-0.5, 1.0)
    assert equilibria_gamma(1.5, 0.0) == []
    with pytest.raises(ValueError):
        equilibria_gamma(1.5, math.inf)

    for g in (0.9, 1.7):
        for th in (-1.0, 1.0, 2.3, -0.6):
            for p in equilibria_gamma(g, th):
                x, y, z = p.coords
                scale = max(1.0, abs(x), abs(y), abs(z))
                assert z * z - x * x - y * y == pytest.approx(
                    th * th, abs=1e-10 * scale * scale
                )
                if p.kind == EQUILIBRIUM:
                    assert _rhs_norm([1.0, g, -1.0], p) <= 1e-12 * scale


def test_branch_limits_toward_equal_strengths():
    # the equal-pair singularity is independent of Gamma
    for g in (0.99, 1.01):
        s = next(p for p in equilibria_gamma(g, -1.0) if p.label == "S_1Gamma")
        assert s.coords == (0.0, 0.0, 1.0)
    # the collinear saddle's X shrinks toward the origin...
    e = next(p for p in equilibria_gamma(1.001, 1.0) if p.label == "E_-1")
    assert abs(e.coords[0]) < 0.01
    # ...while the second root and the pair singularity run off to the right
    e1 = next(p for p in equilibria_gamma(1.001, -1.0) if p.label == "E_1")
    assert e1.coords[0] > 50.0
    eg = next(p for p in equilibria_gamma(0.999, 1.0) if p.label == "E_Gamma")
    assert eg.coords[0] > 50.0
    sg = next(p for p in equilibria_gamma(1.001, 1.0) if p.label == "S_-1Gamma")
    assert sg.coords[0] > 50.0


def test_saddle_node_fold():
    cat = equilibria_gamma(GAMMA_SADDLE_NODE, 1.0)
    xs = {p.label: p.coords[0] for p in cat}
    assert set(xs) == {"E_-1", "E_Gamma"}
    assert xs["E_-1"] == pytest.approx(xs["E_Gamma"], abs=1e-12)
    for p in cat:
        assert p.degenerate
        assert max(abs(l) for l in p.eigenvalues) <= 1e-3
    for p in equilibria_gamma(GAMMA_SADDLE_NODE + 1e-3, 1.0):
        assert not p.degenerate


def test_saddle_node_separation_scaling():
    seps = []
    eps = [1e-4, 1e-3, 1e-2]
    for e in eps:
        xs = {p.label: p.coords[0] for p in equilibria_gamma(GAMMA_SADDLE_NODE + e, 1.0)}
        seps.append(abs(xs["E_-1"] - xs["E_Gamma"]))
    assert seps[0] == pytest.approx(1.825133e-01, rel=1e-6)
    assert seps[1] == pytest.approx(5.815386e-01, rel=1e-6)
    assert seps[2] == pytest.approx(1.988546e00, rel=1e-6)
    slope = np.polyfit(np.log(eps), np.log(seps), 1)[0]
    assert 0.45 <= slope <= 0.55


def test_eigenvalue_structure_across_families():
    # one exact-zero root everywhere; the surviving pair is purely real at
    # the separatrix-defining saddles and purely imaginary at the centers
    for g in (0.9, 1.0, 1.7):
        for th in (-1.0, 1.0):
            cat = equilibria_11m1(th) if g == 1.0 else equilibria_gamma(g, th)
            for p in cat:
                if p.kind != EQUILIBRIUM:
                    continue
                lam = sorted(p.eigenvalues, key=abs)
                assert lam[0] == 0.0
                assert lam[1] == -lam[2]
                assert lam[2].real == 0.0 or lam[2].imag == 0.0
                if p.label in ("E_tri+", "E_tri-", "E_-1"):
                    assert lam[2].imag == 0.0 and abs(lam[2].real) > 0.0
                if p.label in ("E_Gamma", "E_1"):
                    assert lam[2].real == 0.0 and abs(lam[2].imag) > 0.0


def test_separatrix_energy_values():
    assert separatrix_energy(1.0, -1.0) == pytest.approx(math.log(2.0), abs=1e-13)
    assert separatrix_energy(1.0, 8.0) == pytest.approx(math.log(2.0), abs=1e-13)
    th = -0.7
    assert separatrix_energy(1.0, th) == pytest.approx(
        0.5 * math.log(-4.0 * th), abs=1e-13
    )
    th = 2.9
    assert separatrix_energy(1.0, th) == pytest.approx(
        0.5 * math.log(th / 2.0), abs=1e-13
    )
    assert separatrix_energy(0.4, 1.0) is None
    assert separatrix_energy(0.5, 2.0) is None
    assert separatrix_energy(1.5, 0.0) is None

    for g, th in ((1.7, 1.0), (0.9, -2.0), (1.3, 0.8)):
        spec = ReducedSystemSpec.for_circulations([1.0, g, -1.0])
        want_label = "E_tri+" if th < 0 else "E_-1"
        p = next(q for q in equilibria_gamma(g, th) if q.label == want_label)
        assert separatrix_energy(g, th) == pytest.approx(
            reduced_hamiltonian(spec, p.as_state()), abs=1e-13
        )


def test_critical_offsets():
    assert critical_rho(1.0) == (-1.0, 3.5)
    assert critical_rho(0.4) == (-1.0, None)
    assert critical_rho(5e-324) == (-1.0, None)
    for g, want in (
        (0.9, 2.3613865114740155),
        (1.3, 7.3534450339188035),
        (1.7, 13.919334531179956),
        (2.0, 19.968041645257965),
    ):
        rm, rp = critical_rho(g)
        assert rm == -1.0
        assert rp == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        critical_rho(0.0)


# the closed form at 60 significant digits (mpmath, from the branch formula
# for x_- on the unit leaf); large Gamma approaches 2 e Gamma^2
_CRITICAL_REFERENCE = (
    (0.9, 2.361386511474015743463),
    (1.7, 13.9193345311799547016),
    (2.0, 19.96804164525796520264),
    (10.0, 541.909298085182732711),
    (100.0, 54363.89067816384804043),
    (1e3, 5436561.911038800640713),
    (1e6, 5436563656916.344591549),
    (1e10, 543656365691809047070.3),
    (1e150, 5.436563656918090262344e300),
)


def test_critical_offset_keeps_its_digits_to_the_end_of_the_float_range():
    for g, want in _CRITICAL_REFERENCE:
        assert critical_rho(g)[1] == pytest.approx(want, rel=1e-15)
    top = 5.7e153
    assert critical_rho(top)[1] == pytest.approx(2.0 * math.e * top * top, rel=1e-15)
    for g in (5.8e153, 1e200, sys.float_info.max):
        with pytest.raises(NonFiniteResult):
            critical_rho(g)


def test_critical_offset_solves_the_energy_equation():
    # the closed form should reproduce the leaf radius where the incoming
    # pair's energy meets the saddle level, found here by bisection
    for g in (1.3, 0.9):
        spec = ReducedSystemSpec.for_circulations([1.0, g, -1.0])
        target = math.log(g) + spec.offset

        def gap(th):
            return separatrix_energy(g, th) - target

        lo, hi = 1e-3, 500.0
        assert gap(lo) < 0.0 < gap(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        theta_c = 0.5 * (lo + hi)
        rho_c = (theta_c / g - 1.0) / 2.0
        assert critical_rho(g)[1] == pytest.approx(rho_c, abs=1e-8)


def test_bifurcation_sweep_positive_leaf():
    cols, rows = bifurcation_sweep(1.0, np.linspace(0.80, 0.998, 100))
    assert cols[0] == "Gamma"
    idx = {c: i for i, c in enumerate(cols)}
    gap_at = {}
    for r in rows:
        g = r[idx["Gamma"]]
        if r[idx["E_-1_exists"]] and r[idx["E_Gamma_exists"]]:
            gap_at[g] = abs(r[idx["E_-1_X"]] - r[idx["E_Gamma_X"]])
        assert r[idx["E_tri_exists"]] == 0
        assert r[idx["S_1Gamma_exists"]] == 0
    first = min(gap_at)
    assert first == pytest.approx(GAMMA_SADDLE_NODE, abs=0.01)
    assert gap_at[first] < 1.0
    assert gap_at[max(gap_at)] > 10.0 * gap_at[first]
    # branches blow up approaching the equal-strength pole from below
    last = rows[-1]
    assert last[idx["E_Gamma_X"]] > 50.0
    assert abs(last[idx["S_-1Gamma_X"]]) > 50.0


def test_bifurcation_sweep_negative_leaf():
    cols, rows = bifurcation_sweep(-1.0, np.linspace(0.5, 1.8, 67))
    idx = {c: i for i, c in enumerate(cols)}
    for r in rows:
        assert r[idx["S_1Gamma_X"]] == 0.0
        assert r[idx["S_1Gamma_exists"]] == 1
        assert r[idx["E_tri_exists"]] == 1
        g = r[idx["Gamma"]]
        assert r[idx["E_1_exists"]] == int(g > 1.0)
        assert r[idx["S_-1Gamma_exists"]] == int(g < 1.0)
    with pytest.raises(ValueError):
        bifurcation_sweep(-1.0, np.linspace(0.5, 1.5, 3))  # grid hits Gamma = 1
    with pytest.raises(ValueError):
        bifurcation_sweep(0.0, np.linspace(0.5, 1.5, 10))
    with pytest.raises(ValueError):
        bifurcation_sweep(1.0, [])
    for bad in (-0.2, 0.0, math.inf, math.nan, 1.0 + 1e-13):
        with pytest.raises(ValueError):
            bifurcation_sweep(1.0, [0.5, bad])


def test_singularities_zero_only_their_own_log_argument():
    cases = [
        ([1.0, 1.0, -1.0], equilibria_11m1(-2.0)),
        ([1.0, 2.0, -1.0], equilibria_gamma(2.0, 1.5)),
        ([1.0, 0.9, -1.0], equilibria_gamma(0.9, -1.0)),
        ([1.0, 1.0, 1.0], equilibria_111(1.0)),
    ]
    for circs, cat in cases:
        spec = ReducedSystemSpec.for_circulations(circs)
        for p in cat:
            if p.kind != SINGULARITY:
                continue
            x, _, z = p.coords
            scale = max(1.0, abs(x), abs(z), abs(p.theta))
            for term in spec.terms:
                a = term.arg(x, z, p.theta)
                if term.pair == p.pair:
                    assert abs(a) <= 1e-10 * scale
                else:
                    assert a > 1e-6


def _lab_configuration(point, circulations):
    return lift(ReducedSystemSpec.for_circulations(circulations), point.as_state())


def test_catalog_points_are_lab_relative_equilibria():
    # every reduced equilibrium is a rigidly rotating lab configuration
    for g, th, label in (
        (1.3, 1.0, "E_-1"),
        (0.9, 1.0, "E_Gamma"),
        (1.7, -1.0, "E_1"),
        (1.7, -1.0, "E_tri+"),
    ):
        circs = [1.0, g, -1.0]
        p = next(q for q in equilibria_gamma(g, th) if q.label == label)
        x = _lab_configuration(p, circs)
        v = lab_rhs(x, circs)
        r0 = np.array(conserved(x, circs).r0)
        omegas = []
        for i in range(3):
            d = x[i] - r0
            perp = np.array([-d[1], d[0]])
            omegas.append(float(v[i] @ perp) / float(perp @ perp))
            # purely rotational: no radial velocity component
            assert abs(float(v[i] @ d)) <= 1e-10 * max(1.0, float(d @ d))
        assert max(omegas) - min(omegas) <= 1e-10


def test_collinear_branch_geometry():
    # which vortex sits between the other two, and the triangular shape,
    # pin the labels to lab-frame configurations
    def middle(label, g, th):
        circs = [1.0, g, -1.0]
        cat = equilibria_11m1(th) if g == 1.0 else equilibria_gamma(g, th)
        p = next(q for q in cat if q.label == label)
        x = _lab_configuration(p, circs)
        u = x[1] - x[0]
        u = u / np.hypot(*u)
        t = (x - x.mean(axis=0)) @ u
        a, b = x[1] - x[0], x[2] - x[0]
        assert abs(float(a[0] * b[1] - a[1] * b[0])) <= 1e-10
        return int(np.argsort(t)[1])

    assert middle("E_-1", 1.0, 2.0) == 2
    assert middle("E_-1", 1.3, 1.0) == 2
    assert middle("E_-1", 0.9, 1.0) == 2
    assert middle("E_Gamma", 0.9, 1.0) == 2
    assert middle("E_1", 1.7, -1.0) == 1

    # equal-strength case: the negative vortex bisects the positive pair
    circs = [1.0, 1.0, -1.0]
    p = next(q for q in equilibria_11m1(2.0) if q.label == "E_-1")
    x = _lab_configuration(p, circs)
    assert np.allclose(x[2], 0.5 * (x[0] + x[1]), atol=1e-12)

    # triangular points reconstruct as equilateral triangles
    circs = [1.0, 1.7, -1.0]
    p = next(q for q in equilibria_gamma(1.7, -1.0) if q.label == "E_tri+")
    x = _lab_configuration(p, circs)
    sides = [float(np.hypot(*(x[i] - x[j]))) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert max(sides) - min(sides) <= 1e-12


def test_hierarchical_pair_near_coincidence_singularity():
    # approaching S_-1Gamma along the leaf, the named pair's separation
    # collapses while the other distances stay order one
    g, th = 2.0, 1.0
    circs = [1.0, g, -1.0]
    x_s = 2.0 * g * th / (g * g - 1.0)
    sing = next(p for p in equilibria_gamma(g, th) if p.label == "S_-1Gamma")
    assert sing.coords[0] == pytest.approx(x_s, abs=1e-14)
    from trivortex.reduction import NambuState

    spec = ReducedSystemSpec.for_circulations(circs)
    prev = None
    for eps in (0.05, 0.01, 0.002):
        X = x_s - eps
        s = NambuState(X, 0.0, math.sqrt(th * th + X * X), th, HYPERBOLOID)
        x = lift(spec, s)
        d_pair = float(np.hypot(*(x[1] - x[2])))
        d_other = float(np.hypot(*(x[0] - x[1])))
        assert d_other > 1.0
        if prev is not None:
            assert d_pair < prev
        prev = d_pair
    assert prev < 5e-3
