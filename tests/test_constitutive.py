import math

import numpy as np
import pytest

from rdsm.constitutive import (
    bk_mixed_mode_gc,
    cdm_damage_evolution,
    cdm_shear_damage,
    czm_dissipated,
    czm_traction,
    jc_stress,
)
from rdsm.errors import AdmissibilityError


def test_power_hardening_oracle():
    # sigma = a + b * eps^n at the aluminum calibration point
    assert jc_stress(0.2, 29.8, 103.6, 0.607) == pytest.approx(
        68.80182800592101, rel=1e-12
    )
    assert jc_stress(0.0, 29.8, 103.6, 0.607) == pytest.approx(29.8, rel=1e-12)
    assert jc_stress(1.0, 29.8, 103.6, 0.607) == pytest.approx(133.4, rel=1e-12)
    with pytest.raises(ValueError):
        jc_stress(-0.1, 29.8, 103.6, 0.607)


def test_cdm_damage_evolution_oracle():
    d = cdm_damage_evolution(1.5, 53e3, 2.8e6, 150.0, 0.04)
    assert d == pytest.approx(0.4287236023501173, rel=1e-12)
    assert cdm_damage_evolution(1.0, 53e3, 2.8e6, 150.0, 0.04) == 0.0
    # d -> 1 as the overstress ratio grows
    assert cdm_damage_evolution(200.0, 53e3, 2.8e6, 150.0, 0.04) > 0.99
    # monotone in k
    ks = np.linspace(1.0, 5.0, 50)
    ds = cdm_damage_evolution(ks, 53e3, 2.8e6, 150.0, 0.04)
    assert np.all(np.diff(ds) > 0.0)


def test_cdm_damage_requires_positive_margin():
    # u0 * lc = 501.607 * 0.04 = 20.06 > g_f = 15
    with pytest.raises(AdmissibilityError):
        cdm_damage_evolution(1.5, 53e3, 2.8e6, 15.0, 0.04)
    with pytest.raises(ValueError):
        cdm_damage_evolution(0.9, 53e3, 2.8e6, 150.0, 0.04)


def test_shear_damage_log_law():
    d = cdm_shear_damage(2.0, 0.2767, d12_max=0.714)
    assert d == pytest.approx(0.2767 * math.log(2.0), rel=1e-12)
    assert cdm_shear_damage(1.0, 0.2767, d12_max=0.714) == 0.0
    assert cdm_shear_damage(1e9, 0.2767, d12_max=0.714) == 0.714
    with pytest.raises(ValueError):
        cdm_shear_damage(0.5, 0.2767)


def test_shear_hardening():
    # the ply matrix shear flow stress is the same power law at the shear
    # calibration point
    assert jc_stress(0.0, 5.16e3, 0.65e3, 0.729) == pytest.approx(5.16e3)
    got = jc_stress(0.01, 5.16e3, 0.65e3, 0.729)
    assert got == pytest.approx(5.16e3 + 0.65e3 * 0.01**0.729, rel=1e-12)
    with pytest.raises(ValueError):
        jc_stress(-1e-3, 5.16e3, 0.65e3, 0.729)


def test_czm_traction_envelope_and_unloading():
    k, t0, gc = 1e7, 7.6e3, 7.6
    delta0 = t0 / k
    delta_f = 2.0 * gc / t0
    assert czm_traction(0.5 * delta0, k, t0, gc) == pytest.approx(0.5 * t0)
    assert czm_traction(delta0, k, t0, gc) == pytest.approx(t0)
    mid = 0.5 * (delta0 + delta_f)
    expected = t0 * (delta_f - mid) / (delta_f - delta0)
    assert czm_traction(mid, k, t0, gc) == pytest.approx(expected)
    assert czm_traction(delta_f * 1.01, k, t0, gc) == 0.0
    # secant unloading returns along the damaged stiffness
    t_half = czm_traction(0.5 * mid, k, t0, gc, delta_max=mid)
    assert t_half == pytest.approx(0.5 * expected, rel=1e-12)
    with pytest.raises(ValueError):
        czm_traction(-1e-6, k, t0, gc)


def _envelope_secant_traction(delta, k, t0, gc, delta_max=None):
    """The law as a piecewise envelope and a secant through the origin."""
    delta0, delta_f = t0 / k, 2.0 * gc / t0

    def envelope(d):
        descending = t0 * (d - delta_f) / (delta0 - delta_f)
        return np.where(d <= delta0, k * d, np.where(d >= delta_f, 0.0, descending))

    if delta_max is None:
        return envelope(delta)
    dmax = np.maximum(delta_max, delta)
    return np.where(dmax > 0.0, envelope(dmax) / np.where(dmax > 0.0, dmax, 1.0), k) * delta


@pytest.mark.parametrize(
    "k, t0, gc", [(1e7, 7.6e3, 7.6), (2.5e8, 4.9e3, 16.6), (3.1e5, 55.0, 0.4), (1e4, 7.6e3, 5e3)]
)
def test_czm_traction_matches_envelope_and_secant(k, t0, gc):
    delta0, delta_f = t0 / k, 2.0 * gc / t0
    grid = np.union1d(np.linspace(0.0, 1.25 * delta_f, 20001), [delta0, delta_f])
    np.testing.assert_allclose(
        czm_traction(grid, k, t0, gc), _envelope_secant_traction(grid, k, t0, gc),
        rtol=0.0, atol=1e-12 * t0,
    )
    # unloading below every largest separation, from before the peak to past failure
    for dmax in (0.0, 0.5 * delta0, delta0, 0.5 * (delta0 + delta_f), delta_f, 1.1 * delta_f):
        below = np.linspace(0.0, dmax, 2001)
        np.testing.assert_allclose(
            czm_traction(below, k, t0, gc, delta_max=dmax),
            _envelope_secant_traction(below, k, t0, gc, delta_max=dmax),
            rtol=0.0, atol=1e-12 * t0,
        )


def test_czm_softening_area_equals_gc():
    k, t0, gc = 1e7, 7.6e3, 7.6
    delta_f = 2.0 * gc / t0
    grid = np.linspace(0.0, delta_f, 400001)
    tr = czm_traction(grid, k, t0, gc)
    assert np.trapezoid(tr, grid) == pytest.approx(gc, rel=1e-6)


def test_czm_partial_dissipation_matches_quadrature():
    # dissipated = work done along the envelope minus the elastic energy
    # recoverable along the secant, at every separation between the kinks
    k, t0, gc = 1e7, 7.6e3, 7.6
    delta0 = t0 / k
    delta_f = 2.0 * gc / t0
    for d in np.linspace(delta0, delta_f, 9):
        grid = np.linspace(0.0, d, 200001)
        grid = np.union1d(grid, [delta0]) if d > delta0 else grid
        work = np.trapezoid(czm_traction(grid, k, t0, gc), grid)
        recoverable = 0.5 * czm_traction(d, k, t0, gc) * d
        assert czm_dissipated(d, t0, delta0, delta_f) == pytest.approx(
            work - recoverable, rel=1e-6, abs=1e-9 * gc
        )
    assert czm_dissipated(delta0, t0, delta0, delta_f) == 0.0
    assert czm_dissipated(delta_f, t0, delta0, delta_f) == pytest.approx(gc, rel=1e-12)


def test_czm_degenerate_lengths_rejected():
    # delta_f <= delta0 when gc is too small for the strength
    with pytest.raises(AdmissibilityError):
        czm_traction(1e-3, k=1e4, t0=7.6e3, gc=1e-3)


def test_bk_mixed_mode_oracle():
    # 50% shear fraction from equal opening and shear rates
    got = bk_mixed_mode_gc(0.5, 0.5, 0.0, 7.6, 16.6, 2.6)
    assert got == pytest.approx(9.084446399619505, rel=1e-12)
    assert bk_mixed_mode_gc(1.0, 0.0, 0.0, 7.6, 16.6, 2.6) == pytest.approx(7.6)
    assert bk_mixed_mode_gc(0.0, 1.0, 0.0, 7.6, 16.6, 2.6) == pytest.approx(16.6)
    # modes II and III pool into one shear fraction
    a = bk_mixed_mode_gc(0.5, 0.3, 0.2, 7.6, 16.6, 2.6)
    b = bk_mixed_mode_gc(0.5, 0.5, 0.0, 7.6, 16.6, 2.6)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(ValueError):
        bk_mixed_mode_gc(-0.1, 1.0, 0.0, 7.6, 16.6, 2.6)
    with pytest.raises(ValueError):
        bk_mixed_mode_gc(0.0, 0.0, 0.0, 7.6, 16.6, 2.6)
