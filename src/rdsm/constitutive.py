"""Pointwise material laws for the bend source model.

Conventions: stresses and strengths share one unit system (the specimen
driver works in psi and inches), strains are dimensionless, fracture energies
are per unit area.  All functions accept scalars or broadcastable numpy
arrays and are pure.

The metal substrate hardens as a power law in equivalent plastic strain.  Ply
damage follows a continuum damage model: effective stress grows as 1/(1-d),
initiation is a stress-ratio-of-one criterion, and post-initiation damage
follows an exponential law regularized by a characteristic length so that a
fixed fracture energy is dissipated regardless of mesh scale.  An
admissibility bound (fracture energy must exceed the elastic energy stored in
one characteristic length at initiation) keeps the law monotone.  Cohesive
layers use a triangular traction-separation law with quadratic stress
initiation and a power-law mix of mode I and shear toughness; its
stiffness-loss damage, traction and dissipation are written here once.
"""

from __future__ import annotations

import numpy as np

from .errors import AdmissibilityError


def jc_stress(eps_p, a, b, n):
    """Power-law flow stress a + b * eps_p**n at equivalent plastic strain eps_p."""
    eps_p = np.asarray(eps_p, dtype=float)
    if np.any(eps_p < 0.0):
        raise ValueError("plastic strain must be nonnegative")
    return a + b * eps_p**n


def cdm_initiation_energy(x, e):
    """U0 = x**2 / (2 e), the elastic energy density at initiation."""
    return x * x / (2.0 * e)


def cdm_margin(g_f, x, e, l_c):
    """The damage law's admissibility margin g_f - U0 * l_c; it softens
    only where the margin is positive."""
    return g_f - cdm_initiation_energy(x, e) * l_c


def cdm_damage_evolution(k, x, e, g_f, l_c):
    """Damage after initiation at stress ratio k = effective stress / strength.

    d = 1 - (1/k) * exp(-2 * U0 * l_c * (k - 1) / (g_f - U0 * l_c)) with
    U0 = x**2 / (2 e), the elastic energy density at initiation.  Requires
    k >= 1 and the admissibility margin g_f - U0 * l_c > 0; the result is 0
    at k = 1 and increases monotonically toward 1.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 1.0):
        raise ValueError("stress ratio k must be >= 1 at and after initiation")
    x = np.asarray(x, dtype=float)
    e = np.asarray(e, dtype=float)
    u0 = cdm_initiation_energy(x, e)
    margin = cdm_margin(np.asarray(g_f, dtype=float), x, e, l_c)
    if np.any(margin <= 0.0):
        raise AdmissibilityError(
            "fracture energy does not exceed the elastic energy over one "
            "characteristic length; damage law would not soften"
        )
    return 1.0 - (1.0 / k) * np.exp(-2.0 * u0 * l_c * (k - 1.0) / margin)


def cdm_shear_damage(k12, alpha12, d12_max=1.0):
    """Logarithmic shear damage alpha12 * ln(k12), clamped to [0, d12_max]."""
    k12 = np.asarray(k12, dtype=float)
    if np.any(k12 < 1.0):
        raise ValueError("shear stress ratio k12 must be >= 1 at and after initiation")
    return np.clip(alpha12 * np.log(k12), 0.0, d12_max)


def czm_damage(delta_max, delta0, delta_f):
    """Stiffness-loss damage of the triangular law at delta_max, one minus the
    secant stiffness over the initial one: 0 up to delta0, 1 from delta_f on,
    and exactly 0 where the law has not initiated (all lengths 0)."""
    d = np.clip(delta_max, delta0, delta_f)
    span = np.where(delta_f > delta0, delta_f - delta0, 1.0)
    frac = delta_f * (d - delta0) / (np.maximum(d, 1e-300) * span)
    return np.clip(frac, 0.0, 1.0)


def czm_traction(delta, k, t0, gc, delta_max=None):
    """Triangular traction-separation law with secant unloading.

    Rising branch k * delta up to the initiation separation t0 / k, then a
    linear descent reaching zero at 2 * gc / t0 (so the enclosed area is gc).
    If delta_max (the largest separation seen so far) exceeds delta, the
    point unloads along the secant through the origin at its damaged
    stiffness.
    """
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0.0):
        raise ValueError("separation must be nonnegative")
    delta0 = np.asarray(t0, dtype=float) / np.asarray(k, dtype=float)
    delta_f = 2.0 * np.asarray(gc, dtype=float) / np.asarray(t0, dtype=float)
    if np.any(delta_f <= delta0):
        raise AdmissibilityError(
            "cohesive failure separation does not exceed the initiation "
            "separation; triangular law is degenerate"
        )
    dmax = delta if delta_max is None else np.maximum(delta_max, delta)
    return k * (1.0 - czm_damage(dmax, delta0, delta_f)) * delta


def czm_dissipated(delta_max, t0, delta0, delta_f):
    """Energy per unit area dissipated by the triangular law at delta_max.

    Closed form 0.5 * t0 * delta_f * (delta_max - delta0) / (delta_f - delta0)
    on [delta0, delta_f]; equals the full toughness at delta_f.
    """
    d = np.clip(delta_max, delta0, delta_f)
    span = np.where(delta_f > delta0, delta_f - delta0, 1.0)
    return np.where(delta_f > delta0, 0.5 * t0 * delta_f * (d - delta0) / span, 0.0)


def bk_mixed_mode_gc(g_i, g_ii, g_iii, gc_i, gc_ii, exponent):
    """Mixed-mode toughness: gc_i + (gc_ii - gc_i) * shear_fraction**exponent.

    shear_fraction is (g_ii + g_iii) / (g_i + g_ii + g_iii) built from the
    current energy release rates, which must be nonnegative with a positive
    total.
    """
    g_i = np.asarray(g_i, dtype=float)
    g_ii = np.asarray(g_ii, dtype=float)
    g_iii = np.asarray(g_iii, dtype=float)
    if np.any(g_i < 0.0) or np.any(g_ii < 0.0) or np.any(g_iii < 0.0):
        raise ValueError("energy release rates must be nonnegative")
    total = g_i + g_ii + g_iii
    if np.any(total <= 0.0):
        raise ValueError("total energy release rate must be positive")
    frac = (g_ii + g_iii) / total
    return gc_i + (gc_ii - gc_i) * frac**exponent
