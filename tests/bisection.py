"""Bisection references for the bend model's closed-form solves.

Test helpers: bisect_power_hardening is the 52-step bisection return map,
kept as a reference for the Newton solve; it has the signature of
rdsm.bend._solve_power_hardening, so a test can patch it in and run the bend
model against it.  bisect_feedback_separation is a reference for the
interface's implicit damage feedback, rdsm.bend._feedback_separation, and
bisect_initiation for the cohesive banks' initiation within a step.
"""

import numpy as np

from rdsm.constitutive import czm_damage


def bisect_power_hardening(total, stiffness, y0, coef, expo, lo):
    """Root of stiffness*(total - e) = y0 + coef*e**expo, bisected on [lo, total].

    All arguments are equal-shape arrays; the caller guarantees the bracket
    (elastic trial above the current flow stress).
    """
    lo = lo.copy()
    hi = total.copy()
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        f = stiffness * (total - mid) - y0 - coef * mid**expo
        above = f > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def bisect_feedback_separation(r, h, d0, df, fb, steps=200):
    """Smallest root x >= 0 of x - r*(1 + fb*D(max(h, x))), bisected per point.

    D is the triangular damage, czm_damage(., d0, df), and r > 0.  The
    residual is -r*(1 + fb*D(h)) < 0 at x = 0 and stays negative up to its
    smallest root: linear in x up to h, and convex from max(h, d0) on, where
    D is concave.  So the bracket is [0, h] where the residual at h is
    nonnegative, else [0, r*(1 + fb)], whose top is nonnegative since D <= 1.
    """

    def residual(x):
        return x - r * (1.0 + fb * czm_damage(np.maximum(h, x), d0, df))

    lo = np.zeros_like(r)
    hi = np.where(residual(h) >= 0.0, h, r * (1.0 + fb))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = residual(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def bisect_initiation(start, end, scale, steps=200):
    """Fraction t in [0, 1] of the segment from start to end at which the
    quadratic criterion |scale * (start + t*(end - start))|**2 reaches 1,
    bisected per point.

    start, end and scale are (2, ...) arrays: the normal and shear drivers
    and their traction scales k / t0.  The criterion is below 1 at t = 0 and
    at least 1 at t = 1, and convex in t, so it crosses 1 once.
    """

    def quad(t):
        return np.square(scale * (start + t * (end - start))).sum(axis=0)

    lo, hi = np.zeros(start.shape[1:]), np.ones(start.shape[1:])
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = quad(mid) < 1.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi
