"""The 52-step bisection return map, kept as a reference for the Newton solve.

A test helper: it has the signature of rdsm.bend._solve_power_hardening, so a
test can patch it in and run the bend model against it.
"""

import numpy as np


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
