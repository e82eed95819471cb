"""The gather-and-square bootstrap, kept as a reference for the count-weighted one.

A test helper: reference_pick_freeze has the signature and results of
rdsm.sensitivity._pick_freeze, but each resample gathers its rows of f(A),
f(B) and every block by fancy indexing, and subtracts and squares them
afresh.  The pooled variance of a resample is np.var of the gathered rows.
It leaves f_ab as it found it.
"""

import numpy as np


def _jansen(f_a, f_b, f_ab):
    """Jansen estimators from pick-freeze evaluations; f_ab is (rows, n).
    None when f_a and f_b pooled have no spread."""
    n = f_a.shape[0]
    v = float(np.var(np.concatenate([f_a, f_b])))
    if v <= 0.0:
        return None
    st = ((f_a[None, :] - f_ab) ** 2).sum(axis=1) / (2.0 * n) / v
    s1 = (v - ((f_b[None, :] - f_ab) ** 2).sum(axis=1) / (2.0 * n)) / v
    return s1, st


def reference_pick_freeze(f_a, f_b, f_ab, n_bootstrap, rng):
    """s1, st and a (kept, 2, rows) stack of their replicates, or None."""
    estimates = _jansen(f_a, f_b, f_ab)
    if estimates is None:
        return None
    n = f_a.shape[0]
    boot = []
    for _ in range(n_bootstrap):
        idx = rng.integers(0, n, size=n)
        replicate = _jansen(f_a[idx], f_b[idx], f_ab[:, idx])
        if replicate is None:
            continue
        boot.append(replicate)
    return (*estimates, np.reshape(boot, (-1, 2, f_ab.shape[0])))
