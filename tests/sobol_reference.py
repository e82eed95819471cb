"""The full-width Sobol' run, kept as a reference for the column-kept one.

A test helper: reference_sobol_indices has the signature and results of
rdsm.sensitivity.sobol_indices, but it builds the whole Saltelli pair A and
B over every column, maps both whole through the distribution, and
evaluates each term once per design matrix: on A, on B, and on each block
of its support, built whole in one (n_base, dim) buffer.  The bootstrap is
the library's _pick_freeze, which bootstrap_reference checks on its own.
"""

import math

import numpy as np

from rdsm.sampling import saltelli_matrices
from rdsm.sensitivity import SobolResult, _pick_freeze, _sorted_unique, _support_rows


def reference_sobol_indices(model, dim, n_base, seed=0, dist=None, catalog=None,
                            n_bootstrap=100):
    names = catalog.names if catalog is not None else tuple(f"x{i}" for i in range(dim))
    terms = getattr(model, "terms", ((range(dim), model),))
    combine = getattr(model, "combine", lambda values: values[0])
    terms = [(_support_rows(support, dim), fn) for support, fn in terms]
    cols = _sorted_unique(np.concatenate([support for support, _ in terms]))
    where = np.full(dim, cols.size)
    where[cols] = np.arange(cols.size)

    a, b = saltelli_matrices(n_base, dim, seed)
    if dist is not None:
        a = dist.transform(a, catalog)
        b = dist.transform(b, catalog)

    def run(fn, x):
        return np.asarray(fn(x)).reshape(-1)

    term_a = [run(fn, a) for _, fn in terms]
    f_a = np.asarray(combine(term_a), dtype=float)
    f_b = np.asarray(combine([run(fn, b) for _, fn in terms]), dtype=float)
    f_ab = np.empty((cols.size + (cols.size < dim), n_base))
    block = a.copy()
    for row, i in enumerate(cols):
        block[:, i] = b[:, i]
        f_ab[row] = combine([run(fn, block) if i in s else v for (s, fn), v in zip(terms, term_a)])
        block[:, i] = a[:, i]
    f_ab[cols.size :] = f_a

    evals = n_base * (dim + 2)
    estimates = _pick_freeze(f_a, f_b, f_ab, n_bootstrap, np.random.default_rng(seed + 1))
    if estimates is None:
        nan = np.full(dim, math.nan)
        return SobolResult(names, nan, nan.copy(), nan.copy(), nan.copy(), evals, True)
    s1, st, boot = estimates
    errors = boot.std(axis=0, ddof=1)[:, where] if len(boot) >= 2 else np.full((2, dim), math.nan)
    return SobolResult(names, s1[where], st[where], *errors, evals, False)
