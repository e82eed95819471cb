"""Unit-cube experiment designs: Monte Carlo, Latin hypercube, Latin
stratified, and pick-freeze matrix pairs for variance-based sensitivity.

All samplers draw from a seeded PCG64 generator, so a (scheme, n, dim, seed)
tuple fully determines the design.  Latin hypercube designs place exactly one
point in each of the n equal-width strata of every dimension.  Latin
stratified designs additionally balance points over a coarse per-dimension
grid of strata_per_dim cells (and over the joint coarse grid whenever the
cell count divides n), while keeping exact Latin marginals; strata_per_dim
equal to n recovers a plain Latin hypercube.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def _check_nd(n: int, dim: int) -> None:
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def sample_mc(n: int, dim: int, seed: int) -> np.ndarray:
    """Independent uniform draws on [0, 1)^dim, as a read-only (n, dim) array."""
    _check_nd(n, dim)
    return _frozen(_rng(seed).random((n, dim)))


def _lhs_values(rng: np.random.Generator, n: int, dim: int, columns=None) -> np.ndarray:
    """Latin hypercube columns, each of the dim drawn in turn from rng, of
    which the (n, len(columns)) result keeps those in columns (all by
    default)."""
    slot = {j: k for k, j in enumerate(range(dim) if columns is None else columns)}
    values = np.empty((n, len(slot)))
    for j in range(dim):
        perm, u = rng.permutation(n), rng.random(n)
        if j in slot:
            values[:, slot[j]] = (perm + u) / n
    return values


def sample_lhs(n: int, dim: int, seed: int) -> np.ndarray:
    """Latin hypercube: one point per stratum [k/n, (k+1)/n) in every dimension.

    Per-dimension stratum permutations are drawn independently.  Returns a
    read-only (n, dim) array.
    """
    _check_nd(n, dim)
    return _frozen(_lhs_values(_rng(seed), n, dim))


def default_strata(n: int) -> int:
    """Largest divisor of n not exceeding floor(sqrt(n))."""
    s = int(np.floor(np.sqrt(n)))
    while s > 1 and n % s != 0:
        s -= 1
    return max(s, 1)


def sample_lss(
    n: int, dim: int, seed: int, strata_per_dim: int | None = None
) -> np.ndarray:
    """Latin stratified design: coarse stratification with Latin marginals.

    Each dimension is split into strata_per_dim coarse cells holding exactly
    n / strata_per_dim points.  When the joint coarse grid has a cell count
    dividing n, cells are filled with exactly equal multiplicity (one point
    per cell when strata_per_dim**dim == n); otherwise the per-dimension
    coarse assignments are balanced independently.  Points are then placed in
    distinct fine strata inside their coarse cell, giving an exact Latin
    hypercube marginal in every dimension.  Returns a read-only (n, dim)
    array.
    """
    _check_nd(n, dim)
    if strata_per_dim is None:
        strata_per_dim = default_strata(n)
    s = int(strata_per_dim)
    if s < 1 or s > n:
        raise ValueError(f"strata_per_dim must be in [1, {n}], got {s}")
    if n % s != 0:
        raise ValueError(f"sample count {n} is not divisible by strata_per_dim {s}")
    rng = _rng(seed)
    m = n // s  # points per coarse stratum, per dimension

    cells = s**dim
    if cells <= n and n % cells == 0:
        # joint balance: every coarse grid cell gets exactly n / s^dim points
        grid = np.array(list(product(range(s), repeat=dim)), dtype=int)
        coarse = np.repeat(grid, n // cells, axis=0)
        coarse = coarse[rng.permutation(n)]
    else:
        coarse = np.empty((n, dim), dtype=int)
        base = np.repeat(np.arange(s), m)
        for j in range(dim):
            coarse[:, j] = base[rng.permutation(n)]

    # Latinize: inside coarse stratum k of dimension j, spread the m points
    # over the m fine strata [k*m, (k+1)*m) in a random order.
    values = np.empty((n, dim))
    for j in range(dim):
        fine = np.empty(n, dtype=int)
        for k in range(s):
            rows = np.flatnonzero(coarse[:, j] == k)
            fine[rows] = k * m + rng.permutation(m)
        values[:, j] = (fine + rng.random(n)) / n
    return _frozen(values)


def saltelli_matrices(
    n: int, dim: int, seed: int, columns=None
) -> tuple[np.ndarray, np.ndarray]:
    """The read-only base pair (a, b) of a pick-freeze design.

    The bases are independent Latin hypercubes, the sampling scheme used for
    the sensitivity sweeps.  Block i of the design is a with column i taken
    from b; evaluating a model on a, b and every block costs n * (dim + 2)
    runs.  Each matrix is (n, dim), or (n, len(columns)) when columns, a
    strictly increasing list of indices into the dim columns, names the ones
    to keep.  Every column is drawn either way, so a kept column holds the
    same values as in the full pair.
    """
    _check_nd(n, dim)
    if columns is not None:
        cols = np.asarray(columns)
        if cols.ndim != 1 or cols.size == 0 or cols.dtype.kind not in "iu":
            raise ValueError("columns must be a nonempty list of integer indices")
        if cols[0] < 0 or cols[-1] >= dim or np.any(cols[1:] <= cols[:-1]):
            raise ValueError(f"columns must increase strictly within [0, {dim - 1}]")
        columns = cols.tolist()
    rng = _rng(seed)
    a = _lhs_values(rng, n, dim, columns)
    b = _lhs_values(rng, n, dim, columns)
    return _frozen(a), _frozen(b)
