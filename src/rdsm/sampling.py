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

from dataclasses import dataclass, field
from itertools import product

import numpy as np

__all__ = [
    "DesignMatrix",
    "SaltelliDesign",
    "sample_mc",
    "sample_lhs",
    "sample_lss",
    "saltelli_matrices",
    "default_strata",
]


@dataclass(frozen=True)
class DesignMatrix:
    """Unit-cube sample block with the metadata that reproduces it."""

    values: np.ndarray
    scheme: str
    seed: int
    strata_per_dim: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("design values must be a 2-d array")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("design values must lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _check_nd(n: int, dim: int) -> None:
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    if dim <= 0:
        raise ValueError(f"dimension must be positive, got {dim}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def sample_mc(n: int, dim: int, seed: int) -> DesignMatrix:
    """Independent uniform draws on [0, 1)^dim."""
    _check_nd(n, dim)
    return DesignMatrix(_rng(seed).random((n, dim)), "mc", seed)


def _lhs_values(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    cols = np.empty((n, dim))
    for j in range(dim):
        perm = rng.permutation(n)
        cols[:, j] = (perm + rng.random(n)) / n
    return cols


def sample_lhs(n: int, dim: int, seed: int) -> DesignMatrix:
    """Latin hypercube: one point per stratum [k/n, (k+1)/n) in every dimension.

    Per-dimension stratum permutations are drawn independently.
    """
    _check_nd(n, dim)
    return DesignMatrix(_lhs_values(_rng(seed), n, dim), "lhs", seed)


def default_strata(n: int) -> int:
    """Largest divisor of n not exceeding floor(sqrt(n))."""
    s = int(np.floor(np.sqrt(n)))
    while s > 1 and n % s != 0:
        s -= 1
    return max(s, 1)


def sample_lss(
    n: int, dim: int, seed: int, strata_per_dim: int | None = None
) -> DesignMatrix:
    """Latin stratified design: coarse stratification with Latin marginals.

    Each dimension is split into strata_per_dim coarse cells holding exactly
    n / strata_per_dim points.  When the joint coarse grid has a cell count
    dividing n, cells are filled with exactly equal multiplicity (one point
    per cell when strata_per_dim**dim == n); otherwise the per-dimension
    coarse assignments are balanced independently.  Points are then placed in
    distinct fine strata inside their coarse cell, giving an exact Latin
    hypercube marginal in every dimension.
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
    return DesignMatrix(values, "lss", seed, strata_per_dim=s)


@dataclass(frozen=True)
class SaltelliDesign:
    """Pick-freeze matrices for first/total-order index estimation.

    a and b are independent (n, dim) designs; ab[i] equals a with column i
    taken from b.  Evaluating a model on all blocks costs n * (dim + 2) runs.
    """

    a: np.ndarray
    b: np.ndarray
    ab: np.ndarray = field(repr=False)  # (dim, n, dim)
    seed: int = 0

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]


def saltelli_matrices(n: int, dim: int, seed: int) -> SaltelliDesign:
    """Draw the A/B pair and the dim column-spliced AB blocks.

    The base designs are independent Latin hypercubes, the sampling scheme
    used for the sensitivity sweeps.
    """
    _check_nd(n, dim)
    rng = _rng(seed)
    a = _lhs_values(rng, n, dim)
    b = _lhs_values(rng, n, dim)
    ab = np.empty((dim, n, dim))
    for i in range(dim):
        ab[i] = a
        ab[i][:, i] = b[:, i]
    for arr in (a, b, ab):
        arr.setflags(write=False)
    return SaltelliDesign(a=a, b=b, ab=ab, seed=seed)
