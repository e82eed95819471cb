"""Parameter screening and global sensitivity analysis.

Screening ranks parameters by FDR logworth: each parameter gets a two-sided
t-test p-value on the slope of a univariate linear regression of the output
on that parameter alone, the 41 p-values are adjusted for multiplicity by the
Benjamini-Hochberg step-up rule, and logworth = -log10 of the adjusted value.
A retention rule then keeps the significant head of the ladder: parameters at
or above the 1.3 logworth line (adjusted p of 0.05), truncated where the
ladder falls off a cliff, capped at a fixed count.

Global sensitivity uses first- and total-order Sobol' indices from the Jansen
pick-freeze estimators on a Saltelli design with Latin hypercube base
matrices, with bootstrap standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as _student_t

from .catalog import ParameterCatalog, SamplingDistribution
from .sampling import saltelli_matrices

__all__ = [
    "ParameterScreen",
    "ScreeningResult",
    "SobolResult",
    "screen_fdr_logworth",
    "retain_parameters",
    "benjamini_hochberg",
    "sobol_indices",
]

_P_FLOOR = 1e-300  # applied before the log so logworth stays finite
LOGWORTH_FLOOR = 1.3  # adjusted p of 0.05
DROP_RATIO = 0.35


@dataclass(frozen=True)
class ParameterScreen:
    """One parameter's screening row."""

    name: str
    raw_p: float
    fdr_p: float
    logworth: float
    zero_variance: bool = False


@dataclass(frozen=True)
class ScreeningResult:
    """Screening ladder for one output, descending by logworth.

    Ties keep catalog order.  retained holds the subset that survives the
    retention rule; retain_parameters re-derives it under another cap.
    """

    output_name: str
    entries: tuple[ParameterScreen, ...]
    retained: tuple[str, ...]

    def entry(self, name: str) -> ParameterScreen:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"unknown parameter {name!r}")


def benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up FDR adjustment with enforced monotonicity, clipped at 1.

    Equals the brute-force definition: for the i-th smallest p, the minimum
    over j >= i of m * p_(j) / j.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p-values must be a nonempty 1-d array")
    if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    # adjusted >= raw holds exactly in real arithmetic (m/j >= 1 and the
    # step-up minimum runs over larger order statistics); repair the one-ulp
    # rounding of p * m / m so the invariant survives floating point
    return np.maximum(out, p)


def _slope_p_values(x: np.ndarray, y: np.ndarray):
    """Two-sided t-test p-value per column for the simple-regression slope."""
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    sxx = np.einsum("ij,ij->j", xc, xc)
    # exact-constant columns (and outputs) carry no association; the centered
    # sums alone can leave roundoff residue, so test the raw spread
    zero_var = np.ptp(x, axis=0) == 0.0
    syy = float(yc @ yc)
    p = np.ones(x.shape[1])
    if np.ptp(y) > 0.0 and syy > 0.0:
        safe_sxx = np.where(zero_var, 1.0, sxx)
        sxy = yc @ xc
        slope = sxy / safe_sxx
        rss = np.maximum(syy - slope * sxy, 0.0)
        df = n - 2
        sigma2 = rss / df
        with np.errstate(divide="ignore"):
            tstat = np.abs(slope) / np.sqrt(np.where(sigma2 > 0.0, sigma2, np.inf) / safe_sxx)
        tstat = np.where(sigma2 > 0.0, tstat, np.inf)
        p = np.where(zero_var, 1.0, 2.0 * _student_t.sf(tstat, df))
    return p, zero_var


def retain_parameters(screening: ScreeningResult, max_k: int) -> tuple[str, ...]:
    """Significant head of the logworth ladder.

    Candidates are the entries at or above LOGWORTH_FLOOR.  The ladder is
    then truncated at the cliff nearest the noise floor: the last consecutive
    pair whose ratio next/current falls below DROP_RATIO (scanning the whole
    candidate ladder, the cut that best separates the significant cluster
    from the tail).  The result is capped at max_k; an empty set means
    nothing screened in.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    lw = [e.logworth for e in screening.entries]
    k = 0
    while k < len(lw) and lw[k] >= LOGWORTH_FLOOR:
        k += 1
    candidates = lw[:k]
    if not candidates:
        return ()
    cut = len(candidates)
    for i in range(len(candidates) - 1):
        if candidates[i + 1] < DROP_RATIO * candidates[i]:
            cut = i + 1
    return tuple(e.name for e in screening.entries[: min(cut, max_k)])


def screen_fdr_logworth(
    x,
    y,
    names,
    output_name: str,
    max_k: int = 3,
) -> ScreeningResult:
    """Rank parameters for one output by FDR logworth and apply retention.

    x is (n, m) in catalog column order, y is the output column; names label
    the columns.  Requires at least 30 rows.  A zero-variance input column is
    reported with p = 1 and flagged rather than failing the screen.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    names = tuple(names)
    if x.shape[1] != len(names):
        raise ValueError(f"x has {x.shape[1]} columns but {len(names)} names given")
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y disagree on the number of rows")
    if x.shape[0] < 30:
        raise ValueError(f"need at least 30 rows to screen, got {x.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("screening data contains non-finite values")

    raw_p, zero_var = _slope_p_values(x, y)
    fdr_p = benjamini_hochberg(raw_p)
    logworth = -np.log10(np.maximum(fdr_p, _P_FLOOR))
    # descending logworth; stable sort keeps catalog order on ties
    order = np.argsort(-logworth, kind="stable")
    entries = tuple(
        ParameterScreen(
            name=names[j],
            raw_p=float(raw_p[j]),
            fdr_p=float(fdr_p[j]),
            logworth=float(logworth[j]),
            zero_variance=bool(zero_var[j]),
        )
        for j in order
    )
    result = ScreeningResult(output_name=output_name, entries=entries, retained=())
    retained = retain_parameters(result, max_k)
    return ScreeningResult(output_name=output_name, entries=entries, retained=retained)


# -- Sobol' indices ----------------------------------------------------------


@dataclass(frozen=True)
class SobolResult:
    """First/total-order indices with bootstrap standard errors."""

    names: tuple[str, ...]
    s1: np.ndarray
    st: np.ndarray
    s1_stderr: np.ndarray
    st_stderr: np.ndarray
    evaluations_used: int
    degenerate: bool = False

    def __post_init__(self):
        for attr in ("s1", "st", "s1_stderr", "st_stderr"):
            arr = np.asarray(getattr(self, attr), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)


def _jansen(f_a, f_b, f_ab):
    """Jansen estimators from pick-freeze evaluations; f_ab is (dim, n)."""
    n = f_a.shape[0]
    pooled = np.concatenate([f_a, f_b])
    v = float(np.var(pooled))
    if v <= 0.0:
        return None, None, v
    st = ((f_a[None, :] - f_ab) ** 2).sum(axis=1) / (2.0 * n) / v
    s1 = (v - ((f_b[None, :] - f_ab) ** 2).sum(axis=1) / (2.0 * n)) / v
    return s1, st, v


def sobol_indices(
    model_eval,
    dim: int,
    n_base: int,
    seed: int = 0,
    dist: SamplingDistribution | None = None,
    catalog: ParameterCatalog | None = None,
    names=None,
    n_bootstrap: int = 100,
) -> SobolResult:
    """First- and total-order Sobol' indices of a deterministic model.

    model_eval takes an (n, dim) batch and returns n outputs.  Designs are
    Saltelli pick-freeze blocks with LHS base matrices on the unit cube,
    mapped through (dist, catalog) into parameter space when given.  The
    pooled A and B evaluations estimate the output variance; a constant
    output yields an explicit degenerate result.  Bootstrap standard errors
    resample rows with replacement.
    """
    if n_base < 128:
        raise ValueError(f"need n_base >= 128, got {n_base}")
    if catalog is not None and names is None:
        names = catalog.names
    if names is None:
        names = tuple(f"x{i}" for i in range(dim))
    names = tuple(names)
    if len(names) != dim:
        raise ValueError(f"got {len(names)} names for dim {dim}")

    design = saltelli_matrices(n_base, dim, seed)

    def run(u):
        if dist is not None:
            if catalog is None:
                raise ValueError("dist requires the catalog to map units into")
            u = dist.transform(u, catalog)
        out = np.asarray(model_eval(u), dtype=float).reshape(-1)
        if out.shape[0] != u.shape[0]:
            raise ValueError("model_eval must return one output per row")
        return out

    f_a = run(design.a)
    f_b = run(design.b)
    f_ab = np.empty((dim, n_base))
    for i in range(dim):
        f_ab[i] = run(design.ab[i])

    evals = n_base * (dim + 2)
    s1, st, v = _jansen(f_a, f_b, f_ab)
    if s1 is None:
        nan = np.full(dim, math.nan)
        return SobolResult(names, nan, nan.copy(), nan.copy(), nan.copy(), evals, True)

    rng = np.random.default_rng(seed + 1)
    boot_s1 = np.empty((n_bootstrap, dim))
    boot_st = np.empty((n_bootstrap, dim))
    kept = 0
    for _ in range(n_bootstrap):
        idx = rng.integers(0, n_base, size=n_base)
        bs1, bst, _ = _jansen(f_a[idx], f_b[idx], f_ab[:, idx])
        if bs1 is None:
            continue
        boot_s1[kept] = bs1
        boot_st[kept] = bst
        kept += 1
    if kept >= 2:
        s1_err = boot_s1[:kept].std(axis=0, ddof=1)
        st_err = boot_st[:kept].std(axis=0, ddof=1)
    else:
        s1_err = np.full(dim, math.nan)
        st_err = np.full(dim, math.nan)
    return SobolResult(names, s1, st, s1_err, st_err, evals, False)
