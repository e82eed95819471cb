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

from .catalog import ParameterCatalog, SamplingDistribution
from .errors import NumericalFailureError
from .sampling import saltelli_matrices
from .surrogate import _one_blas_thread, row_blocks

_P_FLOOR = 1e-300  # applied before the log so logworth stays finite
LOGWORTH_FLOOR = 1.3  # adjusted p of 0.05
DROP_RATIO = 0.35
SCREEN_MIN_ROWS = 30  # fewest rows a screen accepts


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

    entries: tuple[ParameterScreen, ...]
    retained: tuple[str, ...]


def benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up FDR adjustment with enforced monotonicity, clipped at 1.

    Equals the brute-force definition: for the i-th smallest p, the minimum
    over j >= i of p_(j) * (m / j).  m / j is at least 1 in floating point
    too, so no adjusted value rounds below its raw p.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p-values must be a nonempty 1-d array")
    if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * (m / np.arange(1, m + 1))
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out


@_one_blas_thread()
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
        p = np.where(zero_var, 1.0, _t_two_sided(tstat, df))
    return p, zero_var


_CF_CAP = 200  # terms per element; every t at df 28 to 1e8 converges within 60
_CF_EPS = 1e-15


def _stirling_tail(z: float) -> float:
    """lnGamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), within 5e-16 for z >= 14."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _ln_beta_half(a: float) -> float:
    """ln B(a, 1/2) = ln sqrt(pi) - ln(Gamma(a + 1/2) / Gamma(a)) for a >= 14.

    The Gamma ratio is taken from Stirling's series of each factor, whose
    large leading terms cancel algebraically; differencing two lgamma values
    near ln Gamma(a) would instead leave an error of a few ulp of that value.
    """
    ln_ratio = (
        0.5 * math.log(a)
        + (a * math.log1p(0.5 / a) - 0.5)
        + (_stirling_tail(a + 0.5) - _stirling_tail(a))
    )
    return 0.5 * math.log(math.pi) - ln_ratio


def _beta_cf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction of I_x(a, b) (Numerical Recipes 6.4), modified Lentz.

    Each element stops once its own last factor is within _CF_EPS of 1, so a
    slow element does not hold the others; NumericalFailureError after
    _CF_CAP terms.  Lentz's usual guard against a zero denominator is left
    out: for x below (a + 1)/(a + b + 2) and one of a, b equal to 1/2, no
    denominator fell below about 2/(a + b + 2) in magnitude on a dense grid
    of t for df 28 to 1e8.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / (1.0 - (a + b) / (a + 1.0) * x)
    h = d.copy()
    for m in range(1, _CF_CAP + 1):
        for coef in (
            m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            step = coef * x
            d = 1.0 / (1.0 + step * d)
            c = 1.0 + step / c
            delta = d * c
            h *= delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[idx[done]] = h[done]
            live = ~done
            idx, x, c, d, h = idx[live], x[live], c[live], d[live], h[live]
        if idx.size == 0:
            return out
    raise NumericalFailureError(f"t tail did not converge in {_CF_CAP} terms")


def _t_two_sided(t: np.ndarray, df: int) -> np.ndarray:
    """Two-sided Student t tail P(|T| >= t) for t >= 0, df >= 28.

    P = I_x(df/2, 1/2) with x = df/(df + t^2), the regularized incomplete
    beta, from its continued fraction in x or, past the point where that
    converges slowly, in 1 - x (I_x(a, b) = 1 - I_{1-x}(b, a)).  The logs of
    x and 1 - x come from s = t^2/df through log1p, never from x itself.
    t = 0 gives exactly 1 and t = inf exactly 0.
    """
    a, b = 0.5 * df, 0.5
    with np.errstate(over="ignore"):
        s = t * t / df
        p = np.where(s == 0.0, 1.0, 0.0)
        finite = (s > 0.0) & (s < np.inf)
        s = s[finite]
        # 1/s overflows only for a t so small that the tail rounds to 1
        front = np.exp(-a * np.log1p(s) - b * np.log1p(1.0 / s) - _ln_beta_half(a))
    x, y = 1.0 / (1.0 + s), s / (1.0 + s)
    direct = x < (a + 1.0) / (a + b + 2.0)
    tail = np.empty_like(s)
    tail[direct] = front[direct] * _beta_cf(a, b, x[direct]) / a
    tail[~direct] = 1.0 - front[~direct] * _beta_cf(b, a, y[~direct]) / b
    p[finite] = tail
    return p


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
    *,
    max_k: int,
) -> ScreeningResult:
    """Rank parameters for one output by FDR logworth and apply retention.

    x is (n, m) in catalog column order, y is the output column; names label
    the columns.  Requires at least SCREEN_MIN_ROWS rows.  A zero-variance
    input column is reported with p = 1 and flagged, not failing the screen.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    names = tuple(names)
    if x.shape[1] != len(names):
        raise ValueError(f"x has {x.shape[1]} columns but {len(names)} names given")
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y disagree on the number of rows")
    if x.shape[0] < SCREEN_MIN_ROWS:
        raise ValueError(f"need at least {SCREEN_MIN_ROWS} rows to screen, got {x.shape[0]}")
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
    retained = retain_parameters(ScreeningResult(entries=entries, retained=()), max_k)
    return ScreeningResult(entries=entries, retained=retained)


# -- Sobol' indices ----------------------------------------------------------


@dataclass(frozen=True)
class SobolResult:
    """First/total-order indices with bootstrap standard errors.

    evaluations_used counts the rows of the whole Saltelli design,
    n_base * (dim + 2), even when terms skip blocks.  Resamples weight rows
    by their counts, so the errors lie within 1e-12 relative of gathering
    each resample's rows and squaring them afresh.
    """

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


def _jansen(v, sum_a, sum_b, n):
    """First- and total-order Jansen estimators from the pooled variance v
    and each block's summed squared difference from f(A) and from f(B)."""
    return (v - sum_b / (2.0 * n)) / v, sum_a / (2.0 * n) / v


@_one_blas_thread()
def _pick_freeze(f_a, f_b, f_ab, n_bootstrap, rng):
    """Jansen s1 and st for each row of f_ab, the (rows, n) block outputs,
    and a (kept, 2, rows) stack of their replicates on n_bootstrap resamples
    of the n rows; None when f_a and f_b pooled have no spread, and a
    resample without spread is skipped.  The squared differences are formed
    once, each squared in the buffer that holds it, the second in f_ab's; a
    resample weights them by its counts.
    """
    n = f_a.shape[0]
    pooled = np.concatenate([f_a, f_b])
    v = float(np.var(pooled))
    if v <= 0.0 or pooled.min() == pooled.max():  # np.var of equal values can round above 0
        return None
    sq_a = np.subtract(f_a, f_ab)
    np.square(sq_a, out=sq_a)
    sq_b = np.square(np.subtract(f_b, f_ab, out=f_ab), out=f_ab)
    s1, st = _jansen(v, sq_a.sum(axis=1), sq_b.sum(axis=1), n)
    boot = []
    for _ in range(n_bootstrap):
        w = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        mean = (w @ f_a + w @ f_b) / (2.0 * n)
        bv = (w @ (f_a - mean) ** 2 + w @ (f_b - mean) ** 2) / (2.0 * n)
        if bv <= 0.0:
            continue
        # a dot product per row: one matrix-vector product would round a row
        # differently with the number of rows, and so with the blocks skipped
        sums = [np.array([row @ w for row in sq]) for sq in (sq_a, sq_b)]
        boot.append(_jansen(bv, *sums, n))
    return s1, st, np.reshape(boot, (-1, 2, f_ab.shape[0]))


def _support_rows(support, dim: int) -> np.ndarray:
    """Sorted column indices a model term reads, checked against dim."""
    cols = np.asarray(support)
    if cols.ndim != 1 or cols.size == 0:
        raise ValueError("support must be a nonempty list of column indices")
    if cols.dtype.kind not in "iu":
        raise ValueError(f"support indices must be integers, got {cols.dtype}")
    if np.any(cols < 0) or np.any(cols >= dim):
        raise ValueError(f"support indices must lie in [0, {dim - 1}]")
    rows = _sorted_unique(cols)
    if rows.size != cols.size:
        raise ValueError("support contains duplicate indices")
    return rows


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array, without the numpy.ma import np.unique makes."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def sobol_indices(
    model,
    dim: int,
    n_base: int,
    seed: int = 0,
    dist: SamplingDistribution | None = None,
    catalog: ParameterCatalog | None = None,
    n_bootstrap: int = 100,
) -> SobolResult:
    """First- and total-order Sobol' indices of a deterministic model.

    model is a function that takes an (n, dim) batch to n outputs, row by
    row, or has terms, (support, fn) pairs whose fn reads only the columns
    in support, and combine(values), which takes the terms' outputs on one
    batch to the model's.  A plain function is one term over every column.
    No fn may keep the batch, whose buffer is reused.  Designs are Saltelli
    pick-freeze blocks with LHS base matrices A and B on the unit cube:
    block i is A with column i taken from B.  Only the columns some term
    reads are kept, and when (dist, catalog) is given each row of them is
    mapped once into parameter space; the distribution maps each column on
    its own, so the blocks of the mapped pair are the mapped blocks.

    Rows run in the blocks of surrogate.row_blocks, so each row sits in a
    batch of the size SurrogateModel.predict would give it over the whole
    design.  Each row block of A and B is mapped, then built in turn in one
    full-width buffer, as A, then B, then the block of each read column, and
    evaluated at once; the columns no term reads hold a fixed finite value.
    So A and B hold 2 * n_base floats per read column, and the buffer at
    most 4095 * dim.

    Each term sees A, B and the blocks of its own support, (2 + len(support))
    * n_base rows; on any other block its output is its f(A).  The block of
    a column no term reads is f(A): its total index is exactly zero, and its
    first-order index and both errors equal those of every other such
    column, which are estimated once and copied.  The pooled A and B outputs
    estimate the output variance; a constant output yields an explicit
    degenerate result.  Bootstrap standard errors come from n_bootstrap >= 2
    resamples of the rows with replacement.  Indices are named after the
    catalog's parameters when a catalog is given, else x0, x1, ...
    """
    if n_base < 128:
        raise ValueError(f"need n_base >= 128, got {n_base}")
    if n_bootstrap < 2:
        raise ValueError(f"need n_bootstrap >= 2 for a standard error, got {n_bootstrap}")
    if catalog is None:
        names = tuple(f"x{i}" for i in range(dim))
    elif len(catalog) == dim:
        names = catalog.names
    else:
        raise ValueError(f"catalog has {len(catalog)} parameters, dim is {dim}")
    terms = getattr(model, "terms", ((range(dim), model),))
    combine = getattr(model, "combine", lambda values: values[0])
    terms = [(_support_rows(support, dim), fn) for support, fn in terms]
    cols = _sorted_unique(np.concatenate([support for support, _ in terms]))
    # the estimated rows are the read columns' blocks, then one stand-in for
    # every other column; where[i] is the estimated row column i reads
    where = np.full(dim, cols.size)
    where[cols] = np.arange(cols.size)
    n_rows = cols.size + (cols.size < dim)

    if dist is not None and catalog is None:
        raise ValueError("dist requires the catalog to map units into")

    a, b = saltelli_matrices(n_base, dim, seed, columns=cols)

    def run(fn, x):
        out = np.asarray(fn(x)).reshape(-1)
        if out.shape[0] != x.shape[0]:
            raise ValueError("a model must return one output per row")
        return out

    blocks = row_blocks(n_base)
    buffer = np.zeros((max(rows.stop - rows.start for rows in blocks), dim))
    f_a, f_b = np.empty(n_base), np.empty(n_base)
    f_ab = np.empty((n_rows, n_base))
    for rows in blocks:
        a_rows, b_rows = a[rows], b[rows]
        if dist is not None:
            a_rows = dist.transform(a_rows, catalog, columns=cols)
            b_rows = dist.transform(b_rows, catalog, columns=cols)
        x = buffer[: rows.stop - rows.start]
        x[:, cols] = a_rows
        term_a = [run(fn, x) for _, fn in terms]
        f_a[rows] = combine(term_a)
        x[:, cols] = b_rows
        f_b[rows] = combine([run(fn, x) for _, fn in terms])
        x[:, cols] = a_rows
        for row, i in enumerate(cols):
            x[:, i] = b_rows[:, row]
            f_ab[row, rows] = combine(
                [run(fn, x) if i in s else v for (s, fn), v in zip(terms, term_a)]
            )
            x[:, i] = a_rows[:, row]
    f_ab[cols.size :] = f_a

    evals = n_base * (dim + 2)
    estimates = _pick_freeze(f_a, f_b, f_ab, n_bootstrap, np.random.default_rng(seed + 1))
    if estimates is None:
        nan = np.full(dim, math.nan)
        return SobolResult(names, nan, nan.copy(), nan.copy(), nan.copy(), evals, True)
    s1, st, boot = estimates
    errors = boot.std(axis=0, ddof=1)[:, where] if len(boot) >= 2 else np.full((2, dim), math.nan)
    return SobolResult(names, s1[where], st[where], *errors, evals, False)
