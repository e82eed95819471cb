import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress
from scipy.stats import t as student_t

from bootstrap_reference import reference_pick_freeze
from sobol_reference import reference_sobol_indices
from test_surrogate import _random_model
from rdsm import sensitivity
from rdsm.catalog import SamplingDistribution, build_catalog
from rdsm.errors import NumericalFailureError
from rdsm.sensitivity import (
    ParameterScreen,
    ScreeningResult,
    _slope_p_values,
    _t_two_sided,
    benjamini_hochberg,
    retain_parameters,
    screen_fdr_logworth,
    sobol_indices,
)


def bh_brute_force(p):
    """Direct definition: min over j >= rank(i) of p_(j) * (m / j), capped at 1."""
    p = np.asarray(p, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    out = np.empty(m)
    for pos, idx in enumerate(order):
        out[idx] = min(1.0, min(p[order[j]] * (m / (j + 1)) for j in range(pos, m)))
    return out


def test_bh_matches_brute_force_fuzzed():
    rng = np.random.default_rng(0)
    for trial in range(1500):
        m = int(rng.integers(1, 42))
        p = rng.random(m)
        if trial % 3 == 0:
            p = np.round(p, 1)  # force ties
        if trial % 7 == 0:
            p[rng.integers(m)] = 0.0
        if trial % 11 == 0:
            p[rng.integers(m)] = 1.0
        np.testing.assert_array_equal(benjamini_hochberg(p), bh_brute_force(p))


def test_bh_basic_properties():
    rng = np.random.default_rng(1)
    p = rng.random(41)
    adj = benjamini_hochberg(p)
    assert np.all(adj >= p)
    assert np.all(adj <= 1.0)
    # adjustment preserves the ordering of the sorted p-values
    order = np.argsort(p)
    assert np.all(np.diff(adj[order]) >= 0.0)
    # a single test is unadjusted
    np.testing.assert_array_equal(benjamini_hochberg([0.03]), [0.03])


def test_bh_validation():
    with pytest.raises(ValueError):
        benjamini_hochberg([])
    with pytest.raises(ValueError):
        benjamini_hochberg([0.5, 1.5])
    with pytest.raises(ValueError):
        benjamini_hochberg([0.5, math.nan])


def _names(m=41):
    return tuple(f"p{i}" for i in range(m))


def test_screen_finds_planted_signal():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=(300, 41))
    y = 5.0 * x[:, 7] + rng.normal(0.0, 0.3, 300)
    res = screen_fdr_logworth(x, y, _names(), max_k=4)
    assert res.entries[0].name == "p7"
    assert res.retained[0] == "p7"
    assert res.entries[0].logworth > 10.0
    # logworth exponentiates back to the adjusted p
    for e in res.entries:
        if e.fdr_p >= 1e-300:
            assert 10.0 ** (-e.logworth) == pytest.approx(e.fdr_p, rel=1e-12)
        assert e.fdr_p >= e.raw_p


def test_screen_ties_at_the_largest_p_keep_catalog_order(monkeypatch):
    # p20 has the largest raw p, and p30, p33, p36 and p39 step up to it, so
    # all five adjust to exactly p20's value; 41 * p / 41 rounds one ulp below
    # this p, p * (41 / 41) does not
    p_max = 0.9787827985128794
    assert p_max * 41 / 41 != p_max
    p = np.linspace(0.001, 0.5, 41)
    tail = (20, 30, 33, 36, 39)
    p[list(tail)] = (p_max, 0.95, 0.96, 0.97, 0.975)
    monkeypatch.setattr(sensitivity, "_slope_p_values", lambda x, y: (p, np.zeros(41, bool)))
    res = screen_fdr_logworth(np.zeros((30, 41)), np.zeros(30), _names(), max_k=3)
    assert [e.fdr_p for e in res.entries[-5:]] == [p_max] * 5
    assert [e.name for e in res.entries[-5:]] == [f"p{i}" for i in tail]


def test_screen_null_columns_rarely_pass():
    hits = 0
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(0.0, 1.0, size=(200, 41))
        y = 5.0 * x[:, 0] + rng.normal(0.0, 0.25, 200)
        res = screen_fdr_logworth(x, y, _names(), max_k=3)
        for e in res.entries:
            if e.name != "p0":
                total += 1
                hits += e.logworth >= 1.3
    assert hits / total <= 0.05


def test_screen_zero_variance_column_flagged():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(50, 5))
    x[:, 2] = 0.7
    y = 2.0 * x[:, 0] + rng.normal(0.0, 0.1, 50)
    res = screen_fdr_logworth(x, y, _names(5), max_k=3)
    e = {entry.name: entry for entry in res.entries}["p2"]
    assert e.zero_variance
    assert e.raw_p == 1.0
    assert e.logworth == 0.0
    assert "p2" not in res.retained


def test_slope_p_values_match_scipy_stats(monkeypatch):
    # the two-sided tail of each column's slope t against scipy.stats' t.sf
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, size=(80, 3))
    # y is column 1, whose centered values and sums are exact: zero residual
    x[:, 1] = rng.permutation(np.tile(np.arange(10.0), 8))
    y = x[:, 1].copy()
    x[:, 0] = 0.25  # exact constant: p = 1
    x[:, 2] += 0.02 * y  # ordinary association
    seen = []

    def spy(tstat, df):
        seen.append((tstat, df))
        return _t_two_sided(tstat, df)

    monkeypatch.setattr(sensitivity, "_t_two_sided", spy)
    p, zero_var = _slope_p_values(x, y)
    [(tstat, df)] = seen
    assert df == len(y) - 2
    assert zero_var.tolist() == [True, False, False]
    np.testing.assert_allclose(p[1:], 2.0 * student_t.sf(tstat[1:], df), rtol=5e-12, atol=0.0)
    assert p[0] == 1.0
    assert tstat[1] == np.inf and p[1] == 0.0
    fit = linregress(x[:, 2], y)
    assert tstat[2] == pytest.approx(fit.slope / fit.stderr, rel=1e-9)
    assert 0.0 < p[2] < 0.05 and p[2] == pytest.approx(fit.pvalue, rel=1e-9)


def _mp_two_sided(t: float, df: int) -> float:
    """I_x(df/2, 1/2) with x = df/(df + t^2), from 40 digits."""
    with mpmath.workdps(40):
        t, df = mpmath.mpf(t), mpmath.mpf(df)
        return float(mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True))


@pytest.mark.parametrize("df", [28, 1553, 3275, 10**4])
def test_t_tail_within_5e12_of_mpmath(df):
    rng = np.random.default_rng(df)
    # t in [0, 60] up to where the tail falls below the 1e-300 logworth floor
    # (mpmath is slow out there, and screening reads the floor instead)
    at_floor = student_t.isf(0.5e-300, df)
    top = min(60.0, at_floor)
    t = np.concatenate([
        rng.uniform(0.0, top, 80),
        np.geomspace(1e-8, top, 40),
        np.sqrt(df * 1.5 / (df / 2 + 1)) * np.array([0.99, 1.0, 1.01]),  # branch switch
        [0.0, 1e-170, at_floor * 0.999, at_floor, at_floor * 1.001],
    ])
    got = _t_two_sided(t, df)
    want = np.array([_mp_two_sided(v, df) for v in t])
    np.testing.assert_allclose(got, want, rtol=5e-12, atol=0.0)
    assert 1e-301 < got[t == at_floor][0] < 1e-299


def test_t_tail_exact_limits():
    p = _t_two_sided(np.array([0.0, 1e-170, 6.6e-156, np.inf, 1e200]), 28)
    assert p.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
    assert _t_two_sided(np.array([]), 1553).shape == (0,)


def test_t_tail_cap_is_a_numerical_failure(monkeypatch):
    # t near the branch switch needs the most terms (about 50 at df 1553)
    monkeypatch.setattr(sensitivity, "_CF_CAP", 10)
    with pytest.raises(NumericalFailureError, match="10 terms"):
        _t_two_sided(np.array([1.9]), 1553)


@settings(max_examples=200, deadline=None)
@given(
    df=st.integers(28, 10**4),
    t=st.lists(st.floats(0.0, 60.0), min_size=2, max_size=8),
)
def test_t_tail_monotone_in_unit_interval(df, t):
    # monotone wherever t moves by more than the tail's own error
    t = np.sort(np.array(t))
    p = _t_two_sided(t, df)
    assert np.all((p >= 0.0) & (p <= 1.0))
    apart = np.diff(t) > 1e-9 * np.maximum(t[1:], 1.0)
    assert np.all(np.diff(p)[apart] <= 0.0)


def test_screen_constant_output():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, size=(60, 4))
    res = screen_fdr_logworth(x, np.full(60, 3.3), _names(4), max_k=3)
    assert all(e.raw_p == 1.0 for e in res.entries)
    assert res.retained == ()


def test_screen_validation():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(29, 3))
    with pytest.raises(ValueError, match="30 rows"):
        screen_fdr_logworth(x, np.ones(29), _names(3), max_k=3)
    x = rng.uniform(size=(40, 3))
    with pytest.raises(ValueError, match="names"):
        screen_fdr_logworth(x, np.ones(40), _names(4), max_k=3)
    y = np.ones(40)
    y[3] = math.inf
    with pytest.raises(ValueError, match="finite"):
        screen_fdr_logworth(x, y, _names(3), max_k=3)
    with pytest.raises(TypeError, match="max_k"):  # the cap has no default
        screen_fdr_logworth(x, np.ones(40), _names(3))


def test_screen_scale_invariance():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, size=(120, 8))
    y = 3.0 * x[:, 1] - 2.0 * x[:, 5] + rng.normal(0.0, 0.2, 120)
    base = screen_fdr_logworth(x, y, _names(8), max_k=3)
    # power-of-two rescale reproduces the t-statistics bit for bit
    x2 = x.copy()
    x2[:, 1] *= 2.0**13
    scaled = screen_fdr_logworth(x2, y, _names(8), max_k=3)
    assert [e.name for e in scaled.entries] == [e.name for e in base.entries]
    np.testing.assert_array_equal(
        [e.logworth for e in scaled.entries], [e.logworth for e in base.entries]
    )
    assert scaled.retained == base.retained
    # affine shift leaves the retained set and ranking unchanged
    x3 = x.copy()
    x3[:, 5] = 100.0 + 7.0 * x3[:, 5]
    shifted = screen_fdr_logworth(x3, y, _names(8), max_k=3)
    assert [e.name for e in shifted.entries] == [e.name for e in base.entries]
    assert shifted.retained == base.retained
    np.testing.assert_allclose(
        [e.logworth for e in shifted.entries],
        [e.logworth for e in base.entries],
        rtol=1e-8,
    )


def _ladder(values, floor_names=None):
    names = floor_names or [f"q{i}" for i in range(len(values))]
    entries = tuple(ParameterScreen(n, 0.0, 0.0, v) for n, v in zip(names, values))
    return ScreeningResult(entries, ())


def test_retention_ladder_with_cliff():
    # the cliff at 12.54 -> 3.96 truncates to four despite the earlier
    # 59.38 -> 18.67 drop also qualifying
    sr = _ladder([59.38, 18.67, 12.99, 12.54, 3.96, 3.90], list("AEXBCD"))
    assert retain_parameters(sr, max_k=4) == ("A", "E", "X", "B")
    # mechanism cap of three bites first
    assert retain_parameters(sr, max_k=3) == ("A", "E", "X")


def test_retention_below_floor_is_empty():
    sr = _ladder([1.1, 0.9, 0.2])
    assert retain_parameters(sr, max_k=3) == ()


def test_retention_gentle_decay_hits_cap():
    sr = _ladder([5.0, 4.5, 4.0, 3.5, 3.0, 2.5])
    assert retain_parameters(sr, max_k=4) == ("q0", "q1", "q2", "q3")


def test_retention_floor_trims_candidates():
    # only the first two clear the floor; no qualifying drop between them
    sr = _ladder([10.0, 4.5, 1.0, 0.9])
    assert retain_parameters(sr, max_k=4) == ("q0", "q1")


def test_retention_single_candidate():
    sr = _ladder([2.0, 0.5])
    assert retain_parameters(sr, max_k=3) == ("q0",)


# -- Sobol' ------------------------------------------------------------------


def test_sobol_additive_model():
    f = lambda u: u[:, 0] + u[:, 1]
    r = sobol_indices(f, 5, 2**13, seed=3)
    assert r.evaluations_used == 2**13 * 7
    np.testing.assert_allclose(r.s1[:2], [0.5, 0.5], atol=0.02)
    np.testing.assert_allclose(r.st[:2], [0.5, 0.5], atol=0.02)
    np.testing.assert_allclose(r.s1[2:], 0.0, atol=0.02)
    np.testing.assert_allclose(r.st[2:], 0.0, atol=0.02)
    # total effects dominate first-order effects up to estimator noise
    assert np.all(r.st >= r.s1 - 2.0 * (r.s1_stderr + r.st_stderr))
    assert float(r.s1.sum()) <= 1.0 + 2.0 * float(r.s1_stderr.sum())
    assert np.all(np.isfinite(r.s1_stderr)) and np.all(r.s1_stderr >= 0.0)


def test_sobol_ishigami_oracle():
    def ishigami(u):
        x = -np.pi + 2.0 * np.pi * u
        return np.sin(x[:, 0]) + 7.0 * np.sin(x[:, 1]) ** 2 + 0.1 * x[:, 2] ** 4 * np.sin(x[:, 0])

    r = sobol_indices(ishigami, 3, 2**13, seed=5)
    np.testing.assert_allclose(
        r.s1, [0.31390519114781146, 0.4424111447900409, 0.0], atol=0.02
    )
    assert r.st[2] == pytest.approx(0.24368366406214773, abs=0.02)
    assert r.st[2] > 0.1  # x3 acts only through interaction


def test_sobol_constant_model_degenerate():
    # np.var of 256 copies of 0.1 is about 2e-34, not zero
    for value in (0.0, 0.1):
        r = sobol_indices(lambda u: np.full(len(u), value), 3, 128, seed=1)
        assert r.degenerate, value
        assert np.all(np.isnan(r.s1)) and np.all(np.isnan(r.st))


def test_sobol_validation():
    f = lambda u: u[:, 0]
    with pytest.raises(ValueError, match="128"):
        sobol_indices(f, 2, 64)
    with pytest.raises(ValueError, match="catalog has 41 parameters, dim is 2"):
        sobol_indices(f, 2, 128, catalog=build_catalog())
    with pytest.raises(ValueError, match="one output per row"):
        sobol_indices(lambda u: np.zeros(3), 2, 128)
    for n_bootstrap in (-2, 0, 1):
        with pytest.raises(ValueError, match="n_bootstrap >= 2"):
            sobol_indices(f, 2, 128, n_bootstrap=n_bootstrap)


def test_sobol_catalog_distribution_path():
    cat = build_catalog()
    j = cat.index("E")
    f = lambda x: x[:, j]
    r = sobol_indices(
        f, len(cat), 2048, seed=7, dist=SamplingDistribution.uniform_pm20(), catalog=cat
    )
    assert r.names == cat.names
    assert r.names[int(np.argmax(r.s1))] == "E"
    assert r.s1[j] == pytest.approx(1.0, abs=0.05)
    others = np.delete(np.arange(len(cat)), j)
    assert np.all(np.abs(r.s1[others]) < 0.08)


def test_sobol_error_decays_with_n():
    f = lambda u: u[:, 0] + u[:, 1]
    errs = []
    for n in (128, 256, 512, 1024):
        e = [
            np.mean(np.abs(sobol_indices(f, 2, n, seed=s, n_bootstrap=2).s1 - 0.5))
            for s in range(8)
        ]
        errs.append(float(np.mean(e)))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # 8x more samples cuts the error roughly like n^(-1/2)
    assert errs[0] / errs[-1] > 1.8


def test_sobol_deterministic():
    f = lambda u: u[:, 0] ** 2 + 0.5 * u[:, 1]
    a = sobol_indices(f, 3, 256, seed=9)
    b = sobol_indices(f, 3, 256, seed=9)
    np.testing.assert_array_equal(a.s1, b.s1)
    np.testing.assert_array_equal(a.st_stderr, b.st_stderr)


def _counted(f):
    """f with a running count of the rows it has evaluated."""
    def model_eval(u):
        model_eval.rows += len(u)
        return f(u)

    model_eval.rows = 0
    return model_eval


def _terms(*terms, combine=lambda values: values[0]):
    """A model given as (support, fn) terms and the rule that combines them."""
    return SimpleNamespace(terms=terms, combine=combine)


def test_sobol_support_skips_blocks_bit_exactly():
    # reads columns 1, 4 and 6 of 7, with an interaction between 4 and 6
    f = lambda u: np.sin(3.0 * u[:, 1]) + 2.0 * u[:, 4] * u[:, 6] ** 2 + u[:, 6]
    n = 256
    full = _counted(f)
    want = sobol_indices(full, 7, n, seed=4, n_bootstrap=30)
    assert full.rows == n * (7 + 2)

    def check(got):
        for attr in ("s1", "st", "s1_stderr", "st_stderr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
        assert got.evaluations_used == want.evaluations_used == n * (7 + 2)
        assert got.names == want.names and not got.degenerate

    for support in ([1, 4, 6], (6, 1, 4), np.array([4, 6, 1, 0])):
        skipping = _counted(f)
        check(sobol_indices(_terms((support, skipping)), 7, n, seed=4, n_bootstrap=30))
        assert skipping.rows == (2 + len(support)) * n
    # the same sum as three terms, each on A, B and its own blocks
    parts = [
        ([1], _counted(lambda u: np.sin(3.0 * u[:, 1]))),
        ([4, 6], _counted(lambda u: 2.0 * u[:, 4] * u[:, 6] ** 2)),
        ([6], _counted(lambda u: u[:, 6])),
    ]
    check(sobol_indices(_terms(*parts, combine=lambda v: v[0] + v[1] + v[2]), 7, n,
                        seed=4, n_bootstrap=30))
    assert [fn.rows for _, fn in parts] == [3 * n, 4 * n, 3 * n]
    # a term over every column is the full design, in any order
    every = _counted(f)
    got = sobol_indices(_terms(([6, 5, 4, 3, 2, 1, 0], every)), 7, n, seed=4, n_bootstrap=30)
    assert every.rows == n * (7 + 2)
    assert got.st_stderr.tobytes() == want.st_stderr.tobytes()


def test_sobol_support_constant_model_degenerate():
    zero = _counted(lambda u: np.zeros(len(u)))
    r = sobol_indices(_terms(([2], zero)), 5, 128, seed=1)
    assert zero.rows == 3 * 128
    assert r.degenerate and r.evaluations_used == 128 * (5 + 2)
    for attr in ("s1", "st", "s1_stderr", "st_stderr"):
        assert getattr(r, attr).shape == (5,) and np.all(np.isnan(getattr(r, attr)))


def test_sobol_support_validation():
    f = lambda u: u[:, 0]
    for support, match in (
        ([], "nonempty"),
        ([[0, 1]], "nonempty"),
        ([0, 0], "duplicate"),
        ([0, 3], r"\[0, 2\]"),
        ([-1], r"\[0, 2\]"),
        ([0.0, 1.0], "integers"),
        ([True], "integers"),
    ):
        with pytest.raises(ValueError, match=match):
            sobol_indices(_terms((support, f)), 3, 128)
        # a bad term is caught whatever the other terms are
        with pytest.raises(ValueError, match=match):
            sobol_indices(_terms(([0], f), (support, f)), 3, 128)


@pytest.mark.parametrize("kind", ["uniform_pm20", "normal_10std"])
def test_sobol_maps_the_base_pair_once_bit_exactly(monkeypatch, kind):
    cat = build_catalog()
    dist = getattr(SamplingDistribution, kind)()
    e, xis, p = cat.indices(("E", "XiS", "P"))
    f = lambda x: np.sin(x[:, e]) + x[:, xis] * x[:, p] ** 2
    n = 4097  # two row blocks, of 2048 and 2049 rows
    # the reference maps every block it is handed, one block at a time
    want = sobol_indices(lambda u: f(dist.transform(u, cat)), len(cat), n, seed=5,
                         catalog=cat, n_bootstrap=20)
    calls = []
    transform = SamplingDistribution.transform

    def counted(self, unit, catalog, columns=None):
        calls.append((np.shape(unit), list(columns)))
        return transform(self, unit, catalog, columns)

    monkeypatch.setattr(SamplingDistribution, "transform", counted)
    read = sorted([e, xis, p])
    for model, cols in ((f, list(range(len(cat)))), (_terms((read, f)), read)):
        calls.clear()
        got = sobol_indices(model, len(cat), n, seed=5, dist=dist, catalog=cat,
                            n_bootstrap=20)
        # each row block of A and of B once, in the columns some term reads
        assert calls == [((rows, len(cols)), cols) for rows in (2048, 2048, 2049, 2049)]
        for attr in ("s1", "st", "s1_stderr", "st_stderr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr


def _within(got, want, rtol):
    """Equal NaN patterns, and finite entries within rtol relative."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def test_sobol_row_blocks_keep_the_full_design_bits():
    # a 41-input network rounds a row differently in a batch of another
    # size, so running the design in any blocks but predict's would show
    net = _random_model((41, 60, 80, 1), 2)
    for n in (2049, 6145):
        got = sobol_indices(net.predict, 41, n, seed=1, n_bootstrap=4)
        want = reference_sobol_indices(net.predict, 41, n, seed=1, n_bootstrap=4)
        for attr in ("s1", "st", "s1_stderr", "st_stderr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), (n, attr)


def test_bootstrap_matches_the_gather_and_square_reference(monkeypatch):
    f = lambda u: np.sin(3.0 * u[:, 1]) + 2.0 * u[:, 4] * u[:, 6] ** 2 + u[:, 6]
    # on a 7-column plain function and on a one-term model that skips blocks
    models = (f, _terms(([1, 4, 6], f)))
    got = [sobol_indices(m, 7, 512, seed=8, n_bootstrap=60) for m in models]
    monkeypatch.setattr(sensitivity, "_pick_freeze", reference_pick_freeze)
    want = [sobol_indices(m, 7, 512, seed=8, n_bootstrap=60) for m in models]
    for g, w in zip(got, want):
        assert g.s1.tobytes() == w.s1.tobytes() and g.st.tobytes() == w.st.tobytes()
        _within(g.s1_stderr, w.s1_stderr, 1e-12)
        _within(g.st_stderr, w.st_stderr, 1e-12)
        assert np.all(g.s1_stderr > 0.0)


def test_bootstrap_skips_the_resamples_the_reference_skips():
    # f(A) and f(B) are zero but on one row each, so any resample that draws
    # neither row has no spread and is skipped
    n, rows = 128, 3
    rng = np.random.default_rng(2)
    f_a, f_b = np.zeros(n), np.zeros(n)
    f_a[5], f_b[70] = 1.0, 2.0
    f_ab = rng.normal(size=(rows, n))
    got = sensitivity._pick_freeze(f_a, f_b, f_ab.copy(), 200, np.random.default_rng(3))
    want = reference_pick_freeze(f_a, f_b, f_ab, 200, np.random.default_rng(3))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert got[2].shape == want[2].shape and 0 < len(want[2]) < 200
    for g, w in zip(got[2:], want[2:]):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
    # a constant output is degenerate before any resample is drawn
    for const in (0.0, 2.5):
        flat = np.full(n, const)
        assert sensitivity._pick_freeze(flat, flat, f_ab.copy(), 10, rng) is None
        assert reference_pick_freeze(flat, flat, f_ab, 10, rng) is None


def test_bootstrap_with_fewer_than_two_resamples_gives_nan_errors(monkeypatch):
    # nonzero on the one LHS row of A, and of B, whose u0 lies in the top
    # stratum: a resample that draws neither has no spread
    f = lambda u: (u[:, 0] >= 127 / 128).astype(float) + 0.0 * u[:, 1]
    seeds = range(200)
    got = [sobol_indices(f, 2, 128, seed=s, n_bootstrap=2) for s in seeds]
    monkeypatch.setattr(sensitivity, "_pick_freeze", reference_pick_freeze)
    want = [sobol_indices(f, 2, 128, seed=s, n_bootstrap=2) for s in seeds]
    nan_runs = 0
    for g, w in zip(got, want):
        assert not g.degenerate and g.st.tobytes() == w.st.tobytes()
        _within(g.st_stderr, w.st_stderr, 1e-12)
        _within(g.s1_stderr, w.s1_stderr, 1e-12)
        nan_runs += bool(np.all(np.isnan(g.st_stderr)))
    assert nan_runs > 0


def test_sobol_dist_without_catalog_fails_before_evaluating():
    never = _counted(lambda u: u[:, 0])
    with pytest.raises(ValueError, match="dist requires the catalog"):
        sobol_indices(never, 41, 128, dist=SamplingDistribution.uniform_pm20())
    assert never.rows == 0
