import mpmath
import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from rdsm.catalog import SamplingDistribution, _normal_quantile, build_catalog


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def test_catalog_cardinality(catalog):
    assert len(catalog) == 41
    assert all(spec.name.isidentifier() and np.isfinite(spec.mean) for spec in catalog)


def test_catalog_lookup_means(catalog):
    assert catalog["A"].mean == 29.8
    assert catalog["BK"].mean == 2.6
    assert catalog["E"].mean == 10.1
    assert catalog["X7781"].mean == 70.0
    assert catalog["alpha12"].mean == 0.2767
    assert catalog["GiII"].mean == 16.6
    assert catalog["A"].units == "ksi"
    assert catalog["GI"].units == "lbf-in/in^2"
    assert catalog["G1200"].units == "lbs/in"
    assert catalog["nu"].units == "-"


def test_catalog_order_and_index(catalog):
    names = catalog.names
    assert len(set(names)) == 41
    for i, name in enumerate(names):
        assert catalog.index(name) == i
        assert catalog[i].name == name
    with pytest.raises(KeyError):
        catalog.index("nope")
    with pytest.raises(KeyError):
        catalog["nope"]


def test_catalog_immutable(catalog):
    with pytest.raises(ValueError):
        catalog.means[0] = 1.0
    spec = catalog["A"]
    with pytest.raises(Exception):
        spec.mean = 2.0


def test_uniform_pm20_bounds(catalog):
    dist = SamplingDistribution.uniform_pm20()
    lo, hi = dist.bounds(catalog)
    np.testing.assert_array_equal(lo, 0.8 * catalog.means)
    np.testing.assert_array_equal(hi, 1.2 * catalog.means)


def test_normal_bounds_unavailable(catalog):
    with pytest.raises(ValueError, match="unbounded"):
        SamplingDistribution.normal_10std().bounds(catalog)


def test_distribution_validation():
    with pytest.raises(ValueError):
        SamplingDistribution("weird")
    with pytest.raises(ValueError, match="lo_frac < hi_frac"):
        SamplingDistribution("uniform_pm20", lo_frac=1.2, hi_frac=0.8)
    with pytest.raises(ValueError, match="std_frac > 0"):
        SamplingDistribution("normal_10std", mean_frac=1.0, std_frac=0.0)


def test_transform_uniform_corners(catalog):
    dist = SamplingDistribution.uniform_pm20()
    lo, hi = dist.bounds(catalog)
    np.testing.assert_array_equal(dist.transform(np.zeros(41), catalog), lo)
    np.testing.assert_array_equal(dist.transform(np.ones(41), catalog), hi)
    with pytest.raises(ValueError):
        dist.transform(np.full(41, 1.5), catalog)
    with pytest.raises(ValueError):
        dist.transform(np.zeros(40), catalog)


def test_transform_normal_moments(catalog):
    # inverse-CDF map of a stratified design should land near mean/std targets
    dist = SamplingDistribution.normal_10std()
    n = 4000
    u = (np.arange(n)[:, None] + 0.5) / n * np.ones((1, 41))
    x = dist.transform(u, catalog)
    np.testing.assert_allclose(x.mean(axis=0), catalog.means, rtol=1e-6)
    np.testing.assert_allclose(x.std(axis=0), 0.1 * catalog.means, rtol=5e-3)


def _mp_quantile(p: float) -> float:
    """Normal quantile of p rounded from 40 digits: two Newton steps on the
    mpmath CDF from scipy's value, which is within a few ulp already."""
    with mpmath.workdps(40):
        x, target = mpmath.mpf(float(ndtri(p))), mpmath.mpf(p)
        for _ in range(2):
            x -= (mpmath.ncdf(x) - target) / mpmath.npdf(x)
        return float(x)


def test_normal_quantile_within_4_ulp_of_mpmath():
    rng = np.random.default_rng(41)
    tiny = np.finfo(float).tiny
    p = np.concatenate([
        rng.random(3000),
        np.geomspace(1e-60, 0.5, 300),  # lower tail, both rational branches
        1.0 - np.geomspace(1e-16, 0.5, 100),  # upper tail down to the clip
        [tiny, 1.0 - 1e-16, 0.075, 0.925, np.nextafter(0.075, 1.0), np.exp(-25.0)],
    ])
    got = _normal_quantile(p)
    want = np.array([_mp_quantile(v) for v in p])
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))
    assert np.all(np.sign(got) == np.sign(p - 0.5))
    assert _normal_quantile(np.array([0.5]))[0] == 0.0


def test_transform_normal_matches_scipy_stats(catalog):
    # AS241 against scipy.stats' quantile: a few ulp of the quantile, which
    # is far inside the mean's scale; exact 0 and 1 are clipped first
    u = np.random.default_rng(8).random((64, 41))
    u[0], u[1], u[2, ::2] = 0.0, 1.0, 0.5
    u[3, :3] = 0.0, 1.0, np.finfo(float).tiny
    dist = SamplingDistribution.normal_10std()
    got = dist.transform(u, catalog)
    q = norm.ppf(np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16))
    want = catalog.means + 0.1 * catalog.means * q
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert np.array_equal(got[2, ::2], catalog.means[::2])


@pytest.mark.parametrize("kind", ["uniform_pm20", "normal_10std"])
def test_transform_columns_match_the_full_map(catalog, kind):
    # a column maps through its own marginal, bit for bit, alone or with all 41
    dist = getattr(SamplingDistribution, kind)()
    u = np.random.default_rng(9).random((50, 41))
    cols = np.array([30, 2, 17])
    full = dist.transform(u, catalog)
    assert np.array_equal(dist.transform(u[:, cols], catalog, columns=cols), full[:, cols])
    with pytest.raises(ValueError, match="expected 3"):
        dist.transform(u[:, :2], catalog, columns=cols)
