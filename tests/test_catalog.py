import numpy as np
import pytest

from rdsm.catalog import (
    GROUPS,
    ParameterCatalog,
    ParameterSpec,
    SamplingDistribution,
    build_catalog,
)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def test_catalog_cardinality(catalog):
    assert len(catalog) == 41
    for group, want in GROUPS.items():
        assert len(catalog.group(group)) == want


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


def test_duplicate_name_rejected(catalog):
    specs = list(catalog)
    specs[1] = ParameterSpec("E", "metal", 1.0, "msi")
    with pytest.raises(ValueError, match="duplicate"):
        ParameterCatalog(specs)


def test_wrong_cardinality_rejected(catalog):
    with pytest.raises(ValueError, match="expected"):
        ParameterCatalog(list(catalog)[:-1])


def test_unknown_group_rejected():
    with pytest.raises(ValueError, match="unknown group"):
        ParameterSpec("Q", "mystery", 1.0, "-")


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
    with pytest.raises(ValueError):
        SamplingDistribution.uniform_custom(1.2, 0.8)
    with pytest.raises(ValueError):
        SamplingDistribution.normal_custom(1.0, 0.0)


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
