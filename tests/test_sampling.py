import numpy as np
import pytest

from rdsm.sampling import (
    default_strata,
    sample_lhs,
    sample_lss,
    sample_mc,
    saltelli_matrices,
)
from rdsm.sensitivity import sobol_indices


def _stratum_counts(col, strata):
    idx = np.minimum((col * strata).astype(int), strata - 1)
    return np.bincount(idx, minlength=strata)


def test_mc_basics():
    d = sample_mc(200, 7, seed=1)
    assert d.shape == (200, 7)
    assert np.all(d >= 0.0) and np.all(d < 1.0)
    for fn in (sample_mc, sample_lhs, sample_lss):
        assert not fn(16, 3, seed=1).flags.writeable


def test_determinism_and_seed_sensitivity():
    for fn in (sample_mc, sample_lhs):
        a = fn(64, 5, seed=9)
        b = fn(64, 5, seed=9)
        c = fn(64, 5, seed=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
    a = sample_lss(64, 5, seed=9, strata_per_dim=8)
    b = sample_lss(64, 5, seed=9, strata_per_dim=8)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 4, 10, 100, 1000])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_lhs_stratification_exhaustive(n, dim):
    d = sample_lhs(n, dim, seed=n * 100 + dim)
    for j in range(dim):
        counts = _stratum_counts(d[:, j], n)
        assert np.all(counts == 1)


def test_input_validation():
    for fn in (sample_mc, sample_lhs):
        with pytest.raises(ValueError):
            fn(0, 3, seed=1)
        with pytest.raises(ValueError):
            fn(5, 0, seed=1)
    with pytest.raises(ValueError, match="divisible"):
        sample_lss(10, 2, seed=1, strata_per_dim=3)
    with pytest.raises(ValueError):
        sample_lss(10, 2, seed=1, strata_per_dim=20)


def test_default_strata():
    assert default_strata(5000) == 50
    assert default_strata(100) == 10
    assert default_strata(12) == 3
    assert default_strata(7) == 1
    assert default_strata(1) == 1


def test_lss_one_point_per_coarse_cell():
    d = sample_lss(4, 2, seed=3, strata_per_dim=2)
    cells = np.zeros((2, 2), dtype=int)
    for x, y in d:
        cells[int(x * 2), int(y * 2)] += 1
    assert np.all(cells == 1)


def test_lss_joint_balance_when_divisible():
    # 2^3 cells, 16 points -> exactly 2 per cell
    d = sample_lss(16, 3, seed=5, strata_per_dim=2)
    cells = {}
    for row in d:
        key = tuple((row * 2).astype(int))
        cells[key] = cells.get(key, 0) + 1
    assert len(cells) == 8
    assert all(v == 2 for v in cells.values())


@pytest.mark.parametrize("n,s,dim", [(4, 4, 2), (12, 3, 4), (500, 10, 3), (100, 100, 2)])
def test_lss_marginals_are_latin(n, s, dim):
    d = sample_lss(n, dim, seed=n + s + dim, strata_per_dim=s)
    for j in range(dim):
        assert np.all(_stratum_counts(d[:, j], n) == 1)
        # coarse strata balanced to exactly n/s each
        assert np.all(_stratum_counts(d[:, j], s) == n // s)


def test_lss_default_strata_path():
    d = sample_lss(100, 4, seed=2)
    explicit = sample_lss(100, 4, seed=2, strata_per_dim=default_strata(100))
    assert d.tobytes() == explicit.tobytes()
    for j in range(4):
        assert np.all(_stratum_counts(d[:, j], 100) == 1)


def test_saltelli_structure():
    n, dim = 4097, 6  # two predict row blocks, of 2048 and 2049 rows
    a, b = saltelli_matrices(n, dim, seed=11)
    assert a.shape == (n, dim) and b.shape == (n, dim)
    assert not a.flags.writeable and not b.flags.writeable
    assert not np.array_equal(a, b)
    batches = []

    def record(x):
        batches.append(np.array(x))  # the block buffer is reused
        return x.sum(axis=1)

    result = sobol_indices(record, dim, n, seed=11, n_bootstrap=2)
    # row block by row block: A, then B, then for each i the block that is A
    # with column i from B
    assert len(batches) == 2 * (dim + 2)
    for rows, evaluated in ((slice(0, 2048), batches[: dim + 2]),
                            (slice(2048, n), batches[dim + 2 :])):
        np.testing.assert_array_equal(evaluated[0], a[rows])
        np.testing.assert_array_equal(evaluated[1], b[rows])
        for i, block in enumerate(evaluated[2:]):
            np.testing.assert_array_equal(block[:, i], b[rows, i])
            mask = np.arange(dim) != i
            np.testing.assert_array_equal(block[:, mask], a[rows][:, mask])
    # total evaluation budget is n * (dim + 2) rows
    assert sum(len(x) for x in batches) == n * (dim + 2) == result.evaluations_used


def test_saltelli_columns_are_those_of_the_full_pair():
    full = saltelli_matrices(300, 9, seed=4)
    for columns in ([0], [2, 3, 8], list(range(9)), np.array([1, 7])):
        kept = saltelli_matrices(300, 9, seed=4, columns=columns)
        for k, f in zip(kept, full):
            assert k.shape == (300, len(columns)) and not k.flags.writeable
            assert k.tobytes() == np.ascontiguousarray(f[:, columns]).tobytes()
    for columns in ([], [3, 3], [4, 2], [-1], [9], [0.0], [[0, 1]]):
        with pytest.raises(ValueError, match="columns"):
            saltelli_matrices(300, 9, seed=4, columns=columns)
