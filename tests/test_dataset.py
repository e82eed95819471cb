import numpy as np
import pytest

from rdsm.catalog import build_catalog
from rdsm.dataset import ENERGY_COLUMNS, Dataset, _fmt, write_csv
from rdsm.errors import SchemaError


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def _toy_rows(catalog, n, seed=0):
    rng = np.random.default_rng(seed)
    x = catalog.means * rng.uniform(0.8, 1.2, size=(n, 41))
    mech = rng.uniform(0.0, 10.0, size=(n, 5))
    ts = mech[:, 0] + mech[:, 1] + mech[:, 2] + mech[:, 3] + mech[:, 4]
    return x, np.column_stack([mech, ts])


def test_dataset_toy_sum_enforced(catalog):
    x, y = _toy_rows(catalog, 5)
    Dataset(catalog, x, y, provenance="toy_model")
    bad = y.copy()
    bad[3, 5] *= 1.001
    with pytest.raises(ValueError, match="row 3"):
        Dataset(catalog, x, bad, provenance="toy_model")
    # external rows are loaded as-is
    Dataset(catalog, x, bad, provenance="external_csv")


def test_dataset_validation(catalog):
    x, y = _toy_rows(catalog, 4)
    with pytest.raises(ValueError, match="provenance"):
        Dataset(catalog, x, y, provenance="guess")
    with pytest.raises(ValueError):
        Dataset(catalog, x[:, :-1], y)
    with pytest.raises(ValueError):
        Dataset(catalog, x, y[:, :-1])
    with pytest.raises(ValueError, match="duplicates"):
        Dataset(catalog, x, y, row_ids=np.zeros(4, dtype=int))


def test_dataset_accessors_and_subset(catalog):
    x, y = _toy_rows(catalog, 10)
    ds = Dataset(catalog, x, y, provenance="toy_model")
    np.testing.assert_array_equal(ds.energy("TS"), y[:, 5])
    np.testing.assert_array_equal(ds.input_columns(["A", "P"]),
                                  x[:, [catalog.index("A"), catalog.index("P")]])
    with pytest.raises(KeyError):
        ds.energy("QQ")
    sub = ds.subset(np.array([2, 5, 7]))
    np.testing.assert_array_equal(sub.row_ids, [2, 5, 7])
    rest = ds.subset(np.setdiff1d(np.arange(10), [2, 5, 7]))
    assert set(sub.row_ids).isdisjoint(rest.row_ids)


def test_csv_round_trip_bit_exact(catalog, tmp_path):
    x, y = _toy_rows(catalog, 25, seed=3)
    # inject awkward values that expose lossy formatting
    x[0, 0] = 0.1 + 0.2
    x[1, 1] = 1.0 / 3.0
    x[2, 2] = 1e-17 + 1.0
    ds = Dataset(catalog, x, y, provenance="toy_model")
    path = tmp_path / "d.csv"
    ds.save_csv(path)
    back = Dataset.load_csv(path, catalog)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.energies, ds.energies)


def test_float_table_writes_the_bytes_of_fmt(tmp_path):
    # a float array takes write_csv's tolist() path; each cell must be the
    # text _fmt gives it, subnormals, signed zero and large magnitudes included
    rng = np.random.default_rng(4)
    table = rng.standard_normal((40, 7)) * 10.0 ** rng.uniform(-300.0, 300.0, (40, 7))
    table[0] = [5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, -0.0, 0.0, 1e16, -1e16]
    table[1] = [1e15, 9007199254740993.0, 0.1 + 0.2, 1.0 / 3.0, 1e-5, 1e-4, 123456789.0]
    single = (rng.standard_normal((10, 7)) * 10.0 ** rng.uniform(-44.0, 37.0, (10, 7))).astype(np.float32)
    for values in (table, single):
        header = [f"c{j}" for j in range(values.shape[1])]
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_csv(fast, header, values)
        write_csv(slow, header, [tuple(row) for row in values])  # every cell through _fmt
        assert fast.read_bytes() == slow.read_bytes()
        lines = slow.read_bytes().decode().split("\r\n")
        assert lines[1].split(",") == [_fmt(v) for v in values[0]]


def test_csv_column_order_free(catalog, tmp_path):
    x, y = _toy_rows(catalog, 3)
    ds = Dataset(catalog, x, y, provenance="toy_model")
    path = tmp_path / "d.csv"
    ds.save_csv(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    perm = list(reversed(range(len(header))))
    shuffled = [",".join([row.split(",")[p] for p in perm]) for row in lines]
    path2 = tmp_path / "shuffled.csv"
    path2.write_text("\n".join(shuffled) + "\n")
    back = Dataset.load_csv(path2, catalog)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.energies, ds.energies)


def _write_csv(tmp_path, header, rows):
    path = tmp_path / "x.csv"
    text = ",".join(header) + "\n"
    for r in rows:
        text += ",".join(str(v) for v in r) + "\n"
    path.write_text(text)
    return path


def test_csv_schema_errors(catalog, tmp_path):
    names = list(catalog.names) + list(ENERGY_COLUMNS)
    good_row = [1.0] * 41 + [1, 1, 1, 1, 1, 5]

    path = _write_csv(tmp_path, names + ["extra"], [good_row + [0.0]])
    with pytest.raises(SchemaError, match="extra"):
        Dataset.load_csv(path, catalog)

    path = _write_csv(tmp_path, names[:-1], [good_row[:-1]])
    with pytest.raises(SchemaError, match="missing"):
        Dataset.load_csv(path, catalog)

    path = _write_csv(tmp_path, names[:-1] + [names[0]], [good_row])
    with pytest.raises(SchemaError, match="duplicate"):
        Dataset.load_csv(path, catalog)

    bad_row = list(good_row)
    bad_row[3] = "oops"
    path = _write_csv(tmp_path, names, [good_row, bad_row])
    with pytest.raises(SchemaError, match=r"row 3.*B|B.*row 3"):
        Dataset.load_csv(path, catalog)

    path = _write_csv(tmp_path, names, [good_row[:-2]])
    with pytest.raises(SchemaError, match="row 2"):
        Dataset.load_csv(path, catalog)

    path = _write_csv(tmp_path, names, [])
    with pytest.raises(ValueError, match="no data rows") as exc:
        Dataset.load_csv(path, catalog)
    assert not isinstance(exc.value, SchemaError)
