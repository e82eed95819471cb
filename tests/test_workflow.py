"""Direct/summed workflow tests: gate geometry, frozen-parameter semantics,
summation exactness, subspace resampling, UQ sweeps, and comparison reports."""

import dataclasses
import functools
import json
import math
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from test_surrogate import assert_matches_one_pass, one_float32_pass
from rdsm.bend import default_specimen, simulate_dataset
from rdsm.catalog import SamplingDistribution, build_catalog
from rdsm.dataset import MECHANISMS, Dataset
from rdsm.errors import SchemaError, fields_doc
from rdsm.sampling import sample_lhs
from rdsm.sensitivity import sobol_indices
from rdsm.surrogate import NetworkSpec, SurrogateModel, TrainReport
from rdsm.workflow import (
    RESAMPLE_N,
    EngagementGate,
    MechanismRDSM,
    SummedRDSM,
    compare_approaches,
    engagement_mask,
    fit_direct,
    fit_mechanism,
    fit_summed,
    resample_subspace,
    split_holdout,
    uq_sweep,
)

GATE_VERTICES = (
    (0.4, 0.0, 0.0),
    (0.0, 0.5, 0.0),
    (0.85, 0.3, 1.0),
    (0.0, 1.0, 1.0),
)


@pytest.fixture(scope="module")
def cat():
    return build_catalog()


@pytest.fixture(scope="module")
def sp(cat):
    return default_specimen(cat)


@pytest.fixture(scope="module")
def box():
    return SamplingDistribution.uniform_pm20()


@pytest.fixture(scope="module")
def base_ds(cat, sp, box):
    x = box.transform(sample_lhs(320, len(cat), seed=3), cat)
    return simulate_dataset(x, sp)


@pytest.fixture(scope="module")
def splits(base_ds):
    return split_holdout(base_ds, 48, seed=9)


@pytest.fixture(scope="module")
def direct_fit(splits, cat):
    train, _ = splits
    small = NetworkSpec(input_dim=len(cat), hidden_layers=(16, 16), epochs=400, seed=1)
    return fit_direct(train, network=small)


@pytest.fixture(scope="module")
def summed_fit(splits, sp):
    train, _ = splits
    return fit_summed(train, sp, seed=5, resample_n=640)


def _constant_rdsm(mechanism, value, catalog, anchor):
    """Model that predicts one constant: zero weights, degenerate out span."""
    spec = NetworkSpec(input_dim=1, hidden_layers=(1,), epochs=1, scaling="identity")
    report = TrainReport(0.0, math.nan, 0, 0, 0, 0, True, 0, (), ())
    model = SurrogateModel(
        spec,
        [np.zeros((1, 1)), np.zeros((1, 1))],
        [np.zeros(1), np.zeros(1)],
        np.zeros(1),
        np.ones(1),
        value,
        value,
        report,
    )
    return MechanismRDSM(mechanism, (anchor,), model, catalog.means, catalog)


def _synthetic_dataset(cat, x, ts):
    """External-provenance dataset whose mechanism columns are zero."""
    energies = np.zeros((len(ts), 6))
    energies[:, 5] = ts
    return Dataset(cat, x, energies, provenance="external_csv")


# -- engagement gate ------------------------------------------------------------


def test_gate_vertices_on_boundary():
    gate = EngagementGate()
    for v in GATE_VERTICES:
        assert abs(gate.boundary_margin(*v)) <= 1e-12
        assert gate.engaged(*v)  # closed boundary


def test_gate_extreme_points():
    gate = EngagementGate()
    assert not gate.engaged(0.0, 0.0, 0.0)
    for z in (0.0, 0.5, 1.0):
        assert gate.engaged(1.0, 1.0, z)
    # a scalar point gets a plain bool
    assert isinstance(gate.engaged(0.3, 0.3, 0.3), bool)


def test_gate_boundary_midpoints_exact():
    # at z = 0.5 the ruling passes through the midpoints of both edge pairs
    gate = EngagementGate()
    assert gate.boundary_margin((0.4 + 0.85) / 2, 0.15, 0.5) == 0.0
    assert gate.boundary_margin(0.0, 0.75, 0.5) == 0.0
    # midpoint of the z=0 segment
    assert gate.boundary_margin(0.2, 0.25, 0.0) == 0.0


def test_gate_monotone_in_p_and_xs():
    gate = EngagementGate()
    grid = np.linspace(0.0, 1.0, 21)
    p, xs, z = np.meshgrid(grid, grid, grid, indexing="ij")
    engaged = gate.engaged(p, xs, z).astype(np.int8)
    # once engaged, increasing p or xs at fixed other coordinates stays engaged
    assert np.all(engaged[1:, :, :] >= engaged[:-1, :, :])
    assert np.all(engaged[:, 1:, :] >= engaged[:, :-1, :])


def test_gate_rejects_out_of_range():
    gate = EngagementGate()
    for bad in ((1.2, 0.5, 0.5), (0.5, -0.1, 0.5), (0.5, 0.5, float("nan"))):
        with pytest.raises(ValueError, match="outside"):
            gate.engaged(*bad)


def test_gate_vectorized_matches_scalar():
    gate = EngagementGate()
    rng = np.random.default_rng(0)
    pts = rng.random((200, 3))
    vec = gate.engaged(pts[:, 0], pts[:, 1], pts[:, 2])
    scalar = np.array([gate.engaged(*p) for p in pts])
    assert np.array_equal(vec, scalar)


def test_gate_needs_three_distinct_axes():
    with pytest.raises(ValueError, match="three distinct"):
        EngagementGate(axes=("P", "P", "GiII"))


# -- mechanism models -----------------------------------------------------------


def test_mechanism_rdsm_validation(summed_fit, cat):
    member = summed_fit.summed.members["PM"]
    model = member.surrogate
    with pytest.raises(ValueError, match="energy column"):
        MechanismRDSM("XX", member.retained_params, model, cat.means, cat)
    with pytest.raises(ValueError, match="at least one"):
        MechanismRDSM("PM", (), model, cat.means, cat)
    with pytest.raises(ValueError, match="duplicates"):
        dup = (member.retained_params[0],) * 2
        MechanismRDSM("PM", dup, model, cat.means, cat)
    with pytest.raises(KeyError):
        MechanismRDSM("PM", ("NOPE",), model, cat.means, cat)
    wrong_width = ("E", "A", "B", "Aln")[: len(member.retained_params) + 1]
    with pytest.raises(ValueError, match="inputs"):
        MechanismRDSM("PM", wrong_width, model, cat.means, cat)
    with pytest.raises(ValueError, match="coordinates"):
        MechanismRDSM("PM", member.retained_params, model, cat.means[:5], cat)


def test_frozen_parameters_change_nothing(summed_fit, splits, cat):
    _, held = splits
    member = summed_fit.summed.members["PM"]
    x = np.array(held.inputs[:10])
    base = member.predict(x)
    frozen = [n for n in cat.names if n not in member.retained_params]
    bumped = x.copy()
    bumped[:, cat.indices(frozen)] *= 1.17
    assert np.array_equal(member.predict(bumped), base)
    # a retained parameter does move the prediction
    moved = x.copy()
    moved[:, cat.index(member.retained_params[0])] *= 1.1
    assert not np.array_equal(member.predict(moved), base)


def _random_rdsm(mechanism, retained, catalog, box, seed, full_width=False):
    """Untrained model over retained, on a reduced or a full-width network
    whose random weights make every input it reads matter."""
    rng = np.random.default_rng(seed)
    cols = slice(None) if full_width else catalog.indices(retained)
    dims = (len(catalog) if full_width else len(retained), 12, 9, 1)
    spec = NetworkSpec(input_dim=dims[0], hidden_layers=dims[1:-1])
    lo, hi = box.bounds(catalog)
    model = SurrogateModel(
        spec,
        [rng.normal(0.0, 0.5, size=shape) for shape in zip(dims, dims[1:])],
        [rng.normal(0.0, 0.5, size=w) for w in dims[1:]],
        lo[cols],
        hi[cols],
        1.0,
        3.0,
        TrainReport(0.0, 0.0, 0, 0, 0, 0, False, 0, (), ()),
    )
    return MechanismRDSM(mechanism, retained, model, catalog.means, catalog)


def _support(model) -> tuple[int, ...]:
    """Sorted catalog columns a model's predict reads: every term's support."""
    return tuple(sorted({i for support, _ in model.terms for i in support}))


def test_columns_outside_support_change_nothing(cat, box):
    members = {
        m: _random_rdsm(m, params, cat, box, seed)
        for seed, (m, params) in enumerate(
            (("PL", ("E", "XS")), ("DL", ("sigmaY",)), ("DC", ("P", "C", "GS")),
             ("PM", ("XiT", "nu")))
        )
    }
    members["DI"] = _constant_rdsm("DI", 4.0625, cat, "GiI")
    gate = EngagementGate()
    summed = SummedRDSM(members, gate, cat)
    reduced = members["DC"]
    frozen_full = _random_rdsm("TS", ("A", "P", "Aln"), cat, box, 7, full_width=True)
    assert frozen_full.surrogate.spec.input_dim == len(cat)
    expect = {
        reduced: ("P", "C", "GS"),
        frozen_full: ("A", "P", "Aln"),
        summed: ("E", "XS", "sigmaY", "P", "C", "GS", "XiT", "nu", "GiI", *gate.axes),
    }
    rng = np.random.default_rng(12)
    x = box.transform(rng.random((300, len(cat))), cat)
    other = box.transform(rng.random((300, len(cat))), cat)
    for model, names in expect.items():
        assert _support(model) == tuple(sorted(set(cat.indices(names).tolist())))
        outside = [j for j in range(len(cat)) if j not in _support(model)]
        assert np.ptp(model.predict(x)) > 0.0
        base = model.predict(x).tobytes()
        for cols in (*([j] for j in outside), outside):
            bumped = x.copy()
            bumped[:, cols] = other[:, cols]
            assert model.predict(bumped).tobytes() == base, cols
            if model is summed:
                want = summed.predict_breakdown(x)
                got = summed.predict_breakdown(bumped)
                assert all(got[m].tobytes() == want[m].tobytes() for m in MECHANISMS)
    # a gate axis is in the support because it moves the disbond term
    p = cat.index("P")
    lo, hi = box.bounds(cat)
    low, high = x.copy(), x.copy()
    low[:, p], high[:, p] = lo[p], hi[p]
    assert not np.array_equal(summed.engaged(low), summed.engaged(high))


def _counted(fn):
    """fn with a running count of the rows it has evaluated."""
    def counted(x):
        counted.rows += len(x)
        return fn(x)

    counted.rows = 0
    return counted


@pytest.mark.parametrize("kind", ["uniform_pm20", "normal_10std"])
def test_sobol_runs_each_summed_term_on_its_own_blocks(cat, box, kind):
    members = {
        m: _random_rdsm(m, params, cat, box, seed, full_width=m == "PM")
        for seed, (m, params) in enumerate(
            (("PL", ("E", "XS")), ("DL", ("sigmaY",)), ("DC", ("P", "C", "GS")),
             ("DI", ("P", "GiI")), ("PM", ("XiT", "nu")))
        )
    }
    summed = SummedRDSM(members, EngagementGate(), cat)
    dist = getattr(SamplingDistribution, kind)()
    n = 128
    kwargs = dict(seed=6, dist=dist, catalog=cat, n_bootstrap=20)
    # the reference evaluates predict on all 41 pick-freeze blocks
    whole = _counted(summed.predict)
    want = sobol_indices(whole, len(cat), n, **kwargs)
    assert whole.rows == (2 + len(cat)) * n
    for member in members.values():
        member.predict = _counted(member.predict)
    summed.engaged = _counted(summed.engaged)
    got = sobol_indices(summed, len(cat), n, **kwargs)
    for member in members.values():
        assert member.predict.rows == (2 + len(member.support)) * n, member.mechanism
    assert summed.engaged.rows == (2 + 3) * n
    for attr in ("s1", "st", "s1_stderr", "st_stderr"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
    outside = [j for j in range(len(cat)) if j not in _support(summed)]
    assert np.all(got.st[outside] == 0.0) and np.all(got.st[list(_support(summed))] > 0.0)


def _one_pass(member, x):
    """member.predict as one float32 forward pass over the whole batch, a
    full-width network's other columns tiled from the baseline."""
    cols = member.catalog.indices(member.retained_params)
    if member.surrogate.spec.input_dim == len(cols):
        rows = x[:, cols]
    else:
        rows = np.tile(member.baseline, (len(x), 1))
        rows[:, cols] = x[:, cols]
    return one_float32_pass(member.surrogate, rows)


@pytest.mark.parametrize("n", (1, 7, 2047, 2048, 2049, 4100, 5000, 6145, 16384))
def test_members_and_sum_predict_in_blocks(cat, box, n):
    # PM is a full-width member, the others reduced
    members = {
        m: _random_rdsm(m, params, cat, box, seed, full_width=m == "PM")
        for seed, (m, params) in enumerate(
            (("PL", ("E", "XS")), ("DL", ("sigmaY",)), ("DC", ("P", "C", "GS")),
             ("DI", ("P", "GiI")), ("PM", ("XiT", "nu", "A")))
        )
    }
    summed = SummedRDSM(members, EngagementGate(), cat)
    x = box.transform(np.random.default_rng(n).random((n, len(cat))), cat)
    parts = summed.predict_breakdown(x)
    engaged = summed.engaged(x)
    for name, member in members.items():
        want = _one_pass(member, x)
        assert_matches_one_pass(member.predict(x), want)
        assert_matches_one_pass(parts[name], np.where(engaged, want, 0.0) if name == "DI" else want)
    total = functools.reduce(operator.add, (parts[m] for m in MECHANISMS))
    assert total.tobytes() == summed.predict(x).tobytes()


def test_bench_fixture_round_trips(cat, tmp_path):
    # each fixture file loads and saves back byte for byte (the manifest as
    # equal JSON), as the surrogate_query benchmark's set-up checks; its
    # weights predate float32 training, so a model must keep the float64
    # values it loaded, whatever precision it predicts in
    fixture = Path(__file__).resolve().parents[1] / "bench" / "fixture"
    direct = MechanismRDSM.load(fixture / "direct_rdsm.json", cat)
    summed = SummedRDSM.load(fixture / "summed", cat)
    direct.save(tmp_path / "direct_rdsm.json")
    summed.save(tmp_path / "summed")
    files = sorted(p.relative_to(fixture) for p in fixture.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    # each check is a bool, so a failure does not diff whole model files
    for name in files:
        original, written = (fixture / name).read_bytes(), (tmp_path / name).read_bytes()
        if name.name == "manifest.json":
            same = json.loads(written) == json.loads(original)
        else:
            same = written == original
        assert same, f"{name} does not round-trip"
    models = {"direct_rdsm.json": direct.surrogate,
              **{f"summed/{m}.json": member.surrogate for m, member in summed.members.items()}}
    for name, model in models.items():
        doc = json.loads((fixture / name).read_text())
        doc = doc.get("model", doc)
        for arrays, key in ((model.weights, "weights"), (model.biases, "biases")):
            for a, values in zip(arrays, doc[key], strict=True):
                same = a.dtype == np.float64 and a.reshape(-1).tolist() == values
                assert same, f"{name} {key} are not the loaded float64 values"


def _sobol_peak(cat, model, kind) -> int:
    """tracemalloc peak of a 16384-row Sobol' run on a bench fixture model;
    tracemalloc counts numpy's own allocations, so the peak repeats exactly."""
    path = Path(__file__).resolve().parents[1] / "bench" / "fixture" / model
    loaded = SummedRDSM.load(path, cat) if path.is_dir() else MechanismRDSM.load(path, cat)
    dist = getattr(SamplingDistribution, kind)()
    tracemalloc.start()
    try:
        sobol_indices(loaded, len(cat), 16384, dist=dist, catalog=cat)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sobol_memory_on_the_summed_fixture(cat):
    # A and B keep the 11 columns the terms read, and each row block is
    # mapped as it is built: the peaks measured 9.0 MB (uniform) and 8.3 MB
    # (normal), against 22.5 and 50.4 MB with the whole pair kept and mapped
    for kind, ceiling in (("uniform_pm20", 10e6), ("normal_10std", 14e6)):
        peak = _sobol_peak(cat, "summed", kind)
        assert peak < ceiling, (kind, peak)


def test_sobol_memory_on_the_direct_fixture(cat):
    # 3 kept columns; the 60-80 network's pass over one 2048-row block sets
    # the 4.8 MB peak, which was 21.6 MB (uniform) with the whole pair kept
    for kind in ("uniform_pm20", "normal_10std"):
        peak = _sobol_peak(cat, "direct_rdsm.json", kind)
        assert peak < 5e6, (kind, peak)


def test_mechanism_forward_and_shape_errors(summed_fit, cat):
    member = summed_fit.summed.members["PL"]
    # a flat vector is one row
    assert member.predict(cat.means)[0] == member.predict(cat.means[None, :])[0]
    with pytest.raises(ValueError, match="columns"):
        member.predict(np.ones((3, 7)))


# -- summed model ---------------------------------------------------------------


def test_summed_constant_members_sum_exactly(cat, box):
    values = {"PL": 1.5, "DL": 2.25, "DC": 3.125, "DI": 4.0625, "PM": 5.5}
    members = {
        m: _constant_rdsm(m, values[m], cat, cat.names[i])
        for i, m in enumerate(MECHANISMS)
    }
    summed = SummedRDSM(members, EngagementGate(), cat)
    x = cat.means[None, :]  # normalized gate point (0.5, 0.5, 0.5): engaged
    expected = ((((values["PL"] + values["DL"]) + values["DC"]) + values["DI"])
                + values["PM"])
    assert summed.predict(x)[0] == expected
    assert summed.engaged(x)[0]
    parts = summed.predict_breakdown(x)
    assert {name: float(parts[name][0]) for name in MECHANISMS} == values


def test_summed_gate_zeroes_disbond_exactly(cat, box):
    values = {"PL": 1.5, "DL": 2.25, "DC": 3.125, "DI": 4.0625, "PM": 5.5}
    members = {
        m: _constant_rdsm(m, values[m], cat, cat.names[i])
        for i, m in enumerate(MECHANISMS)
    }
    gate = EngagementGate()
    summed = SummedRDSM(members, gate, cat)
    x = np.array(cat.means)
    for axis in gate.axes:  # lower box corner of the gate axes: (0, 0, 0)
        x[cat.index(axis)] *= 0.8
    assert not summed.engaged(x)[0]
    assert summed.predict_breakdown(x)["DI"][0] == 0.0
    assert summed.predict(x)[0] == ((((values["PL"] + values["DL"]) + values["DC"])
                                    + 0.0) + values["PM"])


def test_breakdown_resums_bit_exactly(summed_fit, cat, box):
    rng = np.random.default_rng(11)
    u = rng.random((1000, len(cat)))
    x = box.transform(u, cat)
    summed = summed_fit.summed
    total = summed.predict(x)
    parts = summed.predict_breakdown(x)
    resum = parts["PL"]
    for name in ("DL", "DC", "DI", "PM"):
        resum = resum + parts[name]
    assert np.array_equal(total, resum)
    # the gate mask is exactly where the disbond term survives
    engaged = summed.engaged(x)
    assert np.array_equal(parts["DI"] == 0.0, ~engaged | (parts["DI"] == 0.0))
    assert np.all(parts["DI"][~engaged] == 0.0)


def test_summed_member_validation(tmp_path, summed_fit, cat):
    members = dict(summed_fit.summed.members)
    incomplete = {k: v for k, v in members.items() if k != "DI"}
    with pytest.raises(ValueError, match="cover exactly"):
        SummedRDSM(incomplete, EngagementGate(), cat)
    swapped = dict(members)
    swapped["PL"], swapped["DL"] = members["DL"], members["PL"]
    with pytest.raises(ValueError, match="models"):
        SummedRDSM(swapped, EngagementGate(), cat)
    with pytest.raises(KeyError):
        SummedRDSM(members, EngagementGate(axes=("P", "XiS", "NOPE")), cat)
    # the gate is normalized over the uniform box, so a manifest naming another
    # distribution is a schema error (exit 4)
    summed_fit.summed.save(tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["distribution"] = fields_doc(SamplingDistribution.normal_10std())
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="uniform_pm20"):
        SummedRDSM.load(tmp_path, cat)


def test_summed_clips_gate_coordinates_outside_box(summed_fit, cat):
    summed = summed_fit.summed
    gate = summed.gate
    beyond = np.array(cat.means)
    at_edge = np.array(cat.means)
    for axis in gate.axes:
        beyond[cat.index(axis)] = cat.means[cat.index(axis)] * 1.5
        at_edge[cat.index(axis)] = cat.means[cat.index(axis)] * 1.2
    assert summed.engaged(beyond[None, :])[0] == summed.engaged(at_edge[None, :])[0]
    assert np.all(np.isfinite(summed.predict(beyond[None, :])))
    assert np.all(summed.gate_coordinates(beyond[None, :]) <= 1.0)


def test_summed_save_load_round_trip(tmp_path, summed_fit, splits, cat):
    _, held = splits
    summed = summed_fit.summed
    outdir = tmp_path / "model"
    summed.save(outdir)
    back = SummedRDSM.load(outdir, cat)
    assert np.array_equal(back.predict(held.inputs), summed.predict(held.inputs))
    assert back.gate.axes == summed.gate.axes
    for m in MECHANISMS:
        assert back.members[m].retained_params == summed.members[m].retained_params


def test_summed_load_rejects_bad_manifests(tmp_path, summed_fit, cat):
    summed = summed_fit.summed
    outdir = tmp_path / "model"
    summed.save(outdir)
    manifest = outdir / "manifest.json"

    with pytest.raises(SchemaError, match="manifest"):
        SummedRDSM.load(tmp_path / "nowhere", cat)

    doc = json.loads(manifest.read_text())
    doc["version"] = 99
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="version"):
        SummedRDSM.load(outdir, cat)

    doc["version"] = 1
    doc["surprise"] = True
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="surprise"):
        SummedRDSM.load(outdir, cat)

    del doc["surprise"]
    doc["catalog_names"] = ["bogus"] + doc["catalog_names"][1:]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="catalog"):
        SummedRDSM.load(outdir, cat)

    doc["catalog_names"] = list(cat.names)
    doc["gate"]["vertices"][0][0] = 0.41
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="vertices"):
        SummedRDSM.load(outdir, cat)

    doc["gate"]["vertices"][0][0] = 0.4
    manifest.write_text(json.dumps(doc))
    (outdir / "PL.json").unlink()
    with pytest.raises(SchemaError, match="PL"):
        SummedRDSM.load(outdir, cat)

    manifest.write_text("{ not json")
    with pytest.raises(SchemaError, match="malformed"):
        SummedRDSM.load(outdir, cat)


# -- direct route -----------------------------------------------------------------


def test_fit_direct_requires_rows(cat, sp, box):
    x = box.transform(sample_lhs(40, len(cat), seed=0), cat)
    ds = simulate_dataset(x, sp)
    with pytest.raises(ValueError, match="100"):
        fit_direct(ds)


def test_fit_direct_artifacts(direct_fit, splits, cat):
    train, _ = splits
    assert direct_fit.full_model.spec.input_dim == len(cat)
    retained = direct_fit.rdsm.retained_params
    assert 1 <= len(retained) <= 4
    assert retained == direct_fit.screening.retained
    assert direct_fit.rdsm.surrogate.spec.input_dim == len(retained)
    assert direct_fit.rdsm.mechanism == "TS"
    logworths = [e.logworth for e in direct_fit.screening.entries]
    assert logworths == sorted(logworths, reverse=True)


def test_fit_direct_reduced_model_tracks_truth(direct_fit, splits):
    _, held = splits
    truth = held.energy("TS")
    preds = direct_fit.rdsm.predict(held.inputs)
    mae = float(np.mean(np.abs(preds - truth) / np.abs(truth))) * 100
    assert mae < 15.0


def test_fit_direct_single_dominant_input(cat, box):
    x = box.transform(sample_lhs(150, len(cat), seed=21), cat)
    ts = 10.0 * x[:, cat.index("Aln")]
    ds = _synthetic_dataset(cat, x, ts)
    small = NetworkSpec(input_dim=len(cat), hidden_layers=(8,), epochs=120, seed=0)
    fit = fit_direct(ds, network=small)
    assert fit.rdsm.retained_params == ("Aln",)


def test_floor_of_one_keeps_the_top_entry(cat, box):
    # energies drawn apart from the inputs: no parameter clears the
    # significance floor, so every reduced fit keeps the top entry alone
    x = box.transform(sample_lhs(150, len(cat), seed=0), cat)
    energies = np.abs(np.random.default_rng(0).normal(5.0, 1.0, (150, 6)))
    ds = Dataset(cat, x, energies, provenance="external_csv")
    fit = fit_mechanism(ds, "PL")
    top = fit.screening.entries[0].name
    assert fit.screening.retained == ()
    assert fit.rdsm.retained_params == (top,)
    assert fit.rdsm.surrogate.spec.input_dim == 1
    assert fit.note == f"no parameter cleared the significance floor; kept {top}"
    small = NetworkSpec(input_dim=len(cat), hidden_layers=(8,), epochs=120, seed=0)
    for mode, width in (("retrained", 1), ("frozen_full", len(cat))):
        direct = fit_direct(ds, network=small, query_mode=mode)
        assert direct.screening.retained == ()
        assert direct.rdsm.retained_params == (direct.screening.entries[0].name,)
        assert direct.rdsm.surrogate.spec.input_dim == width
        assert len(direct.rdsm.support) == 1


def test_fit_direct_frozen_full_mode(splits, cat):
    train, held = splits
    small = NetworkSpec(input_dim=len(cat), hidden_layers=(16, 16), epochs=200, seed=1)
    fit = fit_direct(train, network=small, query_mode="frozen_full")
    assert fit.rdsm.surrogate is fit.full_model
    # queries pin every non-retained input at the baseline means
    x = np.array(held.inputs[:8])
    filled = np.tile(cat.means, (8, 1))
    cols = cat.indices(fit.rdsm.retained_params)
    filled[:, cols] = x[:, cols]
    assert np.array_equal(fit.rdsm.predict(x), fit.full_model.predict(filled))
    with pytest.raises(ValueError, match="query_mode"):
        fit_direct(train, network=small, query_mode="cached")


# -- mechanism route ---------------------------------------------------------------


def test_fit_mechanism_caps_and_recipes(summed_fit):
    for mech in ("PL", "DL", "DC", "PM"):
        fit = summed_fit.fits[mech]
        assert fit.mechanism == mech
        assert fit.rdsm is not None
        assert 1 <= len(fit.rdsm.retained_params) <= 3
        assert fit.rdsm.surrogate.spec.input_dim == len(fit.rdsm.retained_params)
        assert fit.screening is not None


def test_fit_mechanism_zero_variance_needs_resampling(cat, box):
    x = box.transform(sample_lhs(60, len(cat), seed=2), cat)
    ds = _synthetic_dataset(cat, x, 5.0 + x[:, 0])
    fit = fit_mechanism(ds, "DC")
    assert fit.rdsm is None
    assert fit.screening is None
    assert "constant" in fit.note


def test_fit_mechanism_argument_errors(splits):
    train, _ = splits
    with pytest.raises(ValueError, match="mechanism"):
        fit_mechanism(train, "TS")


def test_fit_mechanism_deterministic(splits):
    train, _ = splits
    a = fit_mechanism(train, "DC", seed=7)
    b = fit_mechanism(train, "DC", seed=7)
    assert a.rdsm.retained_params == b.rdsm.retained_params
    for wa, wb in zip(a.rdsm.surrogate.weights, b.rdsm.surrogate.weights):
        assert np.array_equal(wa, wb)


# -- subspace resampling -------------------------------------------------------------


def test_resample_varies_only_named(cat, sp):
    varied = ("P", "XiS", "GiII")
    sub = resample_subspace(sp, varied, n=64, seed=13)
    ds = sub.dataset
    assert len(ds) == 64
    assert ds.provenance == "toy_model"
    frozen = [n for n in cat.names if n not in varied]
    for name in frozen:
        col = ds.inputs[:, cat.index(name)]
        assert np.all(col == cat.means[cat.index(name)])
    for name in varied:
        col = ds.inputs[:, cat.index(name)]
        assert len(np.unique(col)) == 64
        mean = cat.means[cat.index(name)]
        assert np.all(col >= 0.8 * mean) and np.all(col <= 1.2 * mean)
    assert np.array_equal(sub.engaged_mask, engagement_mask(ds, "DI"))
    engaged = ds.subset(sub.engaged_mask)
    assert len(engaged) == int(np.count_nonzero(sub.engaged_mask))
    assert np.all(engaged.energy("DI") >= 0.03 * engaged.energy("TS"))


def test_resample_memory_is_one_block(cat, sp):
    # the summed route's DI resample runs as blocks of at most 2048 rows; on a
    # 3-step ramp its peak measured 10.1 MB, and 18.0 MB with one state over
    # all 3277 rows
    short = dataclasses.replace(sp, n_steps=3)
    tracemalloc.start()
    try:
        resample_subspace(short, cat.names[:12], n=RESAMPLE_N, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6, peak


def test_resample_deterministic(sp):
    a = resample_subspace(sp, ("P", "XiS"), n=32, seed=4)
    b = resample_subspace(sp, ("P", "XiS"), n=32, seed=4)
    assert np.array_equal(a.dataset.inputs, b.dataset.inputs)
    assert np.array_equal(a.dataset.energies, b.dataset.energies)


def test_resample_empty_fitting_subset_flagged(sp):
    sub = resample_subspace(
        sp, ("P",), n=16, seed=0, threshold=1e12, threshold_mode="absolute"
    )
    assert len(sub.dataset) == 16
    assert not np.any(sub.engaged_mask)
    assert len(sub.dataset.subset(sub.engaged_mask)) == 0


def test_resample_argument_errors(sp):
    with pytest.raises(ValueError, match="threshold_mode"):
        resample_subspace(sp, ("P",), n=8, seed=0, threshold_mode="sometimes")
    with pytest.raises(ValueError, match="threshold"):
        resample_subspace(sp, ("P",), n=8, seed=0, threshold=0.0)
    with pytest.raises(ValueError, match="at least one"):
        resample_subspace(sp, (), n=8, seed=0)
    with pytest.raises(ValueError, match="duplicates"):
        resample_subspace(sp, ("P", "P"), n=8, seed=0)
    with pytest.raises(KeyError):
        resample_subspace(sp, ("NOPE",), n=8, seed=0)


def test_engagement_mask_threshold_arithmetic(cat):
    # rows engineered at 1% and 5% disbond share; only the 5% rows survive
    x = np.tile(cat.means, (4, 1))
    energies = np.zeros((4, 6))
    energies[:, 5] = [100.0, 100.0, 100.0, 0.0]
    energies[:, 3] = [1.0, 5.0, 3.0, 0.0]  # DI: 1%, 5%, exactly 3%, zero total
    energies[:, 4] = energies[:, 5] - energies[:, 3]
    ds = Dataset(cat, x, energies, provenance="external_csv")
    mask = engagement_mask(ds, "DI", threshold=0.03)
    assert mask.tolist() == [False, True, True, False]
    assert engagement_mask(ds, "DI", threshold=2.0, threshold_mode="absolute").tolist() == [
        False,
        True,
        True,
        False,
    ]
    with pytest.raises(ValueError, match="threshold_mode"):
        engagement_mask(ds, "DI", threshold_mode="mixed")


# -- summed route -----------------------------------------------------------------


def test_fit_summed_assembles_all_mechanisms(summed_fit):
    assert set(summed_fit.fits) == set(MECHANISMS)
    assert set(summed_fit.summed.members) == set(MECHANISMS)
    assert summed_fit.disbond_base_screening is not None
    sub = summed_fit.subspace
    assert sub is not None
    assert 1 <= len(sub.varied_params) <= 12
    # the focused design found enough engaged rows to fit a real model here
    di = summed_fit.fits["DI"]
    assert di.rdsm is not None
    assert 1 <= len(di.rdsm.retained_params) <= 3


def test_fit_summed_starved_disbond_gets_flagged_constant(splits, sp, cat, box):
    # an 80-row resample engages a few rows, under the 30 a screen needs; an
    # absolute threshold no row reaches engages none.  Either way DI enters
    # the sum as a zero constant on the first gate axis, flagged with the
    # base-data screen
    train, _ = splits
    rng = np.random.default_rng(3)
    x = box.transform(rng.random((50, len(cat))), cat)
    for options in ({}, {"threshold": 1e12, "threshold_mode": "absolute"}):
        fit = fit_summed(train, sp, seed=5, resample_n=80, **options)
        n_engaged = int(np.count_nonzero(fit.subspace.engaged_mask))
        di = fit.fits["DI"]
        assert di.rdsm is None
        if options:
            assert n_engaged == 0
            assert di.note == "disbond never crossed the engagement threshold"
        else:
            assert 1 <= n_engaged < 30
            assert di.note == f"only {n_engaged} engaged rows; need 30 to screen"
        assert di.screening is fit.disbond_base_screening
        member = fit.summed.members["DI"]
        assert member.retained_params == ("P",)
        assert np.all(member.predict(x) == 0.0)
        # the assembled model still answers, with a disbond term of exactly zero
        parts = fit.summed.predict_breakdown(x)
        assert np.all(parts["DI"] == 0.0)
        assert np.all(np.isfinite(fit.summed.predict(x)))


def test_fit_summed_constant_mechanisms(tmp_path, sp, cat, box):
    # DL and DI zeroed on every row: DL enters the sum as a flagged constant,
    # and with no disbond on the base data to screen, the resample varies
    # the gate axes and then the other members' retained parameters
    x = box.transform(sample_lhs(200, len(cat), seed=3), cat)
    energies = simulate_dataset(x, sp).energies.copy()
    energies[:, [MECHANISMS.index("DL"), MECHANISMS.index("DI")]] = 0.0
    energies[:, 5] = energies[:, :5].sum(axis=1)
    fit = fit_summed(Dataset(cat, x, energies, provenance="external_csv"), sp,
                     seed=0, resample_n=120)
    dl = fit.fits["DL"]
    assert dl.rdsm is None
    assert dl.note == "DL is constant over the dataset"
    member = fit.summed.members["DL"]
    assert member.retained_params == (cat.names[0],)
    assert np.all(member.predict(x) == 0.0)

    assert fit.disbond_base_screening is None
    retained = [p for m in ("PL", "DC", "PM") for p in fit.fits[m].rdsm.retained_params]
    varied = fit.subspace.varied_params
    assert varied == tuple(dict.fromkeys(EngagementGate().axes + tuple(retained)))
    assert len(varied) < 3 + len(retained)  # a repeated name was dropped

    fit.summed.save(tmp_path / "model")
    back = SummedRDSM.load(tmp_path / "model", cat)
    assert back.members["DL"].retained_params == (cat.names[0],)
    assert np.array_equal(back.predict(x), fit.summed.predict(x))


def test_fit_summed_argument_errors(sp, base_ds):
    with pytest.raises(ValueError, match="100"):
        fit_summed(base_ds.subset(np.arange(50)), sp)


# -- uncertainty sweep ---------------------------------------------------------------


class _LinearPredictor:
    """y = coeffs . x; closed-form mean and std under independent marginals."""

    def __init__(self, catalog, coeffs):
        self.catalog = catalog
        self.baseline = catalog.means
        self.coeffs = np.asarray(coeffs, dtype=float)

    def predict(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.coeffs


def test_uq_empty_subset_is_baseline(direct_fit):
    rep = uq_sweep(direct_fit.rdsm, [(), ("E",)], n=500, seed=0)
    assert rep.rows[0].params == ()
    assert rep.rows[0].std == 0.0
    baseline = direct_fit.rdsm.predict(direct_fit.rdsm.baseline[None, :])[0]
    assert rep.rows[0].mean == baseline
    assert rep.rows[1].std > 0.0


def test_uq_linear_model_matches_analytic_std(cat):
    coeffs = np.zeros(len(cat))
    active = ("E", "A", "B")
    weights = (2.0, 1.5, 0.7)
    for name, w in zip(active, weights):
        coeffs[cat.index(name)] = w
    model = _LinearPredictor(cat, coeffs)
    subsets = [("E",), ("E", "A"), ("E", "A", "B")]
    rep = uq_sweep(model, subsets, n=5000, seed=1)
    sigmas = {n: 0.1 * cat.means[cat.index(n)] for n in active}
    expected_mean = float(coeffs @ cat.means)
    stds = []
    for row, subset in zip(rep.rows, subsets):
        analytic = math.sqrt(
            sum((coeffs[cat.index(n)] * sigmas[n]) ** 2 for n in subset)
        )
        assert row.std == pytest.approx(analytic, rel=0.03)
        assert row.mean == pytest.approx(expected_mean, rel=0.01)
        stds.append(row.std)
    assert stds == sorted(stds)  # releasing a parameter only adds variance


def test_uq_diffs_are_symmetric_percent(direct_fit):
    rep = uq_sweep(direct_fit.rdsm, [("E",), ("E", "A")], n=500, seed=2)
    (a, b) = rep.rows
    dm = 100.0 * abs(b.mean - a.mean) / ((abs(a.mean) + abs(b.mean)) / 2)
    ds_ = 100.0 * abs(b.std - a.std) / ((abs(a.std) + abs(b.std)) / 2)
    assert rep.diffs == ((dm, ds_),)


def test_uq_validates_subsets(direct_fit):
    with pytest.raises(ValueError, match="extend"):
        uq_sweep(direct_fit.rdsm, [("E", "A"), ("E", "B")], n=500)
    with pytest.raises(ValueError, match="duplicates"):
        uq_sweep(direct_fit.rdsm, [("E", "E")], n=500)
    with pytest.raises(KeyError):
        uq_sweep(direct_fit.rdsm, [("NOPE",)], n=500)
    with pytest.raises(ValueError, match="at least one"):
        uq_sweep(direct_fit.rdsm, [], n=500)


def test_uq_needs_two_rows_before_sampling(direct_fit, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a one-row sweep reached the sampler")

    monkeypatch.setattr("rdsm.workflow.sample_lss", never)
    for n in (1, 0):
        with pytest.raises(ValueError, match="at least 2 rows"):
            uq_sweep(direct_fit.rdsm, [("E",)], n=n)


def test_uq_spread_grows_on_fitted_model(direct_fit):
    retained = direct_fit.rdsm.retained_params
    subsets = [retained[:k] for k in range(1, len(retained) + 1)]
    rep = uq_sweep(direct_fit.rdsm, subsets, n=2000, seed=0)
    means = [r.mean for r in rep.rows]
    assert max(means) - min(means) < 0.05 * abs(means[0])
    stds = [r.std for r in rep.rows]
    assert stds[-1] >= stds[0]


# -- comparison -------------------------------------------------------------------


class _TruthPredictor:
    def __init__(self, truth):
        self.truth = np.asarray(truth, dtype=float)

    def predict(self, x):
        return self.truth


def test_compare_basic_report(direct_fit, summed_fit, splits):
    _, held = splits
    rep = compare_approaches(
        direct_fit.rdsm,
        summed_fit.summed,
        held,
        train_keys=splits[0].row_keys(),
    )
    assert rep.all_rows.n_rows == len(held)
    assert rep.all_rows.direct.mae_pct < 15.0
    assert rep.all_rows.summed.mae_pct < 15.0
    assert rep.all_rows.truth_mean == pytest.approx(
        float(np.mean(held.energy("TS")))
    )
    n_engaged = int(np.count_nonzero(summed_fit.summed.engaged(held.inputs)))
    assert rep.engaged is not None and rep.engaged.n_rows == n_engaged


def test_compare_identical_predictors_identical_columns(summed_fit, splits):
    _, held = splits
    rep = compare_approaches(summed_fit.summed, summed_fit.summed, held)
    assert rep.all_rows.direct == rep.all_rows.summed
    if rep.engaged is not None:
        assert rep.engaged.direct == rep.engaged.summed


def test_compare_truth_predictor_scores_zero(summed_fit, splits):
    _, held = splits
    truth = _TruthPredictor(held.energy("TS"))
    rep = compare_approaches(truth, summed_fit.summed, held)
    assert rep.all_rows.direct.mae_pct == 0.0
    assert rep.all_rows.direct.mae_pct_std == 0.0
    assert rep.all_rows.direct.pred_mean == rep.all_rows.truth_mean


def test_compare_rejects_contaminated_validation(direct_fit, summed_fit, splits):
    train, held = splits
    with pytest.raises(ValueError, match="training"):
        compare_approaches(
            direct_fit.rdsm, summed_fit.summed, train, train_keys=train.row_keys()
        )
    with pytest.raises(ValueError, match="empty validation"):
        compare_approaches(
            direct_fit.rdsm, summed_fit.summed, held.subset(np.zeros(len(held), bool))
        )


def test_compare_accepts_fresh_rows_with_training_ids(
    direct_fit, summed_fit, splits, cat, sp, box
):
    train, _ = splits
    x = box.transform(sample_lhs(40, len(cat), seed=21), cat)
    fresh = simulate_dataset(x, sp)
    # a fresh design numbers its rows 0..n-1, the same ids the training rows carry
    assert set(fresh.row_ids.tolist()) & set(train.row_ids.tolist())
    rep = compare_approaches(
        direct_fit.rdsm, summed_fit.summed, fresh, train_keys=train.row_keys()
    )
    assert rep.all_rows.n_rows == 40


def test_compare_rejects_training_row_under_new_id(direct_fit, summed_fit, splits):
    train, held = splits
    leaked = train.subset(np.arange(3))
    validation = Dataset(
        held.catalog,
        np.vstack([held.inputs, leaked.inputs]),
        np.vstack([held.energies, leaked.energies]),
        provenance="toy_model",
        row_ids=np.arange(10_000, 10_000 + len(held) + 3),
    )
    assert not set(validation.row_ids.tolist()) & set(train.row_ids.tolist())
    with pytest.raises(ValueError, match="3 validation rows were used for training"):
        compare_approaches(
            direct_fit.rdsm, summed_fit.summed, validation, train_keys=train.row_keys()
        )


def test_compare_engaged_section_not_applicable(direct_fit, summed_fit, splits):
    _, held = splits
    nonengaged = held.subset(~summed_fit.summed.engaged(held.inputs))
    assert len(nonengaged) > 0
    rep = compare_approaches(direct_fit.rdsm, summed_fit.summed, nonengaged)
    assert rep.engaged is None
    assert rep.all_rows.n_rows == len(nonengaged)


def test_compare_all_zero_truth_excludes_every_row(direct_fit, summed_fit, splits):
    # every truth is zero, so no row carries a percent error (and numpy must
    # not warn: RuntimeWarnings are errors under pytest here)
    _, held = splits
    zero = Dataset(held.catalog, held.inputs, np.zeros_like(held.energies))
    rep = compare_approaches(direct_fit.rdsm, summed_fit.summed, zero)
    for section in (rep.all_rows, rep.engaged):
        for stats in (section.direct, section.summed):
            assert math.isnan(stats.mae_pct) and math.isnan(stats.mae_pct_std)
            assert stats.n_excluded == section.n_rows


# -- dataset plumbing ----------------------------------------------------------------


def test_split_holdout_partitions(base_ds):
    rest, held = split_holdout(base_ds, 48, seed=9)
    assert len(rest) == len(base_ds) - 48 and len(held) == 48
    assert not set(rest.row_ids.tolist()) & set(held.row_ids.tolist())
    together = sorted(rest.row_ids.tolist() + held.row_ids.tolist())
    assert together == base_ds.row_ids.tolist()
    with pytest.raises(ValueError, match="hold out"):
        split_holdout(base_ds, len(base_ds), seed=0)
    with pytest.raises(ValueError, match="hold out"):
        split_holdout(base_ds, 0, seed=0)
