"""Direct/summed workflow tests: gate geometry, frozen-parameter semantics,
summation exactness, subspace resampling, UQ sweeps, and comparison reports."""

import json
import math

import numpy as np
import pytest

from rdsm.bend import default_specimen, simulate_dataset
from rdsm.catalog import SamplingDistribution, build_catalog
from rdsm.dataset import MECHANISMS, Dataset
from rdsm.errors import SchemaError
from rdsm.sampling import sample_lhs
from rdsm.surrogate import NetworkSpec, SurrogateModel, TrainReport
from rdsm.workflow import (
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
    x = box.transform(sample_lhs(320, len(cat), seed=3).values, cat)
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
    summed = SummedRDSM(members, EngagementGate(), cat, box)
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
    summed = SummedRDSM(members, gate, cat, box)
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


def test_summed_member_validation(summed_fit, cat, box):
    members = dict(summed_fit.summed.members)
    incomplete = {k: v for k, v in members.items() if k != "DI"}
    with pytest.raises(ValueError, match="cover exactly"):
        SummedRDSM(incomplete, EngagementGate(), cat, box)
    swapped = dict(members)
    swapped["PL"], swapped["DL"] = members["DL"], members["PL"]
    with pytest.raises(ValueError, match="models"):
        SummedRDSM(swapped, EngagementGate(), cat, box)
    with pytest.raises(ValueError, match="bounded"):
        SummedRDSM(members, EngagementGate(), cat, SamplingDistribution.normal_10std())
    with pytest.raises(KeyError):
        SummedRDSM(members, EngagementGate(axes=("P", "XiS", "NOPE")), cat, box)


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
    x = box.transform(sample_lhs(40, len(cat), seed=0).values, cat)
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
    x = box.transform(sample_lhs(150, len(cat), seed=21).values, cat)
    ts = 10.0 * x[:, cat.index("Aln")]
    ds = _synthetic_dataset(cat, x, ts)
    small = NetworkSpec(input_dim=len(cat), hidden_layers=(8,), epochs=120, seed=0)
    fit = fit_direct(ds, network=small)
    assert fit.rdsm.retained_params == ("Aln",)


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
        assert not fit.needs_resampling
        assert 1 <= len(fit.rdsm.retained_params) <= 3
        assert fit.rdsm.surrogate.spec.input_dim == len(fit.rdsm.retained_params)
        assert fit.screening is not None


def test_fit_mechanism_zero_variance_needs_resampling(cat, box):
    x = box.transform(sample_lhs(60, len(cat), seed=2).values, cat)
    ds = _synthetic_dataset(cat, x, 5.0 + x[:, 0])
    fit = fit_mechanism(ds, "DC")
    assert fit.rdsm is None
    assert fit.screening is None
    assert fit.needs_resampling
    assert "constant" in fit.note


def test_fit_mechanism_argument_errors(splits):
    train, _ = splits
    with pytest.raises(ValueError, match="mechanism"):
        fit_mechanism(train, "TS")
    with pytest.raises(ValueError, match="retained"):
        fit_mechanism(train, "PM", network=NetworkSpec(input_dim=40))


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
    assert len(sub.fitting) == int(np.count_nonzero(sub.engaged_mask))


def test_resample_deterministic(sp):
    a = resample_subspace(sp, ("P", "XiS"), n=32, seed=4)
    b = resample_subspace(sp, ("P", "XiS"), n=32, seed=4)
    assert np.array_equal(a.dataset.inputs, b.dataset.inputs)
    assert np.array_equal(a.dataset.energies, b.dataset.energies)


def test_resample_empty_fitting_subset_flagged(sp):
    sub = resample_subspace(
        sp, ("P",), n=16, seed=0, threshold=1e12, threshold_mode="absolute"
    )
    assert sub.empty
    assert len(sub.fitting) == 0
    assert not np.any(sub.engaged_mask)


def test_resample_argument_errors(sp):
    with pytest.raises(ValueError, match="mechanism"):
        resample_subspace(sp, ("P",), n=8, seed=0, mechanism="XX")
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
    assert not di.needs_resampling
    assert 1 <= len(di.rdsm.retained_params) <= 3


def test_fit_summed_starved_disbond_gets_flagged_constant(splits, sp, cat, box):
    train, _ = splits
    fit = fit_summed(train, sp, seed=5, resample_n=80)
    di = fit.fits["DI"]
    assert di.needs_resampling
    assert di.rdsm is None
    assert "engaged" in di.note
    # the assembled model still answers, with a disbond term of exactly zero
    rng = np.random.default_rng(3)
    x = box.transform(rng.random((50, len(cat))), cat)
    parts = fit.summed.predict_breakdown(x)
    assert np.all(parts["DI"] == 0.0)
    assert np.all(np.isfinite(fit.summed.predict(x)))


def test_fit_summed_argument_errors(splits, sp, cat, base_ds):
    train, _ = splits
    with pytest.raises(ValueError, match="100"):
        fit_summed(base_ds.subset(np.arange(50)), sp)
    with pytest.raises(KeyError):
        fit_summed(train, sp, gate=EngagementGate(axes=("P", "XiS", "NOPE")))


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
    assert rep.n_validation == len(held)
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
    x = box.transform(sample_lhs(40, len(cat), seed=21).values, cat)
    fresh = simulate_dataset(x, sp)
    # a fresh design numbers its rows 0..n-1, the same ids the training rows carry
    assert set(fresh.row_ids.tolist()) & set(train.row_ids.tolist())
    rep = compare_approaches(
        direct_fit.rdsm, summed_fit.summed, fresh, train_keys=train.row_keys()
    )
    assert rep.n_validation == 40


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
