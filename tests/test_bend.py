import dataclasses
import json

import numpy as np
import pytest

from rdsm.bend import (
    BendState,
    _CohesiveBank,
    _resolve_lc,
    default_specimen,
    load_specimen_config,
    simulate_batch,
    simulate_dataset,
)
from rdsm.catalog import SamplingDistribution, build_catalog
from rdsm.constitutive import bk_mixed_mode_gc
from rdsm.errors import AdmissibilityError, SchemaError
from rdsm.sampling import sample_lhs


@pytest.fixture(scope="module")
def cat():
    return build_catalog()


@pytest.fixture(scope="module")
def sp(cat):
    return default_specimen(cat)


def _default_cfg():
    from importlib import resources

    with resources.files("rdsm.data").joinpath("default_specimen.json").open() as fh:
        return json.load(fh)


def test_characteristic_length_resolution(cat, sp):
    want = _resolve_lc(cat, sp.stacking, 2.0)
    assert sp.characteristic_length == want
    assert 0.01 < sp.characteristic_length < 0.2
    # safety factor 2 leaves margin at the worst +/-20% corner of every ply
    for kind in set(sp.stacking):
        from rdsm.bend import FABRICS

        e_name, x_name, _, g_name = FABRICS[kind]
        x_hi = cat[x_name].mean * 1.2 * 1e3
        e_lo = cat[e_name].mean * 0.8 * 1e6
        g_lo = cat[g_name].mean * 0.8
        u0_hi = x_hi * x_hi / (2.0 * e_lo)
        assert g_lo - u0_hi * sp.characteristic_length > 0.0


def test_config_schema_errors(cat):
    cfg = _default_cfg()
    bad = dict(cfg, typo_key=1.0)
    with pytest.raises(SchemaError, match="typo_key"):
        load_specimen_config(bad, cat)
    bad = dict(cfg)
    del bad["width_in"]
    with pytest.raises(SchemaError, match="width_in"):
        load_specimen_config(bad, cat)
    with pytest.raises(SchemaError, match="format"):
        load_specimen_config(dict(cfg, format="something-else"), cat)
    with pytest.raises(SchemaError, match="v2"):
        load_specimen_config(dict(cfg, version=2), cat)
    with pytest.raises(ValueError, match="12 plies"):
        load_specimen_config(dict(cfg, stacking=cfg["stacking"][:11]), cat)
    with pytest.raises(SchemaError, match="shear_fraction"):
        load_specimen_config(dict(cfg, shear_fraction={"bogus": 1.0}), cat)
    with pytest.raises(SchemaError, match="bogus"):
        load_specimen_config(dict(cfg, stacking=["bogus"] + cfg["stacking"][1:]), cat)


def test_malformed_config_is_schema_error(cat, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    with pytest.raises(SchemaError, match="malformed specimen config"):
        load_specimen_config(path, cat)


def test_config_loads_from_path(cat, sp, tmp_path):
    path = tmp_path / "specimen.json"
    path.write_text(json.dumps(_default_cfg()))
    loaded = load_specimen_config(path, cat)
    assert loaded.stacking == sp.stacking
    assert loaded.characteristic_length == sp.characteristic_length
    assert loaded.kappa_max == sp.kappa_max


def test_explicit_lc_too_large_is_rejected(cat):
    cfg = dict(_default_cfg(), characteristic_length_in=10.0)
    with pytest.raises(AdmissibilityError):
        load_specimen_config(cfg, cat)


def _single(sp, x):
    """Energies (PL, DL, DC, DI, PM, TS) of one sample."""
    return BendState(sp, np.asarray(x, dtype=float)[None, :]).run()[0]


def test_means_run_energy_structure(cat, sp):
    pl, dl, dc, di, pm, ts = _single(sp, cat.means)
    parts = {"PL": pl, "DL": dl, "DC": dc, "DI": di, "PM": pm}
    assert all(v >= 0.0 for v in parts.values())
    # substrate plasticity dominates at catalog means
    assert max(parts, key=parts.get) == "PM"
    assert parts["PM"] > 0.5 * ts
    # the interface stays below initiation at means
    assert di == 0.0
    # fiber fracture, matrix shear, and delamination all engage
    assert pl > 0.0 and dl > 0.0 and dc > 0.0
    # total is the exact five-term float sum
    assert ts == pl + dl + dc + di + pm


def test_small_curvature_stays_elastic(cat, sp):
    quiet = dataclasses.replace(sp, kappa_max=0.001)
    assert _single(quiet, cat.means)[5] == 0.0


def test_batch_matches_single_rows(cat, sp):
    u = sample_lhs(6, len(cat), seed=42).values
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    batch = simulate_batch(X, sp)
    for i in range(X.shape[0]):
        np.testing.assert_array_equal(batch[i], _single(sp, X[i]))


def test_batch_deterministic_and_thread_invariant(cat, sp):
    u = sample_lhs(8, len(cat), seed=7).values
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    a = simulate_batch(X, sp)
    b = simulate_batch(X, sp)
    np.testing.assert_array_equal(a, b)
    c = simulate_batch(X, sp, threads=2)
    np.testing.assert_array_equal(a, c)


def test_monotone_damage_and_dissipation(cat, sp):
    # push a harsh sample so several mechanisms are active
    u = sample_lhs(16, len(cat), seed=3).values
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    state = BendState(sp, X)
    prev = state.energies()
    prev_d11 = state.d11.copy()
    prev_d12 = state.d12.copy()
    for _ in range(state.n_steps):
        state.advance_step()
        cur = state.energies()
        assert np.all(cur[:, :5] >= prev[:, :5] - 1e-12)
        assert np.all(state.d11 >= prev_d11)
        assert np.all(state.d12 >= prev_d12)
        prev = cur
        prev_d11 = state.d11.copy()
        prev_d12 = state.d12.copy()


def test_schedule_convergence_at_means(cat, sp):
    coarse = simulate_batch(cat.means, sp, n_steps=sp.n_steps)[0]
    fine = simulate_batch(cat.means, sp, n_steps=2 * sp.n_steps)[0]
    # doubling the step count moves every energy by less than 1%
    for c, f in zip(coarse, fine):
        if f == 0.0:
            assert c == 0.0
        else:
            assert abs(c - f) / abs(f) < 0.01


def test_schedule_convergence_sampled(cat, sp):
    # random rows may race the interface feedback across a step boundary,
    # so the sampled bound is looser than the means bound
    u = sample_lhs(12, len(cat), seed=11).values
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    coarse = simulate_batch(X, sp, n_steps=sp.n_steps)
    fine = simulate_batch(X, sp, n_steps=2 * sp.n_steps)
    rel = np.abs(coarse[:, 5] - fine[:, 5]) / np.maximum(np.abs(fine[:, 5]), 1e-12)
    assert np.max(rel) < 0.03


def test_disbond_engages_sparsely(cat, sp):
    u = sample_lhs(400, len(cat), seed=2024).values
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    out = simulate_batch(X, sp)
    di, ts = out[:, 3], out[:, 5]
    # most of the support sees no disbond at all
    assert np.mean(di == 0.0) > 0.5
    # rows at or above the 3%-of-total engagement threshold are a small minority
    engaged = np.mean(di >= 0.03 * ts)
    assert 0.02 < engaged < 0.2
    # once initiated, the interface dissipates a visible amount (bimodal DI)
    assert np.median(di[di > 0.0]) > 1.0


def test_dataset_wrapper(cat, sp):
    u = sample_lhs(5, len(cat), seed=5).values
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    ds = simulate_dataset(X, sp)
    assert ds.provenance == "toy_model"
    assert len(ds) == 5
    np.testing.assert_array_equal(ds.inputs, X)


def test_cohesive_bank_full_failure_dissipates_mixed_gc():
    k = np.array([2.5e8])
    bank = _CohesiveBank(
        1,
        1,
        k,
        np.array([7.6e3]),
        np.array([4.9e3]),
        np.array([7.6]),
        np.array([16.6]),
        np.array([2.6]),
        shear_split=False,
        label="test",
    )
    # drive pure shear far past failure in many small steps
    total = 0.0
    for delta in np.linspace(0.0, 0.02, 300)[1:]:
        total += float(bank.advance(np.zeros((1, 1)), np.full((1, 1), delta))[0, 0])
    want = bk_mixed_mode_gc(0.0, 1.0, 0.0, 7.6, 16.6, 2.6)
    assert total == pytest.approx(want, rel=1e-9)
    assert bank.damage()[0, 0] == pytest.approx(1.0)


def test_cohesive_bank_mixed_mode_between_pure_modes():
    def run(ratio):
        bank = _CohesiveBank(
            1,
            1,
            np.array([2.5e8]),
            np.array([7.6e3]),
            np.array([4.9e3]),
            np.array([7.6]),
            np.array([16.6]),
            np.array([2.6]),
            shear_split=False,
            label="test",
        )
        total = 0.0
        for d in np.linspace(0.0, 0.02, 400)[1:]:
            total += float(
                bank.advance(np.full((1, 1), d), np.full((1, 1), ratio * d))[0, 0]
            )
        return total

    pure_n = run(0.0)
    mixed = run(1.0)
    pure_s = run(50.0)
    assert pure_n == pytest.approx(7.6, rel=1e-6)
    assert pure_s == pytest.approx(16.6, rel=1e-3)
    assert pure_n < mixed < pure_s


def test_matrix_failure_freezes_shear(cat, sp):
    # a tiny plastic strain cap fails the matrix almost immediately
    x = cat.means.copy()
    x[cat.index("epsilon")] = 1e-6
    assert _single(sp, x)[0] < _single(sp, cat.means)[0]


def test_inadmissible_sample_is_named(cat, sp):
    x = cat.means.copy()
    x[cat.index("X7781")] = 700.0  # ksi, far beyond the damage-law margin
    with pytest.raises(AdmissibilityError, match="ply"):
        _single(sp, x)


def test_input_shape_validation(cat, sp):
    with pytest.raises(ValueError, match="columns"):
        simulate_batch(np.ones((3, 5)), sp)
    bad = np.tile(cat.means, (2, 1))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        simulate_batch(bad, sp)
