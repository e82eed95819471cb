import concurrent.futures
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from bend_reference import ReferenceBendState, ReferenceCohesiveBank
from bisection import bisect_feedback_separation, bisect_initiation, bisect_power_hardening
from step_convergence import BOUND, step_errors

from rdsm import bend
from rdsm.bend import (
    BendState,
    _CohesiveBank,
    _resolve_lc,
    _solve_power_hardening,
    default_specimen,
    load_specimen_config,
    simulate_batch,
    simulate_dataset,
)
from rdsm.catalog import SamplingDistribution, build_catalog
from rdsm.constitutive import bk_mixed_mode_gc, czm_damage, jc_stress
from rdsm.errors import AdmissibilityError, NumericalFailureError, SchemaError
from rdsm.sampling import sample_lhs
from rdsm.workflow import _subspace_design, engagement_mask


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
    u = sample_lhs(6, len(cat), seed=42)
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    batch = simulate_batch(X, sp)
    for i in range(X.shape[0]):
        np.testing.assert_array_equal(batch[i], _single(sp, X[i]))


def test_batch_deterministic_and_thread_invariant(cat, sp):
    u = sample_lhs(8, len(cat), seed=7)
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    a = simulate_batch(X, sp)
    b = simulate_batch(X, sp)
    np.testing.assert_array_equal(a, b)
    c = simulate_batch(X, sp, threads=2)
    np.testing.assert_array_equal(a, c)


def test_blocks_match_one_state(cat, sp, monkeypatch):
    # rows are independent, so any split into blocks gives one state's bits
    sp = dataclasses.replace(sp, n_steps=20)
    X = SamplingDistribution.uniform_pm20().transform(sample_lhs(10, len(cat), seed=9), cat)
    whole = [BendState(sp, X[:n]).run() for n in range(11)]
    monkeypatch.setattr(bend, "_SIMULATE_ROWS", 3)
    sizes = []
    block_fn = bend._simulate_block

    def spy(specimen, block):
        sizes.append(block.shape[0])
        return block_fn(specimen, block)

    # real worker processes: more blocks than workers, gathered in row order
    for n in (4, 7, 10):
        assert np.array_equal(simulate_batch(X[:n], sp, threads=2), whole[n])
    monkeypatch.setattr(bend, "_simulate_block", spy)
    # worker threads in this process, so the spy sees every block a pool gets
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        concurrent.futures.ThreadPoolExecutor)
    for threads in (1, 2):
        for n in range(1, 11):
            sizes.clear()
            assert np.array_equal(simulate_batch(X[:n], sp, threads=threads), whole[n])
            # fewer than 2 * threads rows run here as one thread
            workers = threads if n >= 2 * threads else 1
            assert len(sizes) == max(workers, -(-n // 3)), (threads, n, sizes)
            assert sum(sizes) == n and max(sizes) <= 3 and max(sizes) - min(sizes) <= 1


def test_batch_faults_name_the_row_in_the_batch(cat, sp, monkeypatch):
    # the whole batch is checked before a block runs, so a fault in a later
    # block names its row in the batch, as one state over every row would
    monkeypatch.setattr(bend, "_SIMULATE_ROWS", 3)
    X = np.tile(cat.means, (8, 1))
    X[6, cat.index("P")] = 0.0
    with pytest.raises(ValueError, match="sample 6: hardening exponent P"):
        simulate_batch(X, sp)
    X = np.tile(cat.means, (8, 1))
    X[7, cat.index("X7781")] = 700.0  # ksi, far beyond the damage-law margin
    with pytest.raises(AdmissibilityError, match="sample 7: ply fracture energy"):
        simulate_batch(X, sp, threads=2)

    blocks = []

    def overflow(specimen, block):
        blocks.append(block)
        out = BendState(specimen, block).run()
        if len(blocks) == 2:
            out[0, 3] = np.inf
        return out

    monkeypatch.setattr(bend, "_simulate_block", overflow)
    with pytest.raises(NumericalFailureError, match="sample 3, energy column 3"):
        simulate_batch(np.tile(cat.means, (5, 1)), dataclasses.replace(sp, n_steps=2))


def test_simulate_memory_is_one_block(cat, sp):
    # a state's size does not depend on the number of steps, so a short ramp
    # measures it; tracemalloc counts numpy's own allocations.  One 2048-row
    # block's state peaked at 10.2 MB on 8192 rows; one state over all 8192
    # rows peaked at 39.2 MB
    short = dataclasses.replace(sp, n_steps=3)
    X = SamplingDistribution.uniform_pm20().transform(sample_lhs(4 * 2048, len(cat), seed=2), cat)
    tracemalloc.start()
    try:
        simulate_batch(X, short)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_step_memory_of_a_resample_block(cat, sp):
    # one 1639-row block of a 3277-row disbond-style resample, over the
    # whole ramp, since the solver's working set grows with the plastic
    # points.  It peaked at 7.97 MB under tracemalloc when one step held
    # every kernel's temporaries to its end and recomputed the flow
    # stresses; 5.72 MB with the flow stresses carried and each kernel's
    # temporaries freed on return
    varied = ("P", "GS", "C", "sigmaY", "EiC", "XiT", "XiS", "GiII")
    unit = sample_lhs(3277, len(varied), 0)
    x = _subspace_design(unit, varied, cat, SamplingDistribution.uniform_pm20(), cat.means)[:1639]
    tracemalloc.start()
    try:
        BendState(sp, x).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.97e6, peak


def test_monotone_damage_and_dissipation(cat, sp):
    # push a harsh sample so several mechanisms are active
    u = sample_lhs(16, len(cat), seed=3)
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    state = BendState(sp, X)
    prev = state.energies()
    prev_d11 = state.d11.copy()
    prev_d12 = state.d12.copy()
    for _ in range(sp.n_steps):
        state.advance_step()
        cur = state.energies()
        assert np.all(cur[:, :5] >= prev[:, :5] - 1e-12)
        assert np.all(state.d11 >= prev_d11)
        assert np.all(state.d12 >= prev_d12)
        prev = cur
        prev_d11 = state.d11.copy()
        prev_d12 = state.d12.copy()


def test_schedule_convergence_at_means(cat, sp):
    coarse = simulate_batch(cat.means, sp)[0]
    fine = simulate_batch(cat.means, dataclasses.replace(sp, n_steps=2 * sp.n_steps))[0]
    # doubling the step count moves every energy by less than 1%
    for c, f in zip(coarse, fine):
        if f == 0.0:
            assert c == 0.0
        else:
            assert abs(c - f) / abs(f) < 0.01


def test_schedule_convergence_sampled(cat, sp):
    # per row, doubling the step count moves the total by less than 0.1%;
    # the cohesive layers initiate within the step, so the largest step
    # error left is the fiber damage's second-order one
    u = sample_lhs(12, len(cat), seed=11)
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    coarse = simulate_batch(X, sp)
    fine = simulate_batch(X, dataclasses.replace(sp, n_steps=2 * sp.n_steps))
    rel = np.abs(coarse[:, 5] - fine[:, 5]) / np.maximum(np.abs(fine[:, 5]), 1e-12)
    assert np.max(rel) < 0.001


def test_disbond_converges_in_the_step_count(cat, sp):
    # cohesive initiation is located within the step and the interface's
    # damage feedback is solved within it, so the delamination and disbond
    # energies at the shipped step count are each within 0.02% (relative L1
    # over rows) of a run with four times as many steps
    u = sample_lhs(400, len(cat), seed=2024)
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    coarse = simulate_batch(X, sp)[:, 2:4]
    fine = simulate_batch(X, dataclasses.replace(sp, n_steps=4 * sp.n_steps))[:, 2:4]
    assert np.count_nonzero(fine[:, 1]) > 100
    err = np.abs(coarse - fine).sum(axis=0) / fine.sum(axis=0)
    assert np.all(err < 0.0002), err


def test_every_energy_converges_to_a_fine_ramp(cat, sp):
    # at the shipped step count every energy is within 0.1% (relative L1
    # over rows) of a 3200-step ramp on both sampling distributions; CI runs
    # tests/step_convergence.py, the same check on 400 rows each
    for name, err in step_errors(cat, sp, 100, seed=7).items():
        assert np.all(err < BOUND), (name, err)


def test_disbond_engages_sparsely(cat, sp):
    u = sample_lhs(400, len(cat), seed=2024)
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
    u = sample_lhs(5, len(cat), seed=5)
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
        label="test",
    )
    # drive pure shear far past failure in many small steps
    total = 0.0
    for delta in np.linspace(0.0, 0.02, 300)[1:]:
        total += float(bank.advance(np.zeros((1, 1)), np.full((1, 1), delta))[0, 0])
    want = bk_mixed_mode_gc(0.0, 1.0, 0.0, 7.6, 16.6, 2.6)
    assert total == pytest.approx(want, rel=1e-9)
    assert czm_damage(bank.delta_max, bank.delta0_m, bank.delta_f_m)[0, 0] == pytest.approx(1.0)


def test_cohesive_bank_damage_matches_reference():
    # a random bank state: initiated points at every stage of the law,
    # uninitiated ones with all lengths zero, as the bank leaves them
    rng = np.random.default_rng(3)
    n, m = 40, 11
    ones = np.ones(n)
    bank = _CohesiveBank(n, m, ones, ones, ones, ones, ones, ones, label="test")
    ref = ReferenceCohesiveBank(bank)
    initiated = rng.random((n, m)) < 0.6
    delta0 = rng.uniform(1e-5, 1e-3, (n, m))
    delta_f = delta0 * rng.uniform(1.01, 50.0, (n, m))
    delta_max = delta_f * rng.uniform(0.0, 1.5, (n, m))
    delta_max[:, 0] = delta0[:, 0]
    delta_max[:, 1] = delta_f[:, 1]
    for b in (bank, ref):
        b.delta0_m = np.where(initiated, delta0, 0.0)
        b.delta_f_m = np.where(initiated, delta_f, 0.0)
        b.delta_max = np.where(initiated, delta_max, 0.0)
    ref.initiated = initiated
    got = czm_damage(bank.delta_max, bank.delta0_m, bank.delta_f_m)
    assert got.tobytes() == ref.damage().tobytes()
    assert np.all(got[~initiated] == 0.0) and 0.0 < got[initiated].max() <= 1.0


def test_feedback_separation_matches_bisection():
    # a random interface bank state, fb = 60 as shipped: points initiated at
    # every stage of the law and points not yet initiated, driven so that
    # some stay put, some settle on the quadratic's root, some snap to
    # failure and some initiate in this very step
    rng = np.random.default_rng(7)
    n, m, fb = 400, 3, 60.0
    k = rng.uniform(0.5e8, 2e8, n)
    t0_n, t0_s = rng.uniform(3e3, 9e3, n), rng.uniform(3e3, 9e3, n)
    bank = _CohesiveBank(n, m, k, t0_n, t0_s, rng.uniform(3, 8, n), rng.uniform(10, 20, n),
                         rng.uniform(1, 3, n), label="interface", feedback=fb)
    initiated = rng.random((n, m)) < 0.7
    d0 = rng.uniform(2e-5, 1e-4, (n, m))
    df = d0 * rng.uniform(1.5, 200.0, (n, m))
    h = d0 + (1.3 * df - d0) * rng.random((n, m))
    bank.delta0_m = np.where(initiated, d0, 0.0)
    bank.delta_f_m = np.where(initiated, df, 0.0)
    bank.delta_max = np.where(initiated, h, 0.0)
    # initiated points: r around the largest that keeps delta_max in place;
    # the rest: a quadratic criterion from 0.25 to 4
    held = h / (1.0 + fb * czm_damage(h, d0, df))
    r = np.where(initiated, held * 10.0 ** rng.uniform(-0.3, 1.0, (n, m)),
                 np.sqrt(rng.uniform(0.25, 4.0, (n, m))) * t0_s[:, None] / k[:, None])
    angle = rng.uniform(0.0, np.pi / 2, (n, m))
    before = bank.delta_max.copy()
    bank.advance(r * np.cos(angle), r * np.sin(angle))

    now = bank.delta_f_m > 0.0
    fresh = now & ~initiated
    d0, df, got = bank.delta0_m[now], bank.delta_f_m[now], bank.delta_max[now]
    r = np.hypot(r * np.cos(angle), r * np.sin(angle))[now]
    want = np.maximum(before[now], bisect_feedback_separation(r, before[now], d0, df, fb))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(bank.delta_max[~now], 0.0)
    # every branch ran, on more than a handful of points
    stay = got == before[now]
    snap = ~stay & (got > df)
    root = ~stay & ~snap
    assert min(fresh.sum(), (~fresh[now] & stay).sum(), snap.sum(), root.sum()) > 20, (
        fresh.sum(), stay.sum(), snap.sum(), root.sum())
    assert np.all(got[fresh[now] & root] >= d0[fresh[now] & root])
    np.testing.assert_allclose(got[snap], (r * (1.0 + fb))[snap], rtol=1e-15)


def test_cohesive_initiation_on_the_step_segment():
    # one step whose drivers turn: from below the quadratic criterion to
    # past it, in a different mode mix.  A point initiates where the
    # criterion reaches 1 on the straight segment between the two steps'
    # drivers, and freezes the separation and mode mix it has there
    rng = np.random.default_rng(11)
    n = 300
    k, t0_n, t0_s = rng.uniform(0.5e8, 2e8, n), rng.uniform(3e3, 9e3, n), rng.uniform(3e3, 9e3, n)
    gc_i, gc_ii, bk = rng.uniform(3, 8, n), rng.uniform(10, 20, n), rng.uniform(1, 3, n)
    bank = _CohesiveBank(n, 1, k, t0_n, t0_s, gc_i, gc_ii, bk, label="test")
    scale = np.stack([k / t0_n, k / t0_s])
    start = rng.uniform(0.0, 1.0, (2, n)) / scale
    start *= rng.uniform(0.0, 0.99, n) / np.hypot(*(scale * start))  # criterion below 1
    end = rng.uniform(0.0, 1.0, (2, n)) / scale
    end *= rng.uniform(1.0, 4.0, n) / np.hypot(*(scale * end))  # at least 1
    bank.advance(start[0][:, None], start[1][:, None])
    assert not bank.delta_f_m.any()
    bank.advance(end[0][:, None], end[1][:, None])

    t = bisect_initiation(start, end, scale)
    dn, ds = start + t * (end - start)
    d0 = np.hypot(dn, ds)
    np.testing.assert_allclose(bank.delta0_m[:, 0], d0, rtol=1e-12, atol=0.0)
    shear_sq = (ds / d0) ** 2
    gcm = bk_mixed_mode_gc(1.0 - shear_sq, shear_sq, 0.0, gc_i, gc_ii, bk)
    np.testing.assert_allclose(bank.delta_f_m[:, 0], 2.0 * gcm / (k * d0), rtol=1e-10, atol=0.0)
    # the end-of-step ray, where initiation froze before, is another point
    ray = np.hypot(*end) / np.hypot(*(scale * end))
    assert np.median(np.abs(ray - d0) / d0) > 0.01


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
    for name in ("P", "Aln"):
        bad = np.tile(cat.means, (3, 1))
        bad[2, cat.index(name)] = 0.0
        with pytest.raises(ValueError, match=f"sample 2: hardening exponent {name} must be positive"):
            BendState(sp, bad)


@pytest.mark.parametrize("layer", ["ply", "substrate"])
def test_return_map_flow_stress_matches_full_evaluation(cat, layer):
    # the carried flow stress is re-evaluated only where points flow; everywhere
    # it must equal the power law at the new plastic strain, bit for bit
    rng = np.random.default_rng(3)
    n, m = 64, 12
    names = ("GS", "sigmaY", "C", "P") if layer == "ply" else ("E", "A", "B", "Aln")
    units = (1e6, 1e3, 1e6, 1.0) if layer == "ply" else (1e6, 1e3, 1e3, 1.0)
    stiffness, y0, coef, expo = (
        cat[k].mean * u * rng.uniform(0.8, 1.2, n) for k, u in zip(names, units)
    )
    columns = tuple(a[:, None] for a in (y0, coef, expo))
    eps_p = np.where(rng.random((n, m)) < 0.5, 0.0, 10.0 ** rng.uniform(-6.0, -2.0, (n, m)))
    flow_old = jc_stress(eps_p, *columns)
    strain = eps_p + flow_old / stiffness[:, None] * rng.uniform(0.5, 2.0, (n, m))
    failed = rng.random((n, m)) >= 0.8 if layer == "ply" else None
    eps_p_new, flow_new = eps_p.copy(), flow_old.copy()
    _, flowing, work = bend._return_map(
        strain, eps_p_new, flow_new, stiffness, y0, coef, expo, failed
    )
    plastic = np.zeros((n, m), dtype=bool)
    plastic.flat[flowing] = True
    assert plastic.any() and not plastic.all()
    if failed is not None:
        assert not (plastic & failed).any()
    full = jc_stress(eps_p_new, *columns)
    np.testing.assert_array_equal(flow_new, full)
    np.testing.assert_array_equal(eps_p_new[~plastic], eps_p[~plastic])
    trapezoid = np.where(plastic, 0.5 * (flow_old + full) * (eps_p_new - eps_p), 0.0)
    np.testing.assert_array_equal(work, trapezoid.sum(axis=1))


def test_return_map_refuses_state_it_cannot_write_in_place():
    # the state is written through ravel(), which copies a non-C-contiguous
    # array, so such a state would lose its updates
    n, m = 4, 3
    ones = np.ones(n)
    strain = np.full((n, m), 1e-2)
    for order in ("eps_p", "flow"):
        state = {"eps_p": np.zeros((n, m)), "flow": np.ones((n, m))}
        state[order] = np.asfortranarray(state[order])
        with pytest.raises(ValueError, match="C-contiguous"):
            bend._return_map(strain, state["eps_p"], state["flow"], ones, ones, ones, ones)


def _state_arrays(state):
    """Every evolving array of a bend state and of its cohesive banks, by name."""
    arrays = {name: getattr(state, name)
              for name in ("d11", "d12", "eps12_p", "sig12_eff", "failed", "eps_p_m")}
    arrays.update({f"energy {k}": v for k, v in state.energy.items()})
    for label in ("coh", "iface"):
        bank = getattr(state, label)
        for name in ("delta_max", "delta0_m", "delta_f_m", "dissipated", "prev_n", "prev_s"):
            arrays[f"{label}.{name}"] = getattr(bank, name)
        # the oracle keeps an initiated mask; the bank reads it from delta_f_m
        initiated = bank.initiated if isinstance(bank, ReferenceCohesiveBank) else bank.delta_f_m > 0.0
        arrays[f"{label}.initiated"] = initiated
    return arrays


def _reference_design(cat, design, n=120):
    box = SamplingDistribution.uniform_pm20()
    if design == "pinned":  # the disbond resample's shape: a few columns varied, the rest at means
        varied = ("P", "GS", "C", "sigmaY", "EiC", "XiT", "XiS", "GiII")
        return _subspace_design(sample_lhs(n, len(varied), 5), varied, cat, box, cat.means)
    if design == "normal_10std":
        return SamplingDistribution.normal_10std().transform(sample_lhs(n, len(cat), 6), cat)
    x = box.transform(sample_lhs(n, len(cat), 4), cat)
    if design == "failing":  # matrix failure mid-ramp, by plastic strain and by shear damage
        x[0::3, cat.index("epsilon")] *= 0.01
        x[1::3, cat.index("d12")] *= 0.05
    return x


@pytest.mark.parametrize("design", ["uniform", "normal_10std", "pinned", "failing"])
def test_step_matches_full_array_reference(cat, sp, design):
    # the kernels run each law only where it reaches and carry the flow
    # stresses; after every step each state array and energy must be the
    # bits of the reference, which evaluates every law at every point
    x = _reference_design(cat, design)
    state, ref = BendState(sp, x), ReferenceBendState(sp, x)
    for _ in range(sp.n_steps):
        state.advance_step()
        ref.advance_step()
        got, want = _state_arrays(state), _state_arrays(ref)
        for name, a in want.items():
            assert got[name].shape == a.shape and got[name].tobytes() == a.tobytes(), (
                design, state.step, name)
    ply = (state.sig_y[:, None], state.c_h[:, None], state.p_h[:, None])
    metal = (state.a_m[:, None], state.b_m[:, None], state.n_m[:, None])
    np.testing.assert_array_equal(state.flow12, jc_stress(state.eps12_p, *ply))
    np.testing.assert_array_equal(state.flow_m, jc_stress(state.eps_p_m, *metal))
    # every branch ran: fiber and shear damage, both banks initiated, and
    # matrix failure on the failing design alone
    assert (state.d11 > 0.0).any() and (state.d12 > 0.0).any() and (state.eps_p_m > 0.0).any()
    assert state.coh.delta_f_m.any() and state.iface.delta_f_m.any()
    assert state.failed.any() == (design == "failing")


def test_matrix_failure_matches_the_full_retest(cat, sp):
    # after the first step only flowing or damaged points are re-tested; row
    # 0 has a zero plastic strain cap, so it fails on step 1 without flowing
    x = _reference_design(cat, "failing", n=60)
    x[0, cat.index("epsilon")] = 0.0
    state = BendState(sp, x)
    failed = np.zeros_like(state.failed)
    for _ in range(sp.n_steps):
        state.advance_step()
        failed |= (state.eps12_p >= state.eps_max[:, None]) | (
            state.d12 >= state.d12_max[:, None] - 1e-15
        )
        assert np.array_equal(state.failed, failed), state.step
        if state.step == 1:
            assert failed[0].all() and not state.eps12_p[0].any()
            first = failed.sum()
    assert failed.sum() > first  # and others fail later in the ramp


def _hardening_points(cat, expo, n=4000, seed=0):
    """Plastic return-map points around the catalog's ply and substrate
    constants (psi): half start at eps_p = 0, and the elastic trial exceeds
    the current flow stress by a fraction from 1e-15 to 10."""
    rng = np.random.default_rng(seed)
    ply = rng.random(n) < 0.5
    consts = [
        np.where(ply, cat[p].mean * up, cat[m].mean * um) * rng.uniform(0.8, 1.2, n)
        for p, up, m, um in (("GS", 1e6, "E", 1e6), ("sigmaY", 1e3, "A", 1e3), ("C", 1e6, "B", 1e3))
    ]
    stiffness, y0, coef = consts
    expo = np.full(n, expo)
    lo = np.where(rng.random(n) < 0.5, 0.0, 10.0 ** rng.uniform(-7.0, -1.0, n))
    flow = y0 + coef * lo**expo
    total = lo + flow * (1.0 + 10.0 ** rng.uniform(-15.0, 1.0, n)) / stiffness
    plastic = stiffness * (total - lo) > flow  # the solver's precondition
    return [a[plastic] for a in (total, stiffness, y0, coef, expo, lo)]


@pytest.mark.parametrize("expo", [0.49, 0.87, 1.0, 1.3])
def test_newton_residual_within_bisection(cat, expo):
    args = _hardening_points(cat, expo)
    total, stiffness, y0, coef, _, lo = args

    def residual(e):
        return np.abs(stiffness * (total - e) - y0 - coef * e**expo)

    e = _solve_power_hardening(*args)
    assert np.all((lo <= e) & (e <= total))
    oracle = bisect_power_hardening(*args)
    assert np.all(residual(e) <= residual(oracle) + 1e-14 * stiffness * total)


def test_newton_root_ignores_the_rest_of_the_batch(cat, sp, monkeypatch):
    calls = [_hardening_points(cat, x, n=500, seed=i) for i, x in enumerate((0.49, 0.87, 1.0, 1.3))]

    def record(*args):
        calls.append(args)
        return _solve_power_hardening(*args)

    monkeypatch.setattr(bend, "_solve_power_hardening", record)
    u = sample_lhs(4, len(cat), seed=5)
    simulate_batch(SamplingDistribution.uniform_pm20().transform(u, cat), sp)
    for args in calls:
        full = _solve_power_hardening(*args)
        for pick in (slice(None, None, 3), slice(1, 2), np.argsort(args[0])[-5:]):
            part = _solve_power_hardening(*(a[pick] for a in args))
            np.testing.assert_array_equal(part, full[pick])


def test_newton_matches_bisection_on_a_design(cat, sp, monkeypatch):
    u = sample_lhs(200, len(cat), seed=11)
    X = SamplingDistribution.uniform_pm20().transform(u, cat)
    newton = simulate_dataset(X, sp)
    monkeypatch.setattr(bend, "_solve_power_hardening", bisect_power_hardening)
    oracle = simulate_dataset(X, sp)
    np.testing.assert_allclose(newton.energies, oracle.energies, rtol=1e-12, atol=0.0)
    engaged = engagement_mask(newton, "DI")
    assert engaged.any()
    np.testing.assert_array_equal(engaged, engagement_mask(oracle, "DI"))
    pl, dl, dc, di, pm, ts = newton.energies.T
    np.testing.assert_array_equal(ts, pl + dl + dc + di + pm)
