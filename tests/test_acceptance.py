"""Acceptance gate: every release-blocking property at its pinned tolerance.

The first block checks constitutive reference values, numerical oracles, and
the end-to-end toy pipeline; these always run.  The second block reproduces
headline numbers from the published 1555-row bend dataset and is skipped,
with a visible reason, when that CSV is not present (set RDSM_PUBLISHED_CSV
or drop the file at tests/data/published_1555.csv).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import gradient_check
from rdsm.bend import default_specimen, simulate_dataset
from rdsm.catalog import SamplingDistribution, build_catalog
from rdsm.constitutive import (
    bk_mixed_mode_gc,
    cdm_damage_evolution,
    czm_traction,
    jc_stress,
)
from rdsm.dataset import Dataset, MECHANISMS
from rdsm.sampling import sample_lhs
from rdsm.sensitivity import benjamini_hochberg, screen_fdr_logworth, sobol_indices
from rdsm.surrogate import NetworkSpec, train_surrogate
from rdsm.workflow import (
    EngagementGate,
    compare_approaches,
    fit_direct,
    fit_summed,
    split_holdout,
    uq_sweep,
)

_PUBLISHED = os.environ.get(
    "RDSM_PUBLISHED_CSV",
    str(Path(__file__).parent / "data" / "published_1555.csv"),
)

needs_published = pytest.mark.skipif(
    not Path(_PUBLISHED).is_file(),
    reason=(
        f"published 1555-row bend dataset not found at {_PUBLISHED}; "
        "set RDSM_PUBLISHED_CSV to run the reproduction checks"
    ),
)


@pytest.fixture(scope="module")
def cat():
    return build_catalog()


# -- always-on properties -----------------------------------------------------------


def test_constitutive_reference_values():
    started = time.perf_counter()

    # aluminum power hardening returns the yield stress at zero plastic strain
    assert jc_stress(0.0, 29.8, 103.6, 0.607) == 29.8

    # fiber damage starts from exactly zero at the initiation stress ratio
    assert cdm_damage_evolution(1.0, x=48.0, e=2800.0, g_f=50.0, l_c=0.1) == 0.0

    # the triangular softening law enclosess exactly the fracture energy:
    # traction is piecewise linear, so a trapezoid over a grid containing
    # both kinks integrates it without discretization error
    k, t0, gc = 1.0e4, 7.6, 7.6
    delta0, delta_f = t0 / k, 2.0 * gc / t0
    grid = np.unique(np.concatenate([
        np.linspace(0.0, delta_f, 20001), [delta0, delta_f]
    ]))
    area = np.trapezoid(czm_traction(grid, k, t0, gc), grid)
    assert area == pytest.approx(gc, rel=1e-6)

    # mixed-mode toughness collapses to the pure-mode values at the ends
    gc_i, gc_ii, bk = 7.6, 16.6, 2.6
    assert bk_mixed_mode_gc(1.0, 0.0, 0.0, gc_i, gc_ii, bk) == gc_i
    assert bk_mixed_mode_gc(0.0, 1.0, 0.0, gc_i, gc_ii, bk) == gc_ii
    assert bk_mixed_mode_gc(0.0, 0.0, 1.0, gc_i, gc_ii, bk) == gc_ii

    assert time.perf_counter() - started < 1.0


def test_backprop_matches_central_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    x = rng.random((160, 6))
    y = x @ rng.random(6) + 0.3 * np.sin(3.0 * x[:, 0])
    spec = NetworkSpec(
        input_dim=6, hidden_layers=(12, 10), epochs=60, seed=1, split=(0.9, 0.1)
    )
    model = train_surrogate(spec, x, y)

    checked = 0
    for point in range(20):
        samples = gradient_check(
            model, rng.random(6), tolerance=1e-4, n_samples=20, seed=point
        )
        for s in samples:
            if not s.skipped:
                checked += 1
                assert s.passed, (
                    f"gradient mismatch at layer {s.layer} ({s.row},{s.col}): "
                    f"analytic {s.analytic} vs numeric {s.numeric}"
                )
    assert checked >= 200  # kink skips must not hollow the check out
    assert time.perf_counter() - started < 5.0


def test_sobol_recovers_analytic_indices():
    started = time.perf_counter()
    n_base = 2**13

    # equal-variance additive model: each input owns half the variance
    additive = sobol_indices(lambda u: u[:, 0] + u[:, 1], 2, n_base, seed=3)
    assert additive.s1 == pytest.approx([0.5, 0.5], abs=0.02)
    assert additive.st == pytest.approx([0.5, 0.5], abs=0.02)

    # three-input benchmark with sinusoidal interaction; closed-form
    # variances follow from integrating the squared terms over [-pi, pi]
    a, b = 7.0, 0.1
    def ishigami(u):
        z = 2.0 * math.pi * u - math.pi
        return (
            np.sin(z[:, 0])
            + a * np.sin(z[:, 1]) ** 2
            + b * z[:, 2] ** 4 * np.sin(z[:, 0])
        )

    v1 = 0.5 * (1.0 + b * math.pi**4 / 5.0) ** 2
    v2 = a**2 / 8.0
    total = v1 + v2 + b**2 * math.pi**8 * (1.0 / 18.0 - 1.0 / 50.0)
    expected = (v1 / total, v2 / total, 0.0)

    result = sobol_indices(ishigami, 3, n_base, seed=5)
    assert result.s1 == pytest.approx(expected, abs=0.02)
    assert time.perf_counter() - started < 30.0


def _bh_brute_force(p):
    """Adjusted p straight from the step-up definition: the smallest slope
    min_{j >= i} p_(j) * (m / j), clipped to 1."""
    p = np.asarray(p, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    out = np.empty(m)
    for pos in range(m):
        slope = min(p[order[j]] * (m / (j + 1)) for j in range(pos, m))
        out[order[pos]] = min(1.0, slope)
    return out


def test_bh_matches_definition_on_fuzzed_sets():
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    for trial in range(10_000):
        m = int(rng.integers(1, 42))
        p = rng.random(m)
        if trial % 3 == 0:
            p = np.round(p, 2)  # force ties
        got = benjamini_hochberg(p)
        want = _bh_brute_force(p)
        assert np.array_equal(got, want), f"trial {trial}: {p!r}"
    assert time.perf_counter() - started < 10.0


def test_lhs_stratification_exhaustive():
    started = time.perf_counter()
    for n in (1, 2, 4, 10, 100, 1000):
        for dim in (1, 2, 41):
            values = sample_lhs(n, dim, seed=n + dim)
            strata = np.floor(values * n).astype(int)
            for col in range(dim):
                assert sorted(strata[:, col]) == list(range(n)), (n, dim, col)
    assert time.perf_counter() - started < 5.0


def test_end_to_end_toy_pipeline(cat):
    started = time.perf_counter()
    specimen = default_specimen(cat)
    box = SamplingDistribution.uniform_pm20()

    x = box.transform(sample_lhs(1555, len(cat), seed=11), cat)
    dataset = simulate_dataset(x, specimen)
    train, held = split_holdout(dataset, 25, seed=0)

    direct = fit_direct(train, seed=0)
    summed = fit_summed(train, specimen, seed=0)

    fresh = simulate_dataset(
        box.transform(sample_lhs(200, len(cat), seed=12), cat), specimen
    )
    validation = Dataset(
        cat,
        np.vstack([held.inputs, fresh.inputs]),
        np.vstack([held.energies, fresh.energies]),
    )
    report = compare_approaches(
        direct.rdsm, summed.summed, validation, train_keys=train.row_keys()
    )

    direct_mae = report.all_rows.direct.mae_pct
    summed_mae = report.all_rows.summed.mae_pct
    assert direct_mae <= 10.0
    assert summed_mae <= 10.0
    assert abs(direct_mae - summed_mae) <= 3.0

    # the reported total re-sums bit-exactly from the gated breakdown
    parts = summed.summed.predict_breakdown(validation.inputs)
    resummed = parts["PL"]
    for name in ("DL", "DC", "DI", "PM"):
        resummed = resummed + parts[name]
    assert np.array_equal(summed.summed.predict(validation.inputs), resummed)

    # the substrate dominates the energy budget across the sampled space
    means = {m: float(np.mean(dataset.energy(m))) for m in MECHANISMS}
    assert max(means, key=means.get) == "PM"

    assert time.perf_counter() - started < 600.0


def test_gate_geometry_grid():
    started = time.perf_counter()
    gate = EngagementGate()

    for vertex in gate.vertices:
        assert abs(gate.boundary_margin(*vertex)) <= 1e-12
    assert not gate.engaged(0.0, 0.0, 0.0)
    assert gate.engaged(1.0, 1.0, 1.0)

    grid = np.linspace(0.0, 1.0, 101)
    p, xs, z = np.meshgrid(grid, grid, grid, indexing="ij")
    engaged = gate.engaged(p, xs, z).astype(np.int8)
    # engagement never switches off while either driver coordinate grows
    assert np.all(engaged[1:, :, :] >= engaged[:-1, :, :])
    assert np.all(engaged[:, 1:, :] >= engaged[:, :-1, :])

    assert time.perf_counter() - started < 5.0


# -- published-dataset reproductions ------------------------------------------------


@pytest.fixture(scope="module")
def published(cat):
    if not Path(_PUBLISHED).is_file():
        pytest.skip(f"published dataset not found at {_PUBLISHED}")
    return Dataset.load_csv(_PUBLISHED, cat)


@pytest.fixture(scope="module")
def published_fit(published):
    # recipe pinned to the published study: 60/80 hidden layers, lr 0.001,
    # 90/10 split, 25 rows held out before training
    train, held = split_holdout(published, 25, seed=0)
    fit = fit_direct(train, query_mode="frozen_full", seed=0)
    return fit, held


@needs_published
def test_published_screening_ranks_substrate_first(published, cat):
    started = time.perf_counter()
    result = screen_fdr_logworth(
        published.inputs, published.energy("TS"), cat.names, max_k=4
    )
    top4 = tuple(e.name for e in result.entries[:4])
    assert top4 == ("A", "E", "XS", "Aln")
    assert result.retained == top4
    assert result.entries[0].logworth == pytest.approx(59.38, rel=0.20)
    assert time.perf_counter() - started < 10.0


@needs_published
def test_published_surrogate_recipe_accuracy(published_fit):
    started = time.perf_counter()
    fit, held = published_fit
    truth = held.energy("TS")
    predictions = fit.full_model.predict(held.inputs)
    mae = float(np.mean(np.abs(predictions - truth) / np.abs(truth))) * 100.0
    assert mae <= 6.0
    assert time.perf_counter() - started < 15.0 * 60.0


@needs_published
def test_published_uq_sweep(published_fit):
    fit, _ = published_fit
    started = time.perf_counter()
    subsets = [
        ("A",),
        ("A", "E"),
        ("A", "E", "XS"),
        ("A", "E", "XS", "Aln"),
        ("A", "E", "XS", "Aln", "P"),
    ]
    report = uq_sweep(fit.rdsm, subsets, n=5000, seed=0)
    means = [row.mean for row in report.rows]
    stds = [row.std for row in report.rows]
    for mean in means:
        assert mean == pytest.approx(234.8, rel=0.03)
    assert stds == sorted(stds)
    assert stds[-1] == pytest.approx(7.77, rel=0.30)
    assert time.perf_counter() - started < 120.0
