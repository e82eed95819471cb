import json
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import adam_reference
from adam_reference import reference_train
from gradcheck import gradient_check
from rdsm import surrogate
from rdsm.errors import NumericalFailureError, SchemaError
from rdsm.surrogate import (
    _EARLY_STOP_PATIENCE_STEPS,
    NetworkSpec,
    SurrogateModel,
    TrainReport,
    _batch_buffers,
    _forward,
    _mae_pct,
    _scale,
    _unscale,
    deserialize_model,
    percent_error_rows,
    serialize_model,
    train_surrogate,
)
from rdsm.workflow import _MECHANISM_NETWORKS


def _dummy_report():
    return TrainReport(0.0, 0.0, 0, 0, 0, 0, False, 0, (), ())


def _identity_scaled(spec, weights, biases):
    d = spec.input_dim
    return SurrogateModel(
        spec, weights, biases, np.zeros(d), np.ones(d), 0.0, 1.0, _dummy_report()
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=0)
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=2, hidden_layers=(0,))
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=2, learning_rate=0.0)
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=2, split=(0.5, 0.4))
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=2, loss="mae")
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=2, scaling="zscore")
    assert NetworkSpec(input_dim=3, hidden_layers=(5, 7)).layer_dims == (3, 5, 7, 1)


def test_forward_matches_matrix_oracle():
    rng = np.random.default_rng(0)
    spec = NetworkSpec(input_dim=3, hidden_layers=(4, 2), scaling="identity")
    w = [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2, 1))]
    b = [rng.normal(size=4), rng.normal(size=2), rng.normal(size=1)]
    model = _identity_scaled(spec, w, b)
    x = rng.normal(size=(20, 3))
    a1 = np.maximum(x @ w[0] + b[0], 0.0)
    a2 = np.maximum(a1 @ w[1] + b[1], 0.0)
    want = (a2 @ w[2] + b[2])[:, 0]
    # predict runs in float32: to first order in u = 2**-24, the input's
    # cast and, per layer of fan-in n, each term's weight cast, product and
    # n additions keep an output within (1 + sum(n + 2)) * u = 16u of the
    # float64 oracle, relative to the same pass on absolute values
    magnitude = np.abs(x)
    for wl, bl in zip(w, b):
        magnitude = magnitude @ np.abs(wl) + np.abs(bl)
    assert np.all(np.abs(model.predict(x) - want) <= 16 * 2.0**-24 * magnitude[:, 0])


@pytest.mark.parametrize("dims", [(41, 60, 80, 1), (3, 1)])
def test_forward_in_place_matches_allocating_expression(dims):
    rng = np.random.default_rng(4)
    spec = NetworkSpec(input_dim=dims[0], hidden_layers=dims[1:-1], scaling="identity")
    w = [rng.normal(0.0, 0.3, size=shape) for shape in zip(dims, dims[1:])]
    b = [rng.normal(0.0, 0.3, size=d) for d in dims[1:]]
    model = _identity_scaled(spec, w, b)
    x64 = rng.random((1000, dims[0]))
    # float64, and float32, the precision training and predict run in
    for weights, biases, x in ((model.weights, model.biases, x64),
                               (model._weights32, model._biases32, x64.astype(np.float32))):
        before = x.copy()
        a = x
        for wl, bl in zip(weights[:-1], biases[:-1]):
            a = np.maximum(a @ wl + bl, 0.0)
        want = (a @ weights[-1] + biases[-1])[:, 0]
        assert want.dtype == x.dtype
        got = _forward(weights, biases, x)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(x, before)  # the input batch is not written
        # the training path writes each layer into its buffer, with the same bits
        outs = _batch_buffers(dims, len(x), x.dtype)[0]
        kept = _forward(weights, biases, x, outs)
        assert kept.tobytes() == want.tobytes()
        assert np.shares_memory(kept, outs[-1])


def test_forward_identity_and_constant_networks():
    spec = NetworkSpec(input_dim=1, hidden_layers=(), scaling="identity")
    ident = _identity_scaled(spec, [np.array([[1.0]])], [np.zeros(1)])
    # the input's cast to float32 is the only rounding
    got = ident.predict(np.array([[0.37]]))[0]
    assert got == float(np.float32(0.37))
    assert got == pytest.approx(0.37, abs=0.37 * 2.0**-24)
    const = _identity_scaled(spec, [np.array([[0.0]])], [np.array([4.25])])
    assert const.predict(np.array([[123.0]]))[0] == 4.25


def test_forward_dimension_mismatch():
    spec = NetworkSpec(input_dim=2, hidden_layers=(), scaling="identity")
    model = _identity_scaled(spec, [np.ones((2, 1))], [np.zeros(1)])
    with pytest.raises(ValueError, match="columns"):
        model.predict(np.ones((4, 3)))
    with pytest.raises(ValueError, match="columns"):
        model.predict(np.ones(3))


def _random_model(dims, seed):
    """Untrained network with random weights and a nontrivial output scaling."""
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(input_dim=dims[0], hidden_layers=dims[1:-1])
    return SurrogateModel(
        spec,
        [rng.normal(0.0, 0.3, size=shape) for shape in zip(dims, dims[1:])],
        [rng.normal(0.0, 0.3, size=w) for w in dims[1:]],
        np.zeros(dims[0]),
        np.full(dims[0], 2.0),
        -2.0,
        5.0,
        _dummy_report(),
    )


def one_float32_pass(model, rows):
    """model's outputs for raw input rows as one unblocked float32 forward
    pass, from float32 casts of its float64 weights."""
    weights = [w.astype(np.float32) for w in model.weights]
    biases = [b.astype(np.float32) for b in model.biases]
    xs = _scale(rows, model.input_lo, model.input_hi).astype(np.float32)
    return _unscale(_forward(weights, biases, xs).astype(float), model.output_lo, model.output_hi)


def assert_matches_one_pass(got, want):
    """A blocked prediction against one unblocked pass: bit for bit when
    every block has the batch's row count modulo 2048 (at most 2048 rows, or
    a whole multiple), else within 1e-6 of the largest output magnitude,
    since BLAS may round a row differently with the size of its block."""
    n = len(want)
    if n <= 2048 or n % 2048 == 0:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.max(np.abs(want)))


_BLOCK_SIZES = (1, 7, 2047, 2048, 2049, 4100, 5000, 6145, 16384)


@pytest.mark.parametrize("n", _BLOCK_SIZES)
@pytest.mark.parametrize("dims", [(41, 60, 80, 1), (3, 16, 16, 1)])
def test_predict_in_blocks_matches_one_pass(dims, n, monkeypatch):
    model = _random_model(dims, n)
    x = np.random.default_rng(n + 1).uniform(0.0, 2.0, size=(n, dims[0]))
    want = one_float32_pass(model, x)
    blocks = []

    def forward(weights, biases, a):
        blocks.append(len(a))
        return _forward(weights, biases, a)

    monkeypatch.setattr(surrogate, "_forward", forward)
    assert_matches_one_pass(model.predict(x), want)
    # the last block takes the remainder: none is short unless the batch is
    assert sum(blocks) == n and len(blocks) == max(n // 2048, 1)
    assert all(2048 <= b < 4096 for b in blocks) or blocks == [n]


def test_predict_memory_stays_one_block():
    # tracemalloc counts numpy's own allocations, so the peak repeats exactly;
    # one unblocked pass over these rows peaks near 24 MB
    model = _random_model((41, 60, 80, 1), 2)
    x = np.random.default_rng(3).uniform(0.0, 2.0, size=(16384, 41))
    tracemalloc.start()
    try:
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


@pytest.fixture(scope="module")
def linear_problem():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, size=(300, 1))
    return x, 3.0 * x[:, 0] + 1.0


def test_linear_target_regression(linear_problem):
    x, y = linear_problem
    model = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=500, seed=3), x, y
    )
    assert model.report.test_mae_pct < 1.0
    assert model.report.train_mae_pct < 1.0
    assert model.report.n_train == 270 and model.report.n_test == 30


def test_training_is_bit_deterministic(linear_problem):
    x, y = linear_problem
    spec = NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=120, seed=3)
    a = train_surrogate(spec, x, y)
    b = train_surrogate(spec, x, y)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)
    assert a.report == b.report
    c = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=120, seed=4), x, y
    )
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_early_stopping_bounds_epochs(linear_problem):
    x, y = linear_problem
    spec = NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=2000, seed=3)
    model = train_surrogate(spec, x, y)
    steps_per_epoch = math.ceil(model.report.n_train / spec.batch_size)  # 270 rows: 3
    patience_epochs = math.ceil(_EARLY_STOP_PATIENCE_STEPS / steps_per_epoch)
    assert patience_epochs <= model.report.epochs_run < 2000
    assert len(model.report.loss_history) == model.report.epochs_run


def test_longer_patience_replays_the_shorter_run(linear_problem, monkeypatch):
    # a fit's trajectory does not depend on when it will stop: a longer
    # patience trains through the shorter run's epochs unchanged, and keeps
    # its weights when the best epoch falls inside them
    x, y = linear_problem
    spec = NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=2000, seed=1)
    short = train_surrogate(spec, x, y)
    for module in (surrogate, adam_reference):
        monkeypatch.setattr(module, "_EARLY_STOP_PATIENCE_STEPS", 3 * _EARLY_STOP_PATIENCE_STEPS)
    long = train_surrogate(spec, x, y)
    n = short.report.epochs_run
    assert n < long.report.epochs_run
    assert long.report.loss_history[:n] == short.report.loss_history
    assert long.report.mae_history[:n] == short.report.mae_history
    assert int(np.argmin(long.report.mae_history)) < n
    for a, b in zip(long.weights + long.biases, short.weights + short.biases, strict=True):
        assert np.array_equal(a, b)
    # only the epoch count and the histories differ
    assert replace(long.report, epochs_run=n, loss_history=long.report.loss_history[:n],
                   mae_history=long.report.mae_history[:n]) == short.report
    # the per-array reference reads the patience too, and stops where the library does
    assert reference_train(spec, x, y).report.epochs_run == long.report.epochs_run


def test_constant_target_flagged_and_learned():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=(50, 1))
    y = np.full(50, 7.0)
    # the subject is the zero-variance flag, so the schedule is pinned
    spec = NetworkSpec(
        input_dim=1, hidden_layers=(4,), epochs=400, batch_size=32, learning_rate=0.001, seed=1
    )
    model = train_surrogate(spec, x, y)
    assert model.report.zero_variance
    assert model.report.test_mae_pct < 1e-6


def test_fit_that_starts_below_the_old_delta_moves_its_anchor():
    # the constant target above reads 0.041% held out after one epoch, under
    # the 0.05-point absolute delta the early stop once used: no later epoch
    # could improve on that by 0.05, so the anchor stayed at epoch 1 and the
    # fit stopped at epoch 101 however fast its error still fell
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=(50, 1))
    spec = NetworkSpec(input_dim=1, hidden_layers=(4,), epochs=2000, seed=1)
    report = train_surrogate(spec, x, np.full(50, 7.0)).report
    assert report.n_train <= spec.batch_size  # one optimizer step per epoch
    assert report.mae_history[0] < 0.05
    # an anchor left at epoch 1 stops the fit at epoch 1 + the patience
    assert 1 + _EARLY_STOP_PATIENCE_STEPS < report.epochs_run < spec.epochs
    assert report.test_mae_pct < 1e-3 * report.mae_history[0]


def test_zero_heavy_target_excluded_from_mae():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(60, 2))
    y = np.where(x[:, 0] > 0.7, 5.0 + x[:, 1], 0.0)
    model = train_surrogate(
        NetworkSpec(input_dim=2, hidden_layers=(8,), epochs=300, seed=2), x, y
    )
    rep = model.report
    # exact-zero rows do not enter the percentage but are counted
    assert rep.n_excluded_train + rep.n_excluded_test == int(np.sum(y == 0.0))
    assert math.isfinite(rep.test_mae_pct)


def test_too_few_rows():
    with pytest.raises(ValueError, match="10 rows"):
        train_surrogate(NetworkSpec(input_dim=1), np.ones((9, 1)), np.ones(9))


def test_no_test_split_runs_all_epochs(linear_problem):
    x, y = linear_problem
    model = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(4,), epochs=50, seed=1, split=(1.0, 0.0)),
        x,
        y,
    )
    assert model.report.n_test == 0
    assert math.isnan(model.report.test_mae_pct)
    assert model.report.epochs_run == 50


def test_scaling_idempotence(linear_problem):
    x, y = linear_problem
    spec = NetworkSpec(input_dim=1, hidden_layers=(6,), epochs=150, seed=5)
    fitted = train_surrogate(spec, x, y)
    xn = (x - fitted.input_lo) / (fitted.input_hi - fitted.input_lo)
    pre = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(6,), epochs=150, seed=5, scaling="identity"),
        xn,
        y,
    )
    np.testing.assert_allclose(pre.predict(xn), fitted.predict(x), rtol=0, atol=1e-10)


def test_smoothed_training_loss_decreases(linear_problem):
    x, y = linear_problem
    model = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=500, seed=3), x, y
    )
    h = np.array(model.report.loss_history)
    sm = np.convolve(h, np.ones(10) / 10.0, mode="valid")
    assert np.all(np.diff(sm) <= 0.05 * sm[:-1])  # no divergence wobble
    assert sm[-1] < 0.01 * sm[0]


def _oracle_problem(n, d, seed, constant=False):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.full(n, 7.0) if constant else np.sin(x @ rng.normal(size=d)) + 2.0 + x[:, 0] ** 2
    return x, y


# (rows, input_dim, spec keywords, constant target)
_ORACLE_CASES = {
    "early_stop": (300, 1, dict(hidden_layers=(8,), epochs=2000, seed=3), False),
    "no_holdout": (120, 3, dict(hidden_layers=(8,), epochs=40, seed=1, split=(1.0, 0.0)), False),
    "zero_variance": (50, 1, dict(hidden_layers=(4,), epochs=60, seed=1), True),
    "ragged_batch": (300, 2, dict(hidden_layers=(6,), epochs=30, seed=2, batch_size=7), False),
    "three_hidden": (150, 4, dict(hidden_layers=(6, 5, 4), epochs=40, seed=4), False),
    "no_hidden": (80, 3, dict(hidden_layers=(), epochs=40, seed=5), False),
    "paper_width": (200, 41, dict(hidden_layers=(60, 80), epochs=6, seed=0), False),
}


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_flat_adam_matches_per_array_reference(case):
    n, d, kw, constant = _ORACLE_CASES[case]
    spec = NetworkSpec(input_dim=d, **kw)
    x, y = _oracle_problem(n, d, seed=len(case), constant=constant)
    got, want = train_surrogate(spec, x, y), reference_train(spec, x, y)
    for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
        assert np.array_equal(a, b)
    assert got.report.epochs_run == want.report.epochs_run
    assert np.array_equal(got.report.loss_history, want.report.loss_history)
    assert np.array_equal(got.report.mae_history, want.report.mae_history, equal_nan=True)
    if case == "early_stop":
        assert got.report.epochs_run < spec.epochs
    if case == "ragged_batch":
        assert got.report.n_train % spec.batch_size
    if case == "zero_variance":
        assert got.report.zero_variance


# (input_dim, hidden layers, learning rate, split): the paper-width direct
# network, then the PL and DI members' networks
_ONE_FORWARD_NETS = [(41, (60, 80), 0.002, (0.9, 0.1)),
                     (4, *_MECHANISM_NETWORKS["PL"]), (2, *_MECHANISM_NETWORKS["DI"])]


@pytest.mark.parametrize("d, hidden, rate, split", _ONE_FORWARD_NETS)
def test_report_mae_is_what_predict_gives(d, hidden, rate, split):
    # training scores its MAE% with the forward pass predict runs, so the
    # report's figures are those of the saved model's own predictions
    spec = NetworkSpec(input_dim=d, hidden_layers=hidden, learning_rate=rate, split=split,
                       epochs=40, seed=2)
    x, y = _oracle_problem(400, d, seed=d)
    model = train_surrogate(spec, x, y)
    perm = np.random.default_rng(spec.seed).permutation(len(y))
    test, train = perm[: model.report.n_test], perm[model.report.n_test :]
    for rows, reported in ((train, model.report.train_mae_pct), (test, model.report.test_mae_pct)):
        keep = percent_error_rows(y[rows], y[train])
        assert _mae_pct(y[rows], model.predict(x[rows]), keep)[0] == reported


def test_paper_width_fit_leaves_no_subnormal_moment(monkeypatch):
    # the first moment of a parameter that stops getting gradient shrinks by
    # 0.9 a step; without the floor, 1,925 of this fit's first moments end
    # as float32 subnormals
    seen = []
    floor_moments = surrogate._floor_moments

    def spy(m, v):
        seen.append((m, v))
        floor_moments(m, v)

    monkeypatch.setattr(surrogate, "_floor_moments", spy)
    x, y = _oracle_problem(400, 41, seed=0)
    spec = NetworkSpec(input_dim=41, hidden_layers=(60, 80), epochs=100, split=(1.0, 0.0))
    model = train_surrogate(spec, x, y)
    steps = spec.epochs * math.ceil(400 / spec.batch_size)
    assert len(seen) == steps // surrogate._ADAM_FLOOR_STEPS
    tiny = np.finfo(np.float32).tiny
    for moment in seen[-1]:
        assert moment.dtype == np.float32
        assert not np.any((moment != 0.0) & (np.abs(moment) < tiny))
    for w in model.weights + model.biases:
        assert np.array_equal(w, w.astype(np.float32))


def test_fit_that_never_beats_its_initial_weights_diverges(linear_problem):
    x, y = linear_problem
    with pytest.raises(NumericalFailureError, match="diverged"):
        train_surrogate(
            NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=30, seed=3, learning_rate=1000.0),
            x,
            y,
        )
    # with no held-out rows, or none that carry a percent error, there is nothing to compare
    for split, target in (((1.0, 0.0), y), ((0.9, 0.1), np.zeros_like(y))):
        spec = NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=5, seed=3,
                           learning_rate=1000.0, split=split)
        assert train_surrogate(spec, x, target).report.epochs_run == 5


# -- gradient check ---------------------------------------------------------


def test_gradient_check_linear_network_exact():
    rng = np.random.default_rng(4)
    spec = NetworkSpec(input_dim=3, hidden_layers=(), scaling="identity")
    model = _identity_scaled(spec, [rng.normal(size=(3, 1))], [rng.normal(size=1)])
    samples = gradient_check(model, rng.normal(size=3), tolerance=1e-8, n_samples=3)
    assert samples and all(not s.skipped for s in samples)
    assert all(s.passed for s in samples)
    assert max(s.rel_deviation for s in samples) <= 1e-8


def test_gradient_check_two_hidden_layers(linear_problem):
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(200, 5))
    y = x @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + 4.0
    model = train_surrogate(
        NetworkSpec(input_dim=5, hidden_layers=(16, 12), epochs=200, seed=7), x, y
    )
    samples = gradient_check(model, x[0], tolerance=1e-4, n_samples=40, seed=5)
    checked = [s for s in samples if not s.skipped]
    assert checked
    assert all(s.passed for s in checked)
    assert max(s.rel_deviation for s in checked) < 1e-4


def test_gradient_check_zero_input_is_finite():
    rng = np.random.default_rng(6)
    spec = NetworkSpec(input_dim=4, hidden_layers=(6,), scaling="identity")
    w = [rng.normal(size=(4, 6)), rng.normal(size=(6, 1))]
    b = [rng.normal(size=6), rng.normal(size=1)]
    model = _identity_scaled(spec, w, b)
    for s in gradient_check(model, np.zeros(4), n_samples=10, seed=1):
        assert math.isfinite(s.analytic)
        if not s.skipped:
            assert math.isfinite(s.numeric)


def test_gradient_check_skips_relu_kinks():
    # one hidden unit sits exactly on its kink; weights feeding it are skipped,
    # output-layer weights (which cannot move any pre-activation) are not
    spec = NetworkSpec(input_dim=1, hidden_layers=(2,), scaling="identity")
    w = [np.array([[1.0, 1.0]]), np.array([[2.0], [3.0]])]
    b = [np.array([-0.5, 0.3]), np.array([0.1])]
    model = _identity_scaled(spec, w, b)
    samples = gradient_check(model, np.array([0.5]), n_samples=30, seed=2)
    by_layer = {0: [], 1: []}
    for s in samples:
        by_layer[s.layer].append(s)
    assert by_layer[0] and all(s.skipped for s in by_layer[0])
    assert by_layer[1] and all(not s.skipped for s in by_layer[1])
    assert all(s.passed for s in by_layer[1])


# -- BLAS threads -----------------------------------------------------------


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS (get, set) thread-count pair; the caller's count
    comes back after the test."""
    blas = surrogate._openblas()
    if blas is None:
        pytest.skip("numpy links no OpenBLAS whose threads can be set")
    get, put = blas
    before = get()
    yield get, put
    put(before)


@pytest.mark.parametrize("callers", [1, 2])
def test_one_blas_thread_restores_the_callers_count(blas_threads, callers):
    get, put = blas_threads
    put(callers)
    with surrogate._one_blas_thread():
        assert get() == 1
        with surrogate._one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == callers
    with pytest.raises(RuntimeError, match="inside"):
        with surrogate._one_blas_thread():
            raise RuntimeError("inside")
    assert get() == callers


def test_one_blas_thread_restores_after_overlapping_threads(blas_threads):
    # the count is process-wide: the caller's count comes back when the
    # last of two overlapping callers leaves, not when the first does
    get, put = blas_threads
    put(2)
    entered, release = threading.Event(), threading.Event()

    def other():
        with surrogate._one_blas_thread():
            entered.set()
            release.wait(30)

    worker = threading.Thread(target=other)
    with surrogate._one_blas_thread():
        worker.start()
        assert entered.wait(30)
    assert get() == 1
    release.set()
    worker.join()
    assert get() == 2


def test_one_blas_thread_without_openblas_does_nothing(blas_threads, monkeypatch, tmp_path):
    get, put = blas_threads
    put(2)
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert surrogate._openblas.__wrapped__() is None
    monkeypatch.setattr(surrogate, "_openblas", lambda: None)
    with surrogate._one_blas_thread():
        assert get() == 2
    assert get() == 2


def test_trained_bytes_do_not_depend_on_blas_threads(blas_threads):
    get, put = blas_threads
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(400, 41))
    y = x @ rng.uniform(0.5, 1.5, size=41) + np.sin(3.0 * x[:, 0])
    spec = NetworkSpec(input_dim=41, epochs=30, seed=2)
    docs = []
    for threads in (1, 2):
        put(threads)
        docs.append(serialize_model(train_surrogate(spec, x, y)))
        assert get() == threads
    assert docs[0] == docs[1]


def test_sobol_bytes_do_not_depend_on_blas_threads(blas_threads):
    # at 16384 rows OpenBLAS splits a bootstrap dot product over its
    # threads, which rounds it by their number unless rdsm pins one
    from rdsm.sensitivity import sobol_indices

    def ishigami(u):
        x = np.pi * (2.0 * u - 1.0)
        return np.sin(x[:, 0]) + 7.0 * np.sin(x[:, 1]) ** 2 + 0.1 * x[:, 2] ** 4 * np.sin(x[:, 0])

    get, put = blas_threads
    results = []
    for threads in (1, 2):
        put(threads)
        r = sobol_indices(ishigami, 3, 16384, seed=3, n_bootstrap=20)
        results.append(np.concatenate([r.s1, r.st, r.s1_stderr, r.st_stderr]).tobytes())
        assert get() == threads
    assert results[0] == results[1]


def test_screen_bytes_do_not_depend_on_blas_threads(blas_threads):
    # the slope regression's length-n dot products split over threads too
    from rdsm.sensitivity import screen_fdr_logworth

    get, put = blas_threads
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, size=(16384, 41))
    y = x[:, :5] @ np.array([0.1, 0.05, 0.03, 0.02, 0.01]) + rng.normal(0.0, 1.0, size=16384)
    results = []
    for threads in (1, 2):
        put(threads)
        results.append(screen_fdr_logworth(x, y, [f"x{i}" for i in range(41)], max_k=3))
        assert get() == threads
    assert results[0] == results[1]


# -- serialization ----------------------------------------------------------


def test_round_trip_is_bit_exact(linear_problem):
    x, y = linear_problem
    model = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(8,), epochs=100, seed=3), x, y
    )
    clone = deserialize_model(serialize_model(model))
    probe = np.random.default_rng(9).uniform(0.0, 1.0, size=(100, 1))
    np.testing.assert_array_equal(model.predict(probe), clone.predict(probe))
    assert clone.report == model.report
    assert clone.spec == model.spec
    # training runs in float32; the model stores each parameter as the
    # float64 equal to it, and the document keeps every bit
    for got, kept in zip(clone.weights + clone.biases, model.weights + model.biases, strict=True):
        assert got.dtype == kept.dtype == np.float64
        assert np.array_equal(kept, kept.astype(np.float32))
        assert got.tobytes() == kept.tobytes()


def test_round_trip_preserves_nan_test_mae(linear_problem):
    x, y = linear_problem
    model = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(4,), epochs=20, seed=1, split=(1.0, 0.0)),
        x,
        y,
    )
    clone = deserialize_model(serialize_model(model))
    assert math.isnan(clone.report.test_mae_pct)


def test_serialization_rejects_bad_documents(linear_problem):
    x, y = linear_problem
    model = train_surrogate(
        NetworkSpec(input_dim=1, hidden_layers=(4,), epochs=20, seed=1), x, y
    )
    blob = serialize_model(model)
    with pytest.raises(SchemaError, match="malformed"):
        deserialize_model(blob[: len(blob) // 2])
    doc = json.loads(blob)
    doc["version"] = 2
    with pytest.raises(SchemaError, match="version"):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    doc["format"] = "other"
    with pytest.raises(SchemaError, match="format"):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="surprise"):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    doc["spec"]["surprise"] = 1
    with pytest.raises(SchemaError, match="surprise"):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    del doc["weights"]
    with pytest.raises(SchemaError, match="weights"):
        deserialize_model(json.dumps(doc))
    doc = json.loads(blob)
    doc["layer_dims"] = [1, 99, 1]
    with pytest.raises(SchemaError, match="layer_dims"):
        deserialize_model(json.dumps(doc))
