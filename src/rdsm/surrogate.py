"""Feedforward-network surrogate trained from scratch.

Dense layers with ReLU activations, normal-initialized weights, and an Adam
optimizer on mean-squared loss, all in plain numpy.  Inputs and the scalar
output are min-max scaled from the training rows; the fitted affine maps are
frozen on the model.  Training is deterministic for a fixed seed, including
the train/test split and the per-epoch shuffle order.

Training runs in float32: the scaled rows, the parameters, their gradient,
the Adam moments and every scratch buffer.  Adam moments that fall below
_ADAM_MOMENT_FLOOR are zeroed, so none decays into float32's subnormal
range, where each arithmetic operation on them costs several times a normal
one.  A trained model stores its weights as float64 values (each exactly a
float32) and predicts in float32 with the forward pass its MAE% scored.

Training stops early on its held-out rows.  An epoch counts as an
improvement when its MAE% falls below the last improving epoch's by a
margin relative to that MAE%, so a network with a 1% error and one with a
14% error are held to the same standard.  Patience is counted in optimizer
steps, not epochs: a small fit, with few minibatches per epoch, gets as many
updates to improve as a large one.  The best epoch's weights are restored.

Fit quality is reported as MAE%: the mean over held-out rows of
|prediction - truth| / |truth| * 100.  Rows whose target magnitude falls
below 1e-9 of the training output range carry no meaningful relative error
(sparse zero-heavy targets), so they are excluded from the percentage and
counted separately in the report.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericalFailureError, SchemaError, fields_doc, fields_from
from .errors import json_numbers, json_value, read_document

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# moments below the floor are zeroed every _ADAM_FLOOR_STEPS steps.  Between
# checks a moment that gets no gradient shrinks by _ADAM_BETA1**8 = 0.43, so
# one above the floor stays far above float32's smallest normal, 1.2e-38
_ADAM_MOMENT_FLOOR = 1e-30
_ADAM_FLOOR_STEPS = 8
_TRAIN_DTYPE = np.float32
# an epoch improves on the patience anchor when its held-out MAE% falls below
# it by at least the larger of (a fraction of the anchor, MAE% points).  The
# fraction holds every network to one standard, where a fixed 0.05 points is
# 0.4% of DL's 14% MAE% but 5% of PM's 1%, and stopped PM while it still
# improved.  The floor bounds a fit that learns its target exactly, whose
# MAE% would keep falling by 0.2% of itself far below any use
_EARLY_STOP_DELTA = (0.002, 0.001)
# optimizer steps without an improvement before the fit stops: 40 epochs of
# 1,049 training rows at batch 128, and about 180 of the DI member, whose 177
# rows take 2 steps an epoch.  Against a 100-epoch patience at a fixed
# 0.05-point delta, on three paper-scale designs x three fit seeds
# (tests/quality_sweep.py), it cut training cost (epochs x ms per epoch) by
# 39% with each member's median validation MAE within 0.8%; 270 steps cut
# 48% but moved the median summed TS MAE% by 0.10 points
_EARLY_STOP_PATIENCE_STEPS = 360
_NEAR_ZERO_FRACTION = 1e-9  # of the training output range
_PREDICT_ROWS = 2048  # rows per forward pass in predict; the last block takes the remainder

_LOSSES = ("mse",)
_SCALINGS = ("minmax", "identity")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture and training hyperparameters for one surrogate."""

    input_dim: int
    hidden_layers: tuple[int, ...] = (60, 80)
    learning_rate: float = 0.002
    epochs: int = 2000
    batch_size: int = 128
    seed: int = 0
    split: tuple[float, float] = (0.9, 0.1)  # (train_fraction, test_fraction)
    loss: str = "mse"
    init_std: float = 0.05
    scaling: str = "minmax"  # input scaling mode; "identity" for prescaled inputs

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        object.__setattr__(self, "split", tuple(float(f) for f in self.split))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if len(self.split) != 2 or min(self.split) < 0.0:
            raise ValueError("split must be (train_fraction, test_fraction)")
        if abs(sum(self.split) - 1.0) > 1e-12:
            raise ValueError("split fractions must sum to 1")
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.scaling not in _SCALINGS:
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if not self.init_std > 0.0:
            raise ValueError("init_std must be positive")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, 1)


@dataclass(frozen=True)
class TrainReport:
    """Held-out fit quality and training trace."""

    train_mae_pct: float
    test_mae_pct: float
    n_train: int
    n_test: int
    n_excluded_train: int
    n_excluded_test: int
    zero_variance: bool
    epochs_run: int
    loss_history: tuple[float, ...] = field(repr=False)
    mae_history: tuple[float, ...] = field(repr=False)  # held-out MAE% per epoch, nan when no test rows


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    looked up on first use; None where numpy links another BLAS."""
    lib = next(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"), None)
    if lib is None:
        return None
    blas = ctypes.CDLL(str(lib))
    get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
    return get, put


_blas_lock = threading.Lock()
_blas_users = [0, 0]  # callers inside _one_blas_thread, and the count to restore


@contextmanager
def _one_blas_thread():
    """Run the body on one thread of numpy's OpenBLAS (a no-op under another
    BLAS): rdsm's products are too small for a second thread to pay off, and
    a dot product split over threads rounds by their number.  The first of
    nested or concurrent callers saves the caller's count, the last restores it."""
    get, put = _openblas() or (lambda: 0, lambda threads: None)
    with _blas_lock:
        if _blas_users[0] == 0:
            _blas_users[1] = get()
            put(1)
        _blas_users[0] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users[0] -= 1
            if _blas_users[0] == 0:
                put(_blas_users[1])


class SurrogateModel:
    """Immutable trained network: weights, frozen scaling, spec, and report.

    Forward evaluation is deterministic and safe to share across threads;
    predict() vectorizes over rows.
    """

    def __init__(self, spec, weights, biases, input_lo, input_hi, output_lo, output_hi, report):
        self.spec = spec
        self.weights = tuple(np.array(w, dtype=float) for w in weights)
        self.biases = tuple(np.array(b, dtype=float) for b in biases)
        self.input_lo = np.array(input_lo, dtype=float)
        self.input_hi = np.array(input_hi, dtype=float)
        self.output_lo = float(output_lo)
        self.output_hi = float(output_hi)
        self.report = report
        dims = spec.layer_dims
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]) or b.shape != (dims[l + 1],):
                raise ValueError(f"layer {l} weights do not match the spec dimensions")
            w.setflags(write=False)
            b.setflags(write=False)
        if self.input_lo.shape != (spec.input_dim,) or self.input_hi.shape != (spec.input_dim,):
            raise ValueError("input scaling does not match input_dim")
        # predict's float32 copies of the network, the precision it trains in
        self._weights32 = tuple(w.astype(_TRAIN_DTYPE) for w in self.weights)
        self._biases32 = tuple(b.astype(_TRAIN_DTYPE) for b in self.biases)
        for arr in (self.input_lo, self.input_hi, *self._weights32, *self._biases32):
            arr.setflags(write=False)

    @_one_blas_thread()
    def predict(self, x, pinned=None) -> np.ndarray:
        """Outputs for (n, input_dim) rows.  pinned, a (columns, values)
        pair, holds those inputs at the values on every row, whatever x has
        there.

        Each block of row_blocks is scaled in float64, cast to float32 and
        run through the float32 network, as training scores its rows, and
        its outputs are unscaled in float64; at most one block's hidden
        activations (under 4096 rows) exist at a time.  BLAS picks its
        kernels from the matrix size, so a row's output bits can depend on
        the size of the block it sits in: a batch of at most 2048 rows, or a
        whole multiple of 2048, matches one unblocked pass bit for bit, and
        any other size within 1e-6 of the batch's largest output magnitude.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"input has {x.shape[1]} columns, model expects {self.spec.input_dim}"
            )
        if pinned is not None:
            cols, values = pinned
            values = _scale(values, self.input_lo[cols], self.input_hi[cols])
        out = np.empty(x.shape[0])
        for rows in row_blocks(x.shape[0]):
            xs = _scale(x[rows], self.input_lo, self.input_hi)
            if pinned is not None:
                xs[:, cols] = values
            out[rows] = _outputs(self._weights32, self._biases32, xs.astype(_TRAIN_DTYPE),
                                 self.output_lo, self.output_hi)
        return out


def row_blocks(n: int) -> list[slice]:
    """The row slices predict runs n rows in: blocks of 2048, the last one
    taking the remainder, so one block of every row when n < 4096.  A caller
    that hands predict these blocks one at a time gets the bits of one
    predict call over all n rows."""
    cuts = [0, *range(_PREDICT_ROWS, n - _PREDICT_ROWS + 1, _PREDICT_ROWS), n]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _span(lo, hi):
    """Min-max span hi - lo, 1.0 where it is zero."""
    span = np.subtract(hi, lo)
    return np.where(span > 0.0, span, 1.0)


def _scale(v, lo, hi):
    return (v - lo) / _span(lo, hi)


def _unscale(v, lo, hi):
    return lo + v * _span(lo, hi)


def _forward(weights, biases, a, outs=None):
    """Scaled (n, d) inputs to scaled (n,) outputs: ReLU hidden layers,
    then the raw output layer.  Each layer's bias and ReLU are applied in
    place on its product, written into outs[l] when given (training keeps
    them for backprop)."""
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        a = np.matmul(a, w, out=None if outs is None else outs[l])
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
    return a[:, 0]


def _outputs(weights, biases, xs, lo, hi):
    """Raw float64 outputs of float32 scaled rows: the forward pass that
    both predict and training's MAE% run, unscaled in float64."""
    return _unscale(_forward(weights, biases, xs).astype(float), lo, hi)


def _layer_views(flat, dims):
    """Per-layer weight and bias views into a flat buffer that holds every
    weight matrix in layer order, then every bias vector."""
    shapes = [*zip(dims, dims[1:]), *((d,) for d in dims[1:])]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    views = [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]
    return views[: len(dims) - 1], views[len(dims) - 1 :]


def _init_parameters(spec: NetworkSpec, rng: np.random.Generator):
    """Flat float32 parameter buffer with its (weights, biases) views: normal
    weights drawn in float64 layer by layer and rounded, zero biases."""
    dims = spec.layer_dims
    flat = np.zeros(sum((a + 1) * b for a, b in zip(dims, dims[1:])), dtype=_TRAIN_DTYPE)
    weights, biases = _layer_views(flat, dims)
    for w in weights:
        w[...] = rng.normal(0.0, spec.init_std, size=w.shape)
    return flat, weights, biases


def _batch_buffers(dims, rows, dtype):
    """Scratch of the given float dtype for a forward and backward pass over
    `rows` rows: each layer's output, and each hidden layer's delta and ReLU
    mask."""
    outs = [np.empty((rows, d), dtype=dtype) for d in dims[1:]]
    deltas = [np.empty((rows, d), dtype=dtype) for d in dims[1:-1]]
    masks = [np.empty((rows, d), dtype=bool) for d in dims[1:-1]]
    return outs, deltas, masks


def _backprop(weights, activations, delta_out, grads_w, grads_b, deltas, masks):
    """Gradients of a scalar loss given d(loss)/d(raw output) per row,
    written into the per-layer arrays grads_w and grads_b.  activations[l]
    is layer l's input; deltas and masks are _batch_buffers scratch.  The
    output layer's delta @ W.T has one term per entry, so it runs as a
    broadcast product, which gives the same bits as matmul at less cost."""
    delta = delta_out[:, None]
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(activations[l].T, delta, out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l > 0:
            product = np.multiply if weights[l].shape[1] == 1 else np.matmul
            delta = product(delta, weights[l].T, out=deltas[l - 1])
            # a = max(z, 0), so a > 0 exactly where the pre-activation z > 0
            delta *= np.greater(activations[l], 0.0, out=masks[l - 1])


def _floor_moments(m, v):
    """Zero the Adam moments below _ADAM_MOMENT_FLOOR in place."""
    m[np.abs(m) < _ADAM_MOMENT_FLOOR] = 0.0
    v[v < _ADAM_MOMENT_FLOOR] = 0.0


def percent_error_rows(y, reference) -> np.ndarray:
    """Mask of the rows of y that carry a percent error: nonzero, and at
    least the near-zero fraction of the reference values' range (of their
    largest magnitude when the range is zero)."""
    scale = float(np.ptp(reference))
    if scale == 0.0:
        scale = float(np.max(np.abs(reference)))
    return (np.abs(y) >= _NEAR_ZERO_FRACTION * scale) & (y != 0.0)


def _mae_pct(y_true, y_pred, keep):
    """Relative MAE in percent over the keep rows.

    Returns (mae_pct, n_excluded); an all-excluded set reports 0.0.
    """
    n_exc = int(np.size(y_true) - np.count_nonzero(keep))
    if not np.any(keep):
        return 0.0, n_exc
    rel = np.abs(y_pred[keep] - y_true[keep]) / np.abs(y_true[keep])
    return float(np.mean(rel) * 100.0), n_exc


@np.errstate(over="ignore", invalid="ignore")  # a diverging fit fails on the checks below
@_one_blas_thread()
def train_surrogate(spec: NetworkSpec, x, y) -> SurrogateModel:
    """Fit a network to (x, y) rows under the spec's split and schedule.

    Adam with bias-corrected moments on mean-squared loss over min-max
    scaled data.  An epoch improves when its held-out MAE% falls below the
    patience anchor, the last improving epoch's, by at least the larger of
    0.2% of the anchor and 0.001 points (_EARLY_STOP_DELTA); each epoch that
    does not adds its minibatch count to a patience counter, and training
    stops once _EARLY_STOP_PATIENCE_STEPS (360) optimizer steps have passed
    without an improvement.  The weights with the best held-out MAE% seen
    are restored.  A zero-variance target is flagged on the report but
    still trained (the net learns the constant).
    A non-finite epoch loss or held-out MAE% raises NumericalFailureError,
    and so does a fit whose held-out MAE% never falls below its value at the
    initial weights.  All parameters, their gradient and the Adam moments
    each live in one flat float32 buffer, updated in place once per
    minibatch; every _ADAM_FLOOR_STEPS (8) minibatches the moments below
    _ADAM_MOMENT_FLOOR (1e-30) are zeroed.  The initial weights are drawn in
    float64 and rounded.  MAE% is computed in float64 from predict's float32
    forward pass, and the model keeps the trained weights as float64.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and outputs disagree on the number of rows")
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"inputs have {x.shape[1]} columns, spec expects {spec.input_dim}")
    n = x.shape[0]
    if n < 10:
        raise ValueError(f"need at least 10 rows to fit, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("training data contains non-finite values")

    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_test = int(round(spec.split[1] * n))
    if spec.split[1] > 0.0:
        n_test = min(max(n_test, 1), n - 1)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    x_train, y_train = x[train_idx], y[train_idx]
    x_test, y_test = x[test_idx], y[test_idx]

    # scaling mode applies to the inputs; the output min-max is always fitted,
    # so pre-normalized inputs train through the identical scaled problem
    if spec.scaling == "minmax":
        in_lo = x_train.min(axis=0)
        in_hi = x_train.max(axis=0)
    else:
        in_lo = np.zeros(spec.input_dim)
        in_hi = np.ones(spec.input_dim)
    out_lo = float(y_train.min())
    out_hi = float(y_train.max())

    xs_train = _scale(x_train, in_lo, in_hi).astype(_TRAIN_DTYPE)
    ys_train = _scale(y_train, out_lo, out_hi).astype(_TRAIN_DTYPE)
    zero_variance = bool(np.ptp(y_train) == 0.0)
    # the near-zero cut scales with the raw training targets
    keep_train = percent_error_rows(y_train, y_train)
    keep_test = percent_error_rows(y_test, y_train)

    dims = spec.layer_dims
    flat, weights, biases = _init_parameters(spec, rng)
    grad = np.empty_like(flat)
    grads_w, grads_b = _layer_views(grad, dims)
    m = np.zeros_like(flat)  # Adam moments
    v = np.zeros_like(flat)
    s1 = np.empty_like(flat)  # scratch for the fused update
    s2 = np.empty_like(flat)
    t = 0

    xs_test = _scale(x_test, in_lo, in_hi).astype(_TRAIN_DTYPE)

    def eval_mae(ws, bs, xs, y_raw, keep):
        return _mae_pct(y_raw, _outputs(ws, bs, xs, out_lo, out_hi), keep)

    # a fit whose held-out MAE% never beats the initial weights' has diverged
    init_mae = eval_mae(weights, biases, xs_test, y_test, keep_test)[0]
    best_mae = math.inf
    best = flat.copy()
    patience_anchor = math.inf
    patience = 0  # optimizer steps since the anchor
    rel_delta, min_delta = _EARLY_STOP_DELTA
    loss_history = []
    mae_history = []
    n_train = len(train_idx)
    epochs_run = 0
    # each epoch gathers its shuffled rows once; minibatches are slices of
    # them, run through the buffers for the full or the last partial size
    rows = min(spec.batch_size, n_train)
    steps_per_epoch = -(-n_train // rows)
    full = _batch_buffers(dims, rows, _TRAIN_DTYPE)
    last = tuple([b[: n_train % rows] for b in group] for group in full) if n_train % rows else full
    xs_epoch = np.empty_like(xs_train)
    ys_epoch = np.empty_like(ys_train)

    for epoch in range(spec.epochs):
        order = rng.permutation(n_train)
        np.take(xs_train, order, axis=0, out=xs_epoch)
        np.take(ys_train, order, out=ys_epoch)
        epoch_loss = 0.0
        for start in range(0, n_train, rows):
            xb, yb = xs_epoch[start : start + rows], ys_epoch[start : start + rows]
            outs, deltas, masks = full if len(yb) == rows else last
            err = _forward(weights, biases, xb, outs)
            err -= yb  # the prediction's buffer now holds the error, then the loss gradient
            epoch_loss += float(np.add.reduce(err * err))
            err *= 2.0
            err /= len(yb)
            _backprop(weights, [xb, *outs[:-1]], err, grads_w, grads_b, deltas, masks)
            t += 1
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
            # p = p - lr*(m/c1) / (sqrt(v/c2) + eps), over the whole buffer
            m *= _ADAM_BETA1
            m += np.multiply(grad, 1.0 - _ADAM_BETA1, out=s1)
            v *= _ADAM_BETA2
            np.multiply(grad, grad, out=s1)
            v += np.multiply(s1, 1.0 - _ADAM_BETA2, out=s1)
            np.divide(m, 1.0 - _ADAM_BETA1**t, out=s1)
            s1 *= spec.learning_rate
            np.divide(v, 1.0 - _ADAM_BETA2**t, out=s2)
            np.sqrt(s2, out=s2)
            s2 += _ADAM_EPS
            flat -= np.divide(s1, s2, out=s1)
            if t % _ADAM_FLOOR_STEPS == 0:
                _floor_moments(m, v)
        if not math.isfinite(epoch_loss):
            raise NumericalFailureError(f"training loss went non-finite in epoch {epoch + 1}")
        loss_history.append(epoch_loss / n_train)
        epochs_run = epoch + 1

        if n_test > 0:
            mae = eval_mae(weights, biases, xs_test, y_test, keep_test)[0]
            if not math.isfinite(mae):
                raise NumericalFailureError(f"held-out MAE went non-finite in epoch {epoch + 1}")
            mae_history.append(mae)
            if mae < best_mae:
                best_mae = mae
                best[...] = flat
            # anchor - mae, not mae <= anchor - delta: the first anchor is inf
            if patience_anchor - mae >= max(rel_delta * patience_anchor, min_delta):
                patience_anchor = mae
                patience = 0
            else:
                patience += steps_per_epoch
                if patience >= _EARLY_STOP_PATIENCE_STEPS:
                    break
        else:
            mae_history.append(math.nan)

    if np.any(keep_test) and not best_mae < init_mae:
        raise NumericalFailureError(f"training diverged: no epoch's held-out MAE% fell below "
                                    f"{init_mae:.6g}%, its value at the initial weights")
    if n_test > 0:
        weights, biases = _layer_views(best, dims)

    train_mae, exc_train = eval_mae(weights, biases, xs_train, y_train, keep_train)
    if n_test > 0:
        test_mae_v, exc_test = eval_mae(weights, biases, xs_test, y_test, keep_test)
    else:
        test_mae_v, exc_test = math.nan, 0
    report = TrainReport(
        train_mae_pct=train_mae,
        test_mae_pct=test_mae_v,
        n_train=int(n_train),
        n_test=int(n_test),
        n_excluded_train=exc_train,
        n_excluded_test=exc_test,
        zero_variance=zero_variance,
        epochs_run=epochs_run,
        loss_history=tuple(loss_history),
        mae_history=tuple(mae_history),
    )
    return SurrogateModel(spec, weights, biases, in_lo, in_hi, out_lo, out_hi, report)


# -- serialization ---------------------------------------------------------

_FORMAT = "rdsm-surrogate"
_VERSION = 1

_TOP_KEYS = {
    "spec",
    "layer_dims",
    "weights",
    "biases",
    "input_lo",
    "input_hi",
    "output_lo",
    "output_hi",
    "report",
}


def serialize_model(model: SurrogateModel) -> bytes:
    """Versioned JSON document; floats round-trip bit-exactly."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "spec": fields_doc(model.spec),
        "layer_dims": list(model.spec.layer_dims),
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "input_lo": model.input_lo.tolist(),
        "input_hi": model.input_hi.tolist(),
        "output_lo": model.output_lo,
        "output_hi": model.output_hi,
        "report": fields_doc(model.report),
    }
    return json.dumps(doc, allow_nan=False).encode("utf-8")


def deserialize_model(data: bytes | str | dict) -> SurrogateModel:
    """Parse a serialized model (bytes, text, or the parsed document),
    rejecting version or field mismatches."""
    doc = read_document(data, "surrogate document", _TOP_KEYS, _FORMAT, _VERSION)
    spec = fields_from(NetworkSpec, doc["spec"], "spec")
    report = fields_from(TrainReport, doc["report"], "report")
    dims = list(spec.layer_dims)
    if doc["layer_dims"] != dims:
        raise SchemaError("layer_dims disagree with the spec")
    try:
        if len(doc["weights"]) != len(dims) - 1 or len(doc["biases"]) != len(dims) - 1:
            raise SchemaError("wrong number of layers in weights or biases")
        weights = [
            np.array(json_numbers(flat, "weights")).reshape(rows, cols)
            for flat, rows, cols in zip(doc["weights"], dims, dims[1:])
        ]
        return SurrogateModel(
            spec,
            weights,
            [json_numbers(b, "biases") for b in doc["biases"]],
            json_numbers(doc["input_lo"], "input_lo"),
            json_numbers(doc["input_hi"], "input_hi"),
            json_value(doc["output_lo"], float, "output_lo"),
            json_value(doc["output_hi"], float, "output_hi"),
            report,
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid model arrays: {exc}") from None
