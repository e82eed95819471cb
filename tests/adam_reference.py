"""The per-array Adam training loop, kept as a reference for the flat-buffer one.

A test helper: reference_train has the signature and results of
rdsm.surrogate.train_surrogate, but keeps every weight matrix, bias vector and
Adam moment as its own array and rebinds each one on every update, allocates
every activation and delta afresh, and gathers each minibatch by fancy
indexing.  Like the library it trains in float32, zeroes the moments below
_ADAM_MOMENT_FLOOR every _ADAM_FLOOR_STEPS steps, and scores MAE% in float64.
It reuses the library's MAE helpers, so a test that compares the two isolates
the initialization, forward, gradient and update arithmetic.  It has no
divergence rule.
"""

import math

import numpy as np

from rdsm.surrogate import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    _ADAM_FLOOR_STEPS,
    _ADAM_MOMENT_FLOOR,
    _EARLY_STOP_DELTA,
    _EARLY_STOP_PATIENCE_STEPS,
    SurrogateModel,
    TrainReport,
    _mae_pct,
    percent_error_rows,
)


def _forward_lists(weights, biases, a0):
    """Forward pass keeping pre-activations for backprop."""
    activations = [a0]
    pre = []
    a = a0
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    out = a @ weights[-1] + biases[-1]
    return out[:, 0], activations, pre


def _backprop_lists(weights, activations, pre, delta_out):
    """Gradients of a scalar loss given d(loss)/d(raw output) per row."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    delta = delta_out[:, None]
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = activations[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l].T) * (pre[l - 1] > 0.0)
    return grads_w, grads_b


@np.errstate(over="ignore", invalid="ignore")
def reference_train(spec, x, y) -> SurrogateModel:
    """Fit a network as train_surrogate does, one array per parameter."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    n = x.shape[0]

    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_test = int(round(spec.split[1] * n))
    if spec.split[1] > 0.0:
        n_test = min(max(n_test, 1), n - 1)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    x_train, y_train = x[train_idx], y[train_idx]
    x_test, y_test = x[test_idx], y[test_idx]

    if spec.scaling == "minmax":
        in_lo = x_train.min(axis=0)
        in_hi = x_train.max(axis=0)
    else:
        in_lo = np.zeros(spec.input_dim)
        in_hi = np.ones(spec.input_dim)
    out_lo = float(y_train.min())
    out_hi = float(y_train.max())

    in_span = np.where(in_hi - in_lo > 0.0, in_hi - in_lo, 1.0)
    out_span = out_hi - out_lo if out_hi - out_lo > 0.0 else 1.0
    xs_train = ((x_train - in_lo) / in_span).astype(np.float32)
    ys_train = ((y_train - out_lo) / out_span).astype(np.float32)
    zero_variance = bool(np.ptp(y_train) == 0.0)
    keep_train = percent_error_rows(y_train, y_train)
    keep_test = percent_error_rows(y_test, y_train)

    dims = spec.layer_dims
    weights = [
        rng.normal(0.0, spec.init_std, size=(a, b)).astype(np.float32)
        for a, b in zip(dims, dims[1:])
    ]
    biases = [np.zeros(b, dtype=np.float32) for b in dims[1:]]
    n_layers = len(weights)
    params = weights + biases  # every weight matrix, then every bias vector
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0

    xs_test = ((x_test - in_lo) / in_span).astype(np.float32)

    def eval_mae(ws, bs, xs, y_raw, keep):
        pred = out_lo + _forward_lists(ws, bs, xs)[0].astype(float) * out_span
        return _mae_pct(y_raw, pred, keep)

    best_mae = math.inf
    best = [p.copy() for p in params]
    patience_anchor = math.inf
    patience = 0
    rel_delta, min_delta = _EARLY_STOP_DELTA
    loss_history = []
    mae_history = []
    n_train = len(train_idx)
    epochs_run = 0

    for epoch in range(spec.epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, spec.batch_size):
            batch = order[start : start + spec.batch_size]
            xb, yb = xs_train[batch], ys_train[batch]
            weights = params[:n_layers]
            pred, acts, pre = _forward_lists(weights, params[n_layers:], xb)
            err = pred - yb
            epoch_loss += float(np.sum(err * err))
            delta = 2.0 * err / len(batch)
            gw, gb = _backprop_lists(weights, acts, pre, delta)
            t += 1
            corr1 = 1.0 - _ADAM_BETA1**t
            corr2 = 1.0 - _ADAM_BETA2**t
            for i, g in enumerate(gw + gb):
                m[i] = _ADAM_BETA1 * m[i] + (1.0 - _ADAM_BETA1) * g
                v[i] = _ADAM_BETA2 * v[i] + (1.0 - _ADAM_BETA2) * g**2
                params[i] = params[i] - spec.learning_rate * (m[i] / corr1) / (
                    np.sqrt(v[i] / corr2) + _ADAM_EPS
                )
                if t % _ADAM_FLOOR_STEPS == 0:
                    m[i] = np.where(np.abs(m[i]) < _ADAM_MOMENT_FLOOR, 0.0, m[i])
                    v[i] = np.where(v[i] < _ADAM_MOMENT_FLOOR, 0.0, v[i])
        loss_history.append(epoch_loss / n_train)
        epochs_run = epoch + 1

        if n_test > 0:
            mae = eval_mae(params[:n_layers], params[n_layers:], xs_test, y_test, keep_test)[0]
            mae_history.append(mae)
            if mae < best_mae:
                best_mae = mae
                best = [p.copy() for p in params]
            if patience_anchor - mae >= max(rel_delta * patience_anchor, min_delta):
                patience_anchor = mae
                patience = 0
            else:
                patience += len(range(0, n_train, spec.batch_size))  # the epoch's steps
                if patience >= _EARLY_STOP_PATIENCE_STEPS:
                    break
        else:
            mae_history.append(math.nan)

    if n_test > 0:
        params = best
    weights, biases = params[:n_layers], params[n_layers:]

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
