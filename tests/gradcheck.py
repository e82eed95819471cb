"""Backprop weight gradients checked against central finite differences.

A test helper: it reaches into the training internals (_forward and
_backprop) that the surrogate's public API keeps private.
"""

import math
from dataclasses import dataclass

import numpy as np

from rdsm.surrogate import SurrogateModel, _backprop, _batch_buffers, _forward, _scale

_KINK_TOLERANCE = 1e-4  # pre-activation magnitude treated as a ReLU kink


@dataclass(frozen=True)
class GradientSample:
    """One sampled weight coordinate compared against central differences."""

    layer: int
    row: int
    col: int
    analytic: float
    numeric: float
    rel_deviation: float
    passed: bool
    skipped: bool


def gradient_check(
    model: SurrogateModel,
    x,
    tolerance: float = 1e-4,
    n_samples: int = 20,
    seed: int = 0,
    h: float = 1e-5,
):
    """Compare backprop weight gradients with central finite differences.

    The checked scalar is the scaled network output at the scaled input, so
    step size h acts on scaled quantities as the training loop sees them.
    Coordinates whose perturbation could cross a ReLU kink (any pre-activation
    with magnitude below 1e-4 at or after the weight's layer) are reported
    as skipped rather than compared.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.spec.input_dim:
        raise ValueError("gradient check takes a single input vector")
    xs = _scale(x, model.input_lo, model.input_hi)[None, :]
    weights = [w.copy() for w in model.weights]
    biases = list(model.biases)

    outs, deltas, masks = _batch_buffers(model.spec.layer_dims, 1, float)
    _forward(weights, biases, xs, outs)
    acts = [xs, *outs[:-1]]
    gw = [np.empty_like(w) for w in weights]
    _backprop(weights, acts, np.ones(1), gw, [np.empty_like(b) for b in biases], deltas, masks)
    # the ReLU activations drop the sign of the pre-activations; recompute them
    pre = [a @ w + b for a, w, b in zip(acts[:-1], weights, biases)]
    kink_layer = [bool(np.any(np.abs(z) < _KINK_TOLERANCE)) for z in pre]

    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_samples):
        l = int(rng.integers(len(weights)))
        i = int(rng.integers(weights[l].shape[0]))
        j = int(rng.integers(weights[l].shape[1]))
        analytic = float(gw[l][i, j])
        skipped = any(kink_layer[l:])
        if skipped:
            samples.append(GradientSample(l, i, j, analytic, math.nan, math.nan, False, True))
            continue
        orig = weights[l][i, j]
        weights[l][i, j] = orig + h
        f_plus = float(_forward(weights, biases, xs, outs)[0])
        weights[l][i, j] = orig - h
        f_minus = float(_forward(weights, biases, xs, outs)[0])
        weights[l][i, j] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        denom = max(abs(analytic) + abs(numeric), 1e-10)
        rel = abs(analytic - numeric) / denom
        samples.append(GradientSample(l, i, j, analytic, numeric, rel, rel <= tolerance, False))
    return samples
