"""Step-count convergence of the bend ramp: the relative L1 error (over rows)
of each energy at the shipped curvature_steps against a 3200-step ramp, on
LHS rows of both sampling distributions.

A script, not a test (pytest does not collect it); tests/test_bend.py calls
step_errors on 100 rows per distribution.  Run as a script, it checks 400
rows per distribution, prints one line per distribution and exits 1 if any
energy is off by more than 0.1%:

    PYTHONPATH=src python tests/step_convergence.py
"""

import dataclasses
import sys

import numpy as np

from rdsm.bend import default_specimen, simulate_batch
from rdsm.catalog import SamplingDistribution, build_catalog
from rdsm.sampling import sample_lhs

ENERGIES = ("PL", "DL", "DC", "DI", "PM", "TS")
REFERENCE_STEPS = 3200
BOUND = 0.001


def step_errors(cat, sp, n, seed):
    """{distribution name: (6,) relative L1 error of each energy at sp's
    step count against a REFERENCE_STEPS ramp} on n LHS rows of each
    sampling distribution, both drawn from one seed."""
    fine = dataclasses.replace(sp, n_steps=REFERENCE_STEPS)
    errors = {}
    for name in ("uniform_pm20", "normal_10std"):
        X = getattr(SamplingDistribution, name)().transform(sample_lhs(n, len(cat), seed), cat)
        ref = simulate_batch(X, fine)
        errors[name] = np.abs(simulate_batch(X, sp) - ref).sum(axis=0) / np.abs(ref).sum(axis=0)
    return errors


def main() -> int:
    cat = build_catalog()
    sp = default_specimen(cat)
    worst = 0.0
    for name, err in step_errors(cat, sp, 400, seed=5).items():
        print(f"{name} at {sp.n_steps} steps: "
              + " ".join(f"{k} {100 * e:.4f}%" for k, e in zip(ENERGIES, err)))
        worst = max(worst, float(err.max()))
    return int(worst > BOUND)


if __name__ == "__main__":
    sys.exit(main())
