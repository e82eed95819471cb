"""Reduced-dimension surrogate modeling of mechanism-resolved damage energies.

A desk-scale four-point-bend damage model generates datasets of per-mechanism
absorbed energies over a 41-parameter material space.  FDR logworth screening
cuts each output down to its dominant drivers, small dense networks fit the
reduced spaces, and the package compares two routes to a total-energy model:
a direct fit of the total and a sum of per-mechanism models with a geometric
engagement gate on the adhesive disbond term.

The root exports exactly the names the README's library example uses.  Every
other name is reached through its module, for example
`rdsm.workflow.SummedRDSM` or `rdsm.errors.RdsmError`.
"""

from .bend import default_specimen, simulate_dataset
from .catalog import SamplingDistribution, build_catalog
from .sampling import sample_lhs
from .workflow import compare_approaches, fit_direct, fit_summed, split_holdout

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "build_catalog",
    "SamplingDistribution",
    "sample_lhs",
    "default_specimen",
    "simulate_dataset",
    "split_holdout",
    "fit_direct",
    "fit_summed",
    "compare_approaches",
]
