"""Reduced-dimension surrogate modeling of mechanism-resolved damage energies.

A desk-scale four-point-bend damage model generates datasets of per-mechanism
absorbed energies over a 41-parameter material space.  FDR logworth screening
cuts each output down to its dominant drivers, small dense networks fit the
reduced spaces, and the package compares two routes to a total-energy model:
a direct fit of the total and a sum of per-mechanism models with a geometric
engagement gate on the adhesive disbond term.
"""

from .bend import (
    FABRICS,
    BendSpecimen,
    default_specimen,
    load_specimen_config,
    simulate_batch,
    simulate_dataset,
)
from .catalog import ParameterCatalog, SamplingDistribution, build_catalog
from .dataset import ENERGY_COLUMNS, MECHANISMS, Dataset
from .errors import AdmissibilityError, NumericalFailureError, RdsmError, SchemaError
from .sampling import (
    DesignMatrix,
    SaltelliDesign,
    default_strata,
    sample_lhs,
    sample_lss,
    sample_mc,
    saltelli_matrices,
)
from .sensitivity import (
    ParameterScreen,
    ScreeningResult,
    SobolResult,
    benjamini_hochberg,
    retain_parameters,
    screen_fdr_logworth,
    sobol_indices,
)
from .surrogate import (
    NetworkSpec,
    SurrogateModel,
    TrainReport,
    deserialize_model,
    serialize_model,
    train_surrogate,
)
from .workflow import (
    ApproachStats,
    ComparisonReport,
    ComparisonSection,
    DirectFit,
    EngagementGate,
    MechanismFit,
    MechanismRDSM,
    SubspaceSample,
    SummedFit,
    SummedRDSM,
    UQReport,
    UQRow,
    compare_approaches,
    engagement_mask,
    fit_direct,
    fit_mechanism,
    fit_summed,
    resample_subspace,
    split_holdout,
    uq_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # catalog and sampling
    "ParameterCatalog",
    "SamplingDistribution",
    "build_catalog",
    "DesignMatrix",
    "SaltelliDesign",
    "default_strata",
    "sample_lhs",
    "sample_lss",
    "sample_mc",
    "saltelli_matrices",
    # datasets and the source model
    "ENERGY_COLUMNS",
    "MECHANISMS",
    "Dataset",
    "FABRICS",
    "BendSpecimen",
    "default_specimen",
    "load_specimen_config",
    "simulate_batch",
    "simulate_dataset",
    # errors
    "RdsmError",
    "SchemaError",
    "AdmissibilityError",
    "NumericalFailureError",
    # screening and sensitivity
    "ParameterScreen",
    "ScreeningResult",
    "SobolResult",
    "benjamini_hochberg",
    "retain_parameters",
    "screen_fdr_logworth",
    "sobol_indices",
    # surrogates
    "NetworkSpec",
    "SurrogateModel",
    "TrainReport",
    "train_surrogate",
    "serialize_model",
    "deserialize_model",
    # workflows
    "MechanismRDSM",
    "EngagementGate",
    "SummedRDSM",
    "DirectFit",
    "MechanismFit",
    "SummedFit",
    "SubspaceSample",
    "UQRow",
    "UQReport",
    "ApproachStats",
    "ComparisonSection",
    "ComparisonReport",
    "engagement_mask",
    "fit_direct",
    "fit_mechanism",
    "fit_summed",
    "resample_subspace",
    "uq_sweep",
    "compare_approaches",
    "split_holdout",
]
