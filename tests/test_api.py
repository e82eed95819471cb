"""The package's public surface: what the CLI, the README and the benchmark use."""

import rdsm

PUBLIC = {
    "__version__",
    # catalog and sampling
    "ParameterCatalog", "SamplingDistribution", "build_catalog", "default_strata",
    "sample_lhs", "sample_lss", "sample_mc", "saltelli_matrices",
    # datasets and the source model
    "ENERGY_COLUMNS", "MECHANISMS", "Dataset", "FABRICS", "BendSpecimen",
    "default_specimen", "load_specimen_config", "simulate_batch", "simulate_dataset",
    # errors
    "RdsmError", "SchemaError", "AdmissibilityError",
    "NumericalFailureError",
    # screening and sensitivity
    "ParameterScreen", "ScreeningResult", "SobolResult", "benjamini_hochberg",
    "retain_parameters", "screen_fdr_logworth", "sobol_indices",
    # surrogates
    "NetworkSpec", "SurrogateModel", "TrainReport", "train_surrogate",
    "serialize_model", "deserialize_model",
    # workflows
    "MechanismRDSM", "EngagementGate", "SummedRDSM", "DirectFit", "MechanismFit",
    "SummedFit", "SubspaceSample", "UQRow", "UQReport", "ApproachStats",
    "ComparisonSection", "ComparisonReport", "engagement_mask", "fit_direct",
    "fit_mechanism", "fit_summed", "resample_subspace", "uq_sweep",
    "compare_approaches", "split_holdout",
}


def test_public_api_is_pinned():
    assert len(rdsm.__all__) == len(set(rdsm.__all__))
    assert set(rdsm.__all__) == PUBLIC
    for name in rdsm.__all__:
        assert hasattr(rdsm, name), name
