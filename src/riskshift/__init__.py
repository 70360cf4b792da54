"""Numerical laboratory for risk relationships of linear predictors under covariate shift.

The package is organised around a pipeline: build a covariance pair describing
the train/test shift (`subspace`, `shiftmodel`), draw data and ground truth
(`datagen`), fit ridge or empirical-risk-minimisation estimators
(`estimators`), reduce any estimate to a 2x2 decision covariance and evaluate
risks on it (`risk`), compare against the closed-form risk relations and
monotonicity conditions (`theory`), study the linear inverse-problem
counterparts (`inverse`), and drive reproducible experiment sweeps
(`harness`).
"""

from riskshift.datagen import (
    LinearGaussian,
    NoisySign,
    label,
    sample_beta,
    sample_covariates,
)
from riskshift.errors import (
    ConfigError,
    InvalidDimensionError,
    NumericInputError,
    RiskshiftError,
)
from riskshift.estimators import FittedModel, erm_fit, ridge_fit
from riskshift.inverse import (
    InverseProblem,
    cs_relation_residual,
    cs_risks,
    denoise_grid,
    gaussian_measurement,
    inner_product_preservation_stats,
    sketch_bases,
)
from riskshift.risk import (
    DecisionCov,
    MetricKind,
    decision_cov,
    mc_metric_risk,
    misclassification_risk,
    quad_metric_risk,
    squared_risk,
)
from riskshift.shiftmodel import (
    CovariancePair,
    ShiftParameters,
    shift_parameters,
    subspace_shift_model,
    task_dependent_model,
)
from riskshift.subspace import (
    OrthonormalBasis,
    SubspacePairSpec,
    haar_basis,
    overlap_coefficient,
    overlapping_pair,
    subspace_similarity,
)
from riskshift.theory import (
    MonotonicityVerdict,
    asymptotic_decision_cov,
    classification_relation,
    finite_dim_linearity,
    monotonicity_check_classification,
    monotonicity_check_regression,
    population_ridge_risks,
    probit_arctan_gap,
    regression_relation,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CovariancePair",
    "DecisionCov",
    "FittedModel",
    "InvalidDimensionError",
    "InverseProblem",
    "LinearGaussian",
    "MetricKind",
    "MonotonicityVerdict",
    "NoisySign",
    "NumericInputError",
    "OrthonormalBasis",
    "RiskshiftError",
    "ShiftParameters",
    "SubspacePairSpec",
    "asymptotic_decision_cov",
    "classification_relation",
    "cs_relation_residual",
    "cs_risks",
    "decision_cov",
    "denoise_grid",
    "erm_fit",
    "finite_dim_linearity",
    "gaussian_measurement",
    "haar_basis",
    "inner_product_preservation_stats",
    "label",
    "mc_metric_risk",
    "misclassification_risk",
    "monotonicity_check_classification",
    "monotonicity_check_regression",
    "overlap_coefficient",
    "overlapping_pair",
    "population_ridge_risks",
    "probit_arctan_gap",
    "quad_metric_risk",
    "regression_relation",
    "ridge_fit",
    "sample_beta",
    "sample_covariates",
    "shift_parameters",
    "sketch_bases",
    "squared_risk",
    "subspace_shift_model",
    "subspace_similarity",
    "task_dependent_model",
]
