"""Robust estimation and testing for one-shot device reliability data.

Devices are destroyed by testing, so each one contributes only a binary
outcome: failed by its inspection time or not.  Under an exponential
lifetime with a log-linear stress link, this package fits the model by
minimum density power divergence (the maximum likelihood fit is the
tuning-parameter-0 member), provides sandwich-covariance inference with
Z-type tests, power approximation and design sizing, a two-cause
competing-risks extension, and a seeded Monte-Carlo harness for studying
robustness against outlying cells.
"""

from .competing import (
    Cause,
    CauseFit,
    MultiOutcomeTable,
    cause_table,
    combined_mean_lifetime,
    fit_cause,
    fit_causes,
)
from .divergence import dpd_objective
from .errors import (
    DegenerateVariance,
    InfeasibleDesign,
    NoInteriorData,
    NumericalOverflow,
    OneShotError,
    ParseError,
    SingularInformation,
)
from .estimator import (
    FitResult,
    estimating_equations,
    fit,
    fit_path,
)
from .inference import (
    LinearHypothesis,
    SandwichCovariance,
    ZTestResult,
    approximate_power,
    fisher_information,
    j_bar,
    k_bar,
    required_devices,
    sandwich,
    z_statistic,
)
from .model import (
    FailureTable,
    ModelParams,
    TestPlan,
    cdf,
    cell_probs,
    hazard,
    mean_lifetime,
    pdf,
    reliability,
)
from .simulate import (
    ContaminationScheme,
    SimulationReport,
    SimulationSpec,
    contamination_sweep,
    generate_table,
    level_power_study,
    rmse_study,
    write_report_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Cause",
    "CauseFit",
    "ContaminationScheme",
    "DegenerateVariance",
    "FailureTable",
    "FitResult",
    "InfeasibleDesign",
    "LinearHypothesis",
    "ModelParams",
    "MultiOutcomeTable",
    "NoInteriorData",
    "NumericalOverflow",
    "OneShotError",
    "ParseError",
    "SandwichCovariance",
    "SimulationReport",
    "SimulationSpec",
    "SingularInformation",
    "TestPlan",
    "ZTestResult",
    "approximate_power",
    "cause_table",
    "cdf",
    "cell_probs",
    "combined_mean_lifetime",
    "contamination_sweep",
    "dpd_objective",
    "estimating_equations",
    "fisher_information",
    "fit",
    "fit_cause",
    "fit_causes",
    "fit_path",
    "generate_table",
    "hazard",
    "j_bar",
    "k_bar",
    "level_power_study",
    "mean_lifetime",
    "pdf",
    "reliability",
    "required_devices",
    "rmse_study",
    "sandwich",
    "write_report_csv",
    "z_statistic",
]
