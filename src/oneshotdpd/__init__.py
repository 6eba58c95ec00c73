"""Robust estimation and testing for one-shot device reliability data.

Devices are destroyed by testing, so each one contributes only a binary
outcome: failed by its inspection time or not.  Under an exponential
lifetime with a log-linear stress link, this package fits the model by
minimum density power divergence (the maximum likelihood fit is the
tuning-parameter-0 member), provides sandwich-covariance inference with
Z-type tests, power approximation and design sizing, a two-cause
competing-risks extension, and a seeded Monte-Carlo harness for studying
robustness against outlying cells.

Import rule: ``import oneshotdpd`` imports none of the package's modules,
nor numpy.  Each name of ``__all__`` and each submodule (``simulate``,
``datasets``, ``cli``, ...) is imported when it is first read from the
package, through the module-level ``__getattr__`` of PEP 562, and kept in
the package namespace from then on; ``_EXPORTS`` names the module that
defines each exported name.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "competing": ("Cause", "CauseFit", "MultiOutcomeTable", "cause_table",
                  "combined_mean_lifetime", "fit_cause", "fit_causes"),
    "divergence": ("dpd_objective",),
    "errors": ("DegenerateVariance", "InfeasibleDesign", "NoInteriorData",
               "NumericalOverflow", "OneShotError", "ParseError",
               "SingularInformation"),
    "estimator": ("FitResult", "estimating_equations", "fit", "fit_path"),
    "inference": ("LinearHypothesis", "SandwichCovariance", "ZTestResult",
                  "approximate_power", "fisher_information", "j_bar",
                  "k_bar", "required_devices", "sandwich", "z_statistic"),
    "model": ("FailureTable", "ModelParams", "TestPlan", "cdf", "cell_probs",
              "hazard", "mean_lifetime", "pdf", "reliability"),
    "simulate": ("ContaminationScheme", "SimulationReport", "SimulationSpec",
                 "contamination_sweep", "generate_table", "level_power_study",
                 "rmse_study", "write_report_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "datasets", "io")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
