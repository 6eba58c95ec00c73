"""Print a SHA-256 fingerprint of the package's outputs, one line each.

Each line reads ``<sha256>  <name>``.  The names cover:

* ``cli/...``: in-process ``cli.main`` calls of every command, both
  ``simulate`` sweep kinds and the usual exit 2 and 3 refusals; a digest
  covers the exit code, the stdout document and, for ``simulate``, the
  CSV it writes;
* ``study/...``: ``rmse_study``, ``level_power_study`` and
  ``contamination_sweep`` reports, clean and contaminated, on 50-device
  and 3-device cells; a digest covers ``to_json`` and ``to_rows``;
* ``solver/...``: the four ``_fit_rows`` outputs, along the betas
  0:0.2:1,2, for seeded random tables on small and large, wide, unbalanced
  and extreme plans (stresses and times near the ends of the double
  range), where many fits stall or hit the iteration cap;
* ``inference/...``: at every estimate of those fits, usable or not, the
  ``_sandwich_rows`` outputs (``j_bar``, ``k_bar``, ``sigma``, ``ok``)
  and the ``_z_rows`` statistics of alpha1 = 0.05, one call per beta;
  and, along the same betas, the ``_sandwich_rows`` outputs at two fixed
  points on the table1 design near the boundary of the cell
  probabilities: alpha0 = 1e-9, where every F is below 1e-6, and
  alpha0 = 0.5, where every F is within 1e-12 of 1 (alpha1 = 0.05);
* ``point/...``: the public functions of one parameter point
  (``cell_probs``, ``dpd_objective``, ``estimating_equations`` with
  ``full_output=True``, ``j_bar``, ``k_bar``, ``fisher_information`` and
  ``sandwich``), one line per function, table and point, along the betas
  0, 0.5 and 1: on ``table1`` and the unbalanced table below at a central
  point, the two near-boundary points above and alpha = (1, 20), whose
  rates overflow from stress 45 on; and on a plan with stresses 0 and
  1e35 at alpha = (0.5, 1e-36).  A digest covers each value, or the
  exception's type and message;
* ``help/...``: the stdout of ``<command> --help``, one line per
  subcommand (``-`` spelled ``_``), with help wrapped to 80 columns.

The calls run in a temporary directory that holds copies of the bundled
CSVs and the spec files, so the ``--input`` and ``--spec`` paths echoed in
``config`` do not depend on where the package lives.  Two source trees
that print the same lines give byte-identical outputs on these calls:

    PYTHONPATH=src python tests/data/fingerprint.py > after.txt
    diff before.txt after.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from unittest import mock

import numpy as np

from oneshotdpd import (ContaminationScheme, FailureTable, LinearHypothesis,
                        ModelParams, OneShotError, SandwichCovariance,
                        SimulationSpec, TestPlan, cell_probs,
                        contamination_sweep, dpd_objective,
                        estimating_equations, fisher_information, j_bar,
                        k_bar, level_power_study, rmse_study, sandwich)
from oneshotdpd.cli import _build_parser, main
from oneshotdpd.datasets import dataset_path, load_table1
from oneshotdpd.estimator import _fit_rows
from oneshotdpd.inference import _sandwich_rows, _z_rows
from oneshotdpd.io import parse_betas

FIT = ["--input", "table1.csv"]
TEST = ["--m", "0,1", "--d", "0.05"]
UNBALANCED = ("w,t,K,n\n35,10,20,4\n35,20,200,61\n35,30,20,9\n"
              "45,10,200,55\n45,20,20,10\n45,30,200,140\n"
              "55,10,20,8\n55,20,200,150\n55,30,20,18\n")
PLAN = {"temps": [35, 45, 55], "times": [10, 20, 30], "devices": 30}
HYPOTHESIS = {"m": [0, 1], "d": 0.05, "level": 0.05}
SPECS = {
    "rmse.json": {"study": "rmse", "plan": PLAN,
                  "true_params": [0.004, 0.05], "betas": "0:0.5:1",
                  "replications": 30, "seed": 5},
    "rmse_devices.json": {"study": "rmse", "plan": PLAN,
                          "true_params": [0.004, 0.05], "betas": [0, 0.8],
                          "replications": 20, "seed": 6,
                          "sweep": {"parameter": "devices",
                                    "values": [3, 20]}},
    "lp_strength.json": {"study": "level_power", "plan": PLAN,
                         "true_params": [0.004, 0.05],
                         "contamination": {"mode": "alpha0_shift",
                                           "cell": [0, 0], "value": 0.001},
                         "betas": "0:0.5:1", "replications": 30, "seed": 7,
                         "hypothesis": HYPOTHESIS,
                         "sweep": {"values": [0, 0.5]}},
    "lp_devices.json": {"study": "level_power", "plan": PLAN,
                        "true_params": [0.004, 0.05], "betas": [0.3],
                        "replications": 20, "seed": 8,
                        "hypothesis": HYPOTHESIS,
                        "sweep": {"parameter": "devices", "values": [4, 40]}},
    "rmse_hypothesis.json": {"study": "rmse", "plan": PLAN,
                             "true_params": [0.004, 0.05], "betas": [0],
                             "replications": 5, "seed": 1,
                             "hypothesis": HYPOTHESIS},
    "lp_no_hypothesis.json": {"study": "level_power", "plan": PLAN,
                              "true_params": [0.004, 0.05], "betas": [0],
                              "replications": 5, "seed": 1},
    "bad_study.json": {"study": "power", "plan": PLAN,
                       "true_params": [0.004, 0.05], "betas": [0],
                       "replications": 5, "seed": 1},
    # a sweep whose later value is refused
    "devices_fraction.json": {"study": "rmse", "plan": PLAN,
                              "true_params": [0.004, 0.05], "betas": [0],
                              "replications": 5, "seed": 1,
                              "sweep": {"parameter": "devices",
                                        "values": [3, 10.5]}},
    "devices_beyond_int64.json": {"study": "rmse", "plan": PLAN,
                                  "true_params": [0.004, 0.05],
                                  "betas": [0], "replications": 5,
                                  "seed": 1,
                                  "sweep": {"parameter": "devices",
                                            "values": [3, 10**29]}},
    "strength_one.json": {"study": "rmse", "plan": PLAN,
                          "true_params": [0.004, 0.05],
                          "contamination": {"mode": "alpha0_shift",
                                            "cell": [0, 0], "value": 0.001},
                          "betas": [0], "replications": 5, "seed": 1,
                          "sweep": {"values": [0, 1]}},
}
CALLS = {
    "fit": ["fit", *FIT, "--beta", "0.5"],
    "fit_beta0_predictions": ["fit", *FIT, "--beta", "0", "--w0", "25",
                              "--mission-times", "10,20"],
    "fit_unbalanced": ["fit", "--input", "unbalanced.csv", "--beta", "0.3"],
    "fit_path": ["fit-path", *FIT, "--betas", "0:0.1:1,2", "--w0", "25",
                 "--mission-times", "5,10"],
    "fit_path_unbalanced": ["fit-path", "--input", "unbalanced.csv",
                            "--betas", "0,0.5,1"],
    "reliability": ["reliability", "--params", "0.004,0.05", "--w0", "25",
                    "--mission-times", "10,20,30"],
    "reliability_empty_mission": ["reliability", "--params", "0.004,0.05",
                                  "--w0", "25", "--mission-times", ""],
    "ztest": ["ztest", *FIT, "--beta", "0.5", *TEST],
    "power": ["power", *FIT, "--alpha-star", "0.004,0.06", "--beta", "0.5",
              *TEST, "--devices", "50", "--abs-effect"],
    "samplesize": ["samplesize", *FIT, "--alpha-star", "0.004,0.06",
                   "--beta", "0.5", *TEST, "--target-power", "0.8"],
    "competing_fit_ed01": ["competing-fit", "--input", "ed01.csv",
                           "--betas", "0,0.5,1"],
    "competing_fit_benzidine": ["competing-fit", "--input", "benzidine.csv",
                                "--betas", "0.25", "--causes", "tumour"],
    "simulate_rmse": ["simulate", "--spec", "rmse.json", "--output",
                      "out.csv"],
    "simulate_rmse_devices": ["simulate", "--spec", "rmse_devices.json",
                              "--output", "out.csv", "--workers", "2"],
    "simulate_lp_strength": ["simulate", "--spec", "lp_strength.json",
                             "--output", "out.csv"],
    "simulate_lp_devices": ["simulate", "--spec", "lp_devices.json",
                            "--output", "out.csv", "--seed", "9"],
    # refusals, exit 2
    "usage_error": ["fit", *FIT],
    "fit_negative_beta": ["fit", *FIT, "--beta", "-1"],
    "fit_nan_beta": ["fit", *FIT, "--beta", "nan"],
    "fit_missing_input_bad_mission": ["fit", "--input", "missing.csv",
                                      "--beta", "0.5",
                                      "--mission-times", "x"],
    "fit_bad_mission": ["fit", *FIT, "--beta", "0.5", "--mission-times",
                        "10,inf"],
    "fit_path_bad_betas_and_mission": ["fit-path", *FIT, "--betas", "1:0:2",
                                       "--mission-times", "x"],
    "ztest_bad_m": ["ztest", *FIT, "--beta", "0.5", "--m", "1", "--d", "0"],
    "ztest_zero_m": ["ztest", *FIT, "--beta", "0.5", "--m", "0,0", "--d",
                     "0.05"],
    "ztest_level_1": ["ztest", *FIT, "--beta", "0.5", *TEST, "--level", "1"],
    "power_zero_alpha0": ["power", *FIT, "--alpha-star=0,0.05", "--beta",
                          "0.5", *TEST, "--devices", "50"],
    "power_level_0": ["power", *FIT, "--alpha-star", "0.004,0.06", "--beta",
                      "0.5", *TEST, "--devices", "50", "--level", "0"],
    "samplesize_level_1_5": ["samplesize", *FIT, "--alpha-star",
                             "0.004,0.06", "--beta", "0.5", *TEST,
                             "--target-power", "0.8", "--level", "1.5"],
    "simulate_rmse_with_hypothesis": ["simulate", "--spec",
                                      "rmse_hypothesis.json", "--output",
                                      "out.csv"],
    "simulate_lp_without_hypothesis": ["simulate", "--spec",
                                       "lp_no_hypothesis.json", "--output",
                                       "out.csv"],
    "simulate_bad_study": ["simulate", "--spec", "bad_study.json",
                           "--output", "out.csv"],
    "simulate_devices_fraction": ["simulate", "--spec",
                                  "devices_fraction.json", "--output",
                                  "out.csv"],
    "simulate_devices_beyond_int64": ["simulate", "--spec",
                                      "devices_beyond_int64.json",
                                      "--output", "out.csv"],
    "simulate_strength_one": ["simulate", "--spec", "strength_one.json",
                              "--output", "out.csv"],
    "simulate_workers_0": ["simulate", "--spec", "rmse.json", "--output",
                           "out.csv", "--workers", "0"],
    # computation errors, exit 3
    "power_overflow": ["power", *FIT, "--alpha-star", "0.004,400", "--beta",
                       "0.5", *TEST, "--devices", "50"],
    "samplesize_zero_effect": ["samplesize", *FIT, "--alpha-star",
                               "0.004,0.05", "--beta", "0.5", *TEST,
                               "--target-power", "0.8"],
}


def cli_digest(argv) -> str:
    if os.path.exists("out.csv"):
        os.remove("out.csv")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    data = f"exit {code}\n{stdout.getvalue()}"
    if argv[0] == "simulate" and os.path.exists("out.csv"):
        with open("out.csv", encoding="utf-8") as handle:
            data += handle.read()
    return hashlib.sha256(data.encode()).hexdigest()


def help_digests():
    """The ``help/...`` lines; argparse wraps help to the terminal width."""
    commands = next(action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    lines = []
    for command in commands:
        stdout = io.StringIO()
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                contextlib.redirect_stdout(stdout), \
                contextlib.suppress(SystemExit):
            main([command, "--help"])
        digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        lines.append((digest, f"help/{command.replace('-', '_')}"))
    return lines


def study_specs():
    plan = TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                    np.full((3, 3), 50))
    small = TestPlan(plan.temps, plan.times, np.full((3, 3), 3))
    truth = ModelParams(0.004, 0.05)
    hyp = LinearHypothesis(np.array([0.0, 1.0]), 0.05)
    shifts = {"clean": ContaminationScheme(),
              "alpha0": ContaminationScheme("alpha0_shift", (0, 0), 0.001),
              "alpha1": ContaminationScheme("alpha1_shift", (2, 2), 0.02)}
    for name, scheme in shifts.items():
        for kind, hypothesis in (("rmse", None), ("level_power", hyp)):
            yield f"{kind}_{name}", SimulationSpec(
                plan, truth, scheme, (0.0, 0.4, 1.0), 60, 11, hypothesis)
    for kind, hypothesis in (("rmse", None), ("level_power", hyp)):
        yield f"{kind}_k3", SimulationSpec(
            small, truth, ContaminationScheme(), (0.0, 0.5, 1.0), 120, 3,
            hypothesis)


def solver_plans():
    temps, times = [35.0, 45.0, 55.0], [10.0, 20.0, 30.0]
    for k in (2, 3, 5, 10, 50):
        yield f"table1_k{k}", TestPlan(temps, times, np.full((3, 3), k))
    yield "wide", TestPlan([-1e3, 0.0, 1e3], [1e-3, 1.0, 1e3],
                           np.full((3, 3), 10))
    yield "unbalanced", TestPlan([35.0, 55.0], times,
                                 [[3, 20, 7], [15, 2, 40]])
    for name, w, t in [
            ("stress_1e308", [-1e308, 0.0, 1e308], times),
            ("stress_1e150", [-1e150, 0.0, 1e150], times),
            ("time_1e300", temps, [1e300, 2e300, 3e300]),
            ("time_1e_300", temps, [1e-300, 2e-300, 3e-300]),
            ("stress_gap_5e_324", [0.0, 5e-324, 1e-323], times),
            ("stress_1e308_time_1e300", [-1e308, 1e308], [1e300, 2e300]),
            ("stress_1e150_time_1e_300", [-1e150, 1e150], [1e-300, 1.0])]:
        yield name, TestPlan(w, t, np.full((len(w), len(t)), 10))


def array_digest(arrays) -> str:
    digest = hashlib.sha256()
    for out in arrays:
        digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


def inference_outputs(alpha, plan, beta):
    hyp = LinearHypothesis(np.array([0.0, 1.0]), 0.05)
    return (*_sandwich_rows(alpha, plan, beta),
            _z_rows(alpha, plan, beta, hyp))


def solver_digests():
    """The ``solver/...`` lines, then the ``inference/...`` lines."""
    rng = np.random.default_rng(2026)
    betas = parse_betas("0:0.2:1,2")
    table1 = TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                      np.full((3, 3), 10))
    solver, inference = [], []
    for name, plan in solver_plans():
        counts = rng.integers(0, plan.devices + 1, (8,) + plan.shape)
        interior = ((counts > 0) & (counts < plan.devices)).any(axis=(1, 2))
        fits = _fit_rows(counts[interior] / plan.devices, plan, betas)
        solver.append((array_digest(fits.values()), f"solver/{name}"))
        alpha = fits["alpha"]
        scalar = [out for b, beta in enumerate(betas)
                  for out in inference_outputs(alpha[:, b], plan, beta)]
        inference.append((array_digest(scalar), f"inference/{name}_scalar"))
    for name, alpha0 in (("1e_9", 1e-9), ("0.5", 0.5)):
        alpha = np.array([[alpha0, 0.05]])
        sandwiches = [out for beta in betas
                      for out in _sandwich_rows(alpha, table1, beta)]
        inference.append((array_digest(sandwiches),
                          f"inference/table1_alpha0_{name}"))
    return solver + inference


def point_repr(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}{value.tobytes().hex()}"
    if isinstance(value, SandwichCovariance):
        value = (value.j_bar, value.k_bar, value.sigma,
                 value.at_params.as_array(), value.beta)
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(point_repr, value)) + ")"
    return repr(value)


def point_call(function, *args, **kwargs) -> str:
    try:
        return point_repr(function(*args, **kwargs))
    except (OneShotError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def point_digests():
    """The ``point/...`` lines."""
    values = np.array([line.split(",") for line in UNBALANCED.split()[1:]],
                      dtype=float)
    unbalanced = FailureTable(
        TestPlan(values[::3, 0], values[:3, 1], values[:, 2].reshape(3, 3)),
        values[:, 3].reshape(3, 3))
    far = TestPlan([0.0, 1e35], [1.0, 2.0], np.full((2, 2), 10))
    points = {"central": ModelParams(0.004, 0.05),
              "alpha0_1e_9": ModelParams(1e-9, 0.05),
              "alpha0_0.5": ModelParams(0.5, 0.05),
              "overflow": ModelParams(1.0, 20.0)}
    cases = [(f"{name}_{point}", table, params)
             for name, table in (("table1", load_table1()),
                                 ("unbalanced", unbalanced))
             for point, params in points.items()]
    cases.append(("stress_1e35", FailureTable(far, [[1, 3], [5, 7]]),
                  ModelParams(0.5, 1e-36)))
    lines = []
    for case, table, params in cases:
        plan = table.plan
        along_beta = {
            "dpd_objective": lambda b: dpd_objective(table, params, b),
            "estimating_equations": lambda b: estimating_equations(
                table, params, b, full_output=True),
            "j_bar": lambda b: j_bar(params, plan, b),
            "k_bar": lambda b: k_bar(params, plan, b),
            "sandwich": lambda b: sandwich(params, plan, b)}
        outputs = {name: [point_call(call, b) for b in (0.0, 0.5, 1.0)]
                   for name, call in along_beta.items()}
        outputs["cell_probs"] = [point_call(cell_probs, params, plan)]
        outputs["fisher_information"] = [
            point_call(fisher_information, params, plan)]
        for name, results in sorted(outputs.items()):
            digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
            lines.append((digest, f"point/{name}/{case}"))
    return lines


def report_digest(report) -> str:
    data = report.to_json() + repr(report.to_rows(x_value=0.5))
    return hashlib.sha256(data.encode()).hexdigest()


def main_fingerprint():
    lines = []
    for name, spec in study_specs():
        study = rmse_study if spec.hypothesis is None else level_power_study
        lines.append((report_digest(study(spec)), f"study/{name}"))
        if spec.contamination.mode != "none":
            reports, strengths = contamination_sweep(spec, [0.0, 0.3, 0.9])
            for report, s in zip(reports, strengths):
                lines.append((report_digest(report),
                              f"study/{name}_sweep_{s}"))
    lines.extend(solver_digests())
    lines.extend(point_digests())
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name in ("table1", "ed01", "benzidine"):
                shutil.copyfile(dataset_path(name), f"{name}.csv")
            with open("unbalanced.csv", "w", encoding="utf-8") as handle:
                handle.write(UNBALANCED)
            for name, doc in SPECS.items():
                with open(name, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
            for name, argv in CALLS.items():
                lines.append((cli_digest(argv), f"cli/{name}"))
        finally:
            os.chdir(cwd)
    lines.extend(help_digests())
    for digest, name in lines:
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main_fingerprint()
