"""Print a SHA-256 fingerprint of the package's outputs, one line each.

Each line reads ``<sha256>  <name>``.  The names cover:

* ``cli/...``: in-process ``cli.main`` calls of every command, both
  ``simulate`` sweep kinds and the usual exit 2 and 3 refusals; a digest
  covers the exit code, the stdout document and, for ``simulate``, the
  CSV it writes;
* ``study/...``: ``rmse_study``, ``level_power_study`` and
  ``contamination_sweep`` reports, clean and contaminated, on 50-device
  and 3-device cells; a digest covers ``to_json`` and ``to_rows``;
* ``solver/...``: the three ``_fit_rows`` outputs, along the betas
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
  (``cell_probs``, ``dpd_objective``, ``estimating_equations``,
  ``j_bar``, ``k_bar``, ``fisher_information`` and ``sandwich``), one
  line per function, table and point, along the betas 0, 0.5 and 1: on
  ``table1`` and the unbalanced table below at a central point, the two
  near-boundary points above and alpha = (1, 20), whose rates overflow
  from stress 45 on; and on a plan with stresses 0 and 1e35 at
  alpha = (0.5, 1e-36).  A digest covers each value, or the
  exception's type and message;
* ``help/...``: the stdout of ``<command> --help``, one line per
  subcommand (``-`` spelled ``_``), with help wrapped to 80 columns.

The calls run in a temporary directory that holds copies of the bundled
CSVs and the spec files, so the ``--input`` and ``--spec`` paths echoed in
``config`` do not depend on where the package lives.  Two source trees
that print the same lines give byte-identical outputs on these calls:

    PYTHONPATH=src python tests/data/fingerprint.py > after.txt
    diff before.txt after.txt

``--values FILE`` also writes the values behind each digest, one JSON
line per name, and ``--compare A B`` reads two such files and prints per
name ``identical``, or the first text, integer, flag or error that
changed and the largest absolute and relative move of its floats:

    PYTHONPATH=src python tests/data/fingerprint.py --values after.jsonl
    PYTHONPATH=src python tests/data/fingerprint.py \\
        --compare before.jsonl after.jsonl
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
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


def cli_values(argv) -> dict:
    if os.path.exists("out.csv"):
        os.remove("out.csv")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    parts = [f"exit {code}\n", stdout.getvalue()]
    if argv[0] == "simulate" and os.path.exists("out.csv"):
        with open("out.csv", encoding="utf-8") as handle:
            parts.append(handle.read())
    return {"text": parts}


def help_lines():
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
        lines.append((f"help/{command.replace('-', '_')}",
                      {"text": [stdout.getvalue()]}))
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


def inference_outputs(alpha, plan, beta):
    hyp = LinearHypothesis(np.array([0.0, 1.0]), 0.05)
    return (*_sandwich_rows(alpha, plan, beta),
            _z_rows(alpha, plan, beta, hyp))


def solver_lines():
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
        solver.append((f"solver/{name}", {"arrays": list(fits.values())}))
        alpha = fits["alpha"]
        scalar = [out for b, beta in enumerate(betas)
                  for out in inference_outputs(alpha[:, b], plan, beta)]
        inference.append((f"inference/{name}_scalar", {"arrays": scalar}))
    for name, alpha0 in (("1e_9", 1e-9), ("0.5", 0.5)):
        alpha = np.array([[alpha0, 0.05]])
        sandwiches = [out for beta in betas
                      for out in _sandwich_rows(alpha, table1, beta)]
        inference.append((f"inference/table1_alpha0_{name}",
                          {"arrays": sandwiches}))
    return solver + inference


def point_value(value):
    """A public function's output as arrays, scalars and strings nested in
    tuples: a covariance as its fields, a dict as its items."""
    if isinstance(value, SandwichCovariance):
        value = (value.j_bar, value.k_bar, value.sigma,
                 value.at_params.as_array(), value.beta)
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(point_value, value))
    return value


def point_repr(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}{value.tobytes().hex()}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(point_repr, value)) + ")"
    return repr(value)


def point_call(function, *args, **kwargs):
    """:func:`point_value` of the call, or ``{"error": "Type: message"}``."""
    try:
        return point_value(function(*args, **kwargs))
    except (OneShotError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def point_lines():
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
                table, params, b),
            "j_bar": lambda b: j_bar(params, plan, b),
            "k_bar": lambda b: k_bar(params, plan, b),
            "sandwich": lambda b: sandwich(params, plan, b)}
        outputs = {name: [point_call(call, b) for b in (0.0, 0.5, 1.0)]
                   for name, call in along_beta.items()}
        outputs["cell_probs"] = [point_call(cell_probs, params, plan)]
        outputs["fisher_information"] = [
            point_call(fisher_information, params, plan)]
        for name, results in sorted(outputs.items()):
            lines.append((f"point/{name}/{case}", {"points": results}))
    return lines


def report_values(report) -> dict:
    return {"text": [report.to_json(), repr(report.to_rows(x_value=0.5))]}


def fingerprint_lines():
    """Every line as ``(name, values)``; ``values`` holds one kind of
    output: ``{"arrays": [...]}``, ``{"points": [...]}`` (each a
    :func:`point_call` result) or ``{"text": [...]}``."""
    lines = []
    for name, spec in study_specs():
        study = rmse_study if spec.hypothesis is None else level_power_study
        lines.append((f"study/{name}", report_values(study(spec))))
        if spec.contamination.mode != "none":
            reports, strengths = contamination_sweep(spec, [0.0, 0.3, 0.9])
            for report, s in zip(reports, strengths):
                lines.append((f"study/{name}_sweep_{s}",
                              report_values(report)))
    lines.extend(solver_lines())
    lines.extend(point_lines())
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
                lines.append((f"cli/{name}", cli_values(argv)))
        finally:
            os.chdir(cwd)
    lines.extend(help_lines())
    return lines


def digest(values: dict) -> str:
    """The SHA-256 of a line's values: the bytes of its arrays, the
    :func:`point_repr` (or error) of its points joined by newlines, or its
    text."""
    (kind, parts), = values.items()
    if kind == "arrays":
        data = b"".join(np.ascontiguousarray(a).tobytes() for a in parts)
    elif kind == "points":
        data = "\n".join(p["error"] if isinstance(p, dict) else point_repr(p)
                         for p in parts).encode()
    else:
        data = "".join(parts).encode()
    return hashlib.sha256(data).hexdigest()


def to_json(value):
    """``value`` for :func:`json.dumps`: an array as its dtype, shape and
    flat values (floats print in shortest repr, a NaN as ``nan:`` and its
    bits, which a float array's digest covers), a tuple as a list."""
    if isinstance(value, np.ndarray):
        flat = value.ravel()
        values = flat.tolist()
        if flat.dtype == np.float64:
            bits = flat.view(np.uint64)
            for k in np.flatnonzero(np.isnan(flat)):
                values[k] = f"nan:{int(bits[k]):016x}"
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "values": values}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def from_json(value):
    """The inverse of :func:`to_json`, up to tuples read back as lists."""
    if isinstance(value, dict) and "dtype" in value:
        flat = np.array([np.uint64(int(v[4:], 16)).view(np.float64)
                         if isinstance(v, str) else v
                         for v in value["values"]], dtype=value["dtype"])
        return flat.reshape(value["shape"])
    if isinstance(value, list):
        return [from_json(v) for v in value]
    if isinstance(value, dict):
        return {k: from_json(v) for k, v in value.items()}
    return value


def write_values(lines, path):
    """One JSON document per line: ``{"name": ..., <kind>: [...]}``."""
    with open(path, "w", encoding="utf-8") as handle:
        for name, values in lines:
            handle.write(json.dumps({"name": name, **to_json(values)}) + "\n")


def read_values(path) -> dict:
    """``{name: values}`` from a :func:`write_values` file."""
    out = {}
    with open(path, encoding="utf-8") as handle:
        for row in map(json.loads, handle):
            name = row.pop("name")
            out[name] = from_json(row)
    return out


# a float as Python, json and csv print one: with a point, an exponent or
# as inf or nan; an integer in text is read as a word, like a flag
FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?"
                   r"|[-+]?\b(?:inf|nan|Infinity|NaN)\b")


def flatten(value, floats, words):
    """Append a line's floats to ``floats`` and everything else (the text
    between floats, integers, flags, array shapes, errors) to ``words``."""
    if isinstance(value, np.ndarray):
        words.append(f"{value.dtype}{value.shape}")
        flatten(value.tolist(), floats, words)
    elif isinstance(value, dict):
        words.append(value["error"])
    elif isinstance(value, (list, tuple)):
        for item in value:
            flatten(item, floats, words)
    elif isinstance(value, str):
        pos = 0
        for match in FLOAT.finditer(value):
            words.append(value[pos:match.start()])
            floats.append(float(match.group()))
            pos = match.end()
        words.append(value[pos:])
    elif isinstance(value, float):
        floats.append(value)
    else:
        words.append(repr(value))


def compare(a: dict, b: dict) -> str:
    """How one line's values moved from ``a`` to ``b``: ``identical``, or
    the first text, integer, flag or error that ``changed`` and the largest
    absolute and relative move of its floats."""
    if digest(a) == digest(b):
        return "identical"
    runs = []
    for values in (a, b):
        floats, words = [], []
        flatten(list(values.values()), floats, words)
        runs.append((np.array(floats), words))
    (x, wa), (y, wb) = runs
    status = []
    if wa != wb:
        u, v = next((pair for pair in zip(wa, wb) if pair[0] != pair[1]),
                    (f"{len(wa)} words", f"{len(wb)} words"))
        # the first differing text, from a little before it differs
        at = max(0, next((k for k, (p, q) in enumerate(zip(u, v)) if p != q),
                         min(len(u), len(v))) - 20)
        status.append(f"changed  {u[at:at + 60]!r} -> {v[at:at + 60]!r}")
    if x.shape != y.shape:
        status.append(f"{x.size} -> {y.size} floats")
    else:
        status.append(float_move(x, y))
    return "; ".join(filter(None, status)) or "equal values in other bits"


def float_move(x, y) -> str:
    """The largest absolute and relative move from the floats ``x`` to
    those of ``y``, of the same shape, or "" when no value moved (a NaN
    stays a NaN, and -0.0 equals 0.0)."""
    with np.errstate(invalid="ignore"):
        moved = ~((x == y) | (np.isnan(x) & np.isnan(y)))
        gap = np.abs(x[moved] - y[moved])
        rel = gap / np.maximum(np.abs(x[moved]), np.abs(y[moved]))
    if not moved.any():
        return ""
    return (f"moved  abs {np.nanmax(gap):.3g}  rel {np.nanmax(rel):.3g}  "
            f"({moved.sum()} of {x.size} floats)")


def compare_files(path_a, path_b):
    a, b = read_values(path_a), read_values(path_b)
    for name in [*a, *(n for n in b if n not in a)]:
        if name not in b or name not in a:
            status = f"only in {path_a if name in a else path_b}"
        else:
            status = compare(a[name], b[name])
        print(f"{name}  {status}")


def main_fingerprint(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--values", metavar="FILE",
                        help="also write the values behind each digest")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --values files instead")
    args = parser.parse_args(argv)
    if args.compare:
        compare_files(*args.compare)
        return
    lines = fingerprint_lines()
    if args.values:
        write_values(lines, args.values)
    for name, values in lines:
        print(f"{digest(values)}  {name}")


if __name__ == "__main__":
    main_fingerprint()
