"""Benchmark of the oneshotdpd package: Monte-Carlo fits per second, CLI call
latency, and per-layer traces taken from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_level_power --seed 1 \
        --seconds 50 --trace 0

Workloads (the seed builds the inputs; the library sees only those):

* ``mc_level_power``: ``level_power_study`` on the table1 design (temps
  35/45/55, times 10/20/30, K=50), alpha0 of cell (0,0) shifted to 0.001,
  betas 0:0.2:1, H0: alpha1 = 0.05 at level 0.05.  One cold fit, five warm
  fits and six Z tests per replication: the paper's headline study.
* ``cli_session``: fresh-interpreter ``python -m oneshotdpd.cli`` calls on
  the bundled data (fit-path, fit, ztest, power, samplesize, reliability,
  competing-fit on ed01 and benzidine), dominated by import cost.

Every workload reports every end-to-end metric (``--trace 0``):

* ``fits_per_s``: (replication, beta) fits attempted per second of wall
  time with ``workers=1``, the median over the run's rounds.  Each round
  also runs the same work with ``workers=WORKERS_N`` (nproc, at least 2)
  for the determinism check.  A Monte-Carlo round is one study of
  ``ROUND_REPS`` replications with new inputs drawn from the seed.  150 lies between the package's test studies (50) and its
  demos (500): per-study costs are spread over as many fits as in use, and
  a run still covers several rounds.  A ``cli_session`` round is
  ``REPLAYS_PER_PROBE`` in-process replays of the session's argument lists
  through ``cli.main``, sequential and on a pool of ``WORKERS_N`` threads.
  Each round's in-process work runs in a fresh interpreter (``--probe``).
* ``fit_ok_ratio``: share of attempted fits that did not fail (the
  complement of ``sum(failed_fits) / fits``; for ``cli_session``, the share
  of reported fits that converged).  The failure ratio itself is 0 today,
  and an end-to-end metric must never be 0.
* ``cli_call_s_p50`` / ``cli_call_s_p90``: wall time of fresh-interpreter
  CLI calls (``simulate --workers 1`` on each round's spec for
  ``mc_level_power``, the session's calls for ``cli_session``).
* ``cli_ok_ratio``: share of those calls that exit 0 and print valid JSON
  without NaN.
* ``import_s``: median wall time of ``python -c "import oneshotdpd"``.
* ``setup_s``: median wall time of a fresh interpreter that imports the
  package and builds the workload's inputs, over several set-ups.
* ``peak_rss_mb``: peak resident memory of the largest child process
  (round probes, CLI calls, imports and set-ups).

Every value is as measured.  A shared host's speed drifts over seconds,
so all timed work (rounds, CLI calls, bare imports, set-ups) is
interleaved and every metric samples the whole run window.

``--trace 1`` runs fixed passes alternately untraced and traced (see
``tracer.py``) and reports the per-layer metrics, the tracing overhead and
the ``-X importtime`` split of ``import oneshotdpd``.  A pass is the first
round's study (Monte-Carlo) or one replay of the session (CLI), at
workers=1, so its counts repeat exactly for a seed; every ``--trace 0`` run
traces one such pass afterwards for the stamp's counts.  Each traced-mode
pass also runs its work untraced with ``workers=WORKERS_N``, whose median
rate is ``fits_per_s_nproc``: a per-layer figure, not an end-to-end one,
because on a small shared host a pool's speed follows the other tenants'
use of the remaining cores (between runs it spread 0.2-0.37 of its median
on 2 cores, against at most 0.19 for ``fits_per_s``).

Output checks (any mismatch prints ``"correct": false`` and exits 1): the
``workers=1`` and ``workers=WORKERS_N`` reports are identical; a study at the
reference seed matches ``reference.json`` (used, failed_fits and rejection
counts exactly); traced and untraced results agree; CLI outputs are valid JSON without NaN, and the in-process replay
writes the same bytes as the CLI (each output file is removed before the
call that writes it); ``simulate`` reports equal the in-process report;
fit-path on table1 reports every published beta and matches the published
estimates within 5e-5.

``python3 perfbench/run.py --write-reference`` regenerates
``reference.json`` from the current code.  ``python3 perfbench/selftest.py``
checks the benchmark itself at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tracer import Tracer, percentile, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("mc_level_power", "cli_session")
NPROC = len(os.sched_getaffinity(0))
# pool size of the parallel runs: at least 2, so that the pool starts and
# the workers=1 vs pooled determinism check compares two different runs
WORKERS_N = max(2, NPROC)

ROUND_REPS = 150      # replications per timed study round
REPLAYS_PER_PROBE = 2  # replay pairs per cli_session round probe
REF_REPS = 40         # replications of the reference-seed study
REFERENCE_SEED = 2017
SETUPS = 5            # set-ups per run for setup_s
IMPORTTIME_RUNS = 3
CALL_TIMEOUT_S = 60.0
PUBLISHED_TOL = 5e-5  # acceptance criterion 1a

# share of the run window given to each kind of timed work
MC_WEIGHTS = {"round": 0.8, "import": 0.1, "setup": 0.1}
CLI_WEIGHTS = {"call": 0.45, "replay": 0.3, "import": 0.13, "setup": 0.12}

END_TO_END_UNITS = {
    "fits_per_s": "fits/s",
    "fit_ok_ratio": "ratio",
    "cli_call_s_p50": "s",
    "cli_call_s_p90": "s",
    "cli_ok_ratio": "ratio",
    "import_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"estimator.{k}.{m}": u
       for k in ("fit_cold", "fit_warm")
       for m, u in (("calls", "count"), ("self_s", "s"),
                    ("ms_p50", "ms"), ("ms_p99", "ms"))},
    "estimator.newton_iters_per_fit": "iter/fit",
    "estimator.converged_ratio": "ratio",
    "estimator.clamped_ratio": "ratio",
    "inference.sandwich.calls": "count",
    "inference.sandwich.self_s": "s",
    "inference.sandwich.per_fit": "call/fit",
    "inference.sandwich.useful_ratio": "ratio",
    "inference.z_statistic.calls": "count",
    "inference.z_statistic.self_s": "s",
    "simulate.generate_table.calls": "count",
    "simulate.generate_table.self_s": "s",
    "simulate.study.self_s": "s",
    "model.cell_probs.calls": "count",
    "divergence.dpd_objective.calls": "count",
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.main.self_s": "s",
    "io.read_csv.self_s": "s",
    "competing.fit_cause.calls": "count",
    "competing.fit_cause.self_s": "s",
    "trace.overhead_s": "s",
    "fits_per_s_nproc": "fits/s",
}


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _round_seed(seed: int, round_index: int) -> int:
    import numpy as np

    state = np.random.SeedSequence([seed, round_index]).generate_state(
        1, np.uint64)
    return int(state[0])


def mc_spec_doc(seed: int, round_index: int, reps: int) -> dict:
    """The study of one round as a ``simulate`` spec document."""
    return {
        "study": "level_power",
        "plan": {"temps": [35.0, 45.0, 55.0], "times": [10.0, 20.0, 30.0],
                 "devices": [[50] * 3 for _ in range(3)]},
        "true_params": [0.004, 0.05],
        "contamination": {"mode": "alpha0_shift", "cell": [0, 0],
                          "value": 0.001},
        "betas": "0:0.2:1",
        "replications": reps,
        "seed": _round_seed(seed, round_index),
        "hypothesis": {"m": [0.0, 1.0], "d": 0.05, "level": 0.05},
    }


def mc_spec(doc: dict):
    """Build the SimulationSpec the CLI would build from ``doc``."""
    import numpy as np
    import oneshotdpd as od
    from oneshotdpd.io import parse_betas

    plan = od.TestPlan(**doc["plan"])
    hyp = doc["hypothesis"]
    return od.SimulationSpec(
        plan=plan,
        true_params=od.ModelParams(*doc["true_params"]),
        contamination=od.ContaminationScheme(
            mode=doc["contamination"]["mode"],
            cell=tuple(doc["contamination"]["cell"]),
            value=doc["contamination"]["value"],
        ),
        betas=tuple(parse_betas(doc["betas"])),
        replications=doc["replications"],
        seed=doc["seed"],
        hypothesis=od.LinearHypothesis(m=np.array(hyp["m"]), d=hyp["d"]),
        level=hyp["level"],
    )


def cli_argv_list(seed: int, out_dir: Path) -> list[list[str]]:
    """The session's CLI calls; the seed picks the order and the options."""
    import numpy as np

    rng = np.random.default_rng(seed)
    data = SRC / "oneshotdpd" / "datasets"
    table1, ed01, benz = (str(data / f"{n}.csv")
                          for n in ("table1", "ed01", "benzidine"))

    def beta():
        return f"{rng.integers(1, 10) / 10:.1f}"

    alpha1 = f"{rng.integers(30, 46) / 1000:.3f}"
    hyp = ["--m", "0,1", "--d", "0.05"]
    calls = [
        ["fit-path", "--input", table1, "--betas", "0:0.1:1,2,3,4"],
        ["fit", "--input", table1, "--beta", beta(), "--w0", "25",
         "--mission-times", "10,20,30"],
        ["ztest", "--input", table1, "--beta", beta(), *hyp],
        ["power", "--input", table1, "--alpha-star", f"0.004,{alpha1}",
         "--beta", beta(), *hyp, "--devices", str(rng.integers(20, 201)),
         "--abs-effect"],
        ["samplesize", "--input", table1, "--alpha-star", f"0.004,{alpha1}",
         "--beta", beta(), *hyp,
         "--target-power", f"{rng.integers(70, 96) / 100:.2f}"],
        ["reliability", "--params", f"0.005,{alpha1}", "--w0", "25",
         "--mission-times", f"10,20,{rng.integers(25, 61)}"],
        ["competing-fit", "--input", ed01, "--betas", f"0,{beta()}"],
        ["competing-fit", "--input", benz, "--betas", f"0,{beta()}"],
    ]
    order = rng.permutation(len(calls))
    return [[*calls[k], "--output", str(out_dir / f"call{i}.json")]
            for i, k in enumerate(order)]


def build_inputs(workload: str, seed: int, out_dir: Path):
    if workload == "cli_session":
        return cli_argv_list(seed, out_dir)
    return mc_spec(mc_spec_doc(seed, 0, ROUND_REPS))


# ----------------------------------------------------------------------
# subprocesses
# ----------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python <args>`` from the checkout root; returns (wall s, result)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - start, proc


def import_split(runs: int) -> dict:
    """Medians of the ``-X importtime`` split of ``import oneshotdpd``.

    ``scipy_s`` sums the cumulative times of the outermost scipy imports;
    ``numpy_s`` does the same for numpy imports outside scipy's, so each is
    what the package would stop paying without that dependency.
    """
    samples = {"total": [], "scipy": [], "numpy": []}
    for _ in range(runs):
        _, proc = run_child(["-X", "importtime", "-c", "import oneshotdpd"])
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = (len(name) - len(name.lstrip())) // 2
                rows.append((depth, name.strip().split(".")[0],
                             int(parts[1]), name.strip()))
        own = {"total": None, "scipy": 0, "numpy": 0}
        path: list[str] = []
        # the log lists children before parents: walk it backwards
        for depth, top, cumulative, name in reversed(rows):
            del path[depth:]
            if name == "oneshotdpd":
                own["total"] = cumulative
            if top in ("scipy", "numpy") and not {"scipy", top} & set(path):
                own[top] += cumulative
            path.append(top)
        if own["total"] is None:
            raise RuntimeError(f"no importtime line for oneshotdpd:\n"
                               f"{proc.stderr[-2000:]}")
        for key, micros in own.items():
            samples[key].append(micros * 1e-6)
    return {f"import.{k}_s": statistics.median(v) for k, v in samples.items()}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON")


def parse_cli_json(text: str) -> dict:
    """Parse a CLI document, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def reference_entry(report) -> dict:
    return {"used": list(report.used),
            "failed_fits": list(report.failed_fits),
            "rejections": [round(rate * used) for rate, used in
                           zip(report.rejection_rate, report.used)]}


def run_study(spec, workers: int):
    from oneshotdpd import simulate

    return simulate.level_power_study(spec, workers=workers)


def check_reference(workload: str) -> None:
    want = load_reference()[workload]
    spec = mc_spec(mc_spec_doc(REFERENCE_SEED, 0, REF_REPS))
    got = reference_entry(run_study(spec, 1))
    for key, expected in want.items():
        if got[key] != expected:
            raise CheckFailed(f"{workload} reference {key}: got {got[key]}, "
                              f"want {expected}")


def check_published(doc: dict) -> None:
    fits = doc["results"]["fits"]
    betas = sorted(f"{fit['beta']:.1f}" for fit in fits)
    if betas != sorted(TABLE1_PUBLISHED):
        raise CheckFailed(f"fit-path reported betas {betas}, want "
                          f"{sorted(TABLE1_PUBLISHED)}")
    for fit in fits:
        want = TABLE1_PUBLISHED[f"{fit['beta']:.1f}"]
        dev = max(abs(fit["alpha0"] - want[0]), abs(fit["alpha1"] - want[1]))
        if dev > PUBLISHED_TOL:
            raise CheckFailed(f"fit-path beta={fit['beta']}: deviation {dev:.2e}"
                              f" from the published table1 estimates")


def check_cli_output(argv: list[str], text: str) -> dict:
    """Parse one CLI document and check it; raises CheckFailed."""
    try:
        doc = parse_cli_json(text)
    except ValueError as exc:
        raise CheckFailed(f"{argv[0]}: invalid JSON ({exc})") from None
    if argv[0] == "fit-path":
        check_published(doc)
    return doc


def fits_in(doc: dict) -> list[dict]:
    """Every fit reported in a CLI document."""
    res = doc["results"]
    if "fit" in res:
        return [res["fit"]]
    fits = []
    for entry in res.get("fits", []):
        if "causes" in entry:
            fits.extend(c["fit"] for c in entry["causes"].values())
        else:
            fits.append(entry)
    return fits


def write_reference() -> None:
    """Store the reference-seed study results of this checkout."""
    doc = {}
    for workload in WORKLOADS[:1]:
        spec = mc_spec(mc_spec_doc(REFERENCE_SEED, 0, REF_REPS))
        doc[workload] = reference_entry(run_study(spec, 1))
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


# published (alpha0, alpha1) of the table1 experiment per tuning parameter
TABLE1_PUBLISHED = {
    "0.0": [0.00487, 0.04732], "0.1": [0.00489, 0.04722],
    "0.2": [0.00490, 0.04714], "0.3": [0.00491, 0.04706],
    "0.4": [0.00492, 0.04700], "0.5": [0.00493, 0.04695],
    "0.6": [0.00494, 0.04690], "0.7": [0.00495, 0.04687],
    "0.8": [0.00495, 0.04683], "0.9": [0.00496, 0.04681],
    "1.0": [0.00496, 0.04681], "2.0": [0.00496, 0.04679],
    "3.0": [0.00494, 0.04687], "4.0": [0.00491, 0.04700],
}


# ----------------------------------------------------------------------
# timed work
# ----------------------------------------------------------------------

def interleave(deadline: float, tasks: dict, weights: dict,
               minimum: dict) -> None:
    """Run the task furthest below its share of time until the deadline,
    then top up each task to ``minimum[name]`` runs."""
    spent = dict.fromkeys(tasks, 0.0)
    runs = dict.fromkeys(tasks, 0)
    while True:
        pool = list(tasks)
        if time.perf_counter() >= deadline:
            pool = [n for n in tasks if runs[n] < minimum[n]]
            if not pool:
                return
        name = min(pool, key=lambda n: spent[n] / weights[n])
        start = time.perf_counter()
        tasks[name]()
        spent[name] += time.perf_counter() - start
        runs[name] += 1


class Run:
    """State and samples of one benchmark invocation."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.tiny = args.tiny
        self.out_dir = OUT / f"{self.workload}-seed{self.seed}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.reps = 2 if self.tiny else ROUND_REPS
        self.samples: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stamp_counts: dict = {}
        # workers=1 report of round 0, which the counted pass must repeat
        self.round0_report = None
        # first CLI output and latest in-process output per call index
        self.cli_outputs: dict[int, str] = {}
        self.replay_outputs: dict[int, str] = {}

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def inputs_digest(self, inputs) -> str:
        """Digest of what the seed built (output paths left out)."""
        if self.workload == "cli_session":
            built = [argv[:-2] for argv in inputs]
        else:
            built = mc_spec_doc(self.seed, 0, self.reps)
        return hashlib.sha256(json.dumps(built).encode()).hexdigest()

    # -- Monte-Carlo -------------------------------------------------------

    def mc_round_spec(self, round_index: int):
        return mc_spec(mc_spec_doc(self.seed, round_index, self.reps))

    def mc_study_round(self, round_index: int) -> None:
        """One round: its study at workers=1 and workers=WORKERS_N in a
        round probe, and once through ``simulate``, in an order that
        rotates from round to round."""
        doc = mc_spec_doc(self.seed, round_index, self.reps)
        steps = ("probe", "cli") if round_index % 2 == 0 else ("cli", "probe")
        reports = {}
        for step in steps:
            if step == "cli":
                reports["cli"] = self.mc_simulate_call(doc)
            else:
                reports.update(self.run_probe(round_index)["reports"])
        if reports["1"] != reports[str(WORKERS_N)]:
            self.fail(f"round {round_index}: workers=1 and workers={WORKERS_N}"
                      " reports differ")
        if reports["cli"] is not None and (
                reports["cli"] != [json.loads(reports["1"])]):
            self.fail(f"round {round_index}: simulate report differs from the "
                      "in-process report")
        if round_index == 0:
            self.round0_report = reports["1"]

    def run_probe(self, round_index: int) -> dict:
        """Run ``probe`` for one round in a fresh interpreter and merge its
        samples, counts and failures into this run."""
        _, proc = run_child([str(Path(__file__)), "--probe",
                             "--workload", self.workload,
                             "--seed", str(self.seed),
                             "--round", str(round_index)]
                            + (["--tiny"] if self.tiny else []))
        if proc.returncode != 0:
            raise RuntimeError(f"round probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, values in result["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.extend(result["failures"])
        return result

    def probe(self, inputs, round_index: int) -> dict:
        """The timed in-process work of one round, for ``run_probe``.

        It runs in a fresh interpreter: with every round in one long-lived
        process, the in-process speed of whole runs varied more than that
        of their fresh-interpreter calls.  A process keeps its core
        placement and memory layout for life; fresh ones sample many.
        """
        order = (1, WORKERS_N) if round_index // 2 % 2 == 0 else (WORKERS_N, 1)
        reports = {}
        if self.workload == "cli_session":
            for _ in range(1 if self.tiny else REPLAYS_PER_PROBE):
                for workers in order:
                    wall = self.replay(inputs, workers)
                    self.sample(f"fits_per_s_w{workers}",
                                self.replay_fits / wall)
        else:
            spec = self.mc_round_spec(round_index)
            fits = spec.replications * len(spec.betas)
            for workers in order:
                start = time.perf_counter()
                report = run_study(spec, workers)
                wall = time.perf_counter() - start
                self.sample(f"fits_per_s_w{workers}", fits / wall)
                self.attempted += fits
                self.failed += sum(report.failed_fits)
                self.sample("fits", fits)
                self.sample("failed_fits", sum(report.failed_fits))
                reports[str(workers)] = report.to_json()
        return {"samples": self.samples, "attempted": self.attempted,
                "failed": self.failed, "failures": self.failures,
                "reports": reports, "outputs": self.replay_outputs}

    def mc_simulate_call(self, doc: dict):
        """``simulate --workers 1`` on ``doc`` in a fresh interpreter; returns
        the reports it printed, or None."""
        spec_path = self.out_dir / "spec.json"
        csv_path = self.out_dir / "curves.csv"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        csv_path.unlink(missing_ok=True)
        wall, proc = run_child(["-m", "oneshotdpd.cli", "simulate", "--spec",
                                str(spec_path), "--output", str(csv_path),
                                "--workers", "1"])
        self.attempted += 1
        self.sample("cli_call_s", wall)
        reports = None
        ok = proc.returncode == 0 and csv_path.is_file()
        if not ok:
            self.fail(f"simulate exit {proc.returncode}, curves written: "
                      f"{csv_path.is_file()}\n{proc.stderr[-2000:]}")
        try:
            reports = parse_cli_json(proc.stdout)["results"]["reports"]
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            self.fail(f"simulate printed no valid report JSON: {exc!r}")
        if not ok:
            self.failed += 1
        self.sample("cli_ok", ok)
        return reports

    def setup_call(self) -> None:
        """One set-up: a fresh interpreter imports the package and builds
        the workload's inputs."""
        wall, proc = run_child([str(Path(__file__)), "--setup-probe",
                                "--workload", self.workload,
                                "--seed", str(self.seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        self.sample("setup_s", wall)

    def import_call(self) -> None:
        wall, proc = run_child(["-c", "import oneshotdpd"])
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.fail(f"bare import failed:\n{proc.stderr}")
        self.sample("import_s", wall)

    def common_tasks(self) -> dict:
        return {"import": self.import_call, "setup": self.setup_call}

    def mc_measure(self, deadline: float) -> None:
        rounds = iter(range(10**9))
        tasks = {
            "round": lambda: self.mc_study_round(next(rounds)),
            **self.common_tasks(),
        }
        minimum = dict.fromkeys(tasks, 1 if self.tiny else 3)
        minimum["setup"] = 1 if self.tiny else SETUPS
        interleave(deadline, tasks, MC_WEIGHTS, minimum)

    def mc_pass(self, tracer=None, workers: int = 1):
        """Round 0's study; returns (wall s, report JSON)."""
        spec = self.mc_round_spec(0)
        if tracer is not None:
            tracer.run = "round0"
        start = time.perf_counter()
        report = run_study(spec, workers)
        wall = time.perf_counter() - start
        self.pass_fits = len(report.betas) * spec.replications
        self.attempted += self.pass_fits
        self.failed += sum(report.failed_fits)
        return wall, report.to_json()

    # -- CLI session -------------------------------------------------------

    def cli_call(self, argv: list[str], index: int) -> None:
        Path(argv[-1]).unlink(missing_ok=True)
        wall, proc = run_child(["-m", "oneshotdpd.cli", *argv])
        self.attempted += 1
        self.sample("cli_call_s", wall)
        ok = proc.returncode == 0
        try:
            if not ok:
                raise CheckFailed(f"{argv[0]} exit {proc.returncode}:\n"
                                  f"{proc.stderr[-2000:]}")
            text = Path(argv[-1]).read_text(encoding="utf-8")
            fits = fits_in(check_cli_output(argv, text))
        except (CheckFailed, OSError) as exc:
            ok = False
            self.fail(str(exc))
        else:
            self.sample("cli_fits", len(fits))
            self.sample("cli_fits_converged",
                        sum(bool(f["converged"]) for f in fits))
            self.cli_outputs.setdefault(index, text)
        if not ok:
            self.failed += 1
        self.sample("cli_ok", ok)

    def replay(self, argv_list, workers: int, tracer=None) -> float:
        """Replay every call in-process through ``cli.main``; returns wall s."""
        from oneshotdpd import cli

        def one(item):
            index, argv = item
            if tracer is not None:
                tracer.run = f"{tracer.run.split('/')[0]}/call{index}"
            Path(argv[-1]).unlink(missing_ok=True)
            code = cli.main(argv)
            try:
                text = Path(argv[-1]).read_text(encoding="utf-8")
            except OSError:
                text = None
            return index, code, text

        items = list(enumerate(argv_list))
        start = time.perf_counter()
        if workers == 1:
            results = [one(item) for item in items]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(one, items))
        wall = time.perf_counter() - start
        fits = 0
        for index, code, text in results:
            self.attempted += 1
            name = argv_list[index][0]
            if code != 0 or text is None:
                self.failed += 1
                self.fail(f"in-process {name} exit {code}, output written: "
                          f"{text is not None}")
                continue
            self.replay_outputs[index] = text
            try:
                fits += len(fits_in(check_cli_output(argv_list[index], text)))
            except CheckFailed as exc:
                self.failed += 1
                self.fail(f"in-process {exc}")
        self.replay_fits = fits
        return wall

    def cli_replay_round(self, round_index: int) -> None:
        for index, text in self.run_probe(round_index)["outputs"].items():
            index = int(index)
            if index in self.cli_outputs and text != self.cli_outputs[index]:
                self.fail(f"in-process call {index} output differs from the "
                          "CLI output")

    def cli_measure(self, argv_list, deadline: float) -> None:
        calls = iter(range(10**9))
        rounds = iter(range(10**9))

        def next_call():
            n = next(calls) % len(argv_list)
            self.cli_call(argv_list[n], n)

        tasks = {
            "call": next_call,
            "replay": lambda: self.cli_replay_round(next(rounds)),
            **self.common_tasks(),
        }
        minimum = dict.fromkeys(tasks, 1 if self.tiny else 3)
        minimum["call"] = len(argv_list)
        minimum["setup"] = 1 if self.tiny else SETUPS
        interleave(deadline, tasks, CLI_WEIGHTS, minimum)


def _summary_metrics(run: Run, peak_rss_mb: float) -> dict:
    s = run.samples
    calls = s["cli_call_s"]
    if run.workload == "cli_session":
        fit_ok = sum(s["cli_fits_converged"]) / sum(s["cli_fits"])
    else:
        fit_ok = 1.0 - sum(s["failed_fits"]) / sum(s["fits"])
    return {
        "fits_per_s": statistics.median(s["fits_per_s_w1"]),
        "fit_ok_ratio": fit_ok,
        "cli_call_s_p50": statistics.median(calls),
        "cli_call_s_p90": percentile(calls, 90),
        "cli_ok_ratio": sum(s["cli_ok"]) / len(s["cli_ok"]),
        "import_s": statistics.median(s["import_s"]),
        "setup_s": statistics.median(s["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(passes, imports: dict, overheads) -> dict:
    """Per-layer metrics from traced passes of identical work."""
    summaries = [summarize(t.spans) for t in passes]
    first, tracer = summaries[0], passes[0]
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "parents": {}}

    def layer(summary, name):
        return summary.get(name, empty)

    def med_self(name):
        return statistics.median(layer(sm, name)["self_s"] for sm in summaries)

    out = {}
    for kind in ("fit_cold", "fit_warm"):
        name = f"estimator.{kind}"
        durations = [d for sm in summaries for d in layer(sm, name)["durations"]]
        out[f"{name}.calls"] = layer(first, name)["calls"]
        out[f"{name}.self_s"] = med_self(name)
        out[f"{name}.ms_p50"] = percentile(durations, 50) * 1e3
        out[f"{name}.ms_p99"] = percentile(durations, 99) * 1e3
    fits = tracer.fits
    n_fits = len(fits)
    out["estimator.newton_iters_per_fit"] = (
        sum(f[0] for f in fits) / n_fits if n_fits else 0.0)
    out["estimator.converged_ratio"] = (
        sum(f[1] for f in fits) / n_fits if n_fits else 0.0)
    out["estimator.clamped_ratio"] = (
        sum(f[2] for f in fits) / n_fits if n_fits else 0.0)
    sandwich = layer(first, "inference.sandwich")
    out["inference.sandwich.calls"] = sandwich["calls"]
    out["inference.sandwich.self_s"] = med_self("inference.sandwich")
    out["inference.sandwich.per_fit"] = (
        sandwich["calls"] / n_fits if n_fits else 0.0)
    out["inference.sandwich.useful_ratio"] = (
        sandwich["parents"].get("inference.z_statistic", 0) / sandwich["calls"]
        if sandwich["calls"] else 0.0)
    for name in ("inference.z_statistic", "simulate.generate_table",
                 "competing.fit_cause"):
        out[f"{name}.calls"] = layer(first, name)["calls"]
        out[f"{name}.self_s"] = med_self(name)
    for name in ("simulate.study", "cli.main", "io.read_csv"):
        out[f"{name}.self_s"] = med_self(name)
    for name in ("model.cell_probs", "divergence.dpd_objective"):
        out[f"{name}.calls"] = tracer.counts[name]
    out.update(imports)
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def _exact_counts(tracer, report) -> dict:
    """Counts of one pass; failed fits from the report JSON (Monte-Carlo)
    or the fits that did not converge (CLI, ``report`` None)."""
    fit_spans = [s for s in tracer.spans if s[1].startswith("estimator.fit")]
    if report is not None:
        failed = sum(json.loads(report)["failed_fits"])
    else:
        failed = sum(not f[1] for f in tracer.fits)
    return {
        "fits_attempted": len(fit_spans),
        "fits_failed": failed,
        "newton_iterations": sum(f[0] for f in tracer.fits),
        "sandwich_calls": sum(1 for s in tracer.spans
                              if s[1] == "inference.sandwich"),
    }


def _environment(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "oneshotdpd").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "workers_n": WORKERS_N,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(run: Run, inputs, deadline: float) -> float:
    """Untraced timed work, then one counted pass for the stamp; returns
    the peak resident memory in MB of the largest child process."""
    if run.workload == "cli_session":
        run.cli_measure(inputs, deadline)
        with Tracer() as tracer:
            tracer.run = "count"
            run.replay(inputs, 1, tracer)
        report = None
    else:
        run.mc_measure(deadline)
        with Tracer() as tracer:
            _, report = run.mc_pass(tracer)
        if report != run.round0_report:
            run.fail("traced and untraced reports differ")
    run.stamp_counts = _exact_counts(tracer, report)
    tracer.write(run.out_dir / "spans-count.csv")
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def traced(run: Run, inputs, deadline: float) -> dict:
    """Alternate untraced and traced passes of identical work."""
    passes, overheads, untraced_walls, pooled_rates = [], [], [], []
    all_spans = Tracer()
    minimum = 1 if run.tiny else 3
    reference_out = None
    while len(passes) < minimum or time.perf_counter() < deadline:
        k = len(passes)
        if run.workload == "cli_session":
            plain = run.replay(inputs, 1)
            outputs = dict(run.replay_outputs)
            pooled_rates.append(run.replay_fits
                                / run.replay(inputs, WORKERS_N))
            pooled_out = dict(run.replay_outputs)
            with Tracer() as tracer:
                tracer.run = f"pass{k}"
                traced_wall = run.replay(inputs, 1, tracer)
            traced_out = dict(run.replay_outputs)
        else:
            plain, outputs = run.mc_pass()
            pooled_wall, pooled_out = run.mc_pass(workers=WORKERS_N)
            pooled_rates.append(run.pass_fits / pooled_wall)
            with Tracer() as tracer:
                traced_wall, traced_out = run.mc_pass(tracer)
        if traced_out != outputs:
            run.fail("traced and untraced outputs differ")
        if pooled_out != outputs:
            run.fail(f"workers=1 and workers={WORKERS_N} outputs differ")
        if reference_out is None:
            reference_out = outputs
        elif outputs != reference_out:
            run.fail("passes of identical work gave different outputs")
        passes.append(tracer)
        overheads.append(traced_wall - plain)
        untraced_walls.append(plain)
        all_spans.spans.extend(
            (sid, name, start, end, parent, f"pass{k}:{r}")
            for sid, name, start, end, parent, r in tracer.spans)
    all_spans.write(run.out_dir / "spans-trace.csv")
    run.untraced_pass_s = statistics.median(untraced_walls)
    run.stamp_counts = _exact_counts(passes[0], None if run.workload ==
                                     "cli_session" else reference_out)
    imports = import_split(1 if run.tiny else IMPORTTIME_RUNS)
    return {**_layer_metrics(passes, imports, overheads),
            "fits_per_s_nproc": statistics.median(pooled_rates)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--round", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from this checkout")
    args = parser.parse_args(argv)
    if not (SRC / "oneshotdpd" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from the root "
              "of a oneshotdpd checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        import oneshotdpd  # noqa: F401  (timed: part of set-up)

        build_inputs(args.workload, args.seed, OUT / "probe")
        return 0
    if args.probe:
        run = Run(args)
        inputs = build_inputs(args.workload, args.seed, run.out_dir)
        print(json.dumps(run.probe(inputs, args.round)))
        return 0

    # compile byte code once so set-up times exclude it
    run_child(["-c", "import oneshotdpd"])
    import oneshotdpd

    if Path(oneshotdpd.__file__).resolve().parent != SRC / "oneshotdpd":
        print(f"perfbench: imported {oneshotdpd.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    run = Run(args)
    inputs = build_inputs(args.workload, args.seed, run.out_dir)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        metrics = traced(run, inputs, deadline)
        units = PER_LAYER_UNITS
    else:
        peak = measure(run, inputs, deadline)
        metrics = _summary_metrics(run, peak)
        units = END_TO_END_UNITS
    if args.workload != "cli_session":
        try:
            check_reference(args.workload)
        except CheckFailed as exc:
            run.fail(str(exc))
    env = _environment(args)
    stamp = {**env, "inputs_sha256": run.inputs_digest(inputs),
             "counts": run.stamp_counts, "round_reps": run.reps,
             "samples": {k: len(v) for k, v in run.samples.items()}}
    if args.trace:
        stamp["untraced_pass_s"] = run.untraced_pass_s
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (run.out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "failures": run.failures, **result,
                    "samples": run.samples}),
        encoding="utf-8")
    for message in run.failures:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
