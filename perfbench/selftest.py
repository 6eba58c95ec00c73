"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` on two seeds untraced and on
one seed traced, and checks that

* the last output line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, with every metric of ``BENCHMARK.json``
  present under its unit and nothing else;
* the two seeds build different inputs but emit the same set of metrics;
* the exact counts of a seed repeat between its untraced and traced runs;
* the metric names and units in ``run.py`` and ``BENCHMARK.json`` agree.

It also runs the benchmark in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files, where it must exit
non-zero without printing a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def _fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(workload, seed, trace, wanted_units):
    proc = _run(workload, seed, trace)
    label = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        _fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True:
        _fail(f"{label}: outputs incorrect")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        _fail(f"{label}: attempted/failed {result['attempted']}, "
              f"{result['failed']}")
    got_units = {k: v["unit"] for k, v in result["metrics"].items()}
    if got_units != wanted_units:
        _fail(f"{label}: metrics {got_units} != BENCHMARK.json {wanted_units}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            _fail(f"{label}: {name} value {entry['value']!r}")
    print(f"selftest: ok {label}")
    return stamp


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != run.END_TO_END_UNITS:
        _fail("end_to_end metrics of BENCHMARK.json and run.py differ")
    if per_layer != run.PER_LAYER_UNITS:
        _fail("per_layer metrics of BENCHMARK.json and run.py differ")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        _fail("workloads of BENCHMARK.json and run.py differ")

    for workload in run.WORKLOADS:
        stamps = [_result(workload, seed, 0, end_to_end) for seed in SEEDS]
        if stamps[0]["inputs_sha256"] == stamps[1]["inputs_sha256"]:
            _fail(f"{workload}: seeds {SEEDS} built the same inputs")
        traced = _result(workload, SEEDS[0], 1, per_layer)
        if traced["inputs_sha256"] != stamps[0]["inputs_sha256"]:
            _fail(f"{workload}: one seed built two different inputs")
        if traced["counts"] != stamps[0]["counts"]:
            _fail(f"{workload}: counts {traced['counts']} != "
                  f"{stamps[0]['counts']} for one seed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = _run(run.WORKLOADS[0], SEEDS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail("benchmark without the package source did not fail cleanly")
    print("selftest: ok bare directory exits non-zero without a result")
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
