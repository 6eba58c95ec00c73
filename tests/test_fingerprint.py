"""The fingerprint tool (``tests/data/fingerprint.py``): its digest mode and
its values mode cannot drift apart, and its compare mode measures moves;
and the golden recorder's compare mode (``tests/data/record_golden.py``)
reports every moved float and changed decision."""

import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from oneshotdpd.inference import _critical_value

from test_simulate import GOLDEN, golden_spec


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parent / "data" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fingerprint = load("fingerprint")
record_golden = load("record_golden")


def test_each_digest_is_that_of_its_written_values(tmp_path):
    lines = fingerprint.fingerprint_lines()
    path = tmp_path / "values.jsonl"
    fingerprint.write_values(lines, path)
    read = fingerprint.read_values(path)
    assert list(read) == [name for name, _ in lines]
    for name, values in lines:
        assert fingerprint.digest(read[name]) == fingerprint.digest(values), \
            name


BEFORE = {"arrays": [np.array([1.0, 2.0]), np.array([3, 4]),
                     np.array([True, False])]}


@pytest.mark.parametrize("after, status", [
    (BEFORE, "identical"),
    ({"arrays": [np.array([1.0, 2.5]), np.array([3, 4]),
                 np.array([True, False])]},
     "moved  abs 0.5  rel 0.2  (1 of 2 floats)"),
    ({"arrays": [np.array([1.0, -2.0]), np.array([3, 5]),
                 np.array([True, True])]},
     "changed  '4' -> '5'; moved  abs 4  rel 2  (1 of 2 floats)"),
    ({"arrays": [np.array([1.0, 2.0, 3.0]), np.array([3, 4]),
                 np.array([True, False])]},
     "changed  'float64(2,)' -> 'float64(3,)'; 2 -> 3 floats"),
])
def test_compare_arrays(after, status):
    assert fingerprint.compare(BEFORE, after) == status


def test_compare_reads_floats_inside_text_and_points():
    doc = '{"alpha0": 0.004, "iterations": %d, "objective": %s}'
    before = {"text": ["exit 0\n", doc % (4, "-1.5")]}
    assert fingerprint.compare(before, {"text": ["exit 0\n", doc % (
        4, "0.5")]}) == "moved  abs 2  rel 1.33  (1 of 2 floats)"
    assert fingerprint.compare(before, {"text": ["exit 2\n", doc % (
        5, "-1.5")]}) == "changed  'exit 0\\n' -> 'exit 2\\n'"
    error = {"points": [{"error": "ValueError: beta must be a number"}]}
    value = {"points": [(np.array([0.5]), 1e-320)]}
    assert fingerprint.compare(error, value) == (
        "changed  'ValueError: beta must be a number' -> 'float64(1,)'; "
        "0 -> 2 floats")
    # -0.0 and 0.0 are equal values in other bits
    assert fingerprint.compare({"arrays": [np.array([0.0])]},
                               {"arrays": [np.array([-0.0])]}) == \
        "equal values in other bits"


class TestGoldenCompare:
    def test_committed_file_is_identical_to_itself(self, capsys):
        record_golden.main(["--compare", str(GOLDEN), str(GOLDEN)])
        assert capsys.readouterr().out == "identical\n"

    def test_reports_a_drop_and_a_flipped_rejection(self, tmp_path, capsys):
        with open(GOLDEN, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        z_crit = _critical_value(golden_spec("level_power").level)
        # the first kept rmse row is dropped, and the first level_power
        # statistic inside the critical value moves just past it
        drop = next(r for r in rows if r[0] == "rmse" and r[3])
        drop[3:] = ["", "", ""]
        flip = next(r for r in rows if r[0] == "level_power" and r[5]
                    and abs(float(r[5])) < z_crit)
        before, after = float(flip[5]), float(np.nextafter(z_crit, 3.0))
        flip[5] = repr(after)
        doctored = tmp_path / "doctored.csv"
        with open(doctored, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        record_golden.main(["--compare", str(GOLDEN), str(doctored)])
        gap = after - before
        statistics = sum(r[0] == "level_power" and r[5] != "" for r in rows)
        assert capsys.readouterr().out.splitlines() == [
            "alpha0  identical",
            "alpha1  identical",
            f"statistic  moved  abs {gap:.3g}  rel {gap / after:.3g}  "
            f"(1 of {statistics} floats)",
            f"{' '.join(flip[:3])}  reject False -> True  (statistic "
            f"{before!r} -> {after!r}, z {z_crit:.6g})",
            f"{' '.join(drop[:3])}  kept -> dropped",
        ]
