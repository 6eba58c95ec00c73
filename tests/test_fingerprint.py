"""The fingerprint tool (``tests/data/fingerprint.py``): its digest mode and
its values mode cannot drift apart, and its compare mode measures moves."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).parent / "data" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


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
