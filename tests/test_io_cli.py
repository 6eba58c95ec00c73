import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oneshotdpd.cli as cli_module
import oneshotdpd.io as io_module
import oneshotdpd.simulate as simulate_module
from oneshotdpd import (ContaminationScheme, LinearHypothesis, ModelParams,
                        ParseError, SimulationSpec, TestPlan, fit,
                        level_power_study, rmse_study)
from oneshotdpd.cli import _build_parser, _cmd_simulate, main
from oneshotdpd.datasets import dataset_path
from oneshotdpd.io import (
    fit_result_to_dict,
    parse_betas,
    read_failure_csv,
    read_multioutcome_csv,
)

from conftest import PROPERTY
from oracles import fit_result_from_dict


def _command_parsers() -> dict:
    """Each subcommand's parser, by name, in declaration order."""
    return next(action.choices for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


# pinned fixture digests: the bundled tables must never drift
DATASET_SHA256 = {
    "table1": "6037d1575a0cc0f9920b28e723b2dee316be6f00f4b6f644b340c1ee8d07ecdf",
    "ed01": "bfa700c4b70d72430234495ec625642acbee45a8830787dc3c6d95edfb59103c",
    "benzidine": "930ee69b2f90d5985cae8e442687b685b761c79657aea3a3955444d6bda80010",
}


class TestBundledDatasets:
    @pytest.mark.parametrize("name", sorted(DATASET_SHA256))
    def test_checksums(self, name):
        digest = hashlib.sha256(dataset_path(name).read_bytes()).hexdigest()
        assert digest == DATASET_SHA256[name]

    def test_unknown_name_refused(self):
        with pytest.raises(FileNotFoundError, match="'nope'"):
            dataset_path("nope")

    def test_table1_layout(self, table1):
        assert table1.plan.shape == (3, 3)
        assert np.all(table1.plan.devices == 10)
        assert table1.counts[0, 0] == 3
        assert table1.counts.sum() == 48

    def test_ed01_cells(self, ed01):
        assert ed01.sacrificed[0, 0] == 115
        assert ed01.died_natural[0, 0] == 22
        assert ed01.died_tumour[0, 0] == 8
        assert ed01.plan.temps.tolist() == [0.0, 1.0]
        assert ed01.plan.times.tolist() == [12.0, 18.0, 33.0]

    def test_benzidine_cells(self, benzidine):
        assert benzidine.sacrificed[0, 0] == 70
        assert benzidine.died_natural[0, 0] == 2
        assert benzidine.died_tumour[0, 0] == 0
        assert benzidine.plan.times.tolist() == [9.37, 14.07, 18.7]


class TestFailureCsv:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("w,t,K,n\n35,10,10,3\n")
        table = read_failure_csv(path)
        assert table.plan.shape == (1, 1)
        assert table.counts[0, 0] == 3

    def test_counts_above_devices_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("w,t,K,n\n35,10,10,12\n")
        with pytest.raises(ParseError, match="n > K"):
            read_failure_csv(path)

    def test_missing_pair_named(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("w,t,K,n\n35,10,10,3\n35,20,10,4\n45,10,10,2\n")
        with pytest.raises(ParseError, match="missing cell"):
            read_failure_csv(path)

    def test_duplicate_pair_named(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("w,t,K,n\n35,10,10,3\n35,10,10,4\n")
        with pytest.raises(ParseError, match="duplicate cell"):
            read_failure_csv(path)

    def test_non_numeric_field_named(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("w,t,K,n\n35,10,ten,3\n")
        with pytest.raises(ParseError, match="row 2.*column 'K'"):
            read_failure_csv(path)

    # int() refuses NaN and infinity, and the int64 count grid refuses
    # 1e30: each raised a bare ValueError or OverflowError
    @pytest.mark.parametrize("row", ["35,10,inf,3", "35,10,1e400,3",
                                     "35,10,nan,3", "35,10,1e30,3",
                                     "35,10,10,inf"])
    def test_count_outside_int64_named(self, row, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"w,t,K,n\n{row}\n45,10,10,5\n")
        with pytest.raises(ParseError, match=r"huge\.csv row 2: column "
                           "'[Kn]' must be a non-negative integer"):
            read_failure_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("stress,time,K,n\n35,10,10,3\n")
        with pytest.raises(ParseError, match="header"):
            read_failure_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", r"bad\.csv: empty file"),
        ("w,t,K,n\n", r"bad\.csv: no data rows"),
        ("w,t,K,n\n35,10,10,\n", r"bad\.csv row 2: missing value in "
                                  "column 'n'"),
        ("w,t,K,n\n35,0,10,3\n", r"bad\.csv: times must be finite and > 0")],
        ids=["empty", "header_only", "blank_n", "zero_time"])
    def test_malformed_file_named(self, text, message, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_failure_csv(path)


class TestMultiOutcomeCsv:
    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("w,t,n_sac,n_nat,n_tum\n0,12,5,-1,2\n")
        with pytest.raises(ParseError, match="non-negative"):
            read_multioutcome_csv(path)

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
    def test_count_outside_int64_named(self, value, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"w,t,n_sac,n_nat,n_tum\n0,12,5,{value},2\n")
        with pytest.raises(ParseError, match="row 2: column 'n_nat'"):
            read_multioutcome_csv(path)

    def test_device_total_beyond_int64_named(self, tmp_path):
        # 2**62 + 2**62 wraps to -2**63 in int64
        path = tmp_path / "huge.csv"
        path.write_text(f"w,t,n_sac,n_nat,n_tum\n0,12,{2**62},{2**62},0\n")
        with pytest.raises(ParseError, match="total overflows int64"):
            read_multioutcome_csv(path)

    def test_round_trip_of_bundled_file(self, ed01):
        assert ed01.plan.devices.tolist() == [[145, 830, 960],
                                              [175, 620, 625]]


@pytest.mark.parametrize("reader, header, row", [
    (read_failure_csv, "w,t,K,n", "{w},10,{k},3"),
    (read_multioutcome_csv, "w,t,n_sac,n_nat,n_tum", "{w},12,{k},1,2")],
    ids=["failure", "multioutcome"])
def test_row_number_counts_blank_lines(reader, header, row, tmp_path):
    # csv.DictReader skips blank lines: a message names the file's line
    path = tmp_path / "blank.csv"
    path.write_text(f"{header}\n{row.format(w=35, k=10)}\n\n"
                    f"{row.format(w=45, k='ten')}\n")
    with pytest.raises(ParseError, match=r"blank\.csv row 4: non-numeric "
                       "value 'ten'"):
        reader(path)
    path.write_text(f"{header}\n{row.format(w=35, k=10)}\n\n\n"
                    f"{row.format(w=35, k=10)}\n")
    with pytest.raises(ParseError, match=r"blank\.csv row 5: duplicate cell"):
        reader(path)


class TestBetaParsing:
    def test_grid_plus_explicit(self):
        betas = parse_betas("0:0.1:1,2,3,4")
        assert len(betas) == 14
        assert betas[0] == 0.0
        assert betas[-1] == 4.0
        assert betas[5] == pytest.approx(0.5, abs=1e-12)

    def test_plain_list(self):
        assert parse_betas("0,0.5,1") == [0.0, 0.5, 1.0]

    def test_sorted_and_deduped(self):
        assert parse_betas("1,0.5,0.5,0") == [0.0, 0.5, 1.0]

    def test_bad_grid(self):
        with pytest.raises(ParseError):
            parse_betas("0:0.1")
        with pytest.raises(ParseError):
            parse_betas("1:0.1:0")
        with pytest.raises(ParseError):
            parse_betas("-0.5")
        with pytest.raises(ParseError):
            parse_betas("")
        with pytest.raises(ParseError, match="non-numeric grid item"):
            parse_betas("a:0.1:1")

    def test_grid_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(io_module, "_MAX_BETA_POINTS", 11)
        assert len(parse_betas("0:0.1:1")) == 11
        # the cap is on the whole list, duplicates counted
        for text in ("0:0.1:1.1", "0:0.1:1,2", "2,0:0.1:1", "0:0.1:1,1"):
            with pytest.raises(ParseError, match="more than 11 points"):
                parse_betas(text)

    @pytest.mark.parametrize("item", ["0:1e-9:1", "0:1e-320:1",
                                      "0:1e-4:0.9999,1:1e-4:1.9999"])
    def test_huge_grid_refused_before_it_is_built(self, item, monkeypatch):
        def bounded_range(*args):
            built.append(args[-1])
            assert sum(built) <= io_module._MAX_BETA_POINTS, "grid was built"
            return range(*args)

        built = []
        monkeypatch.setattr(io_module, "range", bounded_range, raising=False)
        with pytest.raises(ParseError, match="more than"):
            parse_betas(item)

    # (text, the item the refusal names): a NaN or infinity as a value, a
    # grid bound or a step, alone or after a valid grid
    NON_FINITE = [("0,nan,1", "nan"), ("nan:1:2", "nan:1:2"),
                  ("0:nan:1", "0:nan:1"), ("0:1:nan", "0:1:nan"),
                  ("0:inf:1", "0:inf:1"), ("-inf:1:2", "-inf:1:2"),
                  ("0:1:inf", "0:1:inf"), ("0,inf", "inf"),
                  ("0:0.5:1,-inf", "-inf")]

    @pytest.mark.parametrize("text, item", NON_FINITE)
    def test_non_finite_number_refused_before_any_grid(self, text, item,
                                                       monkeypatch):
        def no_range(*args):
            raise AssertionError("grid was built")

        monkeypatch.setattr(io_module, "range", no_range, raising=False)
        with pytest.raises(ParseError) as info:
            parse_betas(text)
        assert str(info.value) == f"non-finite tuning parameter in {item!r}"


class TestJsonRoundTrip:
    def test_fit_result_exact(self, table1):
        result = fit(table1, 0.5)
        text = json.dumps(fit_result_to_dict(result))
        rebuilt = fit_result_from_dict(json.loads(text))
        assert rebuilt.params.alpha0 == result.params.alpha0
        assert rebuilt.params.alpha1 == result.params.alpha1
        assert rebuilt.objective == result.objective
        assert rebuilt.grad_norm == result.grad_norm
        assert np.array_equal(rebuilt.covariance.sigma,
                              result.covariance.sigma)


def _strict_json(text):
    """Parse JSON that must hold no bare NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"bare {token} in JSON")

    return json.loads(text, parse_constant=refuse)


def _joined(argv):
    """``argv`` with each option's value starting with ``-`` joined to
    its option by ``=``; at least one value is."""
    joined = []
    for k, token in enumerate(argv):
        if k and argv[k - 1].startswith("--") and token.startswith("-"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert len(joined) < len(argv)
    return joined


class TestCli:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_fit_path_reproduces_published_row(self, capsys):
        code, out = self.run(
            ["fit-path", "--input", str(dataset_path("table1")),
             "--betas", "0,1", "--w0", "25", "--mission-times", "10,20,30"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["errors"] == []
        first = doc["results"]["fits"][0]
        assert first["alpha0"] == pytest.approx(0.00487, abs=5e-5)
        assert first["alpha1"] == pytest.approx(0.04732, abs=5e-5)
        assert "reliability" in first and "mean_lifetime" in first

    @pytest.mark.parametrize("beta", ["0", "0.5"])
    @pytest.mark.parametrize("predictions", [
        [], ["--w0", "25", "--mission-times", "10,20"]])
    def test_fit_document_is_one_beta_fit_path(self, beta, predictions,
                                               capsys):
        docs = []
        for option in (["fit", "--beta"], ["fit-path", "--betas"]):
            code, out = self.run(
                [option[0], "--input", str(dataset_path("table1")),
                 option[1], beta, *predictions], capsys)
            assert code == 0
            doc = _strict_json(out)
            del doc["config"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_byte_identical_reruns(self, capsys):
        argv = ["fit", "--input", str(dataset_path("table1")),
                "--beta", "0.3", "--w0", "25"]
        _, first = self.run(argv, capsys)
        _, second = self.run(argv, capsys)
        assert first == second

    def test_ztest_command(self, capsys):
        code, out = self.run(
            ["ztest", "--input", str(dataset_path("table1")),
             "--beta", "0", "--m", "0,1", "--d", "0.05",
             "--level", "0.05"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["reject"] is False
        assert 0.0 <= doc["results"]["p_value"] <= 1.0

    def test_power_and_samplesize_consistent(self, capsys):
        common = ["--input", str(dataset_path("table1")),
                  "--alpha-star", "0.004,0.02", "--beta", "0",
                  "--m", "0,1", "--d", "0.05", "--level", "0.05"]
        code, out = self.run(["samplesize", *common,
                              "--target-power", "0.8"], capsys)
        assert code == 0
        k = json.loads(out)["results"]["required_devices"]
        code, out = self.run(
            ["power", *common, "--devices", str(k), "--abs-effect"], capsys
        )
        assert code == 0
        assert json.loads(out)["results"]["approximate_power"] >= 0.8

    def test_competing_fit_command(self, capsys):
        code, out = self.run(
            ["competing-fit", "--input", str(dataset_path("ed01")),
             "--betas", "0.1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        entry = doc["results"]["fits"][0]
        assert entry["causes"]["natural"]["fit"]["alpha1"] == pytest.approx(
            0.09355, rel=0.02
        )
        assert "combined_mean_lifetimes" in entry
        assert doc["diagnostics"]["converged"] is True

    @pytest.mark.parametrize("text, item", TestBetaParsing.NON_FINITE)
    def test_non_finite_betas_exit_code(self, text, item, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": text,
            "replications": 3, "seed": 1}))
        out = tmp_path / "study.csv"
        # "--betas=" keeps argparse from reading "-inf:1:2" as an option
        for argv in (["fit-path", "--input", str(dataset_path("table1")),
                      f"--betas={text}"],
                     ["competing-fit", "--input", str(dataset_path("ed01")),
                      f"--betas={text}"],
                     ["simulate", "--spec", str(spec), "--output",
                      str(out)]):
            code, text_out = self.run(argv, capsys)
            assert code == 2
            assert _strict_json(text_out)["errors"] == [{
                "code": "ParseError",
                "message": f"non-finite tuning parameter in {item!r}"}]
        assert not out.exists()

    def test_competing_fit_repeated_cause_refused(self, capsys):
        code, out = self.run(
            ["competing-fit", "--input", str(dataset_path("ed01")),
             "--betas", "0", "--causes", "natural, Natural"],
            capsys,
        )
        assert code == 2
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "ParseError"
        assert doc["results"] == {}

    def test_competing_fit_no_interior_cause_exit_code(self, tmp_path, capsys):
        # no tumour deaths anywhere: that cause has no interior cell
        data = tmp_path / "no_tumour.csv"
        data.write_text("w,t,n_sac,n_nat,n_tum\n0,1,5,1,0\n0,2,5,2,0\n"
                        "1,1,5,1,0\n1,2,5,0,0\n")
        code, out = self.run(["competing-fit", "--input", str(data),
                              "--betas", "0,0.5"], capsys)
        assert code == 3
        assert _strict_json(out)["errors"][0]["code"] == "NoInteriorData"

    def test_simulate_command_deterministic(self, tmp_path, capsys):
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45, 55], "times": [10, 20, 30],
                     "devices": 20},
            "true_params": [0.004, 0.05],
            "betas": [0, 0.5],
            "replications": 25,
            "seed": 77,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code, _ = self.run(["simulate", "--spec", str(spec_path),
                            "--output", str(out_a)], capsys)
        assert code == 0
        code, _ = self.run(["simulate", "--spec", str(spec_path),
                            "--output", str(out_b), "--workers", "4"],
                           capsys)
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().startswith("beta,x,")

    def test_simulate_sweep(self, tmp_path, capsys):
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45, 55], "times": [10, 20, 30],
                     "devices": 20},
            "true_params": [0.004, 0.05],
            "contamination": {"mode": "alpha0_shift", "cell": [0, 0],
                              "value": 0.002},
            "betas": [0],
            "replications": 10,
            "seed": 5,
            "sweep": {"parameter": "strength", "values": [0.0, 0.5]},
        }
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sweep.csv"
        code, _ = self.run(["simulate", "--spec", str(spec_path),
                            "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per strength
        assert lines[1].split(",")[1] == "0.0"
        assert lines[2].split(",")[1] == "0.5"

    @pytest.mark.parametrize("study", ["rmse", "level_power"])
    def test_devices_sweep_reports_equal_in_process_studies(
            self, study, tmp_path, capsys):
        hypothesis = {"m": [0, 1], "d": 0.05, "level": 0.1}
        spec = {
            "study": study,
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "betas": [0, 0.5],
            "replications": 20,
            "seed": 4,
            "hypothesis": hypothesis if study == "level_power" else None,
            "sweep": {"parameter": "devices", "values": [3, 40]},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out = self.run(["simulate", "--spec", str(spec_path),
                              "--output", str(tmp_path / "sweep.csv")],
                             capsys)
        assert code == 0
        reports = _strict_json(out)["results"]["reports"]
        assert len(reports) == 2
        runner = rmse_study if study == "rmse" else level_power_study
        for k, report in zip((3, 40), reports):
            direct = runner(SimulationSpec(
                plan=TestPlan([35, 45], [10, 20], np.full((2, 2), k)),
                true_params=ModelParams(0.004, 0.05),
                contamination=ContaminationScheme(), betas=(0.0, 0.5),
                replications=20, seed=4,
                hypothesis=None if study == "rmse" else LinearHypothesis(
                    np.array([0.0, 1.0]), 0.05),
                level=0.1 if study == "level_power" else 0.05))
            assert report == json.loads(direct.to_json())

    def test_devices_sweep_value_beyond_int64_refused(self, tmp_path,
                                                      capsys):
        # the plan's int64 devices array refused it with a bare
        # OverflowError
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "betas": [0.0],
            "replications": 3,
            "seed": 1,
            "sweep": {"parameter": "devices", "values": [10**29]},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["simulate", "--spec", str(spec_path), "--output",
                str(tmp_path / "study.csv")]
        with pytest.raises(ParseError, match="bad simulation spec"):
            _cmd_simulate(_build_parser().parse_args(argv))
        code, text = self.run(argv, capsys)
        assert code == 2
        assert _strict_json(text)["errors"][0]["code"] == "ParseError"
        assert not (tmp_path / "study.csv").exists()

    @pytest.mark.parametrize("count", ["inf", "1e400", "nan"])
    def test_count_outside_int64_exit_code(self, count, tmp_path, capsys):
        data = tmp_path / "k.csv"
        data.write_text(f"w,t,K,n\n35,10,{count},3\n45,10,10,5\n")
        code, out = self.run(["fit", "--input", str(data), "--beta", "0.5"],
                             capsys)
        assert code == 2
        error = _strict_json(out)["errors"][0]
        assert error["code"] == "ParseError"
        assert "row 2: column 'K'" in error["message"]

    @pytest.mark.parametrize("name, argv, columns", [
        ("table1", ["fit", "--beta", "0.5"], 4),
        ("ed01", ["competing-fit", "--betas", "0.5"], 5)],
        ids=["table1", "ed01"])
    def test_row_with_extra_values_exit_code(self, name, argv, columns,
                                             tmp_path, capsys):
        # csv.DictReader files the values beyond the header under None,
        # which both readers ignored
        lines = dataset_path(name).read_text().splitlines()
        lines[1] += ",99"
        data = tmp_path / f"{name}.csv"
        data.write_text("\n".join(lines) + "\n")
        code, out = self.run([*argv, "--input", str(data)], capsys)
        assert code == 2
        assert _strict_json(out)["errors"] == [{
            "code": "ParseError",
            "message": f"{data} row 2: more values than the {columns} "
                       "header columns"}]

    def test_samplesize_beyond_double_range_is_typed_error(self, capsys):
        code, out = self.run(
            ["samplesize", "--input", str(dataset_path("table1")),
             "--alpha-star", "0.004,1e-160", "--beta", "0.5", "--m", "0,1",
             "--d", "0", "--target-power", "0.8"], capsys)
        assert code == 3
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "NumericalOverflow"
        assert doc["results"] == {}

    def samplesize_at(self, alpha1, capsys):
        return self.run(
            ["samplesize", "--input", str(dataset_path("table1")),
             "--alpha-star", f"0.004,{alpha1}", "--beta", "0.5", "--m",
             "0,1", "--d", "0", "--target-power", "0.8"], capsys)

    def test_samplesize_tiny_effect_reaches_target(self, capsys):
        code, out = self.samplesize_at("1e-154", capsys)
        assert code == 0
        results = _strict_json(out)["results"]
        assert 1e306 < results["required_devices"] < 1e307
        assert results["achieved_power"] == pytest.approx(0.8, abs=1e-12)

    def test_samplesize_effect_squared_underflow_is_typed_error(self,
                                                                capsys):
        code, out = self.samplesize_at("1e-200", capsys)
        assert code == 3
        assert _strict_json(out)["errors"][0]["code"] == "NumericalOverflow"

    def test_power_device_count_beyond_double_range(self, capsys):
        code, out = self.run(
            ["power", "--input", str(dataset_path("table1")),
             "--alpha-star", "0.004,0.06", "--beta", "0.5", "--m", "0,1",
             "--d", "0.05", "--devices", "1" + "0" * 400], capsys)
        assert code == 3
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "NumericalOverflow"
        assert doc["results"] == {}

    @pytest.mark.parametrize("values", [[None], [[0.5]]])
    def test_simulate_sweep_strength_not_number_refused(self, values,
                                                        tmp_path, capsys):
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "contamination": {"mode": "alpha0_shift", "cell": [0, 0],
                              "value": 0.002},
            "betas": [0.0],
            "replications": 3,
            "seed": 1,
            "sweep": {"parameter": "strength", "values": values},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "study.csv"
        code, text = self.run(["simulate", "--spec", str(spec_path),
                               "--output", str(out)], capsys)
        assert code == 2
        assert _strict_json(text)["errors"][0]["code"] == "ParseError"
        assert not out.exists()

    @pytest.mark.parametrize("command, options, message", [
        ("ztest", ["--m", "0,0"], "m must be finite and non-zero"),
        ("power", ["--alpha-star=0,0.05"],
         "alpha0 must be finite and > 0, got 0.0"),
        ("ztest", ["--level", "1"], "level must be in (0, 1)"),
        ("power", ["--level", "0"], "level must be in (0, 1)"),
        ("samplesize", ["--level", "1.5"], "level must be in (0, 1)"),
        ("power", ["--beta=-1"], "beta must be a finite real >= 0, got -1.0"),
        ("samplesize", ["--beta=-0.3"],
         "beta must be a finite real >= 0, got -0.3"),
    ], ids=["ztest_zero_m", "power_zero_alpha0", "ztest_level_1",
            "power_level_0", "samplesize_level_1_5", "power_negative_beta",
            "samplesize_negative_beta"])
    def test_library_refusal_is_parse_error(self, command, options, message,
                                            capsys):
        # a valid call; the appended options override its values
        argv = {
            "fit": ["fit", "--beta", "0.5"],
            "ztest": ["ztest", "--beta", "0.5", "--m", "0,1", "--d", "0.05"],
            "power": ["power", "--alpha-star", "0.004,0.06", "--beta", "0.5",
                      "--m", "0,1", "--d", "0.05", "--devices", "50"],
            "samplesize": ["samplesize", "--alpha-star", "0.004,0.06",
                           "--beta", "0.5", "--m", "0,1", "--d", "0.05",
                           "--target-power", "0.8"],
        }[command] + ["--input", str(dataset_path("table1")), *options]
        code, out = self.run(argv, capsys)
        assert code == 2
        doc = _strict_json(out)
        assert doc["errors"] == [{"code": "ParseError", "message": message}]
        assert doc["results"] == {}

    @pytest.mark.parametrize("command", [["fit", "--beta", "0.5"],
                                         ["fit-path", "--betas", "0,1"]],
                             ids=["fit", "fit_path"])
    def test_mission_times_without_w0_refused(self, command, capsys):
        code, out = self.run([*command, "--input",
                              str(dataset_path("table1")),
                              "--mission-times", "10,20"], capsys)
        assert code == 2
        assert _strict_json(out)["errors"] == [{
            "code": "ParseError", "message": "--mission-times requires "
            "--w0, the stress of the reliability predictions"}]

    def test_subnormal_beta_fits_as_beta_zero(self, capsys):
        docs = []
        for beta in ("1e-320", "0"):
            code, out = self.run(["fit", "--input",
                                  str(dataset_path("table1")), "--beta",
                                  beta], capsys)
            assert code == 0
            docs.append(_strict_json(out)["results"]["fits"][0])
        assert docs[0].pop("beta") == 1e-320
        assert docs[1].pop("beta") == 0.0
        assert docs[0] == docs[1]

    def test_reliability_empty_mission_times(self, capsys):
        code, out = self.run(["reliability", "--params", "0.004,0.05",
                              "--w0", "25", "--mission-times", ""], capsys)
        assert code == 0
        assert _strict_json(out)["results"]["reliability"] == {}

    def test_device_total_beyond_int64_fits(self, tmp_path, capsys):
        # at K = 2**62 the four cells total 2**64, which wraps to 0 in int64;
        # every frequency and weight is as at K = 2**61, and so is the fit
        fits = []
        for k in (2**62, 2**61):
            data = tmp_path / f"k{k}.csv"
            data.write_text("w,t,K,n\n" + "".join(
                f"{w},{t},{k},{n}\n" for (w, t), n in zip(
                    [(1, 1), (1, 2), (2, 1), (2, 2)],
                    [k // 4, k // 2, k // 2, 3 * k // 4])))
            code, out = self.run(["fit", "--input", str(data), "--beta",
                                  "0.5"], capsys)
            assert code == 0
            fits.append(_strict_json(out)["results"])
        assert fits[0] == fits[1]
        assert fits[0]["fits"][0]["converged"]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("w,t,K,n\n35,10,10,12\n")
        code, out = self.run(["fit", "--input", str(bad), "--beta", "0"],
                             capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["errors"][0]["code"] == "ParseError"

    def usage_error(self, argv, capsys):
        """Run an argv that argparse refuses; returns the error document."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("usage: oneshotdpd")
        doc = _strict_json(captured.out)
        assert doc["config"] == {"argv": argv}
        assert doc["results"] == {} and doc["diagnostics"] == {}
        assert doc["errors"][0]["code"] == "ParseError"
        return doc

    def test_usage_error_bad_option_value(self, capsys):
        argv = ["power", "--input", str(dataset_path("table1")),
                "--alpha-star", "0.004,0.02", "--beta", "0", "--m", "0,1",
                "--d", "0.05", "--devices", "1e3"]
        doc = self.usage_error(argv, capsys)
        assert "--devices" in doc["errors"][0]["message"]

    def test_usage_error_missing_option(self, capsys):
        doc = self.usage_error(["fit", "--input", str(dataset_path("table1"))],
                               capsys)
        assert "--beta" in doc["errors"][0]["message"]

    def test_usage_error_unknown_option(self, capsys):
        doc = self.usage_error(["fit", "--input", str(dataset_path("table1")),
                                "--beta", "0", "--bogus"], capsys)
        assert "--bogus" in doc["errors"][0]["message"]

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--input", str(dataset_path("table1")), "--beta", "0",
          "--m", "0,1"], "unrecognized arguments: --m 0,1"),
        (["power", "--input", str(dataset_path("table1")), "--alpha",
          "0.004,0.02", "--beta", "0", "--m", "0,1", "--d", "0.05",
          "--dev", "50", "--abs"],
         "the following arguments are required: --alpha-star, --devices")])
    def test_usage_error_option_prefix(self, argv, message, capsys):
        # a prefix is not the option it begins: fit's --m is not
        # --mission-times, and power's --alpha, --dev and --abs are not
        # --alpha-star, --devices and --abs-effect
        doc = self.usage_error(argv, capsys)
        assert doc["errors"][0]["message"] == message

    @pytest.mark.parametrize("argv", [["--version"], *(
        [command, "--help"] for command in _command_parsers())])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_shared_options_parse_and_read_alike(self):
        # an option that several commands take has the same help, type,
        # default and required flag in each; these flags mean something
        # else in the command named
        distinct = {("reliability", "--w0"),
                    ("reliability", "--mission-times"),
                    ("simulate", "--output"), ("competing-fit", "--input")}
        taken = {}
        for command, parser in _command_parsers().items():
            for action in parser._actions:
                for flag in action.option_strings:
                    if (command, flag) not in distinct:
                        taken.setdefault(flag, {})[command] = (
                            action.help, action.type, action.default,
                            action.required)
        shared = {flag: by_command for flag, by_command in taken.items()
                  if len(by_command) > 1}
        assert set(shared) >= {"--output", "--input", "--beta", "--betas",
                               "--w0", "--mission-times", "--m", "--d",
                               "--level", "--alpha-star"}
        assert {flag: by_command for flag, by_command in shared.items()
                if len(set(by_command.values())) > 1} == {}
        assert [flag for flag, by_command in shared.items()
                if any(help is None for help, *_ in by_command.values())] == []

    def test_computation_error_exit_code(self, tmp_path, capsys):
        degenerate = tmp_path / "zeros.csv"
        degenerate.write_text(
            "w,t,K,n\n35,10,10,0\n35,20,10,0\n45,10,10,0\n45,20,10,0\n"
        )
        code, out = self.run(["fit", "--input", str(degenerate),
                              "--beta", "0"], capsys)
        assert code == 3
        doc = json.loads(out)
        assert doc["errors"][0]["code"] == "NoInteriorData"

    def test_fit_overflowing_alpha0_is_typed_error(self, tmp_path, capsys):
        # subnormal inspection times put alpha0 near 1e320, beyond doubles
        data = tmp_path / "subnormal.csv"
        data.write_text("w,t,K,n\n1,1e-320,10,3\n2,1e-320,10,6\n")
        code, out = self.run(["fit", "--input", str(data), "--beta", "0.5"],
                             capsys)
        assert code == 3
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "NumericalOverflow"
        assert doc["results"] == {}

    @pytest.mark.parametrize("command", [["power", "--devices", "50"],
                                         ["samplesize", "--target-power",
                                          "0.8"]])
    def test_design_overflow_is_typed_error(self, command, capsys):
        # the alternative's rate overflows at every stress of the plan
        code, out = self.run(command[:1] + [
            "--input", str(dataset_path("table1")), "--alpha-star",
            "0.004,400", "--beta", "0.5", "--m", "0,1", "--d", "0.05"]
            + command[1:], capsys)
        assert code == 3
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "NumericalOverflow"
        assert doc["results"] == {}

    @pytest.mark.parametrize("argv", [
        ["ztest", "--m", "0,1e308"],
        ["power", "--m", "0,1e308", "--alpha-star", "0.004,0.05",
         "--devices", "10"],
        ["samplesize", "--m", "0,1e308", "--alpha-star", "0.004,0.05",
         "--target-power", "0.8"],
        ["ztest", "--m", "1e308,-1e308"]])
    def test_overflowing_variance_is_typed_error(self, argv, capsys):
        code, out = self.run(argv[:1] + [
            "--input", str(dataset_path("table1")), "--beta", "0.5", "--d",
            "0"] + argv[1:], capsys)
        assert code == 3
        doc = _strict_json(out)
        assert doc["errors"] == [{
            "code": "NumericalOverflow",
            "message": "m' Sigma m overflows the double range"}]
        assert doc["results"] == {}

    @pytest.mark.parametrize("params", ["0.005,1000", "0.005,-1000"])
    def test_reliability_overflow_is_typed_error(self, params, capsys):
        # the rate overflows (1000) or its reciprocal does (-1000)
        code, out = self.run(["reliability", "--params", params, "--w0",
                              "25", "--mission-times", "1"], capsys)
        assert code == 3
        doc = json.loads(out)
        assert doc["errors"][0]["code"] == "NumericalOverflow"
        assert doc["results"] == {}

    def test_simulate_without_usable_fits_writes_null(self, tmp_path, capsys):
        # one device per cell: no cell can lie strictly between 0 and K,
        # so every fit is refused and no beta keeps a usable fit
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 1},
            "true_params": [1e-6, 0.01],
            "betas": [0, 0.5],
            "replications": 5,
            "seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "study.csv"
        code, text = self.run(["simulate", "--spec", str(spec_path),
                               "--output", str(out)], capsys)
        assert code == 0

        def refuse(token):
            raise ValueError(f"bare {token} in JSON")

        doc = json.loads(text, parse_constant=refuse)
        report = doc["results"]["reports"][0]
        assert report["used"] == [0, 0]
        for name in ("rmse_alpha0", "rmse_alpha1", "rmse_combined"):
            assert report[name] == [None, None]
        # the CSV keeps its nan cells
        assert out.read_text().splitlines()[1:] == [
            "0.0,,nan,nan,nan,,0,5", "0.5,,nan,nan,nan,,0,5"]

    @pytest.mark.parametrize("option, value", [
        ("--mission-times", "nan"), ("--w0", "nan"), ("--w0", "inf")])
    def test_non_finite_option_refused(self, option, value, capsys):
        options = {"--params": "0.005,0.05", "--w0": "25",
                   "--mission-times": "10", option: value}
        argv = ["reliability"] + [x for item in options.items() for x in item]
        code, out = self.run(argv, capsys)
        assert code == 2
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "ParseError"
        assert doc["results"] == {}

    @pytest.mark.parametrize("field, value", [
        ("hypothesis", {"m": [0.0, 1.0], "d": float("nan")}),
        ("replications", float("inf")),
        ("betas", [0.0, float("nan")]),
        # the rate at stress 45 overflows
        ("true_params", [0.004, 400.0]),
        # malformed sweeps and contaminations
        ("sweep", [1]),
        ("sweep", {"parameter": "devices", "values": 5}),
        ("contamination", "x"),
        ("contamination", [1]),
        ("contamination", []),
        # more fits than a study may hold, refused before any allocation
        ("replications", 10**12),
        # a JSON string or boolean is not a number
        ("hypothesis", {"m": [0.0, 1.0], "d": "0.05"}),
        ("hypothesis", {"m": [0.0, 1.0], "d": True}),
        ("hypothesis", {"m": [False, True], "d": 0.05}),
        ("hypothesis", {"m": ["0", "1"], "d": 0.05}),
        ("hypothesis", {"m": [0.0, 1.0], "d": 0.05, "level": "0.1"}),
        ("plan", {"temps": ["35", "45"], "times": [10, 20], "devices": 10}),
        ("plan", {"temps": [35, 45], "times": [10, True], "devices": 10}),
        ("betas", [False, True]),
        ("true_params", [True, 0.05]),
        ("contamination", {"mode": "alpha1_shift", "cell": [0, 0],
                           "value": False}),
        ("contamination", {"mode": "none", "value": "x"}),
    ])
    def test_simulate_spec_non_finite_refused(self, field, value, tmp_path,
                                              capsys):
        spec = {
            "study": "level_power" if field == "hypothesis" else "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "betas": [0.0],
            "replications": 3,
            "seed": 1,
            field: value,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))  # writes bare NaN / Infinity
        out = tmp_path / "study.csv"
        code, text = self.run(["simulate", "--spec", str(spec_path),
                               "--output", str(out)], capsys)
        assert code == 2
        assert _strict_json(text)["errors"][0]["code"] == "ParseError"
        assert not out.exists()

    @pytest.mark.parametrize("doc, got", [([1, 2], "[1, 2]"),
                                          (None, "None"), ("x", "'x'")])
    def test_simulate_spec_must_be_an_object(self, doc, got, tmp_path,
                                             capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "study.csv"
        code, text = self.run(["simulate", "--spec", str(spec), "--output",
                               str(out)], capsys)
        assert code == 2
        assert _strict_json(text)["errors"] == [{
            "code": "ParseError",
            "message": f"simulation spec must be an object, got {got}"}]
        assert not out.exists()

    def test_simulate_descending_betas_refused(self, tmp_path, capsys):
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "betas": [1, 0],
            "replications": 3,
            "seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "study.csv"
        code, text = self.run(["simulate", "--spec", str(spec_path),
                               "--output", str(out)], capsys)
        assert code == 2
        error = _strict_json(text)["errors"][0]
        assert error["code"] == "ParseError"
        assert "ascending" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("seed", [7.9, True, "7"])
    def test_simulate_non_integral_seed_refused(self, seed, tmp_path,
                                                capsys):
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "betas": [0.0],
            "replications": 3,
            "seed": seed,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "study.csv"
        code, text = self.run(["simulate", "--spec", str(spec_path),
                               "--output", str(out)], capsys)
        assert code == 2
        error = _strict_json(text)["errors"][0]
        assert error["code"] == "ParseError"
        assert "seed" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("replications", 2.7),
        ("plan", {"temps": [35, 45], "times": [10, 20], "devices": 10.7}),
        ("contamination", {"mode": "alpha0_shift", "cell": [0.9, 0],
                           "value": 0.001}),
        ("sweep", {"parameter": "devices", "values": [10, 10.5]}),
    ])
    def test_simulate_non_integral_field_refused(self, field, value,
                                                 tmp_path, capsys):
        # before, these ran a study on the truncated values and exited 0
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "betas": [0.0],
            "replications": 3,
            "seed": 1,
            field: value,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "study.csv"
        code, text = self.run(["simulate", "--spec", str(spec_path),
                               "--output", str(out)], capsys)
        assert code == 2
        error = _strict_json(text)["errors"][0]
        assert error["code"] == "ParseError"
        assert "must be an integer" in error["message"]
        assert not out.exists()

    def test_simulate_workers_below_one_refused(self, tmp_path, capsys):
        spec = {
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05],
            "betas": [0.0],
            "replications": 3,
            "seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, text = self.run(["simulate", "--spec", str(spec_path),
                               "--output", str(tmp_path / "study.csv"),
                               "--workers", "0"], capsys)
        assert code == 2
        assert _strict_json(text)["errors"][0]["code"] == "ParseError"

    @pytest.mark.parametrize("argv", [
        ["ztest", "--input", str(dataset_path("table1")), "--beta", "0",
         "--m", "-1,1", "--d", "-1e-3"],
        ["ztest", "--input", str(dataset_path("table1")), "--beta", "0.5",
         "--m", "-.5,1", "--d", "-.01"],
        ["reliability", "--params", "0.004,0.05", "--w0", "-2.5e1",
         "--mission-times", "10"],
    ])
    def test_negative_values_in_both_forms(self, argv, capsys):
        # argparse took -1,1, -1e-3 and -2.5e1 for options
        code, spaced = self.run(argv, capsys)
        assert code == 0
        assert self.run(_joined(argv), capsys) == (0, spaced)

    @pytest.mark.parametrize("argv", [
        ["ztest", "--input", str(dataset_path("table1")), "--beta", "0",
         "--m", "0,1", "--d", "-inf"],
        ["reliability", "--params", "0.004,0.05", "--w0", "-NaN",
         "--mission-times", "10"],
        ["reliability", "--params", "0.004,0.05", "--w0", "-Infinity",
         "--mission-times", "10"],
    ])
    def test_non_finite_values_in_both_forms(self, argv, capsys):
        # argparse took -inf, -NaN and -Infinity for options
        code, spaced = self.run(argv, capsys)
        assert code == 2
        assert "must be finite" in _strict_json(spaced)["errors"][0]["message"]
        assert self.run(_joined(argv), capsys) == (2, spaced)

    @pytest.mark.parametrize("command, target", [
        ("fit", "directory"), ("fit", "missing"), ("simulate", "directory")])
    def test_unwritable_output_is_a_parse_error(self, command, target,
                                                tmp_path, capsys,
                                                monkeypatch):
        # refused before any replication is drawn
        def study(*args):
            raise AssertionError("the study ran")

        monkeypatch.setattr(simulate_module, "_study", study)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0],
            "replications": 2, "seed": 1}))
        argv = {"fit": ["fit", "--input", str(dataset_path("table1")),
                        "--beta", "0.5"],
                "simulate": ["simulate", "--spec", str(spec)]}[command]
        output = {"directory": tmp_path,
                  "missing": tmp_path / "missing" / "x.json"}[target]
        code, out = self.run([*argv, "--output", str(output)], capsys)
        assert code == 2
        doc = _strict_json(out)
        assert doc["results"] == {} and doc["diagnostics"] == {}
        [error] = doc["errors"]
        assert error["code"] == "ParseError"
        assert error["message"].startswith(f"cannot write {output}: ")

    def test_failed_run_leaves_no_csv(self, tmp_path, capsys):
        # strength 1 maps alpha0 to 0: the sweep is refused before its
        # CSV is opened
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0],
            "contamination": {"mode": "alpha0_shift", "cell": [0, 0],
                              "value": 0.001},
            "replications": 2, "seed": 1,
            "sweep": {"values": [0, 1]}}))
        output = tmp_path / "study.csv"
        code, out = self.run(["simulate", "--spec", str(spec), "--output",
                              str(output)], capsys)
        assert code == 2
        [error] = _strict_json(out)["errors"]
        assert "alpha0_shift requires 0 < value" in error["message"]
        assert not output.exists()

    @pytest.mark.parametrize("field, value, extra, message", [
        ("sweep", {"parameter": "devices", "values": [3, 10.5]}, [],
         "devices must be an integer, got 10.5"),
        ("sweep", {"values": [0, 1]}, [],
         "alpha0_shift requires 0 < value <= alpha0, got 0.0 vs "
         "alpha0=0.004"),
        ("sweep", {"values": [0, 10**400]}, [],
         "sweep strengths must be numbers: int too large to convert to "
         "float"),
        ("replications", 2, ["--workers", "0"],
         "workers must be >= 1, got 0"),
    ], ids=["devices", "strength", "strength_beyond_float", "workers"])
    def test_refused_run_keeps_existing_output(self, field, value, extra,
                                               message, tmp_path, capsys,
                                               monkeypatch):
        # the whole run is checked before its CSV is opened, so a bad
        # later sweep value runs no study and leaves the file in place
        def study(*args):
            raise AssertionError("the study ran")

        monkeypatch.setattr(simulate_module, "_study", study)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0],
            "contamination": {"mode": "alpha0_shift", "cell": [0, 0],
                              "value": 0.001},
            "replications": 2, "seed": 1, field: value}))
        output = tmp_path / "study.csv"
        output.write_text("kept\n")
        code, out = self.run(["simulate", "--spec", str(spec), "--output",
                              str(output), *extra], capsys)
        assert code == 2
        assert _strict_json(out)["errors"] == [{"code": "ParseError",
                                                "message": message}]
        assert output.read_text() == "kept\n"

    def test_study_failing_after_csv_opened_removes_it(self, tmp_path, capsys,
                                                       monkeypatch):
        output = tmp_path / "study.csv"

        def study(spec):
            assert output.read_text() == ""
            raise ValueError("the study failed")

        monkeypatch.setattr(simulate_module, "_study", study)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0],
            "replications": 2, "seed": 1}))
        output.write_text("old\n")
        code, out = self.run(["simulate", "--spec", str(spec), "--output",
                              str(output)], capsys)
        assert code == 2
        assert _strict_json(out)["errors"] == [{"code": "ParseError",
                                                "message": "the study failed"}]
        assert not output.exists()

    @pytest.mark.parametrize("kind", ["rmse", "level_power", "devices"])
    def test_report_spec_reruns_to_the_same_report(self, kind, tmp_path,
                                                   capsys):
        # a report's spec carries no study key: the kind follows from the
        # hypothesis
        doc = {"plan": {"temps": [35, 45, 55], "times": [10, 20],
                        "devices": 20},
               "true_params": [0.004, 0.05],
               "contamination": {"mode": "alpha0_shift", "cell": [1, 0],
                                 "value": 0.002},
               "betas": [0.0, 0.5], "replications": 15, "seed": 4}
        if kind == "level_power":
            doc.update(study="level_power",
                       hypothesis={"m": [0, 1], "d": 0.05, "level": 0.1})
        if kind == "devices":
            doc["sweep"] = {"parameter": "devices", "values": [3, 30]}
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(json.dumps(doc))
        code, out = self.run(["simulate", "--spec", str(first), "--output",
                              str(csv_a)], capsys)
        assert code == 0
        report = _strict_json(out)["results"]["reports"][-1]
        again.write_text(json.dumps(report["spec"]))
        code, out = self.run(["simulate", "--spec", str(again), "--output",
                              str(csv_b)], capsys)
        assert code == 0
        assert _strict_json(out)["results"]["reports"] == [report]
        header, *rows = csv_a.read_text().splitlines(keepends=True)
        if kind == "devices":
            # the re-run is one plain study: its rows have no x value
            rows = [re.sub(r"^([^,]*),30,", r"\1,,", row)
                    for row in rows[-2:]]
        assert csv_b.read_text() == header + "".join(rows)

    @pytest.mark.parametrize("study, hypothesis, message", [
        ("power", None, "study must be rmse or level_power, got 'power'"),
        ("rmse", {"m": [0, 1], "d": 0.05},
         "an rmse study must not carry a hypothesis"),
        ("level_power", None, "a level_power study requires a hypothesis"),
    ])
    def test_simulate_study_checks(self, study, hypothesis, message,
                                   tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "study": study, "hypothesis": hypothesis,
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0],
            "replications": 2, "seed": 1}))
        output = tmp_path / "study.csv"
        code, out = self.run(["simulate", "--spec", str(spec), "--output",
                              str(output)], capsys)
        assert code == 2
        assert _strict_json(out)["errors"] == [{"code": "ParseError",
                                                "message": message}]
        assert not output.exists()

    @pytest.mark.parametrize("content", [None, "not json"],
                             ids=["missing", "invalid"])
    def test_simulate_unreadable_spec(self, content, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        if content is None:
            message = (f"cannot open {spec}: [Errno 2] No such file or "
                       f"directory: '{spec}'")
        else:
            spec.write_text(content)
            message = (f"{spec}: invalid JSON: Expecting value: line 1 "
                       f"column 1 (char 0)")
        code, out = self.run(["simulate", "--spec", str(spec), "--output",
                              str(tmp_path / "study.csv")], capsys)
        assert code == 2
        assert _strict_json(out)["errors"] == [{"code": "ParseError",
                                                "message": message}]

    def test_simulate_generated_seed_reproduces(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0, 0.5],
            "replications": 5}))
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert main(["simulate", "--spec", str(spec), "--output",
                     str(first)]) == 0
        captured = capsys.readouterr()
        seed = _strict_json(captured.out)["diagnostics"]["seed"]
        assert captured.err == f"generated seed: {seed}\n"
        code, _ = self.run(["simulate", "--spec", str(spec), "--output",
                            str(again), "--seed", str(seed)], capsys)
        assert code == 0
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["competing-fit", "--input", str(dataset_path("ed01")), "--betas",
          "0", "--causes", "natural,cancer"],
         "unknown cause 'cancer' (use natural, tumour)"),
        (["ztest", "--input", str(dataset_path("table1")), "--beta", "0.5",
          "--m", "a,b", "--d", "0"],
         "expected comma-separated numbers, got 'a,b'"),
    ])
    def test_option_refusals(self, argv, message, capsys):
        code, out = self.run(argv, capsys)
        assert code == 2
        assert _strict_json(out)["errors"] == [{"code": "ParseError",
                                                "message": message}]

    def test_ztest_beyond_double_range_is_typed_error(self, capsys):
        code, out = self.run(["ztest", "--input", str(dataset_path("table1")),
                              "--beta", "0.5", "--m", "1,10", "--d", "1e308"],
                             capsys)
        assert code == 3
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "NumericalOverflow"
        assert doc["results"] == {}

    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_result_is_refused(self, to_file, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(cli_module, "mean_lifetime",
                            lambda params, w0: math.inf)
        target = tmp_path / "doc.json"
        argv = ["reliability", "--params", "0.005,0.05", "--w0", "25",
                "--mission-times", "10"]
        code, out = self.run(argv + ["--output", str(target)] * to_file,
                             capsys)
        assert code == 3
        doc = _strict_json(target.read_text() if to_file else out)
        assert doc["errors"] == [{"code": "NumericalOverflow",
                                  "message": "a result is not a finite double"}]
        assert doc["results"] == {} and doc["diagnostics"] == {}

    def test_non_finite_simulate_document_removes_csv(self, tmp_path, capsys,
                                                      monkeypatch):
        to_dict = simulate_module.SimulationReport.to_dict
        monkeypatch.setattr(simulate_module.SimulationReport, "to_dict",
                            lambda self: {**to_dict(self), "x": math.nan})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0],
            "replications": 2, "seed": 1}))
        output = tmp_path / "study.csv"
        code, out = self.run(["simulate", "--spec", str(spec), "--output",
                              str(output)], capsys)
        assert code == 3
        doc = _strict_json(out)
        assert doc["errors"][0]["code"] == "NumericalOverflow"
        assert doc["results"] == {}
        assert not output.exists()

    def test_byte_order_mark_is_read(self, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start with a BOM
        table = tmp_path / "table1.csv"
        table.write_bytes(dataset_path("table1").read_bytes())
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
        docs = []
        for path in (table, marked):
            code, out = self.run(["fit", "--input", str(path), "--beta",
                                  "0.3"], capsys)
            assert code == 0
            doc = _strict_json(out)
            del doc["config"]["input"]
            docs.append(doc)
        assert docs[0] == docs[1]
        spec = json.dumps({
            "study": "rmse",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0], "replications": 5,
            "seed": 2})
        study = tmp_path / "study.csv"
        outputs = []
        for name, prefix in (("plain", ""), ("marked", "\ufeff")):
            path = tmp_path / f"{name}.json"
            path.write_text(prefix + spec, encoding="utf-8")
            code, out = self.run(["simulate", "--spec", str(path), "--output",
                                  str(study)], capsys)
            assert code == 0
            doc = _strict_json(out)
            del doc["config"]["spec"]
            outputs.append((doc, study.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_commands_leave_numpy_ma_out(self, tmp_path):
        # np.unique imports numpy.ma, which costs a fresh process about
        # 10 ms
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "study": "level_power",
            "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
            "true_params": [0.004, 0.05], "betas": [0.0, 0.5],
            "replications": 5, "seed": 2,
            "hypothesis": {"m": [0, 1], "d": 0.05}}))
        src = str(Path(io_module.__file__).resolve().parents[1])
        code = (
            "import contextlib, io, json, sys\n"
            "from oneshotdpd.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
        commands = [
            ["fit-path", "--input", str(dataset_path("table1")), "--betas",
             "0,0.5"],
            ["simulate", "--spec", str(spec), "--output",
             str(tmp_path / "study.csv")]]
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, check=True, timeout=60)
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_out(self):
        # import this same checkout of the package in a fresh interpreter
        src = str(Path(io_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, oneshotdpd; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_fingerprint_tool_prints_named_digests(self):
        src = str(Path(io_module.__file__).resolve().parents[1])
        script = Path(__file__).resolve().parent / "data" / "fingerprint.py"
        proc = subprocess.run([sys.executable, str(script)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True,
                              timeout=60)
        lines = proc.stdout.splitlines()
        assert len(lines) > 40
        assert all(re.fullmatch(r"[0-9a-f]{64}  [\w/.]+", line)
                   for line in lines)
        names = [line.split("  ")[1] for line in lines]
        assert len(set(names)) == len(names)

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "fit.json"
        code, out = self.run(
            ["fit", "--input", str(dataset_path("table1")),
             "--beta", "0", "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["results"]["fits"][0]["converged"] is True


# The CLI contract's grammar: a call built from ordinary values, so that
# it reaches the computation, then up to two of its values, CSV fields or
# spec fields replaced by an edge token: signed zeros, subnormals, the
# double range's edge and beyond, non-finite spellings, empty, Unicode
# digits (float() and int() read them) and int64 edges
ORDINARY = ["0", "0.5", "1", "3", "10", "35", "0.004", "0.05", "0.8"]
EDGES = ["-0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
         "1e308", "-1e308", "1e309", "-1e309", "nan", "-nan", "inf", "-inf",
         "", "\u0663", "\u0661\u0660", "9223372036854775807",
         "9223372036854775808", "-9223372036854775808",
         "-9223372036854775809"]
SPEC_LEAVES = [("plan", "devices"), ("plan", "temps", 0), ("plan", "times", 1),
               ("true_params", 0), ("true_params", 1), ("betas", 1),
               ("replications",), ("seed",), ("hypothesis", "m", 1),
               ("hypothesis", "d"), ("hypothesis", "level"),
               ("contamination", "value"), ("sweep", "values", 0)]


def _json_value(token):
    """A spec value from a token: an int or float where it parses as one
    (so NaN and Infinity reach the spec bare), the string otherwise."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


@st.composite
def cli_calls(draw):
    """An argument list with ``{table}``, ``{multi}``, ``{spec}``,
    ``{csv}`` and ``{json}`` standing for files, and the text of the
    files it reads."""
    def value():
        return draw(st.sampled_from(ORDINARY))

    def count():
        return draw(st.sampled_from(["1", "3", "10"]))

    def values(n=None):
        n = draw(st.integers(1, 3)) if n is None else n
        return ",".join(value() for _ in range(n))

    command = draw(st.sampled_from(["fit", "fit-path", "reliability",
                                    "ztest", "power", "samplesize",
                                    "competing-fit", "simulate"]))
    argv, csv, spec = [command], None, None
    if command in ("fit", "fit-path", "ztest", "power", "samplesize"):
        argv += ["--input", "{table}"]
        csv = ("table", "table1")
    if command == "fit":
        argv += ["--beta", value()]
    elif command == "fit-path":
        argv += ["--betas", values()]
    elif command == "reliability":
        argv += ["--params", values(2), "--w0", value(), "--mission-times",
                 values()]
    elif command == "competing-fit":
        argv += ["--input", "{multi}", "--betas", values()]
        csv = ("multi", "ed01")
    elif command == "simulate":
        study = draw(st.sampled_from(["rmse", "level_power"]))
        # few replications: a token there is refused, or gives at most 10
        spec = {"study": study,
                "plan": {"temps": [35, 45, 55], "times": [10, 20, 30],
                         "devices": 3},
                "true_params": [0.004, 0.05], "betas": [0, 0.5],
                "replications": draw(st.integers(1, 3)), "seed": 3,
                "contamination": {"mode": "alpha0_shift", "cell": [0, 0],
                                  "value": 0.001}}
        if study == "level_power":
            spec["hypothesis"] = {"m": [0, 1], "d": 0.05}
        if draw(st.booleans()):
            spec["sweep"] = {"parameter": draw(st.sampled_from(
                ["strength", "devices"])), "values": [0, 1]}
        argv += ["--spec", "{spec}", "--output", "{csv}"]
        if draw(st.booleans()):
            argv += ["--seed", count()]
    else:
        argv += ["--beta", value(), "--m", values(2), "--d", value()]
        if command != "ztest":
            argv += ["--alpha-star", values(2)]
        if command == "power":
            argv += ["--devices", count()]
        if command == "samplesize":
            argv += ["--target-power", value()]
        if draw(st.booleans()):
            argv += ["--level", value()]
    if command in ("fit", "fit-path") and draw(st.booleans()):
        argv += ["--w0", value(), "--mission-times", values()]
    if command != "simulate" and draw(st.booleans()):
        argv += ["--output", "{json}"]
    rows = None
    if csv is not None:
        rows = [line.split(",") for line in
                dataset_path(csv[1]).read_text().splitlines()]
    # the options' values; a site is mutated at one item of its list
    values_at = [i for i, a in enumerate(argv)
                 if i and not a.startswith(("--", "{"))]
    sites = (["argv"] * bool(values_at) + ["csv"] * (rows is not None)
             + ["spec"] * (spec is not None))
    for _ in range(draw(st.integers(0, 2))):
        token = draw(st.sampled_from(EDGES))
        site = draw(st.sampled_from(sites))
        if site == "argv":
            at = draw(st.sampled_from(values_at))
            items = argv[at].split(",")
            items[draw(st.integers(0, len(items) - 1))] = token
            argv[at] = ",".join(items)
        elif site == "csv":
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = token
        else:
            *path, leaf = draw(st.sampled_from(SPEC_LEAVES))
            node = spec
            for key in path:
                node = node.get(key) if isinstance(node, dict) else None
            if node is not None:
                node[leaf] = _json_value(token)
    files = {}
    if rows is not None:
        files[csv[0]] = "\n".join(",".join(row) for row in rows) + "\n"
    if spec is not None:
        files["spec"] = json.dumps(spec)
    return argv, files


TABLE1 = dataset_path("table1").read_text()


class TestCliContract:
    @settings(PROPERTY, max_examples=150)
    @given(cli_calls())
    # a Z beyond the double range
    @example((["ztest", "--input", "{table}", "--beta", "0.5", "--m", "1,10",
               "--d", "1e308"], {"table": TABLE1}))
    # m' Sigma overflows in the Z tests of a K = 3 level/power study
    @example((["simulate", "--spec", "{spec}", "--output", "{csv}"],
              {"spec": json.dumps({
                  "study": "level_power",
                  "plan": {"temps": [35, 45, 55], "times": [10, 20, 30],
                           "devices": 3},
                  "true_params": [0.004, 0.05], "betas": [0, 0.5, 1],
                  "replications": 300, "seed": 3,
                  "hypothesis": {"m": [0, 1e308], "d": 0.05}})}))
    # the squared errors of an rmse study at alpha0 near 4e297 overflow
    @example((["simulate", "--spec", "{spec}", "--output", "{csv}"],
              {"spec": json.dumps({
                  "study": "rmse",
                  "plan": {"temps": [35, 45, 55],
                           "times": [1e-300, 2e-300, 3e-300], "devices": 20},
                  "true_params": [4e297, 0.05], "betas": [0, 0.5],
                  "replications": 20, "seed": 3})}))
    def test_exit_code_and_strict_json(self, call):
        template, files = call
        with tempfile.TemporaryDirectory() as folder:
            paths = {name: os.path.join(folder, name)
                     for name in ("table", "multi", "spec", "csv", "json")}
            for name, text in files.items():
                with open(paths[name], "w", encoding="utf-8") as handle:
                    handle.write(text)
            argv = [paths[a[1:-1]] if a[1:-1] in paths and a[0] == "{"
                    else a for a in template]
            stdout = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("always")
                code = main(argv)
            assert caught == []
            assert code in (0, 2, 3)
            text = stdout.getvalue()
            if "{json}" in template and text == "":
                with open(paths["json"], encoding="utf-8") as handle:
                    text = handle.read()
            doc = _strict_json(text)
            assert (doc["errors"] == []) == (code == 0)
            if template[0] == "simulate" and code != 0:
                assert not os.path.exists(paths["csv"])

