import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oneshotdpd.io as io_module
from oneshotdpd import ParseError, fit
from oneshotdpd.cli import main
from oneshotdpd.datasets import dataset_path
from oneshotdpd.io import (
    fit_result_from_dict,
    fit_result_to_dict,
    parse_betas,
    read_failure_csv,
    read_multioutcome_csv,
)

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

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("stress,time,K,n\n35,10,10,3\n")
        with pytest.raises(ParseError, match="header"):
            read_failure_csv(path)


class TestMultiOutcomeCsv:
    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("w,t,n_sac,n_nat,n_tum\n0,12,5,-1,2\n")
        with pytest.raises(ParseError, match="non-negative"):
            read_multioutcome_csv(path)

    def test_round_trip_of_bundled_file(self, ed01):
        assert ed01.plan.devices.tolist() == [[145, 830, 960],
                                              [175, 620, 625]]


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

    def test_grid_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(io_module, "_MAX_GRID_POINTS", 11)
        assert len(parse_betas("0:0.1:1")) == 11
        with pytest.raises(ParseError, match="more than 11 points"):
            parse_betas("0:0.1:1.1")

    @pytest.mark.parametrize("item", ["0:1e-9:1", "0:1e-320:1"])
    def test_huge_grid_refused_before_it_is_built(self, item, monkeypatch):
        def bounded_range(*args):
            assert args[-1] <= io_module._MAX_GRID_POINTS, "grid was built"
            return range(*args)

        monkeypatch.setattr(io_module, "range", bounded_range, raising=False)
        with pytest.raises(ParseError, match="more than"):
            parse_betas(item)


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

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("w,t,K,n\n35,10,10,12\n")
        code, out = self.run(["fit", "--input", str(bad), "--beta", "0"],
                             capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["errors"][0]["code"] == "ParseError"

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

    def test_import_leaves_scipy_out(self):
        # import this same checkout of the package in a fresh interpreter
        src = str(Path(io_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, oneshotdpd; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

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
