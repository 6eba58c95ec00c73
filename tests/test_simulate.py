import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oneshotdpd import simulate
from oneshotdpd import (
    ContaminationScheme,
    ModelParams,
    SimulationSpec,
    TestPlan,
    cdf,
    contamination_sweep,
    generate_table,
    level_power_study,
    LinearHypothesis,
    rmse_study,
)
from oneshotdpd.inference import ndtri
from oneshotdpd.io import parse_betas

# per-(replication, beta) alpha0, alpha1 and Z of GOLDEN_SPECS, recorded
# from the serial one-fit-per-call solver that preceded the batched engine
GOLDEN = Path(__file__).parent / "data" / "golden_replications.csv"


def plan_with_k(plan, k):
    return TestPlan(plan.temps, plan.times, np.full(plan.shape, k))


def golden_spec(study):
    plan = TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                    np.full((3, 3), 50 if study == "level_power" else 2))
    if study == "level_power":
        # the benchmark's level/power design at seed 2017
        return SimulationSpec(
            plan=plan, true_params=ModelParams(0.004, 0.05),
            contamination=ContaminationScheme("alpha0_shift", (0, 0), 0.001),
            betas=tuple(parse_betas("0:0.2:1")),
            replications=40, seed=2017,
            hypothesis=LinearHypothesis(np.array([0.0, 1.0]), 0.05))
    # two devices per cell: some tables have no interior cell, some fits
    # fail to converge, and later betas then restart cold
    return SimulationSpec(
        plan=plan, true_params=ModelParams(0.004, 0.05),
        contamination=ContaminationScheme(), betas=(0.0, 0.5, 1.0),
        replications=40, seed=31)


def base_spec(plan, betas=(0.0,), replications=50, seed=1234,
              contamination=None, hypothesis=None, params=(0.004, 0.05)):
    return SimulationSpec(
        plan=plan,
        true_params=ModelParams(*params),
        contamination=contamination or ContaminationScheme(),
        betas=betas,
        replications=replications,
        seed=seed,
        hypothesis=hypothesis,
    )


class TestGenerateTable:
    def test_deterministic_per_replication(self, plan1):
        spec = base_spec(plan1)
        a = generate_table(spec, 3)
        b = generate_table(spec, 3)
        assert np.array_equal(a.counts, b.counts)
        c = generate_table(spec, 4)
        assert not np.array_equal(a.counts, c.counts)

    def test_binomial_mean_matches_model(self, plan1):
        # cell (w=35, t=10) frequency converges to the model probability
        plan = plan_with_k(plan1, 20)
        spec = base_spec(plan, params=(0.005, 0.05), replications=1,
                         seed=99)
        draws = np.array(
            [generate_table(spec, i).counts[0, 0] for i in range(100000)]
        )
        p = cdf(ModelParams(0.005, 0.05), 35.0, 10.0)
        se = np.sqrt(p * (1 - p) / (20 * draws.size))
        assert abs(draws.mean() / 20 - p) < 3 * se

    def test_boundary_contamination_matches_clean(self, plan1):
        # a shift equal to the true value is distributionally no shift
        plan = plan_with_k(plan1, 20)
        clean = base_spec(plan, seed=5)
        shifted = base_spec(
            plan, seed=5,
            contamination=ContaminationScheme(mode="alpha0_shift",
                                              value=0.004),
        )
        means = []
        for spec in (clean, shifted):
            draws = np.array(
                [generate_table(spec, i).counts[0, 0] for i in range(100000)]
            )
            means.append(draws.mean())
        p = cdf(ModelParams(0.004, 0.05), 35.0, 10.0)
        se = np.sqrt(p * (1 - p) * 20 / 100000)
        assert abs(means[0] - means[1]) < 3 * np.sqrt(2) * se

    def test_contaminated_cell_rate_shifts(self, plan1):
        plan = plan_with_k(plan1, 50)
        spec = base_spec(
            plan, seed=6,
            contamination=ContaminationScheme(mode="alpha0_shift",
                                              value=0.001),
        )
        draws = np.array(
            [generate_table(spec, i).counts for i in range(4000)]
        )
        shifted_mean = draws[:, 0, 0].mean() / 50
        p_shifted = cdf(ModelParams(0.001, 0.05), 35.0, 10.0)
        p_clean = cdf(ModelParams(0.004, 0.05), 35.0, 10.0)
        assert abs(shifted_mean - p_shifted) < 0.01
        # the other cells stay on the clean model
        other_mean = draws[:, 2, 2].mean() / 50
        assert abs(other_mean - cdf(ModelParams(0.004, 0.05), 55.0, 30.0)) \
            < 0.01
        assert abs(p_shifted - p_clean) > 0.05  # the shift is material

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            ContaminationScheme(mode="bogus", value=0.1)
        with pytest.raises(ValueError):
            ContaminationScheme(mode="alpha0_shift")
        plan = TestPlan(temps=[35.0], times=[10.0], devices=[[5]])
        with pytest.raises(ValueError):
            base_spec(plan, contamination=ContaminationScheme(
                mode="alpha0_shift", value=0.02))  # above the true value
        with pytest.raises(ValueError):
            base_spec(plan, contamination=ContaminationScheme(
                mode="alpha1_shift", value=0.06))


class TestStudies:
    def test_report_shape_and_bookkeeping(self, plan1):
        plan = plan_with_k(plan1, 20)
        report = rmse_study(base_spec(plan, betas=(0.0, 0.5),
                                      replications=60, seed=2))
        assert report.kind == "rmse"
        assert len(report.rmse_alpha0) == 2
        assert all(u + f == 60 for u, f in zip(report.used,
                                               report.failed_fits))
        assert all(r >= 0 for r in report.rmse_combined)
        # combined error dominates each component
        for c, a, b in zip(report.rmse_combined, report.rmse_alpha0,
                           report.rmse_alpha1):
            assert c >= max(a, b) - 1e-15

    def test_worker_count_invariance(self, plan1):
        plan = plan_with_k(plan1, 20)
        spec = base_spec(plan, betas=(0.0, 0.4), replications=40, seed=3)
        reports = [rmse_study(spec, workers=w).to_json() for w in (1, 4, 8)]
        assert reports[0] == reports[1] == reports[2]
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        spec_lp = base_spec(plan, betas=(0.0, 0.4), replications=40, seed=3,
                            hypothesis=hyp)
        lp = [level_power_study(spec_lp, workers=w).to_json()
              for w in (1, 4, 8)]
        assert lp[0] == lp[1] == lp[2]

    def test_failed_fit_rate_small(self, plan1):
        plan = plan_with_k(plan1, 20)
        report = rmse_study(base_spec(plan, betas=(0.0, 1.0),
                                      replications=500, seed=4))
        for failed in report.failed_fits:
            assert failed / 500 < 0.01

    def test_contamination_effect_monotone(self, plan1):
        # the maximum likelihood error grows with the contamination strength
        plan = plan_with_k(plan1, 20)
        spec = base_spec(
            plan, betas=(0.0,), replications=400, seed=8,
            contamination=ContaminationScheme(mode="alpha0_shift",
                                              value=0.004),
        )
        reports, xs = contamination_sweep(spec, [0.0, 0.2, 0.4, 0.6, 0.8])
        values = [r.rmse_combined[0] for r in reports]
        assert xs == [0.0, 0.2, 0.4, 0.6, 0.8]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_level_close_to_nominal(self, plan1):
        plan = plan_with_k(plan1, 50)
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        spec = base_spec(plan, betas=(0.0,), replications=400, seed=9,
                         hypothesis=hyp)
        report = level_power_study(spec)
        assert report.rejection_rate[0] == pytest.approx(0.05, abs=0.035)

    def test_power_grows_with_devices(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        rates = []
        for k in (20, 60, 180):
            spec = base_spec(plan_with_k(plan1, k), betas=(0.0,),
                             replications=300, seed=10, hypothesis=hyp,
                             params=(0.004, 0.02))
            rates.append(level_power_study(spec).rejection_rate[0])
        assert rates[0] < rates[1] < rates[2]
        assert rates[-1] > 0.9

    def test_study_kind_guards(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        with pytest.raises(ValueError):
            level_power_study(base_spec(plan1))
        with pytest.raises(ValueError):
            rmse_study(base_spec(plan1, hypothesis=hyp))


class TestBatchedEngine:
    @pytest.mark.parametrize("study", ["level_power", "rmse"])
    def test_matches_serial_solver(self, study):
        spec = golden_spec(study)
        with open(GOLDEN, newline="", encoding="utf-8") as handle:
            rows = [r for r in csv.DictReader(handle) if r["study"] == study]
        assert len(rows) == spec.replications * len(spec.betas)
        alpha, stat = simulate._replication_fits(
            spec, with_z=spec.hypothesis is not None)
        z_crit = -ndtri(spec.level / 2.0)
        used = [0] * len(spec.betas)
        for row in rows:
            i = int(row["replication"])
            b = spec.betas.index(float(row["beta"]))
            if row["alpha0"] == "":
                assert np.isnan(alpha[i, b]).all(), (i, b)
                continue
            used[b] += 1
            for got, want in ((alpha[i, b, 0], row["alpha0"]),
                              (alpha[i, b, 1], row["alpha1"])):
                assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)
            if row["statistic"]:
                want = float(row["statistic"])
                assert stat[i, b] == pytest.approx(want, rel=1e-12, abs=0.0)
                assert (abs(stat[i, b]) > z_crit) == (abs(want) > z_crit)
        runner = level_power_study if spec.hypothesis else rmse_study
        report = runner(spec)
        assert list(report.used) == used
        assert list(report.failed_fits) == [spec.replications - u
                                            for u in used]
        if study == "rmse":
            assert sum(report.failed_fits) > 0

    def test_reports_do_not_depend_on_block_size(self, monkeypatch):
        docs = []
        for block in (simulate._BLOCK, 1, 7):
            monkeypatch.setattr(simulate, "_BLOCK", block)
            docs.append((rmse_study(golden_spec("rmse")).to_json(),
                         level_power_study(golden_spec("level_power"))
                         .to_json()))
        assert docs[0] == docs[1] == docs[2]

    def test_workers_below_one_refused(self, plan1):
        spec = base_spec(plan1, replications=2)
        with pytest.raises(ValueError, match="workers"):
            rmse_study(spec, workers=0)
        with pytest.raises(ValueError, match="workers"):
            contamination_sweep(dataclasses.replace(
                spec, contamination=ContaminationScheme("alpha0_shift",
                                                        value=0.002)),
                [0.5], workers=0)


class TestReportSerialization:
    def test_csv_rows(self, plan1, tmp_path):
        from oneshotdpd import write_report_csv

        plan = plan_with_k(plan1, 20)
        report = rmse_study(base_spec(plan, betas=(0.0, 0.5),
                                      replications=30, seed=12))
        path = tmp_path / "out.csv"
        write_report_csv(path, [report], [0.0])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("beta,x,rmse_alpha0,rmse_alpha1,rmse_combined,"
                            "rejection_rate,used,failed_fits")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == report.rmse_alpha0[0]

    def test_json_round_trip_is_exact(self, plan1):
        import json

        plan = plan_with_k(plan1, 20)
        report = rmse_study(base_spec(plan, betas=(0.3,), replications=20,
                                      seed=13))
        parsed = json.loads(report.to_json())
        assert parsed["rmse_alpha0"][0] == report.rmse_alpha0[0]
        assert parsed["spec"]["seed"] == 13
