import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oneshotdpd import estimator, simulate
from oneshotdpd import (
    ContaminationScheme,
    ModelParams,
    SimulationSpec,
    TestPlan,
    cdf,
    cell_probs,
    contamination_sweep,
    generate_table,
    level_power_study,
    LinearHypothesis,
    rmse_study,
)
from oneshotdpd.inference import _critical_value, _z_rows, ndtri
from oneshotdpd.io import parse_betas

import oracles
from conftest import PROPERTY

# per-(replication, beta) alpha0, alpha1 and Z of the golden specs,
# recorded one replication at a time through the public API: fit_path of
# generate_table's table, then z_statistic of each converged fit
# (tests/data/record_golden.py rewrites it)
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


def k3_spec():
    """300 replications, more than one solve batch, of three-device
    cells: some fits fail, and later betas restart them cold."""
    plan = TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                    np.full((3, 3), 3))
    return SimulationSpec(
        plan=plan, true_params=ModelParams(0.004, 0.05),
        contamination=ContaminationScheme(), betas=(0.0, 0.5, 1.0),
        replications=300, seed=3)


def draw_cell00(spec, n):
    """Cell (0, 0) of the tables of replications 0 .. n-1, drawn in one
    batch (each row equals ``generate_table``'s, see
    ``test_rekeyed_draws_equal_fresh_streams``)."""
    rng = np.random.Generator(np.random.Philox(0))
    return simulate._draw_counts(spec, range(n), rng)[:, 0, 0]


def fresh_draws(spec, indices):
    """The tables of replications ``indices``, each drawn with numpy's own
    ``Generator.binomial`` from a fresh ``Philox(key=[seed, i])``."""
    return np.array([np.random.Generator(np.random.Philox(
        key=np.array([spec.seed, i], dtype=np.uint64))).binomial(
            spec.plan.devices, spec.failure_probs) for i in indices])


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

    @pytest.mark.parametrize("index", [2.5, True, "2", -1, 2**64])
    def test_index_is_checked_as_the_seed_is(self, plan1, index):
        # coerced, the first three would draw replications 2, 1 and 2;
        # the last two would reach numpy's bare OverflowError
        spec = base_spec(plan1)
        with pytest.raises(ValueError, match="replication_index"):
            generate_table(spec, index)

    @pytest.mark.parametrize("seed", [0, 2017, 2**64 - 1])
    def test_rekeyed_draws_equal_fresh_streams(self, plan1, seed):
        # one generator re-keyed for each replication, visited in shuffled
        # order, draws what a fresh Philox(key=[seed, i]) draws, so no
        # state carries over from the previous replication
        spec = base_spec(plan_with_k(plan1, 20), seed=seed,
                         contamination=ContaminationScheme("alpha0_shift",
                                                           value=0.002))
        order = np.random.default_rng(seed % 97).permutation(2000)
        rng = np.random.Generator(np.random.Philox(1))
        rng.random(5)  # a generator part-way through a stream
        got = simulate._draw_counts(spec, order, rng)
        want = [np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64))).binomial(
                spec.plan.devices, spec.failure_probs) for i in order]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            got[:50], [generate_table(spec, i).counts for i in order[:50]])

    def test_binomial_mean_matches_model(self, plan1):
        # cell (w=35, t=10) frequency converges to the model probability
        plan = plan_with_k(plan1, 20)
        spec = base_spec(plan, params=(0.005, 0.05), replications=1,
                         seed=99)
        draws = draw_cell00(spec, 100000)
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
            means.append(draw_cell00(spec, 100000).mean())
        p = cdf(ModelParams(0.004, 0.05), 35.0, 10.0)
        se = np.sqrt(p * (1 - p) * 20 / 100000)
        assert abs(means[0] - means[1]) < 3 * np.sqrt(2) * se

    @pytest.mark.parametrize("replications", [1, 150])
    def test_cell_probabilities_computed_once_per_spec(
            self, plan1, monkeypatch, replications):
        calls = []

        def counted(params, plan):
            calls.append(params)
            return cell_probs(params, plan)

        monkeypatch.setattr(simulate, "cell_probs", counted)
        spec = base_spec(plan_with_k(plan1, 20), replications=replications,
                         contamination=ContaminationScheme("alpha0_shift",
                                                           value=0.002))
        rmse_study(spec)
        assert len(calls) <= 2

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


    def test_betas_must_ascend(self, plan1):
        # as in fit_path: warm starts run along the betas, so a descending
        # tuple would change the study's numbers
        with pytest.raises(ValueError, match="ascending"):
            base_spec(plan1, betas=(1.0, 0.5, 0.0))
        assert base_spec(plan1, betas=(0.0, 0.5, 0.5)).betas == \
            (0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="non-empty"):
            base_spec(plan1, betas=())


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

    @pytest.mark.parametrize("alpha0, time", [
        # the errors square beyond the double range
        (4e297, 1e-300),
        # their squares are finite, but their sums are not
        (1e154, 1e-157)])
    def test_errors_beyond_the_double_range_give_inf(self, alpha0, time):
        plan = TestPlan([35.0, 45.0, 55.0], [time, 2 * time, 3 * time],
                        np.full((3, 3), 20))
        spec = base_spec(plan, betas=(0.0, 0.5), replications=20, seed=3,
                         params=(alpha0, 0.05))
        report = rmse_study(spec)
        assert all(report.used)
        assert report.rmse_alpha0 == report.rmse_combined == (np.inf,) * 2
        assert np.isfinite(report.rmse_alpha1).all()
        swept = dataclasses.replace(spec, contamination=ContaminationScheme(
            "alpha0_shift", (0, 0), alpha0 / 4))
        for sweep in contamination_sweep(swept, [0.0, 0.5])[0]:
            assert sweep.rmse_alpha0 == (np.inf,) * 2

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
        alpha, stat = simulate._replication_fits(spec)
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
        for block in (simulate._BLOCK, 1, 7, 64):
            monkeypatch.setattr(simulate, "_BLOCK", block)
            docs.append((rmse_study(golden_spec("rmse")).to_json(),
                         level_power_study(golden_spec("level_power"))
                         .to_json(),
                         rmse_study(k3_spec()).to_json()))
        assert all(doc == docs[0] for doc in docs)

    def test_one_newton_batch_per_beta(self, monkeypatch):
        calls = []
        newton = estimator._newton

        def spy(theta0, *args):
            calls.append(len(theta0))
            return newton(theta0, *args)

        monkeypatch.setattr(estimator, "_newton", spy)
        spec = dataclasses.replace(golden_spec("level_power"),
                                   replications=150)
        assert len(spec.betas) == 6
        level_power_study(spec)
        assert calls == [150] * 6

    def test_line_search_batches_its_halvings(self, monkeypatch):
        # one kernel call per halving made 5,317 calls on this study
        calls = []
        kernel = estimator._eval_theta

        def spy(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(estimator, "_eval_theta", spy)
        rmse_study(k3_spec())
        assert len(calls) <= 1300

    @pytest.mark.parametrize("study", ["rmse", "level_power"])
    def test_sweep_reports_equal_direct_studies(self, plan1, study):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        spec = base_spec(
            plan1, betas=(0.0, 0.5), replications=30,
            contamination=ContaminationScheme("alpha1_shift", (1, 2), 0.02),
            hypothesis=hyp if study == "level_power" else None)
        runner = level_power_study if study == "level_power" else rmse_study
        reports, strengths = contamination_sweep(spec, [0.0, 0.3, 0.7])
        for report, s in zip(reports, strengths):
            scheme = ContaminationScheme() if s == 0.0 else \
                ContaminationScheme("alpha1_shift", (1, 2), (1.0 - s) * 0.05)
            direct = runner(dataclasses.replace(spec, contamination=scheme))
            assert report.kind == study
            assert report.to_json() == direct.to_json()

    def test_workers_below_one_refused(self, plan1):
        spec = base_spec(plan1, replications=2)
        with pytest.raises(ValueError, match="workers"):
            rmse_study(spec, workers=0)
        with pytest.raises(ValueError, match="workers"):
            contamination_sweep(dataclasses.replace(
                spec, contamination=ContaminationScheme("alpha0_shift",
                                                        value=0.002)),
                [0.5], workers=0)

    @staticmethod
    def run_with_workers(plan, study, workers):
        spec = base_spec(plan, replications=2, contamination=(
            ContaminationScheme("alpha0_shift", value=0.002)))
        if study == "rmse":
            return rmse_study(spec, workers=workers).to_json()
        if study == "level_power":
            return level_power_study(dataclasses.replace(
                spec, hypothesis=LinearHypothesis(np.array([0.0, 1.0]), 0.05)),
                workers=workers).to_json()
        return contamination_sweep(spec, [0.5], workers=workers)[0][0].to_json()

    @pytest.mark.parametrize("study", ["rmse", "level_power", "sweep"])
    @pytest.mark.parametrize("workers", [True, 1.5, "2"])
    def test_workers_checked_as_a_count(self, plan1, study, workers):
        # read as numbers, True and 1.5 would pass ">= 1" and "2" would
        # raise a bare TypeError
        with pytest.raises(ValueError, match="workers must be an integer"):
            self.run_with_workers(plan1, study, workers)

    @pytest.mark.parametrize("study", ["rmse", "level_power", "sweep"])
    def test_whole_float_workers_accepted(self, plan1, study):
        assert self.run_with_workers(plan1, study, np.float64(2.0)) == \
            self.run_with_workers(plan1, study, 1)

    def test_sweep_checks_every_strength_before_a_study(self, plan1,
                                                        monkeypatch):
        def study(spec):
            raise AssertionError("the study ran")

        monkeypatch.setattr(simulate, "_study", study)
        spec = base_spec(plan1, replications=2, contamination=(
            ContaminationScheme("alpha0_shift", value=0.002)))
        with pytest.raises(ValueError, match="alpha0_shift requires 0 < "
                                             "value <= alpha0, got 0.0"):
            contamination_sweep(spec, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="sweep strengths must be "
                                             "numbers"):
            contamination_sweep(spec, [0.0, 10**400])
        with pytest.raises(ValueError, match="sweep requires an "
                                             "alpha0_shift or alpha1_shift"):
            contamination_sweep(base_spec(plan1, replications=2), [0.5])
        with pytest.raises(ValueError, match="sweep parameter must be "
                                             "strength or devices, got "
                                             "'noise'"):
            simulate._sweep_specs(spec, "noise", [1])


class TestSpecSeed:
    @pytest.mark.parametrize("seed", [7.9, True, np.bool_(True), "7",
                                      float("nan"), float("inf"), None],
                             ids=["7.9", "True", "bool_", "str", "nan",
                                  "inf", "None"])
    def test_non_integral_seed_refused(self, plan1, seed):
        with pytest.raises(ValueError, match="seed"):
            base_spec(plan1, seed=seed)

    @pytest.mark.parametrize("seed", [7, 7.0, np.uint64(7), np.float64(7)],
                             ids=["int", "float", "uint64", "float64"])
    def test_integral_seed_stored_as_int(self, plan1, seed):
        spec = base_spec(plan1, replications=3, seed=seed)
        assert type(spec.seed) is int and spec.seed == 7
        assert rmse_study(spec).to_json() == rmse_study(
            base_spec(plan1, replications=3, seed=7)).to_json()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, plan1, seed):
        with pytest.raises(ValueError, match="64 bits"):
            base_spec(plan1, seed=seed)


class TestSpecIntegers:
    @pytest.mark.parametrize("replications", [2.5, True, "3", None])
    def test_non_integral_replications_refused(self, plan1, replications):
        with pytest.raises(ValueError, match="replications must be an int"):
            base_spec(plan1, replications=replications)

    @pytest.mark.parametrize("replications", [0, -2])
    def test_replications_below_one_refused(self, plan1, replications):
        with pytest.raises(ValueError, match="replications must be >= 1"):
            base_spec(plan1, replications=replications)

    @pytest.mark.parametrize("cell", [(3, 0), (0, 3)])
    def test_cell_outside_the_plan_refused(self, plan1, cell):
        with pytest.raises(ValueError, match="contaminated cell index "
                                             "outside the plan"):
            base_spec(plan1, contamination=ContaminationScheme(
                "alpha0_shift", cell, 0.001))

    def test_integral_replications_stored_as_int(self, plan1):
        spec = base_spec(plan1, replications=3.0)
        assert type(spec.replications) is int and spec.replications == 3

    @pytest.mark.parametrize("cell", [(0.9, 0), (0, True), ("1", 0),
                                      (0, 1, 2)])
    def test_bad_cell_refused(self, cell):
        with pytest.raises(ValueError):
            ContaminationScheme("alpha0_shift", cell, 0.001)

    def test_integral_cell_stored_as_ints(self):
        scheme = ContaminationScheme("alpha0_shift", (1.0, np.int64(2)),
                                     0.001)
        assert scheme.cell == (1, 2)
        assert all(type(c) is int for c in scheme.cell)


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

    def test_csv_refuses_unpaired_x_values(self, plan1, tmp_path):
        # zip paired the first report with the one x value and dropped
        # the second; the refusal comes before the file is opened
        report = rmse_study(base_spec(plan_with_k(plan1, 20), betas=(0.0, 0.5),
                                      replications=5, seed=12))
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        for x_values in ([0.1], [0.1, 0.2, 0.3]):
            with pytest.raises(ValueError, match="one value per report"):
                simulate.write_report_csv(path, [report, report], x_values)
        assert path.read_text() == "kept\n"

    def test_json_round_trip_is_exact(self, plan1):
        plan = plan_with_k(plan1, 20)
        report = rmse_study(base_spec(plan, betas=(0.3,), replications=20,
                                      seed=13))
        parsed = json.loads(report.to_json())
        assert parsed["rmse_alpha0"][0] == report.rmse_alpha0[0]
        assert parsed["spec"]["seed"] == 13


@st.composite
def specs(draw):
    """Specs on balanced and unbalanced plans, in every contamination
    mode, with and without a hypothesis."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    temps = draw(st.lists(st.floats(-50.0, 80.0), min_size=shape[0],
                          max_size=shape[0], unique=True))
    times = draw(st.lists(st.floats(0.1, 100.0), min_size=shape[1],
                          max_size=shape[1]))
    n_cells = shape[0] * shape[1]
    counts = st.integers(1, 500)
    if draw(st.booleans()):
        devices = np.full(shape, draw(counts))
    else:
        devices = np.reshape(draw(st.lists(counts, min_size=n_cells,
                                           max_size=n_cells)), shape)
    truth = ModelParams(draw(st.floats(1e-5, 0.05)),
                        draw(st.floats(-0.05, 0.05)))
    mode = draw(st.sampled_from(["none", "alpha0_shift", "alpha1_shift"]))
    cell = (draw(st.integers(0, shape[0] - 1)),
            draw(st.integers(0, shape[1] - 1)))
    value = {"none": None,
             "alpha0_shift": truth.alpha0 * draw(st.floats(0.01, 1.0)),
             "alpha1_shift": truth.alpha1 - draw(st.floats(0.0, 0.05))}[mode]
    betas = sorted(draw(st.lists(st.one_of(st.just(0.0),
                                           st.floats(0.01, 3.0)),
                                 min_size=1, max_size=4)))
    hypothesis, level = None, 0.05
    if draw(st.booleans()):
        m = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
                 .filter(any))
        hypothesis = LinearHypothesis(np.array(m), draw(st.floats(-1.0, 1.0)))
        level = draw(st.floats(0.001, 0.5))
    return SimulationSpec(
        TestPlan(temps, times, devices), truth,
        ContaminationScheme(mode, cell, value),
        tuple(betas), draw(st.integers(1, 1000)),
        draw(st.integers(0, 2**64 - 1)), hypothesis, level)


class TestSpecCodec:
    @PROPERTY
    @given(specs())
    def test_from_dict_inverts_to_dict(self, spec):
        # compared as dicts: == on the specs' plan arrays is ambiguous
        doc = spec.to_dict()
        assert SimulationSpec.from_dict(
            json.loads(json.dumps(doc))).to_dict() == doc

    def test_level_without_hypothesis_refused(self, plan1):
        # to_dict writes the level inside the hypothesis, so from_dict
        # would return 0.05 for this spec
        with pytest.raises(ValueError, match="requires a hypothesis"):
            dataclasses.replace(base_spec(plan1), level=0.2)
        spec = dataclasses.replace(base_spec(plan1), level=0.05)
        assert SimulationSpec.from_dict(spec.to_dict()).level == 0.05


def branch_spec(case):
    """A spec whose cells take one branch of numpy's ``random_binomial``."""
    temps, times, devices, params = {
        # rates underflow at stress 100: F = 1e-300, 1e-297, 0, 0
        "p0": ([0.0, 100.0], [1.0, 1000.0], 20, (1e-300, -10.0)),
        # F = 1 at stress 0, drawn as K - X with X from 1 - F = 0
        "p1": ([-1000.0, 0.0], [1.0, 2.0], 40, (1e3, 0.01)),
        # F = 0.5 (kept) and 0.75 (flipped): K F = 30 exactly, inversion
        "half": ([0.0, 1.0], [1.0, 2.0], 60, (math.log(2.0), 0.0)),
        # one cell with K F = 61 x 0.5 = 30.5: BTPE
        "btpe": ([0.0, 1.0], [1.0, 2.0], [[61, 60], [60, 60]],
                 (math.log(2.0), 0.0)),
        # 1 to 150 devices, every K min(F, 1 - F) between 0.2 and 28.4
        "unbalanced": ([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                       [[1, 70, 3], [90, 2, 60], [7, 90, 150]],
                       (0.004, 0.05)),
    }[case]
    plan = TestPlan(temps, times, np.broadcast_to(devices, (len(temps),
                                                            len(times))))
    return base_spec(plan, seed=29, params=params)


class TestNumpyDraws:
    """Every row of :func:`simulate._draw_counts` is numpy's
    ``Generator.binomial`` of a fresh stream, bit for bit, on every branch
    of numpy's ``random_binomial``; the lock-step inversion equals a
    transcription of numpy's loop on any uniforms, the ones sampling never
    reaches included."""

    @PROPERTY
    @given(specs(), st.lists(st.integers(0, 2**64 - 1), min_size=1,
                             max_size=8))
    def test_rows_equal_numpy(self, spec, indices):
        got = simulate._draw_counts(spec, indices,
                                    np.random.Generator(np.random.Philox(0)))
        np.testing.assert_array_equal(got, fresh_draws(spec, indices))

    @pytest.mark.parametrize("case", ["p0", "p1", "half", "btpe",
                                      "unbalanced"])
    def test_branch_equals_numpy(self, case):
        spec = branch_spec(case)
        F, n = spec.failure_probs, spec.plan.devices
        inversion = spec._inversion
        if case == "btpe":
            assert inversion is None
        else:
            assert inversion.live.size == np.count_nonzero(F)
            assert (n * np.minimum(F, 1.0 - F)).max() <= 30.0
        if case == "p0":
            assert inversion.live.size == 2
        if case == "p1":
            assert (F == 1.0).sum() == 2
        if case == "half":
            assert (n * F == 30.0).sum() == 2
            assert not inversion.flipped[F.ravel() == 0.5].any()
        indices = range(300)
        got = simulate._draw_counts(spec, indices,
                                    np.random.Generator(np.random.Philox(0)))
        np.testing.assert_array_equal(got, fresh_draws(spec, indices))

    @pytest.mark.parametrize("case", ["half", "unbalanced", "p1"])
    def test_oracle_draws_what_numpy_draws(self, case):
        spec = branch_spec(case)
        for i in range(40):
            bitgen = np.random.Philox(
                key=np.array([spec.seed, i], dtype=np.uint64))

            def next_double():
                return (int(bitgen.random_raw()) >> 11) * 2.0**-53

            got = [oracles.numpy_binomial(n, p, next_double) for n, p in zip(
                spec.plan.devices.ravel().tolist(),
                spec.failure_probs.ravel().tolist())]
            assert got == fresh_draws(spec, [i])[0].ravel().tolist()

    def test_lock_step_equals_oracle_on_injected_uniforms(self):
        spec = golden_spec("level_power")
        inversion = spec._inversion
        n = inversion.devices.tolist()
        p = spec.failure_probs.ravel()[inversion.live].tolist()
        top = 1.0 - 2.0**-53
        # every cell at once at the ends of [0, 1) and exactly at, or one
        # ulp above, each cell's px[0] = P(X = 0); then each cell at, and
        # one ulp either side of, its table's partial sums, where a wrong
        # px entry moves a draw; then random rows
        edges = [0.0, 2.0**-53, top, *inversion.px[0],
                 *np.nextafter(inversion.px[0], 1.0)]
        sums = np.minimum(np.cumsum(inversion.px, axis=0), top)
        uniforms = np.vstack([np.full((len(edges), len(n)),
                                      np.array(edges)[:, None]),
                              sums, np.nextafter(sums, 0.0),
                              np.minimum(np.nextafter(sums, 1.0), top),
                              np.random.default_rng(5).random((200, len(n)))])
        x, redraw = simulate._invert(inversion, uniforms)
        counts = np.where(inversion.flipped, inversion.devices - x, x)
        for row, us in enumerate(uniforms.tolist()):
            redrawn = False
            for j, u in enumerate(us):
                used = []

                def next_double(u=u):
                    used.append(u)
                    return u if len(used) == 1 else 0.5

                want = oracles.numpy_binomial(n[j], p[j], next_double)
                if len(used) == 1:
                    assert counts[row, j] == want, (row, j)
                redrawn |= len(used) > 1
            assert redraw[row] == redrawn, row
        # the top uniform outlasts some cell's px table: numpy redraws it
        assert redraw[edges.index(top)]


class TestExactOracle:
    """Studies against the exact distribution of their tables.

    With K = 2 in each of the six cells there are 3^6 = 729 count tables,
    so every table's fit, its Z statistic and its product-binomial
    probability are known exactly, and a study's counts and means are
    draws whose mean and standard error are known too.
    """

    PLAN = TestPlan([35.0, 55.0], [10.0, 20.0, 30.0], np.full((2, 3), 2))
    TRUTH = ModelParams(0.004, 0.05)
    HYP = LinearHypothesis(np.array([0.0, 1.0]), 0.05)
    BETAS = (0.0, 0.5, 1.0)
    N, SEED = 1000, 7

    def enumerate_tables(self):
        """Every table (729, 2, 3), its probability, its estimate (729,
        betas, 2) and its Z per beta (729, betas), NaN where the fit or
        the test is dropped."""
        import math

        counts = np.indices((3,) * 6).reshape(6, -1).T.reshape(-1, 2, 3)
        F, S, _ = cell_probs(self.TRUTH, self.PLAN)
        comb = np.array([math.comb(2, n) for n in range(3)])
        prob = np.prod(comb[counts] * F**counts * S ** (2 - counts),
                       axis=(1, 2))
        alpha = np.full((len(counts), len(self.BETAS), 2), np.nan)
        z = np.full((len(counts), len(self.BETAS)), np.nan)
        interior = np.flatnonzero(((counts > 0) & (counts < 2)).any(
            axis=(1, 2)))
        fits = estimator._fit_rows(counts[interior] / 2.0, self.PLAN,
                                   self.BETAS)
        est = fits["alpha"]
        for b, beta in enumerate(self.BETAS):
            ok = fits["converged"][:, b]
            alpha[interior[ok], b] = est[ok, b]
            z[interior[ok], b] = _z_rows(est[ok, b], self.PLAN, beta,
                                         self.HYP)
        return counts, prob, alpha, z

    def drawn_tables(self, spec, counts):
        """The index among the 729 of each table the study draws."""
        drawn = simulate._draw_counts(
            spec, range(self.N), np.random.Generator(np.random.Philox(0)))
        # a table's index among the 729 is its counts read in base 3
        index = drawn.reshape(self.N, -1) @ 3 ** np.arange(5, -1, -1)
        assert (counts[index] == drawn).all()
        return index

    def test_study_matches_exact_distribution(self):
        counts, prob, _, z = self.enumerate_tables()
        assert prob.sum() == pytest.approx(1.0, rel=1e-12)
        n = self.N
        spec = SimulationSpec(self.PLAN, self.TRUTH, ContaminationScheme(),
                              self.BETAS, n, self.SEED, self.HYP)
        _, stat = simulate._replication_fits(spec)
        index = self.drawn_tables(spec, counts)
        # (a) each replication's Z is its table's, byte for byte
        assert stat.tobytes() == z[index].tobytes()
        # (b) the study's counts lie within 4 binomial SEs of their means
        z_crit = _critical_value(spec.level)
        for b in range(len(self.BETAS)):
            usable = ~np.isnan(z[:, b])
            rejects = np.abs(z[:, b]) > z_crit
            for p, got in ((prob[usable].sum(),
                            np.count_nonzero(~np.isnan(stat[:, b]))),
                           (prob[rejects].sum(),
                            np.count_nonzero(np.abs(stat[:, b]) > z_crit))):
                assert abs(got - n * p) <= 4.0 * np.sqrt(n * p * (1 - p))

    def test_rmse_study_matches_exact_distribution(self):
        counts, prob, alpha, _ = self.enumerate_tables()
        n = self.N
        spec = SimulationSpec(self.PLAN, self.TRUTH, ContaminationScheme(),
                              self.BETAS, n, self.SEED)
        est, _ = simulate._replication_fits(spec)
        index = self.drawn_tables(spec, counts)
        # (a) each replication's estimate is its table's, byte for byte
        assert est.tobytes() == alpha[index].tobytes()
        report = rmse_study(spec)
        truth = self.TRUTH.as_array()
        for b in range(len(self.BETAS)):
            usable = ~np.isnan(alpha[:, b, 0])
            p = prob[usable].sum()
            # (b) the usable count lies within 4 binomial SEs of its mean
            used = report.used[b]
            assert abs(used - n * p) <= 4.0 * np.sqrt(n * p * (1 - p))
            # (c) given `used` usable fits, each mean squared error is a
            # mean of that many draws of e^2 conditional on a usable fit:
            # within 4 exact SEs of E[e^2 | usable]
            e2 = (alpha[usable, b] - truth) ** 2
            w = prob[usable] / p
            for k, rmse in enumerate((report.rmse_alpha0[b],
                                      report.rmse_alpha1[b])):
                mean = w @ e2[:, k]
                var = w @ e2[:, k] ** 2 - mean**2
                assert abs(rmse**2 - mean) <= 4.0 * np.sqrt(var / used)
