import math

import numpy as np
import pytest

from oneshotdpd import (
    FailureTable,
    ModelParams,
    ProbabilityVector,
    TestPlan,
    cdf,
    hazard,
    mean_lifetime,
    observed_probs,
    pdf,
    reliability,
    theoretical_probs,
)

from conftest import random_params, random_plan, random_table

# high-precision reference values (30-digit evaluation of the closed forms)
HAZARD_005_35 = 0.0287730133800286521843324985242
CDF_005_35_10 = 0.250036045145183115143151030096
PDF_005_35_10 = 0.0215787229075768502909132646106
HAZARD_TABLE2 = 0.0158964201661607039216076364303  # (0.00487, 0.04732) at w=25


class TestHazard:
    def test_reference_value(self):
        p = ModelParams(0.005, 0.05)
        assert hazard(p, 35.0) == pytest.approx(HAZARD_005_35, rel=1e-14)

    def test_zero_stress(self):
        assert hazard(ModelParams(0.005, 0.05), 0.0) == 0.005

    def test_fitted_scale_value(self):
        p = ModelParams(0.00487, 0.04732)
        assert hazard(p, 25.0) == pytest.approx(HAZARD_TABLE2, rel=1e-14)


class TestDistribution:
    def test_cdf_at_zero(self):
        assert cdf(ModelParams(0.37, -0.2), 12.0, 0.0) == 0.0

    def test_cdf_reference_value(self):
        p = ModelParams(0.005, 0.05)
        assert cdf(p, 35.0, 10.0) == pytest.approx(CDF_005_35_10, rel=1e-14)

    def test_pdf_at_zero_equals_rate(self):
        p = ModelParams(0.005, 0.05)
        assert pdf(p, 35.0, 0.0) == hazard(p, 35.0)

    def test_pdf_reference_value(self):
        p = ModelParams(0.005, 0.05)
        assert pdf(p, 35.0, 10.0) == pytest.approx(PDF_005_35_10, rel=1e-14)

    def test_pdf_is_cdf_derivative(self):
        p = ModelParams(0.005, 0.05)
        h = 1e-5
        for t in (0.5, 10.0, 40.0):
            fd = (cdf(p, 35.0, t + h) - cdf(p, 35.0, t - h)) / (2 * h)
            assert fd == pytest.approx(pdf(p, 35.0, t), rel=1e-6)

    def test_cdf_monotone_in_time_and_params(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_params(rng)
            w = rng.uniform(0.0, 60.0)
            t = np.sort(rng.uniform(0.1, 80.0, size=4))
            vals = [cdf(p, w, ti) for ti in t]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            bigger = ModelParams(p.alpha0 * 1.5, p.alpha1)
            assert cdf(bigger, w, t[0]) > vals[0]

    def test_reliability_complements_cdf(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = random_params(rng)
            w = rng.uniform(0.0, 60.0)
            t = rng.uniform(0.0, 80.0)
            assert abs(reliability(p, w, t) + cdf(p, w, t) - 1.0) <= 1e-15

    def test_reliability_at_zero(self):
        assert reliability(ModelParams(0.1, 0.0), 5.0, 0.0) == 1.0

    def test_negative_time_rejected(self):
        p = ModelParams(0.1, 0.0)
        for fn in (cdf, pdf, reliability):
            with pytest.raises(ValueError):
                fn(p, 1.0, -1.0)


class TestMeanLifetime:
    def test_reciprocal_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = random_params(rng)
            w = rng.uniform(0.0, 60.0)
            assert abs(mean_lifetime(p, w) * hazard(p, w) - 1.0) <= 1e-15

    def test_unit_rate(self):
        assert mean_lifetime(ModelParams(1.0, 0.0), 17.0) == 1.0


class TestParamsValidation:
    @pytest.mark.parametrize("alpha0", [0.0, -0.1, math.nan, math.inf])
    def test_bad_alpha0(self, alpha0):
        with pytest.raises(ValueError):
            ModelParams(alpha0, 0.1)

    @pytest.mark.parametrize("alpha1", [math.nan, math.inf])
    def test_bad_alpha1(self, alpha1):
        with pytest.raises(ValueError):
            ModelParams(0.1, alpha1)


class TestPlanValidation:
    def test_duplicate_temps_rejected(self):
        with pytest.raises(ValueError):
            TestPlan(temps=[35, 35], times=[10], devices=[[5], [5]])

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError):
            TestPlan(temps=[35], times=[0.0], devices=[[5]])

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            TestPlan(temps=[35], times=[10], devices=[[0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TestPlan(temps=[35, 45], times=[10], devices=[[5]])

    def test_counts_above_devices_rejected(self):
        plan = TestPlan(temps=[35], times=[10], devices=[[5]])
        with pytest.raises(ValueError):
            FailureTable(plan=plan, counts=[[6]])


class TestPlanProperties:
    def test_mean_devices_cached(self):
        plan = TestPlan(temps=[35, 45], times=[10, 20, 30],
                        devices=[[5, 6, 7], [8, 9, 11]])
        assert plan.mean_devices == plan.devices.mean()
        # computed once, then served from the instance
        assert vars(plan)["mean_devices"] == plan.devices.mean()


class TestProbabilityVectors:
    def test_single_cell_theoretical(self):
        plan = TestPlan(temps=[35], times=[10], devices=[[4]])
        p = ModelParams(0.005, 0.05)
        vec = theoretical_probs(p, plan)
        F = cdf(p, 35.0, 10.0)
        assert vec.entries == pytest.approx([F, 1 - F], abs=1e-15)

    def test_table1_cell_entry(self, plan1):
        # failure entry of the (w=35, t=10) cell is F/9
        vec = theoretical_probs(ModelParams(0.005, 0.05), plan1)
        assert vec.entries[0] == pytest.approx(CDF_005_35_10 / 9.0, rel=1e-13)

    def test_observed_table1_first_cell(self, table1):
        vec = observed_probs(table1)
        assert vec.entries[0] == pytest.approx(3 / 90)
        assert vec.entries[1] == pytest.approx(7 / 90)

    def test_all_failure_cell(self):
        plan = TestPlan(temps=[35, 45], times=[10], devices=[[4], [4]])
        table = FailureTable(plan=plan, counts=[[4], [0]])
        vec = observed_probs(table)
        assert vec.entries[:2] == pytest.approx([0.5, 0.0])
        assert vec.entries[2:] == pytest.approx([0.0, 0.5])

    def test_random_vectors_satisfy_invariants(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            plan = random_plan(rng)
            params = random_params(rng)
            for vec in (
                theoretical_probs(params, plan),
                observed_probs(random_table(rng, plan)),
            ):
                e = vec.entries
                assert np.all(e >= 0.0) and np.all(e <= 1.0)
                assert abs(e.sum() - 1.0) <= 1e-12
                pair = e[0::2] + e[1::2]
                assert np.max(np.abs(pair - 1.0 / plan.n_cells)) <= 1e-12

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            ProbabilityVector(entries=[0.6, 0.6])
        with pytest.raises(ValueError):
            ProbabilityVector(entries=[0.7, 0.1, 0.1, 0.1])
