import numpy as np
import pytest
from scipy.optimize import minimize

from oneshotdpd import (
    FailureTable,
    ModelParams,
    NoInteriorData,
    SolverConfig,
    TestPlan,
    dpd_objective,
    estimating_equations,
    fit,
    fit_path,
)
from oneshotdpd.io import parse_betas

from conftest import random_params, random_plan, random_table

# published estimates for the bundled 3x3 experiment
TABLE2_SPOT = {0.0: (0.00487, 0.04732), 0.5: (0.00493, 0.04695),
               1.0: (0.00496, 0.04681)}


class TestEstimatingEquations:
    def test_zero_at_fitted_optimum(self, table1):
        result = fit(table1, 0.0)
        eq = estimating_equations(table1, result.params, 0.0)
        assert np.max(np.abs(eq)) < 1e-8

    @pytest.mark.parametrize("beta", [0.0, 0.6])
    def test_gradient_factor_spot_check(self, table1, beta):
        # eq0 = (IJ K a0 / (b+1)) dObj/da0 and eq1 = (IJ K / (b+1)) dObj/da1
        params = ModelParams(0.004, 0.05)
        a0, a1 = params.alpha0, params.alpha1
        h0 = 1e-6 * a0
        h1 = 1e-6
        d0 = (dpd_objective(table1, ModelParams(a0 + h0, a1), beta)
              - dpd_objective(table1, ModelParams(a0 - h0, a1), beta)) / (2 * h0)
        d1 = (dpd_objective(table1, ModelParams(a0, a1 + h1), beta)
              - dpd_objective(table1, ModelParams(a0, a1 - h1), beta)) / (2 * h1)
        eq = estimating_equations(table1, params, beta)
        factor = 9.0 * 10.0 / (beta + 1.0)
        assert eq[0] == pytest.approx(factor * a0 * d0, rel=1e-6)
        assert eq[1] == pytest.approx(factor * d1, rel=1e-6)

    def test_gradient_consistency_random_draws(self):
        # central differences of the objective over random scenarios,
        # including unbalanced plans (mean cell size enters the factor)
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 20:
            plan = random_plan(rng, balanced=bool(rng.integers(0, 2)))
            table = random_table(rng, plan)
            params = random_params(rng)
            beta = float(rng.uniform(0.05, 2.0))
            a0, a1 = params.alpha0, params.alpha1
            h0 = 1e-6 * a0
            h1 = 1e-6
            d0 = (dpd_objective(table, ModelParams(a0 + h0, a1), beta)
                  - dpd_objective(table, ModelParams(a0 - h0, a1), beta)
                  ) / (2 * h0)
            d1 = (dpd_objective(table, ModelParams(a0, a1 + h1), beta)
                  - dpd_objective(table, ModelParams(a0, a1 - h1), beta)
                  ) / (2 * h1)
            eq = estimating_equations(table, params, beta)
            factor = plan.n_cells * plan.mean_devices / (beta + 1.0)
            expected = np.array([factor * a0 * d0, factor * d1])
            scale = np.maximum(np.abs(expected), 1e-9)
            if np.any(np.abs(expected) < 1e-12):
                continue  # avoid 0/0 comparisons on degenerate draws
            assert np.max(np.abs((np.array(eq) - expected) / scale)) < 1e-6
            checked += 1

    def test_perfect_data_fixed_point(self):
        plan = TestPlan(temps=[0.0, 1.0], times=[1.0, 2.0],
                        devices=[[8, 8], [8, 8]])
        table = FailureTable(plan=plan, counts=[[4, 6], [4, 6]])
        params = ModelParams(np.log(2.0), 0.0)
        for beta in (0.0, 0.5, 1.3):
            eq = estimating_equations(table, params, beta)
            assert np.max(np.abs(eq)) < 1e-12

    def test_boundary_guard_flags(self, table1):
        # an absurd parameter point drives F to 1 in every cell
        _, info = estimating_equations(
            table1, ModelParams(1.0, 1.0), 0.5, full_output=True
        )
        assert info["clamped"]


class TestFit:
    @pytest.mark.parametrize("beta", sorted(TABLE2_SPOT))
    def test_published_spot_values(self, table1, beta):
        result = fit(table1, beta)
        ref = TABLE2_SPOT[beta]
        assert result.converged
        assert result.params.alpha0 == pytest.approx(ref[0], abs=5e-5)
        assert result.params.alpha1 == pytest.approx(ref[1], abs=5e-5)

    def test_optimality_of_converged_fits(self, table1):
        for beta in (0.0, 0.3, 1.0, 2.0):
            result = fit(table1, beta)
            assert result.converged
            eq = estimating_equations(table1, result.params, beta)
            assert np.max(np.abs(eq)) < 1e-8 * 10 * 9

    def test_deterministic(self, table1):
        a = fit(table1, 0.4)
        b = fit(table1, 0.4)
        assert a.params == b.params
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_objective_not_above_start(self, table1):
        from oneshotdpd.estimator import _CellData, _solve

        start = ModelParams(0.02, 0.01)
        theta0 = np.array([[np.log(start.alpha0), start.alpha1]])
        _, objective, *_ = _solve(table1.frequencies[None],
                                  _CellData(table1.plan), 0.5, theta0,
                                  np.array([0]), SolverConfig())
        assert objective[0] <= dpd_objective(table1, start, 0.5) + 1e-12

    def test_no_interior_data_all_zero(self):
        plan = TestPlan(temps=[35, 45], times=[10, 20],
                        devices=[[5, 5], [5, 5]])
        table = FailureTable(plan=plan, counts=np.zeros((2, 2), dtype=int))
        with pytest.raises(NoInteriorData):
            fit(table, 0.0)

    def test_no_interior_data_all_saturated(self):
        plan = TestPlan(temps=[35, 45], times=[10, 20],
                        devices=[[5, 5], [5, 5]])
        table = FailureTable(plan=plan, counts=np.full((2, 2), 5))
        with pytest.raises(NoInteriorData):
            fit(table, 1.0)

    def test_reparameterization_invariance(self, table1):
        # a bounded solver working directly in (alpha0, alpha1) must land on
        # the same optimum as the internal log-scale Newton iteration
        for beta in (0.0, 0.5):
            inhouse = fit(table1, beta)

            def objective(a, beta=beta):
                # finite penalty instead of inf so the Fortran line search
                # can backtrack through the saturated region
                val = dpd_objective(table1, ModelParams(a[0], a[1]), beta)
                return val if np.isfinite(val) else 1e6

            def num_grad(a, beta=beta):
                h0 = 1e-7 * a[0]
                h1 = 1e-7
                g0 = (objective([a[0] + h0, a[1]])
                      - objective([a[0] - h0, a[1]])) / (2 * h0)
                g1 = (objective([a[0], a[1] + h1])
                      - objective([a[0], a[1] - h1])) / (2 * h1)
                return np.array([g0, g1])

            res = minimize(
                objective,
                np.array([0.004, 0.04]),
                jac=num_grad,
                method="L-BFGS-B",
                bounds=[(1e-6, 0.05), (-0.3, 0.3)],
                options=dict(ftol=1e-16, gtol=1e-13, maxiter=2000),
            )
            assert inhouse.params.alpha0 == pytest.approx(res.x[0], abs=1e-9)
            assert inhouse.params.alpha1 == pytest.approx(res.x[1], abs=1e-9)
            assert inhouse.objective <= res.fun + 1e-12

    def test_time_scale_equivariance(self, table1):
        # scaling every inspection time by c and alpha0 by 1/c leaves the
        # cell probabilities and objective values unchanged
        c = 10.0
        plan = table1.plan
        scaled_plan = TestPlan(plan.temps, plan.times * c, plan.devices)
        scaled = FailureTable(plan=scaled_plan, counts=table1.counts)
        beta = 0.5
        for params in (ModelParams(0.004, 0.05), ModelParams(0.01, 0.02)):
            scaled_params = ModelParams(params.alpha0 / c, params.alpha1)
            assert dpd_objective(table1, params, beta) == pytest.approx(
                dpd_objective(scaled, scaled_params, beta), rel=1e-14
            )
        base_fit = fit(table1, beta)
        scaled_fit = fit(scaled, beta)
        assert scaled_fit.params.alpha0 * c == pytest.approx(
            base_fit.params.alpha0, rel=1e-8
        )
        assert scaled_fit.params.alpha1 == pytest.approx(
            base_fit.params.alpha1, abs=1e-10
        )

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_stress_scale_equivariance(self, table1, beta):
        # stress x100: trial points whose rates overflow are rejected by the
        # line search without a numpy warning (the suite makes any escaping
        # RuntimeWarning an error), and alpha1 scales by 1/100
        plan = table1.plan
        scaled = FailureTable(TestPlan(plan.temps * 100.0, plan.times,
                                       plan.devices), table1.counts)
        base_fit = fit(table1, beta)
        scaled_fit = fit(scaled, beta)
        assert scaled_fit.params.alpha1 * 100.0 == pytest.approx(
            base_fit.params.alpha1, rel=1e-9)
        assert scaled_fit.params.alpha0 == pytest.approx(
            base_fit.params.alpha0, rel=1e-9)

    def test_covariance_attached(self, table1):
        result = fit(table1, 0.5)
        assert result.covariance is not None
        assert result.covariance.beta == 0.5
        assert result.covariance.at_params == result.params


class TestColdStartGrid:
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_table_scores_match_objective_terms(self, beta):
        # stresses where grid rates overflow (lambda t = inf, F = 1) or
        # vanish (F = 0): a side with a zero fraction must add nothing
        from oneshotdpd.divergence import _dpd_terms
        from oneshotdpd.estimator import _GRID_A0, _GRID_A1, _GridTable
        from oneshotdpd.model import _cells

        plan = TestPlan(temps=[-800.0, 5.0, 900.0], times=[1e-3, 10.0, 1e5],
                        devices=np.full((3, 3), 4))
        r = np.random.default_rng(3).integers(0, 5, size=(20, 3, 3)) / 4.0
        got = _GridTable(plan, beta).values(r)
        # the grid flattened alpha0-major, as the table lays it out
        a0 = np.repeat(_GRID_A0, _GRID_A1.size)[:, None, None]
        a1 = np.tile(_GRID_A1, _GRID_A0.size)[:, None, None]
        with np.errstate(all="ignore"):
            lt, F, S, _ = _cells(a0 * np.exp(a1 * plan.temps[:, None]),
                                 plan.times)
            want = np.array([np.sum(_dpd_terms(row, F, S, lt, beta),
                                    axis=(1, 2)) for row in r])
        want[np.isnan(want)] = np.inf
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=1e-14)


class TestFitPath:
    def test_single_element_equals_fit(self, table1):
        path = fit_path(table1, [0.3])
        single = fit(table1, 0.3)
        assert path[0].params == single.params

    def test_no_warm_start_from_unconverged_fit(self, table1):
        # three iterations leave every cold fit but beta = 4 unconverged, so
        # each entry of the path starts cold, exactly as a single fit does
        config = SolverConfig(max_iters=3)
        path = fit_path(table1, parse_betas("0:0.1:1,2,3,4"), config)
        assert not path[0].converged
        for entry in path:
            cold = fit(table1, entry.beta, config)
            assert (entry.params, entry.objective, entry.grad_norm,
                    entry.iterations, entry.converged,
                    entry.multistart_spread) == (
                cold.params, cold.objective, cold.grad_norm,
                cold.iterations, cold.converged, cold.multistart_spread)

    def test_warm_equals_cold(self, table1):
        path = fit_path(table1, [0.0, 0.1, 0.2, 0.3, 0.4])
        cold = fit(table1, 0.4)
        assert abs(path[-1].params.alpha0 - cold.params.alpha0) < 1e-8
        assert abs(path[-1].params.alpha1 - cold.params.alpha1) < 1e-8

    def test_unsorted_rejected(self, table1):
        with pytest.raises(ValueError):
            fit_path(table1, [0.5, 0.1])

    def test_empty_rejected(self, table1):
        with pytest.raises(ValueError):
            fit_path(table1, [])


class TestSolverConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=0.0)
