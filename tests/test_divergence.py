import numpy as np
import pytest

from oneshotdpd import (
    FailureTable,
    ModelParams,
    TestPlan,
    cdf,
    dpd_objective,
    estimating_equations,
)

from conftest import random_params
from oracles import (
    dpd,
    dpd_split,
    kl_divergence,
    log_likelihood,
    observed_probs,
    theoretical_probs,
)


def random_simplex_pair(rng, size):
    p = rng.dirichlet(np.ones(size))
    q = rng.dirichlet(np.ones(size))
    return p, q


class TestDpdVector:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(0)
        p, _ = random_simplex_pair(rng, 6)
        for beta in (0.0, 0.3, 1.0, 2.5):
            assert dpd(p, p, beta) == pytest.approx(0.0, abs=1e-15)

    def test_hand_expanded_beta_one(self):
        # sum((q - p)^2) for beta = 1
        value = dpd([0.5, 0.5], [0.25, 0.75], 1.0)
        assert value == pytest.approx(0.125, rel=1e-14)

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, q = random_simplex_pair(rng, 8)
            assert abs(dpd(p, q, 1e-6) - dpd(p, q, 0.0)) < 1e-5
            assert abs(dpd(p, q, 1e-3) - kl_divergence(p, q)) < 1e-2
            assert abs(dpd(p, q, 1e-5) - kl_divergence(p, q)) < 1e-4

    def test_nonnegative_on_simplex_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            size = int(rng.integers(2, 10))
            p, q = random_simplex_pair(rng, size)
            beta = float(rng.uniform(0.0, 3.0))
            assert dpd(p, q, beta) >= 0.0

    def test_positive_when_different(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = random_simplex_pair(rng, 6)
            if np.max(np.abs(p - q)) > 1e-6:
                for beta in (0.0, 0.5, 1.0):
                    assert dpd(p, q, beta) > 0.0

    def test_zero_model_mass_gives_infinity(self):
        assert kl_divergence([0.5, 0.5], [0.0, 1.0]) == np.inf

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            dpd([0.5, 0.5], [0.5, 0.5], -0.1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dpd([0.5, 0.5], [0.2, 0.3, 0.5], 0.5)

    def test_accepts_probability_vector_objects(self, table1):
        params = ModelParams(0.005, 0.05)
        p = observed_probs(table1)
        q = theoretical_probs(params, table1.plan)
        assert dpd(p, q, 0.5) == pytest.approx(
            dpd(p.entries, q.entries, 0.5), rel=1e-15
        )


class TestLogLikelihoodIdentity:
    def test_kl_equals_shifted_loglik_table1(self, table1):
        # d_KL(observed, model) = (s - logL) / (IJK) with s data-only
        params = ModelParams(0.005, 0.05)
        n = table1.counts
        K = table1.plan.devices
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sum(np.where(n > 0, n * np.log(n / K), 0.0)) + np.sum(
                np.where(n < K, (K - n) * np.log((K - n) / K), 0.0)
            )
        lhs = dpd_objective(table1, params, 0.0)
        rhs = (s - log_likelihood(table1, params)) / (9 * 10)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        vec_kl = kl_divergence(
            observed_probs(table1), theoretical_probs(params, table1.plan)
        )
        assert vec_kl == pytest.approx(rhs, abs=1e-12)

    def test_all_failures_saturated_loglik(self):
        plan = TestPlan(temps=[35], times=[10], devices=[[6]])
        table = FailureTable(plan=plan, counts=[[6]])
        # with F -> 1 the log-likelihood tends to 0 from below
        assert log_likelihood(table, ModelParams(5.0, 0.0)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_impossible_data_is_minus_infinity(self):
        plan = TestPlan(temps=[60.0], times=[10], devices=[[6]])
        table = FailureTable(plan=plan, counts=[[3]])
        # the rate underflows to exactly zero here, so observed failures
        # are impossible under the parameters
        assert log_likelihood(table, ModelParams(1e-320, -1.0)) == -np.inf

    def test_huge_rate_stays_finite(self):
        # log survival is evaluated as -lambda t exactly, so survivors under
        # an enormous (but representable) rate give a finite, very negative
        # value rather than a spurious -inf
        plan = TestPlan(temps=[35], times=[10], devices=[[6]])
        table = FailureTable(plan=plan, counts=[[0]])
        value = log_likelihood(table, ModelParams(1e6, 1.0))
        assert value < -1e20 and np.isfinite(value)

    def test_better_fit_has_larger_loglik(self, table1):
        good = ModelParams(0.00487, 0.04732)
        bad = ModelParams(0.1, 0.1)
        assert log_likelihood(table1, good) > log_likelihood(table1, bad)

    def test_kl_objective_matches_solver_objective(self):
        # all-failure cells at a large rate: S underflows to 0 there, so
        # log S is -inf while the exact log survival -lambda t stays finite
        from oneshotdpd.estimator import _eval_theta

        plan = TestPlan(temps=[35, 45], times=[10, 20],
                        devices=[[10, 10], [10, 10]])
        table = FailureTable(plan=plan, counts=[[3, 10], [10, 10]])
        params = ModelParams(5.0, 0.1)
        value = dpd_objective(table, params, 0.0)
        # the solver kernel is rows-first: theta (rows, 2), r (rows, C)
        theta = np.array([[np.log(params.alpha0), params.alpha1]])
        solver = float(_eval_theta(theta, table.frequencies.reshape(1, -1),
                                   table.plan, 0.0)[0][0, 0])
        assert np.isfinite(value)
        assert value == pytest.approx(solver, rel=1e-12, abs=0.0)


class TestObjectiveRelations:
    def test_affine_relation_to_vector_dpd(self, table1):
        # dpd_objective - (IJ)^beta * dpd(observed, model) does not depend
        # on the parameters
        rng = np.random.default_rng(4)
        p_hat = observed_probs(table1)
        for beta in (0.2, 0.5, 1.0, 2.0):
            diffs = []
            for _ in range(10):
                params = random_params(rng)
                q = theoretical_probs(params, table1.plan)
                diffs.append(
                    dpd_objective(table1, params, beta)
                    - table1.plan.n_cells**beta * dpd(p_hat, q, beta)
                )
            assert np.max(diffs) - np.min(diffs) <= 1e-12

    def test_beta_zero_objective_equals_vector_kl(self, table1):
        rng = np.random.default_rng(5)
        p_hat = observed_probs(table1)
        for _ in range(5):
            params = random_params(rng)
            q = theoretical_probs(params, table1.plan)
            assert dpd_objective(table1, params, 0.0) == pytest.approx(
                kl_divergence(p_hat, q), abs=1e-13
            )

    def test_argmin_equality_grid_scan(self, table1):
        # scan a 21 x 21 parameter grid around the optimum: the objective
        # and the vector divergence must rank it identically
        beta = 0.5
        p_hat = observed_probs(table1)
        a0_grid = np.linspace(0.003, 0.007, 21)
        a1_grid = np.linspace(0.035, 0.06, 21)
        obj_vals = np.empty((21, 21))
        vec_vals = np.empty((21, 21))
        for i, a0 in enumerate(a0_grid):
            for j, a1 in enumerate(a1_grid):
                params = ModelParams(a0, a1)
                obj_vals[i, j] = dpd_objective(table1, params, beta)
                vec_vals[i, j] = dpd(
                    p_hat, theoretical_probs(params, table1.plan), beta
                )
        assert np.unravel_index(obj_vals.argmin(), obj_vals.shape) == \
            np.unravel_index(vec_vals.argmin(), vec_vals.shape)

    def test_perfect_fit_is_stationary(self):
        # rate log(2) with inspection times 1 and 2 gives failure
        # probabilities exactly 1/2 and 3/4: counts K * F are integers and
        # the estimating equations vanish through their (K F - n) factor
        plan = TestPlan(temps=[0.0, 1.0], times=[1.0, 2.0],
                        devices=[[4, 4], [4, 4]])
        params = ModelParams(np.log(2.0), 0.0)
        table = FailureTable(plan=plan, counts=[[2, 3], [2, 3]])
        for beta in (0.0, 0.4, 1.0):
            eq = estimating_equations(table, params, beta)
            assert np.max(np.abs(eq)) < 1e-10


class TestDpdSplit:
    def test_parts_sum_to_vector_divergence(self, table1):
        params = ModelParams(0.005, 0.05)
        p_hat = observed_probs(table1)
        for beta in (0.3, 0.5, 1.0, 2.0):
            part_fail, part_surv = dpd_split(table1, params, beta)
            total = dpd(p_hat, theoretical_probs(params, table1.plan), beta)
            assert part_fail + part_surv == pytest.approx(total, abs=1e-12)

    def test_single_cell_all_failures(self):
        plan = TestPlan(temps=[35], times=[10], devices=[[8]])
        table = FailureTable(plan=plan, counts=[[8]])
        params = ModelParams(0.02, 0.01)
        part_fail, part_surv = dpd_split(table, params, 0.5)
        F = cdf(params, 35.0, 10.0)
        S = 1.0 - F
        b = 0.5
        # survival side has no observed mass: only the model terms remain
        assert part_surv == pytest.approx(S ** (1 + b), rel=1e-12)
        assert part_fail == pytest.approx(
            F ** (1 + b) - (1 + 1 / b) * F**b + 1 / b, rel=1e-12
        )

    def test_beta_zero_unsupported(self, table1):
        with pytest.raises(ValueError):
            dpd_split(table1, ModelParams(0.005, 0.05), 0.0)

    def test_gradient_matches_estimating_equations(self, table1):
        # d(part_fail + part_surv)/d(alpha) equals the estimating equations
        # scaled by (beta+1) / (K (IJ)^(beta+1)) per component structure
        params = ModelParams(0.005, 0.05)
        beta = 0.5
        h = 1e-6
        K = 10.0
        n_cells = 9.0

        def total(a0, a1):
            return sum(dpd_split(table1, ModelParams(a0, a1), beta))

        g0 = (total(params.alpha0 + h * params.alpha0, params.alpha1)
              - total(params.alpha0 - h * params.alpha0, params.alpha1)) / (
                  2 * h * params.alpha0)
        g1 = (total(params.alpha0, params.alpha1 + h)
              - total(params.alpha0, params.alpha1 - h)) / (2 * h)
        eq = estimating_equations(table1, params, beta)
        scale = (beta + 1.0) / (K * n_cells ** (beta + 1.0))
        assert g0 == pytest.approx(eq[0] * scale / params.alpha0, rel=1e-6)
        assert g1 == pytest.approx(eq[1] * scale, rel=1e-6)
