import numpy as np
import pytest
from hypothesis import given, strategies as st

from oneshotdpd import (
    FailureTable,
    ModelParams,
    TestPlan,
    cdf,
    dpd_objective,
    estimating_equations,
    fit,
)
from oneshotdpd.divergence import _box_cox, _data_terms, _dpd_terms
from oneshotdpd.model import _cells, _plan_cells

from conftest import PROPERTY, random_params
from oracles import (
    dpd,
    dpd_split,
    kl_divergence,
    log_likelihood,
    observed_probs,
    theoretical_probs,
)


def cell_scale(r, lt, beta):
    """Per cell, |r E(F)| + |(1-r) E(S)| + |r E(r)| + |(1-r) E(1-r)|
    + beta |F - r| (|E(F)| + |E(S)|): the sizes of the terms the divergence
    cancels from, so the rounding error of a computed divergence scales
    with it.  At beta = 0 it is |r log F| + |(1-r) lambda t| plus the
    data's entropy."""
    F = -np.expm1(-lt)
    with np.errstate(all="ignore"):
        log_F = np.where(lt > np.log(2.0), np.log1p(-np.exp(-lt)), np.log(F))
        EF, ES = _box_cox(log_F, beta), _box_cox(-lt, beta)
        parts = [r * EF, (1 - r) * ES, r * _box_cox(np.log(r), beta),
                 (1 - r) * _box_cox(np.log1p(-r), beta),
                 beta * (F - r) * (np.abs(EF) + np.abs(ES))]
        return sum(np.abs(np.nan_to_num(part)) for part in parts)


# the objective's rounding bound: this multiple of the cell scale
ROUNDING = 1e-14


def exact_divergence(r, lt, beta, digits=50):
    """One cell's divergence at fraction r and lambda t = lt, from the
    definition in ``mpmath``, to about ``digits`` digits."""
    import mpmath

    extra = 0 if beta == 0.0 else max(0, int(np.ceil(-np.log10(beta))))
    with mpmath.workdps(digits + extra):
        r, lt, b = mpmath.mpf(r), mpmath.mpf(lt), mpmath.mpf(beta)
        F, S = -mpmath.expm1(-lt), mpmath.exp(-lt)
        if beta == 0.0:
            return ((r * mpmath.log(r / F) if r > 0 else 0)
                    + ((1 - r) * mpmath.log((1 - r) / S) if r < 1 else 0))
        return (F ** (1 + b) + S ** (1 + b)
                - (1 + 1 / b) * (r * F**b + (1 - r) * S**b)
                + (r ** (1 + b) + (1 - r) ** (1 + b)) / b)


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
        # the solver kernel is rows-first: theta (rows, 2), r (rows, C);
        # it gives the model part, to which the data part is added
        theta = np.array([[np.log(params.alpha0), params.alpha1]])
        solver = float(_eval_theta(theta, table.frequencies.reshape(1, -1),
                                   table.plan, 0.0)[0, 0])
        data = np.sum(_data_terms(table.frequencies.ravel(), 0.0)) / 4
        assert np.isfinite(value)
        assert value == pytest.approx(solver + data, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [0.0, 1e-320])
    def test_cells_the_model_reproduces_at_probability_0_or_1(self, beta):
        # the rate underflows to 0 at stress 60 (F = 0) and lambda t
        # overflows at stress 0 (S = 0): there log F or log S is -inf, and
        # a cell whose fraction matches adds 0, as 0 log 0 = 0
        for temps, params, counts, bad in (
                ([0.0, 60.0], ModelParams(1e-300, -10.0), [[1], [0]],
                 [[1], [1]]),
                ([0.0, 1.0], ModelParams(1e300, 0.0), [[10], [10]],
                 [[9], [10]])):
            plan = TestPlan(temps=temps, times=[1e10], devices=[[10], [10]])
            good = FailureTable(plan=plan, counts=counts)
            value = dpd_objective(good, params, beta)
            assert value == pytest.approx(kl_divergence(
                observed_probs(good), theoretical_probs(params, plan)),
                rel=1e-12, abs=0.0)
            assert dpd_objective(FailureTable(plan=plan, counts=bad), params,
                                 beta) == np.inf


class TestObjectiveRelations:
    def test_affine_relation_to_vector_dpd(self, table1):
        # the relation is an identity: dpd_objective is (IJ)^beta times
        # the vector divergence, with no offset
        rng = np.random.default_rng(4)
        p_hat = observed_probs(table1)
        for beta in (1e-320, 1e-3, 0.2, 0.5, 1.0, 2.0, 200.0):
            for _ in range(10):
                params = random_params(rng)
                q = theoretical_probs(params, table1.plan)
                # at beta = 200 the terms are about 1/beta and the value
                # can be 1e-12: their rounding, not the 1e-12, binds there
                lt = _plan_cells(params, table1.plan)[0]
                scale = np.mean(cell_scale(table1.frequencies.ravel(), lt,
                                           beta))
                assert dpd_objective(table1, params, beta) == pytest.approx(
                    table1.plan.n_cells**beta * dpd(p_hat, q, beta),
                    rel=1e-12, abs=ROUNDING * scale)

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


class TestAgainstMpmath:
    """Each cell's computed divergence, model part plus data part, against
    the definition in 50-digit ``mpmath``, within ROUNDING of its cell
    scale."""

    @staticmethod
    def assert_cells(r, lt, beta):
        lt_, F, S, _ = _cells(1.0, lt)
        got = _dpd_terms(r, F, S, lt_, beta) + _data_terms(r, beta)
        want = np.array([float(exact_divergence(rk, tk, beta))
                         for rk, tk in zip(r, lt)])
        bound = ROUNDING * cell_scale(r, lt, beta)
        assert (np.abs(got - want) <= bound).all(), np.max(
            np.abs(got - want) / bound)

    @pytest.mark.parametrize("beta", [0.0, 1e-320, 1e-3, 0.5, 1.0, 200.0])
    def test_random_cells(self, beta):
        rng = np.random.default_rng(34)
        K = rng.integers(1, 101, 150)
        r = rng.integers(0, K + 1) / K
        lt = 10.0 ** rng.uniform(-15.0, 3.5, 150)
        lt[:6] = [5e-324, 1e-300, 40.0, 745.0, 1e5, 1e300]
        self.assert_cells(r, lt, beta)

    @pytest.mark.parametrize("beta", [0.0, 1e-3])
    def test_failure_probability_near_one(self, beta):
        # F within 1e-10 of 1: log F is taken from log1p(-S), since F
        # itself keeps only the digits above its distance from 1
        lt = np.repeat(np.linspace(23.0, 40.0, 18), 3)
        r = np.tile([1.0, 49 / 50, 1 / 2], 18)
        self.assert_cells(r, lt, beta)


@st.composite
def exact_tables(draw):
    """A table whose fractions the model reproduces: two stresses, with
    alpha = (1, 0) and times -log(1 - n/K), so F = n/K in every cell up to
    rounding."""
    K = draw(st.integers(2, 80))
    n = sorted(draw(st.lists(st.integers(1, K - 1), min_size=1, max_size=4,
                             unique=True)))
    plan = TestPlan([0.0, 1.0], -np.log1p(-np.array(n) / K),
                    np.full((2, len(n)), K))
    return FailureTable(plan, [n, n])


class TestNonnegative:
    @PROPERTY
    @given(exact_tables(),
           st.sampled_from([0.0, 5e-324, 1e-3, 0.3, 1.0, 2.5, 200.0])
           | st.floats(0.0, 200.0),
           st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
    def test_objective_nonnegative_and_zero_at_exact_fit(
            self, table, beta, log_a0, a1):
        # stated before running: the computed objective lies within
        # ROUNDING times the mean cell scale of the exact divergence, which
        # is >= 0 everywhere and about 0 where r = F
        def bound(params):
            lt = _plan_cells(params, table.plan)[0]
            r = table.frequencies.ravel()
            return ROUNDING * np.mean(cell_scale(r, lt, beta))

        exact = ModelParams(1.0, 0.0)
        assert abs(dpd_objective(table, exact, beta)) <= bound(exact)
        other = ModelParams(np.exp(log_a0), a1)
        assert dpd_objective(table, other, beta) >= -bound(other)
        result = fit(table, beta)
        assert result.objective >= -bound(result.params)


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
