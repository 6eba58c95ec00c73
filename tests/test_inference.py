import warnings

import numpy as np
import pytest

from oneshotdpd import (
    DegenerateVariance,
    FailureTable,
    InfeasibleDesign,
    LinearHypothesis,
    ModelParams,
    NumericalOverflow,
    SingularInformation,
    TestPlan,
    approximate_power,
    cell_probs,
    fisher_information,
    fit,
    fit_path,
    j_bar,
    k_bar,
    required_devices,
    sandwich,
    z_statistic,
)

from oneshotdpd.estimator import _eval_theta
from oneshotdpd.io import parse_betas

from conftest import random_params, random_plan


def loop_matrices(params, plan, beta):
    """Naive per-cell score outer products, no algebraic simplification.

    Builds both matrices from the raw ingredients: the gradient of F, the
    log-derivative vectors of each outcome probability and their moment
    combinations, cell by cell.
    """
    jb = np.zeros((2, 2))
    kb = np.zeros((2, 2))
    k_mean = plan.mean_devices
    for i, w in enumerate(plan.temps):
        for j, t in enumerate(plan.times):
            lam = params.alpha0 * np.exp(params.alpha1 * w)
            F = 1.0 - np.exp(-lam * t)
            S = np.exp(-lam * t)
            f = lam * S
            dF = np.array([1.0 / params.alpha0, w]) * t * f
            u = dF / F
            v = -dF / S
            weight = plan.devices[i, j] / k_mean
            jb += weight * (
                np.outer(u, u) * F ** (beta + 1)
                + np.outer(v, v) * S ** (beta + 1)
            )
            s_mat = (
                np.outer(u, u) * F ** (2 * beta + 1)
                + np.outer(v, v) * S ** (2 * beta + 1)
            )
            xi = u * F ** (beta + 1) + v * S ** (beta + 1)
            kb += weight * (s_mat - np.outer(xi, xi))
    return jb, kb


class TestInformationMatrices:
    def test_loop_oracle_agreement(self, plan1):
        params = ModelParams(0.005, 0.05)
        for beta in (0.0, 0.5, 1.0, 2.0):
            jb_ref, kb_ref = loop_matrices(params, plan1, beta)
            jb = j_bar(params, plan1, beta)
            kb = k_bar(params, plan1, beta)
            scale = np.abs(jb_ref).max()
            assert np.abs(jb - jb_ref).max() <= 1e-12 * scale
            assert np.abs(kb - kb_ref).max() <= 1e-12 * np.abs(kb_ref).max()

    def test_loop_oracle_unbalanced(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            plan = random_plan(rng, balanced=False)
            params = random_params(rng)
            beta = float(rng.uniform(0.0, 1.5))
            jb_ref, kb_ref = loop_matrices(params, plan, beta)
            assert np.allclose(j_bar(params, plan, beta), jb_ref,
                               rtol=1e-12, atol=1e-15)
            assert np.allclose(k_bar(params, plan, beta), kb_ref,
                               rtol=1e-12, atol=1e-15)

    def test_information_identity_at_beta_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            plan = random_plan(rng, balanced=bool(rng.integers(0, 2)))
            params = random_params(rng)
            jb = j_bar(params, plan, 0.0)
            kb = k_bar(params, plan, 0.0)
            info = fisher_information(params, plan)
            scale = np.abs(jb).max()
            assert np.abs(jb - kb).max() <= 1e-12 * scale
            assert np.abs(jb - plan.n_cells * info).max() <= 1e-12 * scale

    def test_single_cell_zero_stress_structure(self):
        plan = TestPlan(temps=[0.0], times=[10.0], devices=[[25]])
        params = ModelParams(0.02, 0.3)
        beta = 0.7
        F, S, f = cell_probs(params, plan)
        expected_00 = (
            10.0**2 * f[0, 0] ** 2
            * (F[0, 0] ** (beta - 1) + S[0, 0] ** (beta - 1))
            / params.alpha0**2
        )
        jb = j_bar(params, plan, beta)
        assert jb[0, 0] == pytest.approx(expected_00, rel=1e-13)
        assert jb[0, 1] == 0.0 and jb[1, 0] == 0.0 and jb[1, 1] == 0.0

    def test_half_probability_bracket(self):
        # pick the time so the failure probability is exactly one half:
        # the squared difference term vanishes and the remaining bracket
        # is 2 * (1/2)^(2 beta - 1)
        params = ModelParams(0.1, 0.0)
        t_half = np.log(2.0) / 0.1
        plan = TestPlan(temps=[5.0], times=[t_half], devices=[[10]])
        for beta in (0.2, 0.5, 1.0, 3.0):
            kb = k_bar(params, plan, beta)
            F, S, f = cell_probs(params, plan)
            assert F[0, 0] == pytest.approx(0.5, abs=1e-15)
            expected = (
                t_half**2 * f[0, 0] ** 2 * 2.0 * 0.5 ** (2 * beta - 1)
                / params.alpha0**2
            )
            assert kb[0, 0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha0", [1e-12, 1e-9, 0.5, 1.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_k_bar_near_the_boundary_matches_mpmath(self, plan1, alpha0,
                                                    beta):
        # every F is below 1e-6 at alpha0 = 1e-9 and 1e-12, within 1e-12
        # of 1 at 0.5 and rounds to 1 at 1.0, where the definition's
        # difference cancels (to 0 when F is 1); bound: 1e-13 relative on
        # each entry (all are positive)
        mp = pytest.importorskip("mpmath")
        assert np.all(plan1.devices == 10)
        with mp.workdps(50):
            a0, a1, b = (mp.mpf(v) for v in (alpha0, 0.05, beta))
            want = np.zeros((2, 2))
            for w in map(mp.mpf, plan1.temps):
                for t in map(mp.mpf, plan1.times):
                    lam = a0 * mp.exp(a1 * w)
                    S = mp.exp(-lam * t)
                    F = 1 - S
                    cell = (t * lam * S) ** 2 * (
                        F ** (2 * b - 1) + S ** (2 * b - 1)
                        - (F**b - S**b) ** 2)
                    grad = (1 / a0, w)
                    want += [[float(cell * u * v) for v in grad]
                             for u in grad]
        got = k_bar(ModelParams(alpha0, 0.05), plan1, beta)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_variance_positive_where_every_F_rounds_to_one(self, plan1,
                                                           beta):
        # every F rounds to 1, where F^(2b-1) + S^(2b-1) - (F^b - S^b)^2
        # is 0 in doubles but K is positive, so Z tests stay defined
        params = ModelParams(5.0, 0.0)
        assert np.all(cell_probs(params, plan1)[0] == 1.0)
        assert np.all(np.diag(sandwich(params, plan1, beta).sigma) > 0.0)
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.01)
        assert 0.0 < approximate_power(params, plan1, beta, hyp, 50,
                                       0.05) < 1.0

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
    def test_bread_is_the_solver_hessian_at_model_fractions(self, table1,
                                                             beta):
        # on a balanced plan, diag(alpha0, 1) j_bar diag(alpha0, 1) is
        # IJ / (1 + beta) times the theta Hessian of the solver's
        # objective at r = F; bound: 1e-14 relative on each entry
        plan = table1.plan
        rng = np.random.default_rng(31)
        big = TestPlan(plan.temps, plan.times, np.full((3, 3), 50))
        truth = cell_probs(ModelParams(0.004, 0.05), big)[0]
        tables = [table1] + [FailureTable(big, rng.binomial(50, truth))
                             for _ in range(5)]
        for table in tables:
            result = fit(table, beta)
            params = result.params
            F = cell_probs(params, table.plan)[0]
            theta = np.array([[np.log(params.alpha0), params.alpha1]])
            ev = _eval_theta(theta, F.reshape(1, -1), table.plan, beta)
            want = (table.plan.n_cells / (1.0 + beta)
                    * ev[[3, 4, 4, 5], 0].reshape(2, 2))
            scale = np.array([params.alpha0, 1.0])
            got = j_bar(params, table.plan, beta) * np.outer(scale, scale)
            assert not result.boundary_clamped
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_fisher_positive_definite(self, plan1):
        info = fisher_information(ModelParams(0.005, 0.05), plan1)
        assert np.allclose(info, info.T)
        eigs = np.linalg.eigvalsh(info)
        assert np.all(eigs > 0.0)

    def test_stress_rescaling_oracle(self, plan1):
        # doubling all stresses reweights the blocks; verify against the
        # naive loop on the modified plan
        params = ModelParams(0.005, 0.03)
        doubled = TestPlan(plan1.temps * 2.0, plan1.times, plan1.devices)
        jb_ref, _ = loop_matrices(params, doubled, 0.4)
        assert np.allclose(j_bar(params, doubled, 0.4), jb_ref, rtol=1e-12)


class TestSandwich:
    def test_beta_zero_collapses_to_inverse_information(self, plan1):
        params = ModelParams(0.005, 0.05)
        cov = sandwich(params, plan1, 0.0)
        info = fisher_information(params, plan1)
        # sigma * IJ = inverse Fisher information
        assert np.allclose(
            cov.sigma * plan1.n_cells, np.linalg.inv(info), rtol=1e-10
        )

    def test_symmetric_psd_random_draws(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 20:
            plan = random_plan(rng)
            params = random_params(rng)
            beta = float(rng.uniform(0.0, 2.0))
            try:
                cov = sandwich(params, plan, beta)
            except SingularInformation:
                continue  # rank-deficient draws (single stress level)
            assert np.array_equal(cov.sigma, cov.sigma.T)
            assert np.array_equal(cov.j_bar, cov.j_bar.T)
            assert np.all(np.linalg.eigvalsh(cov.sigma) >= -1e-15)
            done += 1

    def test_singular_information_raised(self):
        # one stress level makes the two columns collinear
        plan = TestPlan(temps=[35.0], times=[10.0, 20.0], devices=[[5, 5]])
        with pytest.raises(SingularInformation):
            sandwich(ModelParams(0.005, 0.05), plan, 0.5)

    def test_non_finite_information_raised(self, table1):
        # at alpha0 = 1e-200, 1 / alpha0^2 overflows in the bread
        with pytest.raises(SingularInformation, match="non-finite entries"):
            sandwich(ModelParams(1e-200, 0.05), table1.plan, 0.5)

    def test_overflowing_rate_is_typed_error(self, plan1):
        # alpha1 = 400 puts the rate at stress 35 near e^14000, beyond
        # doubles, as hazard and cell_probs report it
        params = ModelParams(0.004, 400.0)
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        with pytest.raises(NumericalOverflow):
            sandwich(params, plan1, 0.5)
        with pytest.raises(NumericalOverflow):
            j_bar(params, plan1, 0.5)
        with pytest.raises(NumericalOverflow):
            k_bar(params, plan1, 0.5)
        with pytest.raises(NumericalOverflow):
            fisher_information(params, plan1)
        with pytest.raises(NumericalOverflow):
            approximate_power(params, plan1, 0.5, hyp, 50, 0.05)
        with pytest.raises(NumericalOverflow):
            required_devices(params, plan1, 0.5, hyp, 0.8, 0.05)

    def test_underflowed_cell_gives_no_numpy_warning(self, plan1):
        # at this estimate S underflows to 0 in the high-stress cells, so
        # S^(beta-1) is infinite: the fit reports no covariance, silently
        plan = TestPlan(plan1.temps, plan1.times, np.full((3, 3), 3))
        table = FailureTable(plan, [[0, 0, 0], [0, 1, 2], [3, 2, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit(table, 0.8)
        assert result.covariance is None

    @pytest.mark.parametrize("function", [sandwich, j_bar, k_bar])
    @pytest.mark.parametrize("beta", [-2.0, "0.5", True, float("nan")],
                             ids=["-2.0", "str", "bool", "nan"])
    def test_beta_outside_domain_refused(self, plan1, function, beta):
        with pytest.raises(ValueError, match="beta must be"):
            function(ModelParams(0.004, 0.05), plan1, beta)

    def test_subnormal_beta_is_the_likelihood_inference(self, table1):
        plan, hyp = table1.plan, LinearHypothesis(np.array([0.0, 1.0]), 0.05)
        star = ModelParams(0.004, 0.06)

        def outputs(beta):
            result = fit(table1, beta)
            path = fit_path(table1, [beta, 0.5])[0]
            return [*result.params.as_array(), result.objective,
                    *path.params.as_array(), path.objective,
                    *sandwich(result.params, plan, beta).sigma.ravel(),
                    z_statistic(result, plan, hyp).statistic,
                    approximate_power(star, plan, beta, hyp, 50, 0.05),
                    required_devices(star, plan, beta, hyp, 0.8, 0.05)]

        np.testing.assert_allclose(outputs(1e-320), outputs(0.0),
                                   rtol=1e-15, atol=0.0)

    def test_alpha_covariance_scaling(self, plan1):
        cov = sandwich(ModelParams(0.005, 0.05), plan1, 0.3)
        assert np.allclose(cov.alpha_covariance(25.0), cov.sigma / 25.0)

    @pytest.mark.parametrize("devices", [
        0, -5, float("nan"), float("inf"), True, pytest.param("5", id="str"),
        pytest.param(b"5", id="bytes")])
    def test_alpha_covariance_refuses_device_count(self, plan1, devices):
        # a bool or a string is not read as a number
        message = ("a number" if isinstance(devices, (bool, str, bytes))
                   else "finite")
        cov = sandwich(ModelParams(0.005, 0.05), plan1, 0.3)
        with pytest.raises(ValueError, match=f"^devices must be {message}"):
            cov.alpha_covariance(devices)

    def test_fit_path_covariance_matches_sandwich(self, table1):
        # fit_path computes the sandwich with one call per beta over its
        # estimates; numpy raises by a scalar exponent of -1 or 0.5
        # exactly (reciprocal, sqrt), and the betas 0 and 1.5 use them as
        # beta - 1.  Every published beta plus 1.5:
        for r in fit_path(table1, parse_betas("0:0.1:1,1.5,2,3,4")):
            cov = sandwich(r.params, table1.plan, r.beta)
            for got, want in ((r.covariance.j_bar, cov.j_bar),
                              (r.covariance.k_bar, cov.k_bar),
                              (r.covariance.sigma, cov.sigma)):
                assert got.tobytes() == want.tobytes()


class TestZStatistic:
    def test_zero_when_null_matches_estimate(self, table1):
        result = fit(table1, 0.2)
        m = np.array([0.0, 1.0])
        hyp = LinearHypothesis(m=m, d=result.params.alpha1)
        test = z_statistic(result, table1.plan, hyp)
        assert test.statistic == pytest.approx(0.0, abs=1e-12)
        assert test.p_value == pytest.approx(1.0, abs=1e-12)
        assert not test.reject_at(0.05)

    def test_sign_follows_effect(self, table1):
        result = fit(table1, 0.2)
        hyp_low = LinearHypothesis(m=np.array([0.0, 1.0]),
                                   d=result.params.alpha1 - 0.01)
        hyp_high = LinearHypothesis(m=np.array([0.0, 1.0]),
                                    d=result.params.alpha1 + 0.01)
        assert z_statistic(result, table1.plan, hyp_low).statistic > 0.0
        assert z_statistic(result, table1.plan, hyp_high).statistic < 0.0

    def test_location_shift_is_exact(self, table1):
        result = fit(table1, 0.0)
        m = np.array([0.0, 1.0])
        base = z_statistic(result, table1.plan,
                           LinearHypothesis(m=m, d=0.05))
        delta = 0.003
        shifted = z_statistic(result, table1.plan,
                              LinearHypothesis(m=m, d=0.05 + delta))
        cov = sandwich(result.params, table1.plan, 0.0)
        scale = np.sqrt(table1.plan.mean_devices / (m @ cov.sigma @ m))
        assert shifted.statistic - base.statistic == pytest.approx(
            -scale * delta, rel=1e-12
        )

    def test_p_value_identity(self, table1):
        from scipy.special import ndtr

        result = fit(table1, 0.5)
        test = z_statistic(result, table1.plan,
                           LinearHypothesis(m=np.array([0.0, 1.0]), d=0.04))
        expected = 2.0 * (1.0 - ndtr(abs(test.statistic)))
        assert test.p_value == pytest.approx(expected, abs=1e-12)

    def test_normal_functions_match_scipy(self):
        from scipy import special

        from oneshotdpd.inference import ndtr, ndtri

        for x in np.linspace(-38.0, 8.0, 461):
            assert ndtr(x) == pytest.approx(special.ndtr(x), abs=1e-15,
                                            rel=1e-14)
        for p in np.concatenate([np.geomspace(1e-300, 0.5, 300),
                                 np.linspace(0.5, 1.0, 101)[1:-1]]):
            assert ndtri(p) == pytest.approx(special.ndtri(p), rel=1e-14,
                                             abs=1e-15)

    def test_z_beyond_double_range_is_typed_error(self, table1):
        # sqrt(K / m' Sigma m) is above 1, so the effect -1e308 overflows
        result = fit(table1, 0.5)
        hyp = LinearHypothesis(m=np.array([1.0, 10.0]), d=1e308)
        with pytest.raises(NumericalOverflow, match="not a finite double"):
            z_statistic(result, table1.plan, hyp)

    @pytest.mark.parametrize("m", [(0.0, 1e308), (1e308, -1e308)])
    @pytest.mark.parametrize("function", ["z_statistic", "approximate_power",
                                          "required_devices"])
    def test_overflowing_variance_is_typed_error(self, table1, function, m):
        result = fit(table1, 0.5)
        hyp = LinearHypothesis(m=np.array(m), d=0.0)
        calls = {
            "z_statistic": lambda: z_statistic(result, table1.plan, hyp),
            "approximate_power": lambda: approximate_power(
                result.params, table1.plan, 0.5, hyp, 10, 0.05),
            "required_devices": lambda: required_devices(
                result.params, table1.plan, 0.5, hyp, 0.8, 0.05),
        }
        with pytest.raises(NumericalOverflow,
                           match="m' Sigma m overflows the double range"):
            calls[function]()

    def test_tested_variance_overflow_is_masked(self):
        from oneshotdpd.inference import _tested_variance

        a = np.random.default_rng(5).normal(size=(6, 2, 2))
        sigma = a @ np.swapaxes(a, -1, -2)
        # 1e308 * 10 overflows in u = m' Sigma, before the second product
        sigma[2] = [[1.0, 0.0], [0.0, 10.0]]
        for m0, m1 in ((0.0, 1e308), (0.5, -2.0)):
            hyp = LinearHypothesis(m=np.array([m0, m1]), d=0.0)
            variance, ok = _tested_variance(sigma, hyp)
            with np.errstate(all="ignore"):
                u = m0 * sigma[:, 0, :] + m1 * sigma[:, 1, :]
                want = u[:, 0] * m0 + u[:, 1] * m1
            assert variance.tobytes() == want.tobytes()
            np.testing.assert_array_equal(
                ok, np.isfinite(want) & (want > 0.0), strict=True)
            # every sigma is positive definite: only an overflow is masked
            assert ok.all() == (m1 != 1e308)

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            LinearHypothesis(m=np.array([0.0, 0.0]), d=0.1)
        with pytest.raises(ValueError):
            LinearHypothesis(m=np.array([1.0, 2.0, 3.0]), d=0.1)
        # a bool or a string is not read as a number
        for m, d in (([0.0, 1.0], True), (["0", "1"], 0.0),
                     ([0.0, True], 0.0), ([0.0, 1.0], "0.05")):
            with pytest.raises(ValueError, match="must be a number"):
                LinearHypothesis(m=m, d=d)


class TestPower:
    def test_null_point_returns_level(self, plan1):
        params = ModelParams(0.004, 0.05)
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        for level in (0.01, 0.05, 0.2):
            value = approximate_power(params, plan1, 0.5, hyp, 50, level)
            assert value == pytest.approx(level, abs=1e-12)

    def test_monotone_in_devices_and_effect(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        prev = 0.0
        for k in (5, 20, 80, 320, 1280):
            value = approximate_power(
                ModelParams(0.004, 0.02), plan1, 0.0, hyp, k, 0.05,
                abs_effect=True,
            )
            assert value >= prev
            prev = value
        assert prev > 0.999  # large K drives the power to one
        # larger departures from the null give more power at fixed K
        powers = [
            approximate_power(ModelParams(0.004, 0.05 - gap), plan1, 0.0,
                              hyp, 40, 0.05, abs_effect=True)
            for gap in (0.005, 0.01, 0.02, 0.03)
        ]
        assert all(a <= b for a, b in zip(powers, powers[1:]))

    def test_capped_at_one(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        value = approximate_power(ModelParams(0.004, 0.02), plan1, 0.0,
                                  hyp, 10**6, 0.05, abs_effect=True)
        assert value == 1.0

    @pytest.mark.parametrize("devices", [10**400, float("inf")],
                             ids=["int_1e400", "inf"])
    def test_device_count_beyond_double_range_is_typed_error(self, plan1,
                                                             devices):
        # at the null point an infinite count returned NaN
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        for alpha1 in (0.05, 0.06):
            with pytest.raises(NumericalOverflow, match="device count"):
                approximate_power(ModelParams(0.004, alpha1), plan1, 0.5,
                                  hyp, devices, 0.05)

    @pytest.mark.parametrize("devices", [2.7, True, "50", np.bool_(True)])
    def test_device_count_must_be_an_integer(self, plan1, devices):
        # a fraction, a bool or a string is refused, never coerced
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        with pytest.raises(ValueError, match="devices must be an integer"):
            approximate_power(ModelParams(0.004, 0.06), plan1, 0.5, hyp,
                              devices, 0.05)

    @pytest.mark.parametrize("devices", [0, -3])
    def test_device_count_below_one_refused(self, plan1, devices):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        with pytest.raises(ValueError, match="devices must be >= 1"):
            approximate_power(ModelParams(0.004, 0.06), plan1, 0.5, hyp,
                              devices, 0.05)

    def test_whole_float_device_count_reads_as_int(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        args = (ModelParams(0.004, 0.06), plan1, 0.5, hyp)
        assert (approximate_power(*args, 50.0, 0.05)
                == approximate_power(*args, 50, 0.05))

    def test_independent_high_precision_evaluation(self, plan1):
        # separate formula path: mpmath normal distribution plus the naive
        # loop matrices
        mp = pytest.importorskip("mpmath")
        params = ModelParams(0.004, 0.02)
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        level, k = 0.05, 50
        value = approximate_power(params, plan1, 0.0, hyp, k, level)

        jb, kb = loop_matrices(params, plan1, 0.0)
        j_inv = np.linalg.inv(jb)
        sigma = j_inv @ kb @ j_inv
        variance = hyp.m @ sigma @ hyp.m
        mp.mp.dps = 40
        z_crit = -mp.sqrt(2) * mp.erfinv(2 * mp.mpf(level) / 2 - 1)
        shift = mp.sqrt(mp.mpf(k) / mp.mpf(float(variance))) * (
            mp.mpf(float(params.alpha1)) - mp.mpf("0.05")
        )
        expected = 2 * (1 - mp.ncdf(z_crit - shift))
        assert value == pytest.approx(float(expected), abs=1e-10)


class TestRequiredDevices:
    def test_round_trip(self, plan1):
        params = ModelParams(0.004, 0.02)
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        for target in (0.5, 0.8, 0.95):
            k = required_devices(params, plan1, 0.0, hyp, target, 0.05)
            assert k >= 1
            above = approximate_power(params, plan1, 0.0, hyp, k, 0.05,
                                      abs_effect=True)
            assert above >= target - 1e-9
            if k > 1:
                below = approximate_power(params, plan1, 0.0, hyp, k - 1,
                                          0.05, abs_effect=True)
                assert below < target + 1e-9

    def test_inverse_square_effect_scaling(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        near = ModelParams(0.004, 0.05 - 0.01)
        far = ModelParams(0.004, 0.05 - 0.02)
        k_near = required_devices(near, plan1, 0.0, hyp, 0.8, 0.05)
        k_far = required_devices(far, plan1, 0.0, hyp, 0.8, 0.05)
        # doubling the departure divides the requirement by about four;
        # the variance also moves with the design point, so allow slack
        assert k_near / k_far == pytest.approx(4.0, rel=0.35)

    def test_zero_effect_rejected(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        with pytest.raises(InfeasibleDesign):
            required_devices(ModelParams(0.004, 0.05), plan1, 0.0, hyp,
                             0.8, 0.05)

    def test_count_beyond_double_range_is_typed_error(self, plan1):
        # the squared effect, 1e-320, is subnormal and the count infinite,
        # which int() refuses with a bare OverflowError
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.0)
        with pytest.raises(NumericalOverflow, match="device count"):
            required_devices(ModelParams(0.004, 1e-160), plan1, 0.5, hyp,
                             0.8, 0.05)

    def test_round_trip_at_tiny_effect(self, plan1):
        # K near 6.6e306: K / (m' Sigma m) leaves the double range, and a
        # squared effect of 1e-308 would lose digits to subnormal rounding
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.0)
        params = ModelParams(0.004, 1e-154)
        k = required_devices(params, plan1, 0.5, hyp, 0.8, 0.05)
        assert 1e306 < k < 1e307
        power = approximate_power(params, plan1, 0.5, hyp, k, 0.05)
        assert power == pytest.approx(0.8, abs=1e-12)

    def test_effect_squared_underflowing_to_zero_is_typed_error(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.0)
        with pytest.raises(NumericalOverflow, match="device count"):
            required_devices(ModelParams(0.004, 1e-200), plan1, 0.5, hyp,
                             0.8, 0.05)

    def test_target_at_most_level_rejected(self, plan1):
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        with pytest.raises(InfeasibleDesign):
            required_devices(ModelParams(0.004, 0.02), plan1, 0.0, hyp,
                             0.04, 0.05)

    def test_degenerate_variance_raised(self, table1):
        result = fit(table1, 0.0)
        hyp = LinearHypothesis(m=np.array([0.0, 1.0]), d=0.05)
        # nearly identical stress levels make the information matrix
        # numerically singular, which must surface as a typed error
        plan = TestPlan(temps=[35.0, 35.0 + 1e-9], times=[10.0],
                        devices=[[5], [5]])
        with pytest.raises((SingularInformation, DegenerateVariance)):
            z_statistic(result, plan, hyp)
