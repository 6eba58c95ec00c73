import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import minimize

from oneshotdpd import (
    Cause,
    FailureTable,
    ModelParams,
    NoInteriorData,
    NumericalOverflow,
    TestPlan,
    cause_table,
    cell_probs,
    dpd_objective,
    estimating_equations,
    estimator,
    fit,
    fit_cause,
    fit_causes,
    fit_path,
)
from oneshotdpd import simulate
from oneshotdpd.divergence import _data_terms
from oneshotdpd.estimator import _data_starts
from oneshotdpd.model import _cells
from oneshotdpd.io import parse_betas

from conftest import PROPERTY, random_params, random_plan, random_table
from oracles import certify
from test_simulate import branch_spec, fresh_draws, golden_spec, k3_spec

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

    def test_boundary_guard_keeps_values_finite(self, table1):
        # an absurd parameter point drives F to 1 and S to 0 in every cell,
        # where S^(beta-1) is infinite unless S is clamped
        eq = estimating_equations(table1, ModelParams(1.0, 1.0), 0.5)
        assert np.isfinite(eq).all()

    def test_overflowing_rate_is_typed_error(self, table1):
        # the rate at stress 45 leaves the double range: the equations
        # refuse it as the objective does, with no capped value
        params = ModelParams(1.0, 20.0)
        for call in (lambda: estimating_equations(table1, params, 0.5),
                     lambda: dpd_objective(table1, params, 0.5)):
            with pytest.raises(NumericalOverflow, match=r"^failure rate at "
                               r"stress 45\.0 overflows$"):
                call()

    def test_far_stress_value_is_exact(self):
        # the stress 1e35 takes the second component far beyond 1e30,
        # finite and with no F or S clamped
        plan = TestPlan([0.0, 1e35], [1.0, 2.0], np.full((2, 2), 10))
        table = FailureTable(plan, [[1, 3], [5, 7]])
        params, beta = ModelParams(0.5, 1e-36), 0.5
        eq = estimating_equations(table, params, beta)
        F, S, f = cell_probs(params, plan)
        cell = ((10 * F - table.counts) * f * plan.times
                * (F ** (beta - 1) + S ** (beta - 1)))
        expected = (cell.sum(), (cell * plan.temps[:, None]).sum())
        assert eq == pytest.approx(expected, rel=1e-12)
        assert eq[1] < -1e35
        assert ((np.stack([F, S]) >= 1e-300)
                & (np.stack([F, S]) <= 1.0 - 1e-16)).all()

    def test_overflowing_component_is_typed_error(self):
        # every rate is finite, but the stress 1e308 takes the second
        # component beyond the double range
        plan = TestPlan([0.0, 1e308], [1.0, 2.0], np.full((2, 2), 10))
        table = FailureTable(plan, [[1, 3], [5, 7]])
        with pytest.raises(NumericalOverflow,
                           match="^estimating equations overflow$"):
            estimating_equations(table, ModelParams(0.5, 0.0), 0.0)


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
        from oneshotdpd.estimator import _newton

        start = ModelParams(0.02, 0.01)
        theta0 = np.array([[np.log(start.alpha0), start.alpha1]])
        theta = _newton(theta0, table1.frequencies[None], table1.plan,
                        0.5)["theta"][0]
        end = ModelParams(np.exp(theta[0]), theta[1])
        assert (dpd_objective(table1, end, 0.5)
                <= dpd_objective(table1, start, 0.5) + 1e-12)

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

    def test_overflowing_alpha0_is_typed_error(self):
        # subnormal inspection times put alpha0 near 1e320, beyond doubles
        plan = TestPlan(temps=[1.0, 2.0], times=[1e-320],
                        devices=[[10], [10]])
        table = FailureTable(plan=plan, counts=[[3], [6]])
        with pytest.raises(NumericalOverflow):
            fit(table, 0.5)

    @pytest.mark.parametrize("beta", [5e-324, 1e-320, 1e-308, 9.9e-301])
    def test_subnormal_beta_is_the_likelihood_fit(self, table1, beta):
        # E(x) = (x^beta - 1) / beta is log x to the last bit there, and
        # the bracket's exponents beta - 1 and beta - 2 round to -1 and -2
        tiny, mle = fit(table1, beta), fit(table1, 0.0)
        assert (tiny.params, tiny.objective, tiny.iterations) == (
            mle.params, mle.objective, mle.iterations)

    @pytest.mark.parametrize("beta", [True, "0.5", b"0.5"],
                             ids=["bool", "str", "bytes"])
    def test_beta_that_is_not_a_number_refused(self, table1, beta):
        with pytest.raises(ValueError, match="beta must be a number"):
            fit(table1, beta)
        with pytest.raises(ValueError, match="beta must be a number"):
            fit_path(table1, [beta])

    def test_betas_string_refused(self, table1):
        with pytest.raises(ValueError, match="betas must be a list"):
            fit_path(table1, "0.5")

    def test_beta_at_floor_is_the_likelihood_fit(self, table1):
        result = fit(table1, 1e-300)
        assert result.converged and np.isfinite(result.objective)
        assert result.params == fit(table1, 0.0).params

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
        # cell probabilities and objective values unchanged; a cold fit
        # must follow however far c moves alpha0 from 1
        plan = table1.plan
        for c, beta in itertools.product([10.0, 1e9, 1e-6], [0.0, 0.5, 1.0]):
            scaled_plan = TestPlan(plan.temps, plan.times * c, plan.devices)
            scaled = FailureTable(plan=scaled_plan, counts=table1.counts)
            for params in (ModelParams(0.004, 0.05), ModelParams(0.01, 0.02)):
                scaled_params = ModelParams(params.alpha0 / c, params.alpha1)
                assert dpd_objective(table1, params, beta) == pytest.approx(
                    dpd_objective(scaled, scaled_params, beta), rel=1e-14
                )
            base_fit = fit(table1, beta)
            scaled_fit = fit(scaled, beta)
            assert scaled_fit.params.alpha0 * c == pytest.approx(
                base_fit.params.alpha0, rel=1e-8
            ), (c, beta)
            assert scaled_fit.params.alpha1 == pytest.approx(
                base_fit.params.alpha1, abs=1e-10
            ), (c, beta)

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


@st.composite
def start_inputs(draw, temps, times):
    """(plan, r): 1 to 4 distinct stresses and 1 to 4 times from the given
    strategies, 1 to 100 devices per cell and 1 to 3 rows of fractions in
    [0, 1], all-0 and all-1 tables included."""
    w = draw(st.lists(temps, min_size=1, max_size=4, unique=True))
    t = draw(st.lists(times, min_size=1, max_size=4))
    cells = len(w) * len(t)
    devices = draw(st.lists(st.integers(1, 100), min_size=cells,
                            max_size=cells))
    size = draw(st.integers(1, 3)) * cells
    fill = draw(st.sampled_from([None, 0.0, 1.0]))
    if fill is None:
        r = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    else:
        r = [fill] * size
    shape = (len(w), len(t))
    return (TestPlan(w, t, np.reshape(devices, shape)),
            np.reshape(r, (-1,) + shape))


# the equivariance properties hold exactly in real arithmetic; with
# integer stresses in [-20, 20], times in [1e-3, 1e3], |a| in [0.5, 4] and
# |b| <= 50 every term stays below about 2e4, so 1e-9 absolute leaves a
# margin of about 100 times the rounding of the largest term
EQUIVARIANCE_TOL = 1e-9
MODERATE = start_inputs(st.integers(-20, 20).map(float),
                        st.floats(1e-3, 1e3))


class TestDataStarts:
    @PROPERTY
    @given(start_inputs(st.floats(-1e300, 1e300), st.floats(1e-300, 1e300)))
    # stresses whose gap or spread no double resolves
    @example((TestPlan([0.0, 5e-324], [1.0], [[3], [3]]),
              np.array([[[1 / 3], [2 / 3]]])))
    @example((TestPlan([-1e308, 1e308], [1.0], [[3], [3]]),
              np.array([[[1 / 3], [2 / 3]]])))
    # cell sizes whose int64 total (2**64) or K + 1 wraps
    @example((TestPlan([1.0, 2.0], [1.0, 2.0], np.full((2, 2), 2**62)),
              np.array([[[0.25, 0.5], [0.5, 0.75]]])))
    @example((TestPlan([1.0, 2.0], [1.0], [[2**63 - 1], [2**63 - 1]]),
              np.array([[[0.25], [0.75]]])))
    def test_finite_for_any_fractions(self, inputs):
        plan, r = inputs
        theta = _data_starts(r, plan)
        assert theta.shape == (len(r), 2)
        assert np.isfinite(theta).all()
        if plan.shape[0] == 1:
            assert (theta[..., 1] == 0.0).all()

    @PROPERTY
    @given(MODERATE, st.floats(-9.0, 9.0).map(lambda e: 10.0**e))
    def test_time_scaling_shifts_log_rate(self, inputs, c):
        plan, r = inputs
        scaled = TestPlan(plan.temps, plan.times * c, plan.devices)
        want = _data_starts(r, plan) - (np.log(c), 0.0)
        got = _data_starts(r, scaled)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=EQUIVARIANCE_TOL)

    @PROPERTY
    @given(MODERATE, st.floats(0.5, 4.0), st.sampled_from([-1.0, 1.0]),
           st.floats(-50.0, 50.0))
    def test_affine_stress_recoding_maps_by_jacobian(self, inputs, size,
                                                     sign, b):
        # w' = a w + b: alpha1' = alpha1 / a, log alpha0' = log alpha0 -
        # alpha1 b / a
        plan, r = inputs
        a = sign * size
        recoded = TestPlan(a * plan.temps + b, plan.times, plan.devices)
        theta = _data_starts(r, plan)
        want = np.stack([theta[..., 0] - theta[..., 1] * b / a,
                         theta[..., 1] / a], axis=-1)
        got = _data_starts(r, recoded)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=EQUIVARIANCE_TOL)


# the solver's outputs by name, in ref_newton's positional order
NEWTON_OUTPUTS = ("theta", "iterations", "converged")
# table1's stresses, out of order
TEMPS = np.array([45.0, 55.0, 35.0])


def ref_newton(theta0, r, plan, beta, stats):
    """The solver with its earlier line search, one halving per kernel
    call, and a row re-evaluated at the top of every pass; returns the
    :data:`NEWTON_OUTPUTS` and the objective of the last point each row
    evaluated.  ``stats`` collects every accepted step length, counts the
    rows leaving by each exit: ``final`` Newton step, ``failed`` search
    (all halvings; ``nonfinite`` of those had a non-finite gradient),
    ``stall`` and ``cap``, and ``late``, the final steps taken from a
    point where a stall or the cap had stopped the row; and counts the
    ``full`` passes, where every row is active and takes its full step,
    and the ``mixed`` passes, where a non-finite gradient fails its search
    beside rows that go on."""
    n = len(theta0)
    theta = theta0.copy()
    r = r.reshape(n, -1)
    fval = np.empty(n)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    stopped = np.full(n, "", dtype=object)
    active = np.arange(n)
    for it in range(estimator._MAX_ITERS + 1):
        ev = estimator._eval_theta(theta[active], r[active], plan, beta)
        fval[active] = ev[0]
        step, slope, final = ref_direction(ev[1:], plan.temps)
        # a final step is taken unevaluated, and ends the run
        theta[active[final]] += step[:, final].T
        iterations[active[final]] += 1
        converged[active[final]] = True
        stats["final"] += int(final.sum())
        stats["late"] += int((final & (stopped[active] != "")).sum())
        for reason in ("failed", "stall", "cap"):
            stats[reason] += int((~final & (stopped[active] == reason)).sum())
        go = ~final & (stopped[active] == "")
        active, ev, step, slope = active[go], ev[:, go], step[:, go], slope[go]
        if active.size == 0:
            break
        th, ra, f0 = theta[active], r[active], ev[0]
        allowance = 4e-16 * np.maximum(1.0, np.abs(f0))
        lam = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        pending = np.arange(active.size)
        while pending.size:
            lam_p = lam[pending]
            trial = th[pending] + lam_p[:, None] * step[:, pending].T
            ftrial = estimator._eval_theta(trial, ra[pending], plan, beta)[0]
            ok = (ftrial <= f0[pending] + 1e-4 * lam_p * slope[pending]
                  + allowance[pending])
            accepted[pending[ok]] = True
            theta[active[pending[ok]]] = trial[ok]
            pending = pending[~ok]
            lam[pending] *= 0.5
            pending = pending[lam[pending] >= 1e-13]
        iterations[active] += 1
        stats["lam"].extend(lam[accepted])
        stats["full"] += int(active.size == n and bool((lam == 1.0).all())
                             and bool(accepted.all()))
        nonfinite = ~np.isfinite(ev[1:3]).all(axis=0)
        stats["nonfinite"] += int(nonfinite.sum())
        stats["mixed"] += int(nonfinite.any() and (~nonfinite).any())
        stall = accepted & (lam * np.abs(step).max(axis=0)
                            < estimator._STEP_TOL)
        stopped[active[~accepted]] = "failed"
        stopped[active[stall]] = "stall"
        if it + 1 == estimator._MAX_ITERS:
            stopped[active[accepted & ~stall]] = "cap"
    return theta, iterations, converged, fval


def ref_direction(gh, temps):
    """The search direction as one unconditional formula: Newton where
    the Hessian is finite and positive definite and the step is finite and
    not uphill, else steepest descent, then every step above 5 capped but
    a final one; and the final steps: the Newton steps that change the
    log-rate at no stress of ``temps`` by more than ``_RATE_TOL``."""
    g0, g1, h00, h01, h11 = gh
    with np.errstate(all="ignore"):
        det = h00 * h11 - h01 * h01
        step = np.array([-g0 * h11 + g1 * h01, g0 * h01 - g1 * h00]) / det
        newton = (np.isfinite(gh[2:]).all(axis=0) & (h00 > 0.0) & (det > 0.0)
                  & np.isfinite(step).all(axis=0)
                  & ~(g0 * step[0] + g1 * step[1] > 0.0))
        moves = np.abs(step[0] + step[1] * np.asarray(temps)[:, None])
        final = newton & (moves.max(axis=0) <= estimator._RATE_TOL)
        step[:, ~newton] = -gh[:2, ~newton]
        size = np.abs(step).max(axis=0)
        big = (size > 5.0) & ~final
        step[:, big] *= 5.0 / size[big]
        slope = g0 * step[0] + g1 * step[1]
    return step, slope, final


class TestDirection:
    """:func:`estimator._direction` against :func:`ref_direction`, byte
    for byte, on every kind of (g, H) row alone and mixed."""

    # stresses 1e-9 apart: a final step can exceed the cap of 5
    NARROW = np.array([1e-9, 0.0])

    @staticmethod
    def kinds(n=40):
        rng = np.random.default_rng(20)
        g = rng.normal(size=(2, n))
        a = rng.normal(size=(n, 2, 2))
        pd = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(2)
        h = np.stack([pd[:, 0, 0], pd[:, 0, 1], pd[:, 1, 1]])
        rows = {
            # Newton steps within the cap
            "newton": np.vstack([1e-2 * g, h]),
            # Newton steps above the cap of 5
            "capped": np.vstack([1e3 * g, h]),
            # a zero gradient: a zero Newton step, which is final
            "flat": np.vstack([np.zeros((2, n)), h]),
            # negative definite: the Newton step is uphill
            "uphill": np.vstack([g, -h]),
            # indefinite: the determinant is negative
            "indefinite": np.vstack([g, h[0], 3.0 * np.sqrt(h[0] * h[2]),
                                     h[2]]),
            # singular: the determinant is exactly zero
            "singular": np.vstack([g, np.ones(n), 2.0 * np.ones(n),
                                   4.0 * np.ones(n)]),
            # entries across the double range: products overflow or
            # underflow
            "extreme": np.vstack([g * 10.0 ** rng.uniform(-300, 300, (2, n)),
                                  h * 10.0 ** rng.uniform(-300, 300, (3, n))]),
            # Newton steps of about 1e-12 to 1e-6, moving table1's
            # log-rates by amounts on both sides of _RATE_TOL
            "final": np.vstack([g * 10.0 ** rng.uniform(-12, -6, n), h]),
            # H = I and the Newton step (0, -10 u), u in [1, 2]: final only
            # on stresses 1e-9 apart, where it exceeds the cap
            "final_big": np.vstack([np.zeros(n), 10.0 * rng.uniform(1, 2, n),
                                    np.ones(n), np.zeros(n), np.ones(n)]),
        }
        for k, bad in enumerate((np.nan, np.inf, -np.inf)):
            worse = np.vstack([g, h])
            worse[2 + k % 3, ::2] = bad
            worse[2 + (k + 1) % 3, 1::3] = bad
            rows[f"hessian_{bad}"] = worse
        return rows

    def test_matches_the_unconditional_formula(self):
        kinds = self.kinds()
        mixed = np.hstack(list(kinds.values()))
        perm = np.random.default_rng(5).permutation(mixed.shape[1])
        batches = [*kinds.values(), mixed, mixed[:, perm],
                   *(mixed[:, [k]] for k in range(0, mixed.shape[1], 7))]
        for temps in (TEMPS, self.NARROW):
            for gh in batches:
                got = estimator._direction(gh.copy(), temps)
                want = ref_direction(gh.copy(), temps)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes()

    def test_kinds_take_each_branch(self):
        kinds = self.kinds()
        for name, gh in kinds.items():
            step, _, final = ref_direction(gh, TEMPS)
            moves = np.abs(step[0] + step[1] * TEMPS[:, None]).max(axis=0)
            if name == "final":
                assert final.any() and not final.all()
                assert (final == (moves <= estimator._RATE_TOL)).all()
            elif name != "extreme":
                # a zero gradient is the only other final kind
                assert (final == (name == "flat")).all()
        for name in ("newton", "capped", "flat"):
            step = ref_direction(kinds[name], TEMPS)[0]
            size = np.abs(step).max(axis=0)
            assert {"newton": (size < 5.0).all(),
                    "capped": (size == 5.0).all(),
                    "flat": (step == 0.0).all()}[name]
        for name in ("uphill", "indefinite", "singular"):
            # steepest descent, capped where the gradient is large
            step = ref_direction(kinds[name], TEMPS)[0]
            gh = kinds[name]
            assert (np.sign(step) == -np.sign(gh[:2])).all()
        # a final step above the cap is taken whole
        step, _, final = ref_direction(kinds["final_big"], self.NARROW)
        assert final.all() and (np.abs(step[1]) > 10.0 - 1e-12).all()
        g0, g1, h00, h01, h11 = kinds["extreme"]
        with np.errstate(all="ignore"):
            det = h00 * h11 - h01 * h01
        assert not np.isfinite(det).all() and (det == 0.0).any()

    def gh_and_decision(self):
        kinds = self.kinds()
        del kinds["extreme"], kinds["final_big"]
        gh = np.hstack(list(kinds.values()))
        step, _, final = estimator._direction(gh.copy(), TEMPS)
        assert 0 < final.sum() < gh.shape[1]
        return gh, step, final

    @pytest.mark.parametrize("power", [-20, 20])
    def test_final_decision_does_not_depend_on_scale(self, power):
        # g and H times 2^power leave the Newton step H^-1 g, bit for bit,
        # and so every final-step decision
        gh, step, final = self.gh_and_decision()
        scaled, _, scaled_final = estimator._direction(np.ldexp(gh, power),
                                                       TEMPS)
        assert scaled_final.tobytes() == final.tobytes()
        assert scaled[:, final].tobytes() == step[:, final].tobytes()

    def test_final_decision_does_not_depend_on_stress_unit(self):
        # stress in Fahrenheit, w' = 1.8 w + 32, is theta = M theta' with
        # M = [[1, 32], [0, 1.8]]; then g' = M^T g and H' = M^T H M, whose
        # Newton step M^-1 delta moves each log-rate as delta did, up to
        # rounding: rows whose largest move lies within 1e-6 relative of
        # _RATE_TOL are left out
        gh, step, final = self.gh_and_decision()
        g0, g1, h00, h01, h11 = gh
        fahrenheit = np.array([g0, 32.0 * g0 + 1.8 * g1, h00,
                               32.0 * h00 + 1.8 * h01,
                               1024.0 * h00 + 115.2 * h01 + 3.24 * h11])
        _, _, got = estimator._direction(fahrenheit, 1.8 * TEMPS + 32.0)
        with np.errstate(all="ignore"):
            moves = np.abs(step[0] + step[1] * TEMPS[:, None]).max(axis=0)
        near = np.abs(moves / estimator._RATE_TOL - 1.0) <= 1e-6
        assert not near.all()
        np.testing.assert_array_equal(got[~near], final[~near])


def new_stats():
    return {"lam": [], "final": 0, "late": 0, "failed": 0, "nonfinite": 0,
            "stall": 0, "cap": 0, "full": 0, "mixed": 0}


class TestNewtonExits:
    """Whichever way a row leaves the solver, it leaves once, with the
    outputs of :func:`ref_newton`, and its reports describe the estimate
    it returns."""

    def cases(self):
        """(plan, fractions) on the table1 design at small K, where many
        fits stall or hit the cap, on plans at the edge of the double
        range, and on the benchmark's K = 50 design drawn from the model,
        clean and with alpha0 shifted at cell (0, 0), where whole passes
        take their full steps."""
        rng = np.random.default_rng(41)
        plans = [TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                          np.full((3, 3), k)) for k in (2, 3, 4, 10)]
        plans += [TestPlan([35.0, 45.0, 55.0], [1e300, 2e300],
                           np.full((3, 2), 10)),
                  TestPlan([-1e308, 0.0, 1e308], [10.0, 20.0, 30.0],
                           np.full((3, 3), 10))]
        for plan in plans:
            counts = rng.integers(0, plan.devices + 1, (60,) + plan.shape)
            interior = (counts > 0) & (counts < plan.devices)
            yield plan, counts[interior.any(axis=(1, 2))] / plan.devices
        plan = TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                        np.full((3, 3), 50))
        clean = cell_probs(ModelParams(0.004, 0.05), plan)[0]
        shifted = clean.copy()
        shifted[0, 0] = cell_probs(ModelParams(0.001, 0.05), plan)[0][0, 0]
        for probs in (clean, shifted):
            counts = rng.binomial(plan.devices, probs, (60,) + plan.shape)
            interior = (counts > 0) & (counts < plan.devices)
            yield plan, counts[interior.any(axis=(1, 2))] / plan.devices

    def test_reports_are_those_of_the_returned_estimate(self):
        # a FitResult's objective, gradient and clamp flag are evaluated
        # at its params, whichever way its run left
        capped = clamped = 0
        for plan, r in self.cases():
            tables = [FailureTable(plan, np.rint(rk * plan.devices)
                                   .astype(int)) for rk in r]
            paths = estimator._fit_tables(tables, [0.0, 0.4, 1.0])
            for table, path in zip(tables, paths):
                for result in path:
                    theta = np.array([theta_of(result.params.as_array())])
                    ev = estimator._eval_theta(
                        theta, table.frequencies.reshape(1, -1), plan,
                        result.beta)
                    # exact, with NaN equal to NaN
                    np.testing.assert_array_equal(
                        result.grad_norm, np.abs(ev[1:3]).max(), strict=True)
                    # the kernel gives the model part; the data part is
                    # added once per table
                    data = np.sum(_data_terms(table.frequencies.ravel(),
                                              result.beta)) / plan.n_cells
                    np.testing.assert_array_equal(result.objective,
                                                  ev[0, 0] + data,
                                                  strict=True)
                    assert result.boundary_clamped == \
                        clamped_at(theta, plan)[0]
                    clamped += result.boundary_clamped
                    # the final step is the one iteration not evaluated
                    assert (result.iterations - result.converged
                            <= estimator._MAX_ITERS)
                    assert result.iterations >= 1
                    capped += result.iterations == estimator._MAX_ITERS
        assert capped > 0 and clamped > 0

    def test_line_search_matches_one_halving_per_call(self):
        stats = new_stats()
        rows = 0
        for plan, r in self.cases():
            start = _data_starts(r, plan)
            for beta in (0.0, 0.4, 1.0):
                rows += len(r)
                got = estimator._newton(start, r, plan, beta)
                want = ref_newton(start, r, plan, beta, stats)
                for g, w in zip((got[name] for name in NEWTON_OUTPUTS), want):
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.tobytes() == w.tobytes()
                # warm starts from converged fits, as in fit_path
                start = np.where(got["converged"][:, None], got["theta"],
                                 start)
        # steps accepted in a later halving call, and searches that fail
        # all 43 halvings, so every halving call is exercised
        assert min(stats["lam"]) < 2.0**-8
        # every exit is taken, and each row leaves by exactly one
        exits = [stats[k] for k in ("final", "failed", "stall", "cap")]
        assert min(exits) > 0
        assert sum(exits) == rows
        # passes where every row is active and takes its full step
        assert stats["full"] > 0
        # passes where a non-finite gradient fails its search beside rows
        # that go on
        assert stats["nonfinite"] > 0 and stats["mixed"] > 0

    def test_clamp_flag_does_not_depend_on_the_start(self, monkeypatch):
        # starts at 20, 55 and 148 times the data's alpha0 put F above
        # 1 - 1e-16 in some cell, or every cell; the runs then walk back
        # through unclamped points, from 148 times in passes of full steps;
        # a converged run lands on the estimate from the data start, to
        # 1.5e-14 in theta, and reports its clamp flag
        plan, clean = list(self.cases())[-2]
        tables = [FailureTable(plan, np.rint(r * plan.devices).astype(int))
                  for r in clean]
        cold = [path[0] for path in estimator._fit_tables(tables, [0.4])]
        assert not any(result.boundary_clamped for result in cold)
        stats = new_stats()
        same = 0
        for shift in (3.0, 4.0, 5.0):
            start = _data_starts(clean, plan) + [shift, 0.0]
            assert clamped_at(start, plan).any()
            got = estimator._newton(start, clean, plan, 0.4)
            want = ref_newton(start, clean, plan, 0.4, stats)
            for g, w in zip((got[name] for name in NEWTON_OUTPUTS), want):
                assert g.tobytes() == w.tobytes()
            monkeypatch.setattr(estimator, "_data_starts",
                                lambda r, plan, start=start: start.copy())
            paths = estimator._fit_tables(tables, [0.4])
            for (result,), best in zip(paths, cold):
                theta = np.array([theta_of(result.params.as_array())])
                assert result.boundary_clamped == clamped_at(theta, plan)[0]
                if result.converged:
                    np.testing.assert_allclose(
                        theta, [theta_of(best.params.as_array())], rtol=0.0,
                        atol=1e-12)
                    assert result.boundary_clamped == best.boundary_clamped
                    same += 1
        assert stats["full"] > 0
        assert same > 0

    def test_zero_gradient_start_converges(self):
        # fractions equal to the model's F at the start, as the kernel
        # computes them, make the gradient exactly zero there: the zero
        # Newton step is final; counted as uphill, it would fall back to a
        # zero steepest-descent step, stall and leave unconverged
        plan = TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                        np.full((3, 3), 50))
        w, _, t, _ = plan.cell_vectors
        theta0 = np.array([[np.log(0.004), 0.05], [np.log(0.002), 0.06]])
        r = _cells(np.exp(theta0[:, :1] + theta0[:, 1:] * w), t)[1]
        for beta in (0.0, 0.5):
            assert not estimator._eval_theta(theta0, r, plan, beta)[1:3].any()
            got = estimator._newton(theta0, r, plan, beta)
            assert got["converged"].all()
            assert (got["iterations"] == 1).all()
            assert (got["theta"] == theta0).all()


class TestStepConvergence:
    """A fit converges on its Newton step, not on an absolute gradient, so
    no fit is reported converged where the objective has no minimiser."""

    def test_table1_at_large_beta(self, table1):
        # the gradient test reported the data start at 150 and 200, and
        # the beta = 0 estimate on the path [0, 200], as converged
        results = [fit(table1, 150.0), fit(table1, 200.0),
                   fit_path(table1, [0.0, 200.0])[1]]
        for result in results:
            if result.converged:
                assert certify(table1.frequencies, table1.plan, result.beta,
                               theta_of(result.params.as_array()),
                               1e-8) is not None, result.beta

    def test_converged_table1_fits_certify(self, table1):
        # a box of half-width 1e-10: at beta = 60 the Hessian varies too
        # fast over one of 1e-9 for the Krawczyk test
        for beta in (0.0, 0.5, 1.0, 60.0):
            result = fit(table1, beta)
            assert result.converged
            assert certify(table1.frequencies, table1.plan, beta,
                           theta_of(result.params.as_array()),
                           1e-10) is not None, beta

    def test_far_starts_converge_only_on_the_minimiser(self):
        # 40 K = 50 model draws at beta 0.4, started 10 below and above the
        # data start in log alpha0: the gradient test reported 34 and 40
        # of them converged away from the minimiser; a converged row lies
        # within 1e-8 of the fit from the data start
        plan = TestPlan([35.0, 45.0, 55.0], [10.0, 20.0, 30.0],
                        np.full((3, 3), 50))
        probs = cell_probs(ModelParams(0.004, 0.05), plan)[0]
        r = np.random.default_rng(3).binomial(50, probs, (40, 3, 3)) / 50
        start = _data_starts(r, plan)
        best = estimator._newton(start, r, plan, 0.4)
        assert best["converged"].all()
        for shift in (-10.0, 10.0):
            got = estimator._newton(start + [shift, 0.0], r, plan, 0.4)
            ok = got["converged"]
            np.testing.assert_allclose(got["theta"][ok], best["theta"][ok],
                                       rtol=0.0, atol=1e-8)

    def test_final_step_keeps_the_objective_at_stress_1e150(self):
        # stresses -1e150, 0 and 1e150, the fingerprint's plan on which a
        # polish step of the gradient test left a raw gradient of 4e133:
        # a converged fit's objective lies within 1e-13 max(1, |f|) of that
        # of the last point its run evaluated
        plan = TestPlan([-1e150, 0.0, 1e150], [10.0, 20.0, 30.0],
                        np.full((3, 3), 10))
        counts = np.random.default_rng(2026).integers(0, 11, (40, 3, 3))
        r = counts[((counts > 0) & (counts < 10)).any(axis=(1, 2))] / 10
        start = _data_starts(r, plan)
        stats = new_stats()
        converged = 0
        for beta in parse_betas("0:0.2:1,2"):
            got = estimator._newton(start, r, plan, beta)
            *want, last = ref_newton(start, r, plan, beta, stats)
            for g, w in zip((got[name] for name in NEWTON_OUTPUTS), want):
                assert g.tobytes() == w.tobytes()
            ok = got["converged"]
            ev = estimator._eval_theta(got["theta"][ok],
                                       r.reshape(len(r), -1)[ok], plan, beta)
            allowance = 1e-13 * np.maximum(1.0, np.abs(last[ok]))
            assert (np.abs(ev[0] - last[ok]) <= allowance).all()
            converged += int(ok.sum())
            start = np.where(ok[:, None], got["theta"], start)
        assert converged > 0


class TestFitPath:
    def test_single_element_equals_fit(self, table1):
        path = fit_path(table1, [0.3])
        single = fit(table1, 0.3)
        assert path[0].params == single.params

    def test_no_warm_start_from_unconverged_fit(self, table1, monkeypatch):
        # two iterations leave the cold fits unconverged, so each entry of
        # the path starts cold, exactly as a single fit does
        monkeypatch.setattr(estimator, "_MAX_ITERS", 2)
        path = fit_path(table1, parse_betas("0:0.1:1,2,3,4"))
        assert not path[0].converged
        for entry in path:
            cold = fit(table1, entry.beta)
            assert (entry.params, entry.objective, entry.grad_norm,
                    entry.iterations, entry.converged) == (
                cold.params, cold.objective, cold.grad_norm,
                cold.iterations, cold.converged)

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


class TestKernelCounts:
    """The kernel calls and rows a study and a fit path cost, pinned, with
    every run taking its final Newton step unevaluated: the golden
    level/power study makes 21 calls over 774 rows; :func:`_fit_rows` on
    ``0:0.1:1,2,3,4`` makes 34 calls, and :func:`fit_path` on that grid
    48, the 34 and one call per beta (14) evaluating its estimates."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = [0, 0]
        kernel = estimator._eval_theta

        def counted(theta, *args):
            counts[0] += 1
            counts[1] += len(theta)
            return kernel(theta, *args)

        monkeypatch.setattr(estimator, "_eval_theta", counted)
        return counts

    def test_level_power_study(self, counts):
        simulate.level_power_study(golden_spec("level_power"))
        assert counts == [21, 774]

    def test_fit_path(self, counts, table1):
        fit_path(table1, parse_betas("0:0.1:1,2,3,4"))
        assert counts == [48, 48]

    def test_fit_rows(self, counts, table1):
        estimator._fit_rows(table1.frequencies[None], table1.plan,
                            parse_betas("0:0.1:1,2,3,4"))
        assert counts == [34, 34]


class TestBinomialCalls:
    """The per-row ``Generator.binomial`` calls a study's draws make,
    pinned: none when every cell draws by inversion, one per row on a
    plan with a BTPE cell, and one for each row numpy would redraw."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        class Counted(np.random.Generator):
            def binomial(self, *args, **kwargs):
                calls.append(args)
                return super().binomial(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Counted)
        return calls

    def test_level_power_study(self, calls):
        simulate.level_power_study(golden_spec("level_power"))
        assert len(calls) == 0

    def test_btpe_plan(self, calls):
        simulate.rmse_study(dataclasses.replace(branch_spec("btpe"),
                                                replications=7))
        assert len(calls) == 7

    def test_forced_redraw(self, calls, monkeypatch):
        invert = simulate._invert

        def redraw_row_3(inversion, uniforms):
            x, redraw = invert(inversion, uniforms)
            x[3], redraw[3] = -1, True
            return x, redraw

        monkeypatch.setattr(simulate, "_invert", redraw_row_3)
        spec = golden_spec("level_power")
        counts = simulate._draw_counts(
            spec, range(10), np.random.Generator(np.random.Philox(0)))
        assert len(calls) == 1
        np.testing.assert_array_equal(counts, fresh_draws(spec, range(10)))


def mp_minimizer(table, beta, theta, mp):
    """The objective's minimizer in theta = (log alpha0, alpha1), by Newton
    in 40-digit arithmetic from ``theta``.  Each cell term h(F) has
    h'(F) = (b+1) (F - r) (F^(b-1) + S^(b-1)) at every beta, and the rate
    exp(u), u = theta0 + theta1 w, gives dF/du = x S and d2F/du2 =
    x S (1 - x) with x = exp(u) t.  The result is checked against numerical
    derivatives of the objective itself."""
    plan = table.plan
    cells = [(mp.mpf(float(plan.temps[i])), mp.mpf(float(plan.times[j])),
              mp.mpf(int(table.counts[i, j])) / int(plan.devices[i, j]))
             for i, j in np.ndindex(plan.shape)]
    b = mp.mpf(beta)

    def cell(t0, t1, w, t):
        x = mp.exp(t0 + t1 * w) * t
        return x, -mp.expm1(-x), mp.exp(-x)

    def objective(t0, t1):
        total = 0
        for w, t, r in cells:
            x, F, S = cell(t0, t1, w, t)
            if beta == 0.0:
                total += -(r * mp.log(F) if r > 0 else 0) + (1 - r) * x
            else:
                total += (F ** (b + 1) + S ** (b + 1)
                          - (1 + b) / b * (r * F**b + (1 - r) * S**b))
        return total / len(cells)

    t0, t1 = (mp.mpf(float(v)) for v in theta)
    for _ in range(30):
        g = [0, 0]
        h = [0, 0, 0]
        for w, t, r in cells:
            x, F, S = cell(t0, t1, w, t)
            d1 = (b + 1) * (F - r) * (F ** (b - 1) + S ** (b - 1))
            d2 = (b + 1) * (F ** (b - 1) + S ** (b - 1) + (b - 1) * (F - r)
                            * (F ** (b - 2) - S ** (b - 2)))
            g1 = d1 * x * S
            g2 = d2 * (x * S) ** 2 + d1 * x * S * (1 - x)
            g = [g[0] + g1, g[1] + g1 * w]
            h = [h[0] + g2, h[1] + g2 * w, h[2] + g2 * w * w]
        det = h[0] * h[2] - h[1] * h[1]
        step = ((-g[0] * h[2] + g[1] * h[1]) / det,
                (g[0] * h[1] - g[1] * h[0]) / det)
        t0, t1 = t0 + step[0], t1 + step[1]
        if max(abs(s) for s in step) < mp.mpf(10) ** -35:
            break
    for order in ((1, 0), (0, 1)):
        assert abs(mp.diff(objective, (t0, t1), order)) < 1e-25
    return mp.exp(t0), t1


class TestMpmathOracle:
    """Every bundled fit is the objective's minimizer to about the last
    digits of a double: within 1e-13 relative, per parameter, of a
    40-digit Newton minimizer started at the fit."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name,cause", [
        ("table1", None), ("ed01", Cause.NATURAL), ("ed01", Cause.TUMOUR),
        ("benzidine", Cause.NATURAL), ("benzidine", Cause.TUMOUR)])
    def test_bundled_fits(self, name, cause, beta, request):
        mp = pytest.importorskip("mpmath")
        data = request.getfixturevalue(name)
        if cause is None:
            table, result = data, fit(data, beta)
        else:
            table, result = (cause_table(data, cause),
                             fit_cause(data, cause, beta).fit)
        assert result.converged
        with mp.workdps(40):
            alpha0, alpha1 = mp_minimizer(
                table, beta, (np.log(result.params.alpha0),
                              result.params.alpha1), mp)
            for got, want in ((result.params.alpha0, alpha0),
                              (result.params.alpha1, alpha1)):
                assert abs((got - want) / want) <= 1e-13, (got, want)


def theta_of(alpha):
    return np.log(alpha[0]), alpha[1]


def clamped_at(theta, plan):
    """Whether some cell's F at each theta (rows, 2) lies outside
    [1e-300, 1 - 1e-16], where the solver kernel clamps it."""
    w, _, t, _ = plan.cell_vectors
    with np.errstate(all="ignore"):
        F = _cells(np.exp(theta[:, :1] + theta[:, 1:] * w), t)[1]
    return ((F < 1e-300) | (F > 1.0 - 1e-16)).any(axis=1)


class TestIntervalCertificate:
    """Proof, not agreement: :func:`oracles.certify` encloses a strict
    local minimiser of the solver's objective in a box about each
    reported fit, and refuses points next to which there is none."""

    # the beta = 1 fits of k3_spec's replications 24, 30 and 129 (counts,
    # alpha): the objective falls towards its limit at infinity, along
    # which the solver stops
    AT_INFINITY = [
        ([[0, 0, 0], [0, 1, 2], [3, 2, 2]],
         (2.0894287348804527e-28, 1.333401129986736)),
        ([[0, 0, 0], [0, 3, 0], [3, 2, 2]],
         (3.2208890575610415e-28, 1.3199723995064114)),
        ([[0, 0, 0], [1, 3, 1], [3, 3, 3]],
         (4.110910323423028e-30, 1.4345575175854297)),
    ]
    # table1's least-squares data start (alpha), which a gradient test
    # reported converged at beta = 200 although no minimiser lies near it
    DATA_START = (0.005914697682234518, 0.04160971462543034)

    def test_published_table1_fits_certify(self, table1):
        for result in fit_path(table1, parse_betas("0:0.1:1,2,3,4")):
            alpha = result.params.as_array()
            assert certify(table1.frequencies, table1.plan, result.beta,
                           theta_of(alpha), 1e-8) is not None, result.beta

    def test_points_without_a_minimiser_are_refused(self, table1):
        k3_plan = k3_spec().plan
        points = [(np.array(counts) / 3, k3_plan, 1.0, alpha)
                  for counts, alpha in self.AT_INFINITY]
        points.append((table1.frequencies, table1.plan, 200.0,
                       self.DATA_START))
        for r, plan, beta, alpha in points:
            for radius in (1e-12, 1e-9, 1e-6, 1e-3, 0.1):
                assert certify(r, plan, beta, theta_of(alpha),
                               radius) is None, (alpha, radius)

    @pytest.mark.parametrize("name", ["ed01", "benzidine"])
    def test_unbalanced_cause_fits_certify(self, name, request):
        # the first certificates on unbalanced plans: every cause of the
        # two bundled studies along 0:0.1:1
        data = request.getfixturevalue(name)
        checked = 0
        for step in fit_causes(data, parse_betas("0:0.1:1")):
            for cf in step:
                r = cause_table(data, cf.cause).frequencies
                alpha = cf.fit.params.as_array()
                assert certify(r, data.plan, cf.fit.beta, theta_of(alpha),
                               1e-8) is not None, (cf.cause, cf.fit.beta)
                checked += 1
        assert checked == 22

    def test_other_usable_k3_fits_certify(self):
        # the first 64 of k3_spec's 300 replications, as its study fits
        # them: a certificate takes about 10 ms
        spec = k3_spec()
        devices = spec.plan.devices
        counts = simulate._draw_counts(
            spec, range(64), np.random.Generator(np.random.Philox(0)))
        counts = counts[((counts > 0) & (counts < devices)).any(axis=(1, 2))]
        fits = estimator._fit_rows(counts / devices, spec.plan, spec.betas)
        b = spec.betas.index(1.0)
        at_infinity = [c for c, _ in self.AT_INFINITY]
        checked = 0
        for table, alpha, usable in zip(counts.tolist(),
                                        fits["alpha"][:, b].tolist(),
                                        fits["converged"][:, b]):
            if usable and table not in at_infinity:
                checked += 1
                assert certify(np.array(table) / devices, spec.plan, 1.0,
                               theta_of(alpha), 1e-8) is not None, table
        assert checked >= 50
