import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from oneshotdpd import (
    FailureTable,
    ModelParams,
    NoInteriorData,
    NumericalOverflow,
    TestPlan,
    dpd_objective,
    estimating_equations,
    estimator,
    fit,
    fit_path,
)
from oneshotdpd.estimator import _data_starts
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
        theta0 = np.array([[[np.log(start.alpha0), start.alpha1]]])
        _, objective, *_ = _solve(table1.frequencies[None],
                                  _CellData(table1.plan), 0.5, theta0)
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

    def test_overflowing_alpha0_is_typed_error(self):
        # subnormal inspection times put alpha0 near 1e320, beyond doubles
        plan = TestPlan(temps=[1.0, 2.0], times=[1e-320],
                        devices=[[10], [10]])
        table = FailureTable(plan=plan, counts=[[3], [6]])
        with pytest.raises(NumericalOverflow):
            fit(table, 0.5)

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
PROPERTY = settings(deadline=None, derandomize=True, database=None)


class TestDataStarts:
    @PROPERTY
    @given(start_inputs(st.floats(-1e300, 1e300), st.floats(1e-300, 1e300)))
    # stresses whose gap or spread no double resolves
    @example((TestPlan([0.0, 5e-324], [1.0], [[3], [3]]),
              np.array([[[1 / 3], [2 / 3]]])))
    @example((TestPlan([-1e308, 1e308], [1.0], [[3], [3]]),
              np.array([[[1 / 3], [2 / 3]]])))
    def test_finite_for_any_fractions(self, inputs):
        plan, r = inputs
        theta = _data_starts(r, plan)
        assert theta.shape == (len(r), 3, 2)
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


def reference_pick(fval, grad_norm, theta, owner, n_rows, grad_tol):
    """The per-row selection loop the array-wise ``_pick`` replaced: runs
    are flat, run k fitting row ``owner[k]``; returns each row's winning
    run and its multistart spread."""
    import itertools

    best = np.empty(n_rows, dtype=int)
    best[owner] = np.arange(len(owner))
    spread = np.zeros(n_rows)
    for row in np.flatnonzero(np.bincount(owner, minlength=n_rows) > 1):
        runs = np.flatnonzero(owner == row)
        finals = [k for k in runs if np.isfinite(fval[k])] or list(runs)
        f_best = min(fval[k] for k in finals)
        close = [k for k in finals
                 if fval[k] <= f_best + 1e-12 * max(1.0, abs(f_best))]
        best[row] = min(close, key=lambda k: (grad_norm[k], theta[k, 0],
                                              theta[k, 1]))
        done = theta[[k for k in finals if grad_norm[k] <= grad_tol]]
        spread[row] = max((float(np.max(np.abs(a - b)))
                           for a, b in itertools.combinations(done, 2)),
                          default=0.0)
    return best, spread


def assert_pick_matches_reference(fval, grad_norm, theta, valid):
    """``_pick`` on the (rows, starts) layout picks, row by row, the same
    run as the reference loop on the flat runs, and the same spread bit
    for bit."""
    from oneshotdpd.estimator import _pick

    owner = np.nonzero(valid)[0]
    run = np.cumsum(valid.ravel()).reshape(valid.shape) - 1
    want_best, want_spread = reference_pick(
        fval[valid], grad_norm[valid], theta[valid], owner, len(valid),
        estimator._GRAD_TOL)
    best, spread = _pick(fval, grad_norm, theta, valid)
    assert valid[np.arange(len(best)), best].all()
    np.testing.assert_array_equal(run[np.arange(len(best)), best], want_best)
    assert spread.tobytes() == want_spread.tobytes()


def dense_runs(rows):
    """(rows, 3) arrays from rows of runs given as (fval, grad_norm,
    theta0, theta1) tuples; missing starts are NaN and not valid."""
    shape = (len(rows), 3)
    fval, grad_norm = np.full(shape, np.nan), np.full(shape, np.nan)
    theta = np.full(shape + (2,), np.nan)
    valid = np.zeros(shape, dtype=bool)
    for i, runs in enumerate(rows):
        for s, (f, g, t0, t1) in enumerate(runs):
            fval[i, s], grad_norm[i, s] = f, g
            theta[i, s] = t0, t1
            valid[i, s] = True
    return fval, grad_norm, theta, valid


class TestMultistartSelection:
    nan, inf = float("nan"), float("inf")
    CASES = {
        # a later run inside the 1e-12 band with a smaller gradient wins
        "tie_inside_band": [[(1.0, 5e-11, 0.0, 0.0),
                             (1.0 + 9e-13, 1e-12, 1.0, 0.0),
                             (2.0, 0.0, 2.0, 0.0)]],
        # just outside the band the least objective wins whatever its
        # gradient
        "tie_outside_band": [[(1.0, 5e-11, 0.0, 0.0),
                              (1.0 + 2e-12, 1e-12, 1.0, 0.0)]],
        "relative_band": [[(1e6, 5e-11, 0.0, 0.0),
                           (1e6 + 1e-7, 1e-12, 1.0, 0.0),
                           (1e6 + 1e-5, 0.0, 2.0, 0.0)]],
        "all_non_finite": [[(inf, 3.0, 0.0, 0.0), (inf, 1.0, 1.0, 0.0),
                            (inf, 2.0, 2.0, 0.0)]],
        "one_finite": [[(inf, 0.0, 0.0, 0.0), (2.0, 9.0, 1.0, 0.0),
                        (inf, 0.0, 2.0, 0.0)]],
        "nan_gradient_first": [[(1.0, nan, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0),
                                (1.0, 0.0, 2.0, 0.0)]],
        "nan_gradient_later": [[(1.0, 1e-11, 0.0, 0.0),
                                (1.0, nan, 1.0, 0.0),
                                (1.0, 0.0, 2.0, 0.0)]],
        "nan_gradient_all": [[(1.0, nan, 0.0, 0.0), (1.0, nan, -1.0, 0.0)]],
        "theta0_breaks_tie": [[(1.0, 1e-11, 2.0, 0.0),
                               (1.0, 1e-11, -1.0, 5.0),
                               (1.0, 1e-11, 0.5, -5.0)]],
        "theta1_breaks_tie": [[(1.0, 1e-11, 2.0, 3.0),
                               (1.0, 1e-11, 2.0, -1.0),
                               (1.0, 1e-11, 2.0, 0.0)]],
        "exact_tie_first_wins": [[(1.0, 1e-11, 2.0, 3.0),
                                  (1.0, 1e-11, 2.0, 3.0)]],
        # spread: only converged finals count, so a NaN gradient keeps a
        # run out of it
        "spread_converged_only": [[(1.0, 1e-11, 0.0, 0.0),
                                   (1.5, 1e-11, 3.0, 0.0),
                                   (inf, 1e-3, 9.0, 9.0)]],
        "spread_nan_gradient": [[(1.0, nan, 9.0, 0.0),
                                 (1.0, 1e-11, 1.0, 0.0),
                                 (1.0, 1e-11, 4.0, 0.0)]],
        "spread_one_converged": [[(1.0, 1e-11, 0.0, 0.0),
                                  (1.0, nan, 5.0, 0.0),
                                  (1.0, 1e-3, 9.0, 0.0)]],
        "one_two_three_starts": [[(1.0, 0.0, 0.0, 0.0)],
                                 [(1.0, 1e-11, 0.0, 0.0),
                                  (1.0, 1e-12, 0.5, 0.0)],
                                 [(1.0, 1e-11, 0.0, 0.0),
                                  (1.0, 1e-12, 0.5, 0.0),
                                  (0.5, 1e-9, 0.7, 0.1)]],
        # warm rows (one start) interleaved with cold rows
        "warm_and_cold": [[(1.0, 0.0, 0.0, 0.0)],
                          [(inf, 0.0, 0.0, 0.0), (inf, 1.0, 0.0, 0.0),
                           (3.0, 1e-3, 1.0, 1.0)],
                          [(inf, nan, 1.0, 0.0)],
                          [(2.0, 1e-12, 0.0, 0.0), (2.0, 1e-12, 0.0, 0.0),
                           (2.0, 1e-13, 0.1, 0.0)],
                          [(0.5, 1e-3, 4.0, 0.0)]],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constructed_cases(self, case):
        assert_pick_matches_reference(*dense_runs(self.CASES[case]))

    def test_random_rows(self):
        # 2,000 rows drawn from small value sets, so that ties, near ties,
        # infinite objectives and NaN gradients are frequent; a run's theta
        # is always finite
        rng = np.random.default_rng(7)
        shape = (2000, 3)
        base = rng.choice([0.0, 1.0, 1e6, -2.0], size=(2000, 1))
        fval = base + rng.choice([0.0, 5e-13, 2e-12, 1e-7, 1.0],
                                 size=shape) * np.maximum(1.0, abs(base))
        fval[rng.random(shape) < 0.2] = np.inf
        grad_norm = rng.choice([0.0, 1e-12, 1e-10, 2e-10, 1.0, np.inf,
                                np.nan], size=shape)
        theta = rng.choice([-1.0, 0.0, 0.5, 2.0], size=shape + (2,))
        # each row has its first 1, 2 or 3 starts, as in the dense layout
        valid = np.arange(3) < rng.integers(1, 4, size=(2000, 1))
        assert_pick_matches_reference(fval, grad_norm, theta, valid)

    def test_solve_matches_reference_on_data_starts(self, monkeypatch):
        # real cold starts: three-device cells at extreme stresses give
        # flat and multimodal objectives, and 20 iterations leave many
        # runs unconverged; every third row keeps one start, as a warm
        # row does
        from oneshotdpd.estimator import (_CellData, _data_starts, _newton,
                                          _solve)

        plan = TestPlan([-800.0, 5.0, 900.0], [1e-3, 10.0, 1e5],
                        np.full((3, 3), 3))
        rng = np.random.default_rng(11)
        r = rng.integers(0, 4, size=(300, 3, 3)) / 3.0
        monkeypatch.setattr(estimator, "_MAX_ITERS", 20)
        data = _CellData(plan)
        for beta in (0.0, 0.5):
            theta0 = _data_starts(r, plan)
            theta0[::3, 1:] = np.nan
            valid = ~np.isnan(theta0[..., 0])
            owner = np.nonzero(valid)[0]
            runs = _newton(theta0[valid], r[owner], data, beta)
            best, spread = reference_pick(runs[1], runs[2], runs[0], owner,
                                          len(r), estimator._GRAD_TOL)
            got = _solve(r, data, beta, theta0)
            for g, w in zip(got, [v[best] for v in runs] + [spread]):
                assert g.tobytes() == w.tobytes()
