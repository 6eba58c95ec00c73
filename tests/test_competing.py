import numpy as np
import pytest

from oneshotdpd import (
    Cause,
    MultiOutcomeTable,
    NoInteriorData,
    cause_table,
    combined_mean_lifetime,
    fit_cause,
    fit_causes,
    fit_path,
    hazard,
    mean_lifetime,
)
from oneshotdpd.io import parse_betas

# frozen regression values for the bundled studies (minimum divergence fits
# under the marginal per-cause convention, verified against an independent
# bounded optimizer)
ED01_BETA0_NATURAL = (0.00707539721389491, 0.12214385337509238)
ED01_BETA0_TUMOUR = (0.0025099123444211973, 0.3443865267982694)

# published per-cause estimates at tuning parameter 0.1
ED01_PUBLISHED_01 = {
    "natural": (0.00702, 0.09355),
    "tumour": (0.00250, 0.32870),
}


class TestCauseTable:
    def test_ed01_first_cell(self, ed01):
        tab = cause_table(ed01, Cause.TUMOUR)
        # (t=12, w=0): 8 tumour deaths out of 115 + 22 + 8 animals
        assert tab.counts[0, 0] == 8
        assert tab.plan.devices[0, 0] == 145

    def test_ed01_last_cell(self, ed01):
        tab = cause_table(ed01, Cause.TUMOUR)
        assert tab.counts[1, 2] == 51
        assert tab.plan.devices[1, 2] == 625

    def test_natural_counts(self, ed01):
        tab = cause_table(ed01, Cause.NATURAL)
        assert tab.counts.tolist() == [[22, 42, 200], [49, 54, 64]]

    def test_benzidine_zero_cause_cells_allowed(self, benzidine):
        tab = cause_table(benzidine, Cause.TUMOUR)
        assert tab.counts[0, 0] == 0
        assert tab.counts[0, 1] == 0
        assert tab.plan.devices[0, 0] == 72

    def test_totals_validation(self):
        with pytest.raises(ValueError):
            MultiOutcomeTable.from_counts(
                temps=[0.0], times=[1.0],
                sacrificed=[[-1]], died_natural=[[2]], died_tumour=[[1]],
            )


class TestFitCause:
    def test_ed01_beta0_regression(self, ed01):
        nat = fit_cause(ed01, Cause.NATURAL, 0.0)
        tum = fit_cause(ed01, Cause.TUMOUR, 0.0)
        assert nat.fit.params.alpha0 == pytest.approx(ED01_BETA0_NATURAL[0],
                                                      rel=1e-8)
        assert nat.fit.params.alpha1 == pytest.approx(ED01_BETA0_NATURAL[1],
                                                      rel=1e-8)
        assert tum.fit.params.alpha0 == pytest.approx(ED01_BETA0_TUMOUR[0],
                                                      rel=1e-8)
        assert tum.fit.params.alpha1 == pytest.approx(ED01_BETA0_TUMOUR[1],
                                                      rel=1e-8)

    def test_ed01_published_small_beta(self, ed01):
        # at tuning parameter 0.1 the marginal convention reproduces the
        # published estimates within 2 percent
        nat = fit_cause(ed01, Cause.NATURAL, 0.1)
        tum = fit_cause(ed01, Cause.TUMOUR, 0.1)
        for cf, key in ((nat, "natural"), (tum, "tumour")):
            ref = ED01_PUBLISHED_01[key]
            assert cf.fit.params.alpha0 == pytest.approx(ref[0], rel=0.02)
            assert cf.fit.params.alpha1 == pytest.approx(ref[1], rel=0.02)

    def test_mean_lifetime_field_consistency(self, ed01):
        cf = fit_cause(ed01, Cause.TUMOUR, 0.3)
        for w, value in zip(ed01.plan.temps, cf.mean_lifetimes):
            assert value == pytest.approx(
                1.0 / hazard(cf.fit.params, w), rel=1e-12
            )
            assert value == pytest.approx(cf.mean_lifetime_at(w), rel=1e-15)

    def test_ed01_natural_slope_near_zero_small_beta(self, ed01):
        # the natural-death dose effect stays small over the low tuning
        # range, in line with the published study
        for beta in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
            cf = fit_cause(ed01, Cause.NATURAL, beta)
            assert abs(cf.fit.params.alpha1) < 0.11

    def test_all_zero_cause_raises(self):
        data = MultiOutcomeTable.from_counts(
            temps=[0.0, 1.0], times=[1.0, 2.0],
            sacrificed=[[5, 5], [5, 5]],
            died_natural=[[1, 2], [1, 0]],
            died_tumour=[[0, 0], [0, 0]],
        )
        with pytest.raises(NoInteriorData):
            fit_cause(data, Cause.TUMOUR, 0.5)
        with pytest.raises(NoInteriorData):
            fit_causes(data, [0.0, 0.5])

    def test_cause_fits_satisfy_optimality(self, ed01):
        from oneshotdpd import cause_table, estimating_equations

        for cause in Cause:
            tab = cause_table(ed01, cause)
            bound = 1e-8 * tab.plan.mean_devices * tab.plan.n_cells
            for beta in (0.0, 0.3, 0.8):
                cf = fit_cause(ed01, cause, beta)
                eq = estimating_equations(tab, cf.fit.params, beta)
                assert max(abs(eq[0]), abs(eq[1])) < bound

    def test_benzidine_fits_converge(self, benzidine):
        for beta in (0.0, 0.5, 1.0):
            nat = fit_cause(benzidine, Cause.NATURAL, beta)
            tum = fit_cause(benzidine, Cause.TUMOUR, beta)
            assert nat.fit.converged and tum.fit.converged
            # higher dose shortens the combined expected lifetime
            both = [nat, tum]
            assert combined_mean_lifetime(both, 1.0) > combined_mean_lifetime(
                both, 2.0
            )


class TestFitCauses:
    BETAS = parse_betas("0:0.1:1,2,3,4")

    @pytest.mark.parametrize("name", ["ed01", "benzidine"])
    def test_equals_per_cause_fit_path(self, name, request):
        data = request.getfixturevalue(name)
        path = fit_causes(data, self.BETAS)
        assert len(path) == len(self.BETAS)
        for k, cause in enumerate(Cause):
            alone = fit_path(cause_table(data, cause), self.BETAS)
            for step, want in zip(path, alone):
                got = step[k].fit
                assert step[k].cause is cause
                assert (got.beta, got.params, got.objective, got.grad_norm,
                        got.iterations, got.converged, got.boundary_clamped,
                        got.multistart_spread) == (
                    want.beta, want.params, want.objective, want.grad_norm,
                    want.iterations, want.converged, want.boundary_clamped,
                    want.multistart_spread)
                for field in ("j_bar", "k_bar", "sigma"):
                    assert np.array_equal(getattr(got.covariance, field),
                                          getattr(want.covariance, field))

    @pytest.mark.parametrize("name", ["ed01", "benzidine"])
    def test_warm_path_matches_cold_fits(self, name, request):
        # the path warm-starts every beta after the first; independent cold
        # fits land on the same optimum up to the step tolerance
        data = request.getfixturevalue(name)
        for step in fit_causes(data, self.BETAS):
            for cf in step:
                cold = fit_cause(data, cf.cause, cf.fit.beta)
                assert cf.fit.converged and cold.fit.converged
                theta = np.log(cf.fit.params.alpha0), cf.fit.params.alpha1
                want = np.log(cold.fit.params.alpha0), cold.fit.params.alpha1
                assert np.max(np.abs(np.subtract(theta, want))) < 1e-7
                assert np.array_equal(
                    cf.mean_lifetimes,
                    [mean_lifetime(cf.fit.params, w) for w in data.plan.temps])

    def test_causes_in_requested_order(self, ed01):
        (step,) = fit_causes(ed01, [0.2], causes=[Cause.TUMOUR])
        assert [cf.cause for cf in step] == [Cause.TUMOUR]
        (step,) = fit_causes(ed01, [0.2], causes=[Cause.TUMOUR, Cause.NATURAL])
        assert [cf.cause for cf in step] == [Cause.TUMOUR, Cause.NATURAL]

    def test_no_causes_rejected(self, ed01):
        with pytest.raises(ValueError):
            fit_causes(ed01, [0.0], causes=[])


class TestCombinedMeanLifetime:
    def test_harmonic_identity(self, ed01):
        fits = [fit_cause(ed01, c, 0.2) for c in Cause]
        for w in (0.0, 1.0):
            expected = 1.0 / sum(hazard(cf.fit.params, w) for cf in fits)
            assert combined_mean_lifetime(fits, w) == expected

    def test_single_cause_is_its_mean(self, ed01):
        cf = fit_cause(ed01, Cause.TUMOUR, 0.4)
        assert combined_mean_lifetime([cf], 1.0) == pytest.approx(
            mean_lifetime(cf.fit.params, 1.0), rel=1e-15
        )

    def test_two_equal_causes_halve_the_mean(self, ed01):
        cf = fit_cause(ed01, Cause.TUMOUR, 0.4)
        assert combined_mean_lifetime([cf, cf], 0.0) == pytest.approx(
            mean_lifetime(cf.fit.params, 0.0) / 2.0, rel=1e-15
        )

    def test_published_means_recombine(self):
        # plugging the published per-cause means reproduces the published
        # combined value within a tenth of a percent
        combined = 1.0 / (1.0 / 162.233 + 1.0 / 426.425)
        assert combined == pytest.approx(117.447, rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combined_mean_lifetime([], 0.0)
