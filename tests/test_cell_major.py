"""The rows-first solver and sandwich kernels against (rows, I, J) references.

The kernels lay per-cell arrays out as (rows, C), C = I J, with each
row's cells contiguous.  The references below keep the (rows, I, J)
formulas, which sum each row over its trailing cell axes; every kernel
output must match them byte for byte, and every row of a stacked solve or
sandwich must match that table solved alone.
"""

import numpy as np
import pytest

from conftest import random_plan, random_table
from oneshotdpd import FailureTable, TestPlan, estimator, fit
from oneshotdpd.divergence import _dpd_terms
from oneshotdpd.estimator import _data_starts, _eval_theta, _fit_rows
from oneshotdpd.inference import _alpha_cell_sums, _sandwich_rows

BETAS = (0.0, 0.3, 0.5, 1.0, 2.0)


def ref_cells_at(theta, plan):
    """(lambda t, F, S, f), each (rows, I, J), at theta (rows, 2)."""
    theta = theta[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.exp(theta[..., 0, :, :]
                     + theta[..., 1, :, :] * plan.temps[:, None])
        lt = lam * plan.times[None, :]
        S = np.exp(-lt)
        return lt, -np.expm1(-lt), S, lam * S


def ref_theta_sum(a, plan):
    """[[sum a, sum a w], [sum a w, sum a w^2]] over the (I, J) axes."""
    w = plan.temps[:, None]
    with np.errstate(all="ignore"):
        w_powers = np.stack([np.ones_like(w), w, w**2])
        sums = np.sum(a[..., None, :, :] * w_powers, axis=(-2, -1))
    return sums[..., [0, 1, 1, 2]].reshape(sums.shape[:-1] + (2, 2))


def ref_objective(theta, r, plan, beta):
    lt, F, S, _ = ref_cells_at(theta, plan)
    val = np.sum(_dpd_terms(r, F, S, lt, beta), axis=(-2, -1)) / plan.n_cells
    return np.where(np.isnan(val), np.inf, val)


def ref_grad_hess(theta, r, plan, beta):
    lt, F, S, f = ref_cells_at(theta, plan)
    Fc = np.clip(F, 1e-300, 1.0 - 1e-16)
    Sc = np.clip(S, 1e-300, 1.0 - 1e-16)
    b = beta
    with np.errstate(all="ignore"):
        bracket = Fc ** (b - 1.0) + Sc ** (b - 1.0)
        hp = (b + 1.0) * (F - r) * bracket
        hpp = (b + 1.0) * (
            bracket + (b - 1.0) * (F - r) * (Fc ** (b - 2.0) - Sc ** (b - 2.0))
        )
        tf = plan.times[None, :] * f
        curv = tf * (1.0 - lt)
        g = ref_theta_sum(hp * tf, plan)[..., 0, :]
        H = ref_theta_sum(hpp * tf * tf + hp * curv, plan)
    return g / plan.n_cells, H / plan.n_cells


def ref_alpha_cell_sums(alpha, plan, beta):
    """(j_bar, k_bar) at alpha (rows, 2) and the one tuning parameter beta."""
    a0, a1 = alpha[..., 0, None, None], alpha[..., 1, None]
    weights = plan.devices / plan.mean_devices
    with np.errstate(all="ignore"):
        lam = a0 * np.exp(a1 * plan.temps)[..., None]
        lt = lam * plan.times
        S = np.exp(-lt)
        F = -np.expm1(-lt)
        f = lam * S
        bracket = F ** (beta - 1.0) + S ** (beta - 1.0)
        j = weights * ((plan.times * f) ** 2 * bracket)
        # F S bracket^2 = F^(2b-1) + S^(2b-1) - (F^b - S^b)^2 as F + S = 1
        k = j * (F * S * bracket)
        jac = np.stack([1.0 / alpha[..., 0], np.ones_like(alpha[..., 0])], -1)
        outer = jac[..., :, None] * jac[..., None, :]
        return (ref_theta_sum(j, plan) * outer,
                ref_theta_sum(k, plan) * outer)


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()


def random_cases(seed, count):
    """(plan, fractions) pairs on random 1-4 x 1-4 plans, half balanced."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        plan = random_plan(rng, balanced=bool(k % 2))
        r = np.stack([random_table(rng, plan).frequencies for _ in range(5)])
        yield rng, plan, r


def theta_points(rng, plan, r):
    """The data starts, points near them, and points where F clamps at 0
    (tiny rates) or at 1 (huge rates)."""
    starts = _data_starts(r, plan).reshape(-1, 2)
    near = starts + rng.normal(0.0, 0.3, starts.shape)
    clamp = np.array([[-750.0, 0.0], [-700.0, 0.01], [8.0, 0.0],
                      [40.0, 0.05], [starts[0, 0], 20.0]])
    return np.concatenate([starts, near, clamp])


class TestKernelsMatchReference:
    @pytest.mark.parametrize("beta", BETAS)
    def test_objective_and_gradient(self, beta):
        for rng, plan, r in random_cases(17, 24):
            theta = theta_points(rng, plan, r)
            rows = np.resize(r, (len(theta),) + plan.shape)
            ev = _eval_theta(theta, rows.reshape(len(theta), -1), plan, beta)
            g, H = ref_grad_hess(theta, rows, plan, beta)
            same_bytes(ev, np.stack([ref_objective(theta, rows, plan, beta),
                                     g[:, 0], g[:, 1], H[:, 0, 0],
                                     H[:, 0, 1], H[:, 1, 1]]))

    def test_clamp_flag_at_the_estimate(self):
        # a fit's flag reports whether the kernel clamps some cell's F at
        # its estimate
        clamps = 0
        for _, plan, r in random_cases(17, 24):
            tables = [FailureTable(plan, np.rint(rk * plan.devices)
                                   .astype(int)) for rk in r]
            for path in estimator._fit_tables(tables, BETAS):
                alpha = np.array([result.params.as_array() for result in path])
                theta = np.column_stack([np.log(alpha[:, 0]), alpha[:, 1]])
                F = ref_cells_at(theta, plan)[1]
                want = ((F < 1e-300) | (F > 1.0 - 1e-16)).any(axis=(-2, -1))
                same_bytes([result.boundary_clamped for result in path], want)
                clamps += int(want.sum())
        assert clamps > 0

    def test_sandwich_sums(self):
        for rng, plan, _ in random_cases(23, 24):
            alpha = np.column_stack([
                np.exp(rng.uniform(np.log(1e-4), np.log(0.05), 12)),
                rng.uniform(-0.08, 0.08, 12)])
            # F underflows to 0 or rounds to 1 in some cells
            alpha = np.concatenate([alpha, [[1e-300, 0.0], [1e-12, 0.05],
                                            [1e3, 0.0], [1e300, 0.01]]])
            for beta in BETAS:
                for got, want in zip(_alpha_cell_sums(alpha, plan, beta),
                                     ref_alpha_cell_sums(alpha, plan, beta)):
                    same_bytes(got, want)


class TestRowsAreIndependent:
    def test_stacked_tables_match_each_table_alone(self, monkeypatch):
        # one-stress and one-time plans are where a transposed layout
        # would mix rows; the iteration cap leaves rows unconverged, so
        # that later betas mix warm and cold rows
        monkeypatch.setattr(estimator, "_MAX_ITERS", 40)
        shapes = set()
        for _, plan, r in random_cases(29, 16):
            shapes.add(plan.shape)
            stacked = _fit_rows(r, plan, BETAS)
            for k in range(len(r)):
                alone = _fit_rows(r[k:k + 1], plan, BETAS)
                assert list(stacked) == list(alone)
                for name, got in stacked.items():
                    same_bytes(got[k:k + 1], alone[name])
            alpha, usable = stacked["alpha"], stacked["converged"]
            for b, beta in enumerate(BETAS):
                rows = alpha[usable[:, b], b]
                jb, kb, sigma, ok = _sandwich_rows(rows, plan, beta)
                for k in range(len(rows)):
                    alone = _sandwich_rows(rows[k:k + 1], plan, beta)
                    for got, want in zip((jb, kb, ok), alone[:2] + alone[3:]):
                        same_bytes(got[k:k + 1], want)
                    if ok[k]:
                        same_bytes(sigma[k:k + 1], alone[2])
                    else:
                        # sigma is meaningless where j_bar fails the guard;
                        # the sign of a NaN there follows the operand that
                        # numpy's add loop carries, which varies with the
                        # number of rows
                        assert np.array_equal(sigma[k:k + 1], alone[2],
                                              equal_nan=True)
        assert any(1 in shape for shape in shapes)


class TestExtremePlans:
    """Plans at the edge of the double range fit without a numpy warning
    (warnings fail the suite) and leave the covariance out."""

    def table(self, temps, times):
        plan = TestPlan(temps, times, np.full((3, len(times)), 10))
        counts = np.array([[3, 5, 7], [4, 6, 8], [5, 7, 9]])[:, :len(times)]
        return FailureTable(plan, counts)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_huge_times(self, beta):
        # alpha0 ~ 1e-301, so 1/alpha0^2 overflows in the sandwich
        result = fit(self.table([35.0, 45.0, 55.0], [1e300, 2e300]), beta)
        assert result.converged
        assert 0.0 < result.params.alpha0 < 1e-300
        assert result.covariance is None

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_extreme_stresses(self, beta):
        # w^2 overflows in the Hessian and the sandwich
        result = fit(self.table([-1e308, 0.0, 1e308], [10.0, 20.0, 30.0]),
                     beta)
        assert np.isfinite(result.params.alpha0)
        assert result.covariance is None
