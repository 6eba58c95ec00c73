"""Asymptotic covariance matrices, Z-type tests, power and design size.

The divergence estimate is asymptotically normal with sandwich covariance
``Jbar^-1 Kbar Jbar^-1`` (divided by the per-cell device count); at tuning
parameter 0 both matrices collapse to IJ times the Fisher information.
Unbalanced plans weight each cell's contribution by ``K_ij / Kbar`` (mean
cell size) and use ``sqrt(Kbar)`` in the test normalization, which reduces
exactly to the balanced formulas when all cells have the same size.

Normal tail probabilities and quantiles come from :func:`ndtr` (``math.erfc``)
and :func:`ndtri` (``statistics.NormalDist``, Wichura's AS241); both agree
with scipy's functions of the same names to a few units in the last place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

from .divergence import _bracket, _power, _theta_cell_sum, _w_powers
from .errors import DegenerateVariance, InfeasibleDesign, SingularInformation
from .model import ModelParams, TestPlan, _cells

if TYPE_CHECKING:  # pragma: no cover
    from .estimator import FitResult

_COND_LIMIT = 1e12
_STD_NORMAL = NormalDist()


def ndtr(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ndtri(p: float) -> float:
    """Standard normal quantile function, the inverse of :func:`ndtr`."""
    return _STD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class SandwichCovariance:
    """Sandwich pieces evaluated at a parameter point.

    ``sigma = j_bar^-1 k_bar j_bar^-1`` is the asymptotic covariance of
    ``sqrt(K) (estimate - truth)``; divide by the per-cell device count for
    the covariance of the estimate itself.
    """

    j_bar: np.ndarray
    k_bar: np.ndarray
    sigma: np.ndarray
    at_params: ModelParams
    beta: float

    def alpha_covariance(self, devices: float) -> np.ndarray:
        """Approximate covariance of the estimate for ``devices`` per cell."""
        return self.sigma / float(devices)


@dataclass(frozen=True)
class LinearHypothesis:
    """Null hypothesis m0 * alpha0 + m1 * alpha1 = d."""

    m: np.ndarray
    d: float

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (2,):
            raise ValueError("m must be a length-2 vector")
        if not np.all(np.isfinite(m)) or np.all(m == 0.0):
            raise ValueError("m must be finite and non-zero")
        if not np.isfinite(self.d):
            raise ValueError(f"d must be finite, got {self.d!r}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def effect(self, params: ModelParams) -> float:
        """Signed departure m' alpha - d at ``params``."""
        return float(_effect(params.as_array(), self))


@dataclass(frozen=True)
class ZTestResult:
    """Asymptotically standard normal test statistic and its p-value."""

    statistic: float
    p_value: float
    fit: "FitResult"

    def reject_at(self, level: float) -> bool:
        """Two-sided decision |Z| > z_{level/2}."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        return bool(abs(self.statistic) > -ndtri(level / 2.0))


def _alpha_cell_sums(alpha: np.ndarray, plan: TestPlan, beta):
    """``(j_bar, k_bar)`` at the parameter rows ``alpha`` (..., 2).

    Each is the cell sum of ``(K_ij/Kbar) (t f)^2`` times its factor of
    (F, S) and the (1, w) outer product, taken in theta = (log alpha0,
    alpha1) coordinates and carried to (alpha0, alpha1) by the Jacobian
    diag(1/alpha0, 1); shape (..., 2, 2).  ``beta`` is a scalar or holds
    one tuning parameter per row, shaped (n, 1, 1).
    """
    a0, a1 = alpha[..., 0, None, None], alpha[..., 1, None]
    weights = plan.devices / plan.mean_devices
    # F or S may underflow to 0, making F^(b-1) infinite; callers refuse it
    with np.errstate(all="ignore"):
        _, F, S, f = _cells(a0 * np.exp(a1 * plan.temps)[..., None],
                            plan.times)
        tf2 = (plan.times * f) ** 2
        j = weights * (tf2 * _bracket(F, S, beta - 1.0))
        k = weights * (tf2 * (_bracket(F, S, 2.0 * beta - 1.0)
                              - (_power(F, beta) - _power(S, beta)) ** 2))
    jac = np.stack([1.0 / alpha[..., 0], np.ones_like(alpha[..., 0])], -1)
    outer = jac[..., :, None] * jac[..., None, :]
    w_powers = _w_powers(plan.temps[:, None])
    return (_theta_cell_sum(j, w_powers) * outer,
            _theta_cell_sum(k, w_powers) * outer)


def j_bar(params: ModelParams, plan: TestPlan, beta: float) -> np.ndarray:
    """Sensitivity matrix of the divergence fit (the sandwich "bread").

    Sums, over stress levels i and times j,

        [[1/a0^2, w/a0], [w/a0, w^2]] * t^2 f^2 [F^(b-1) + (1-F)^(b-1)]

    with cells weighted by K_ij / Kbar on unbalanced plans.
    """
    return _alpha_cell_sums(params.as_array(), plan, beta)[0]


def k_bar(params: ModelParams, plan: TestPlan, beta: float) -> np.ndarray:
    """Score-variance matrix of the divergence fit (the sandwich "meat")."""
    return _alpha_cell_sums(params.as_array(), plan, beta)[1]


def fisher_information(params: ModelParams, plan: TestPlan) -> np.ndarray:
    """Per-device Fisher information matrix of the binomial model.

    Equals ``j_bar(params, plan, 0) / (I*J)`` for every plan (the cell
    weighting carries over on unbalanced plans).
    """
    return j_bar(params, plan, 0.0) / plan.n_cells


def _eigen_range(mat: np.ndarray):
    """Smallest and largest eigenvalues of symmetric 2 x 2 matrices."""
    a, b, c = mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 1]
    half_trace = (a + c) / 2.0
    radius = np.hypot((a - c) / 2.0, b)
    return half_trace - radius, half_trace + radius


def _inverse_2x2(mat: np.ndarray):
    """Inverses of the 2 x 2 matrices ``mat[..., :, :]``, and the mask of
    those that may be inverted: finite, positive definite and with a
    condition number below 1e12."""
    a, b, c = mat[..., 0, 0], mat[..., 0, 1], mat[..., 1, 1]
    with np.errstate(all="ignore"):
        eig_min, eig_max = _eigen_range(mat)
        ok = (np.all(np.isfinite(mat), axis=(-2, -1)) & (eig_min > 0.0)
              & (eig_max / eig_min < _COND_LIMIT))
        inverse = (np.stack([np.stack([c, -b], -1), np.stack([-b, a], -1)], -2)
                   / (a * c - b * b)[..., None, None])
    return inverse, ok


def _sandwich_rows(alpha: np.ndarray, plan: TestPlan, beta):
    """``(j_bar, k_bar, sigma, ok)`` at each parameter row of ``alpha``
    (n, 2), at one tuning parameter ``beta`` or at per-row ``beta`` (n,);
    ``ok`` marks the rows whose ``j_bar`` passes the condition guard of
    :func:`_inverse_2x2` (``sigma`` is meaningless elsewhere)."""
    if np.ndim(beta):
        beta = np.asarray(beta, dtype=float)[:, None, None]
    jb, kb = _alpha_cell_sums(alpha, plan, beta)
    j_inv, ok = _inverse_2x2(jb)
    with np.errstate(all="ignore"):
        sigma = j_inv @ kb @ j_inv
        sigma = (sigma + np.swapaxes(sigma, -1, -2)) / 2.0
    return jb, kb, sigma, ok


def sandwich(params: ModelParams, plan: TestPlan, beta: float
             ) -> SandwichCovariance:
    """Sandwich covariance ``j_bar^-1 k_bar j_bar^-1`` at ``params``.

    Raises :class:`~oneshotdpd.errors.SingularInformation` when the
    sensitivity matrix cannot be inverted reliably (condition number at or
    above 1e12).
    """
    jb, kb, sigma, ok = (v[0] for v in
                         _sandwich_rows(params.as_array()[None], plan, beta))
    if not np.all(np.isfinite(jb)):
        raise SingularInformation("information matrix has non-finite entries")
    if not ok:
        eig_min, eig_max = _eigen_range(jb)
        raise SingularInformation(
            f"information matrix is singular or ill-conditioned "
            f"(eigenvalues {eig_min:.3e}, {eig_max:.3e})"
        )
    return SandwichCovariance(
        j_bar=jb, k_bar=kb, sigma=sigma, at_params=params, beta=float(beta)
    )


def _tested_variance(sigma: np.ndarray, hyp: LinearHypothesis):
    """``m' Sigma m`` for each ``sigma[..., :, :]``, and the mask of the
    values that are finite and strictly positive."""
    m0, m1 = hyp.m
    u = m0 * sigma[..., 0, :] + m1 * sigma[..., 1, :]
    with np.errstate(all="ignore"):
        variance = u[..., 0] * m0 + u[..., 1] * m1
    return variance, np.isfinite(variance) & (variance > 0.0)


def _checked_variance(params: ModelParams, plan: TestPlan, beta: float,
                      hyp: LinearHypothesis) -> float:
    """``m' Sigma m`` of the sandwich at ``params``; strictly positive."""
    variance, ok = _tested_variance(sandwich(params, plan, beta).sigma, hyp)
    if not ok:
        raise DegenerateVariance(
            f"m' Sigma m = {float(variance)!r} is not strictly positive"
        )
    return float(variance)


def _effect(alpha: np.ndarray, hyp: LinearHypothesis) -> np.ndarray:
    """Signed departure ``m' alpha - d`` at parameter rows ``alpha``."""
    return hyp.m[0] * alpha[..., 0] + hyp.m[1] * alpha[..., 1] - hyp.d


def _z_rows(alpha: np.ndarray, plan: TestPlan, beta: float,
            hyp: LinearHypothesis) -> np.ndarray:
    """Z statistics at parameter rows ``alpha`` (n, 2) with the sandwich
    evaluated there; NaN where the sandwich is singular or ``m' Sigma m``
    is not strictly positive."""
    _, _, sigma, ok = _sandwich_rows(alpha, plan, beta)
    variance, positive = _tested_variance(sigma, hyp)
    with np.errstate(all="ignore"):
        z = np.sqrt(plan.mean_devices / variance) * _effect(alpha, hyp)
    return np.where(ok & positive, z, np.nan)


def z_statistic(fit: "FitResult", plan: TestPlan, hyp: LinearHypothesis
                ) -> ZTestResult:
    """Z-type statistic sqrt(K / (m' Sigma m)) (m' estimate - d).

    ``Sigma`` is the sandwich evaluated at the fitted parameters and ``K``
    the (mean) per-cell device count.  The two-sided p-value is
    2 (1 - Phi(|Z|)).
    """
    variance = _checked_variance(fit.params, plan, fit.beta, hyp)
    z = np.sqrt(plan.mean_devices / variance) * hyp.effect(fit.params)
    p = 2.0 * ndtr(-abs(z))
    return ZTestResult(statistic=float(z), p_value=p, fit=fit)


def approximate_power(
    params_star: ModelParams,
    plan: TestPlan,
    beta: float,
    hyp: LinearHypothesis,
    devices: int,
    level: float,
    abs_effect: bool = False,
) -> float:
    """Approximate rejection probability at the alternative ``params_star``.

    Evaluates 2 (1 - Phi(z_{level/2} - sqrt(K / (m' Sigma m)) (m' alpha - d))).
    The approximation keeps only one tail, so a *negative* signed departure
    drives the value below ``level``; callers studying a two-sided
    alternative should pass ``abs_effect=True`` to use |m' alpha - d|.  A
    zero departure returns ``level`` exactly (not an error).  For strong
    alternatives the raw one-sided expression overshoots 1 (it tends to 2);
    the returned probability is truncated at 1.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if devices < 1:
        raise ValueError("devices must be >= 1")
    variance = _checked_variance(params_star, plan, beta, hyp)
    effect = hyp.effect(params_star)
    if abs_effect:
        effect = abs(effect)
    z_crit = -ndtri(level / 2.0)
    shift = np.sqrt(devices / variance) * effect
    return min(2.0 * ndtr(-(z_crit - shift)), 1.0)


def required_devices(
    params_star: ModelParams,
    plan: TestPlan,
    beta: float,
    hyp: LinearHypothesis,
    target_power: float,
    level: float,
) -> int:
    """Smallest per-cell device count whose approximate power reaches target.

    Computed as floor(m' Sigma m (z_{level/2} - Phi^-1(1 - target/2))^2 /
    (m' alpha - d)^2) + 1; the squared denominator is what inverting the
    power approximation requires.  Round trip:
    ``approximate_power(K) >= target > approximate_power(K - 1)``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if not level < target_power < 1.0:
        raise InfeasibleDesign(
            f"target power must lie in (level, 1), got {target_power}"
        )
    effect = hyp.effect(params_star)
    if effect == 0.0:
        raise InfeasibleDesign(
            "m' alpha equals d at the design point; no device count can "
            "reach the target power"
        )
    variance = _checked_variance(params_star, plan, beta, hyp)
    z_crit = -ndtri(level / 2.0)
    gap = z_crit - ndtri(1.0 - target_power / 2.0)
    k_real = variance * gap**2 / effect**2
    return max(int(np.floor(k_real)) + 1, 1)
