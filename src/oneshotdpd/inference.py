"""Asymptotic covariance matrices, Z-type tests, power and design size.

The divergence estimate is asymptotically normal with sandwich covariance
``Jbar^-1 Kbar Jbar^-1`` (divided by the per-cell device count); at tuning
parameter 0 both matrices collapse to IJ times the Fisher information.
Unbalanced plans weight each cell's contribution by ``K_ij / Kbar`` (mean
cell size) and use ``sqrt(Kbar)`` in the test normalization, which reduces
exactly to the balanced formulas when all cells have the same size.  That
is the sandwich of a ``K_ij``-weighted objective, but the estimator weights
cells equally, so on unbalanced plans it understates the variance.

Both matrices are cell sums of ``(K_ij/Kbar) (t f)^2`` times the (1, w)
outer product and one factor of the bracket ``b = F^(beta-1) +
S^(beta-1)`` that the solver uses: ``b`` for ``Jbar`` and ``F S b^2`` for
``Kbar``.  The score variance per cell is written in the literature as
``F^(2beta-1) + S^(2beta-1) - (F^beta - S^beta)^2``; since F + S = 1 that
equals ``F S b^2``, which keeps full relative accuracy where the
difference cancels, when F or S is small (highly reliable devices, or
cells that nearly all fail).  On balanced plans ``Jbar`` in theta =
(log alpha0, alpha1) coordinates is IJ/(1+beta) times the solver's
Hessian at observed fractions r = F.

Normal tail probabilities and quantiles come from :func:`ndtr` (``math.erfc``)
and :func:`ndtri` (``statistics.NormalDist``, Wichura's AS241); both agree
with scipy's functions of the same names to a few units in the last place.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

from .divergence import _bracket, _check_beta
from .errors import (DegenerateVariance, InfeasibleDesign, NumericalOverflow,
                     SingularInformation)
from .model import (ModelParams, TestPlan, _cells, _check_number, _integral,
                    _plan_cells)

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


def _critical_value(level: float) -> float:
    """The two-sided critical value z_{level/2} of a test at ``level``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    return -ndtri(level / 2.0)


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
        """Approximate covariance of the estimate for ``devices`` per cell,
        a finite count > 0."""
        _check_number(devices, "devices")
        devices = float(devices)
        if not 0.0 < devices < math.inf:
            raise ValueError(
                f"devices must be finite and > 0, got {devices!r}")
        return self.sigma / devices


@dataclass(frozen=True)
class LinearHypothesis:
    """Null hypothesis m0 * alpha0 + m1 * alpha1 = d."""

    m: np.ndarray
    d: float

    def __post_init__(self):
        for value in np.ravel(np.array(self.m, dtype=object)):
            _check_number(value, "m")
        _check_number(self.d, "d")
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
        return bool(abs(self.statistic) > _critical_value(level))


def _alpha_cell_sums(alpha: np.ndarray, plan: TestPlan, beta: float):
    """``(j_bar, k_bar)`` at the parameter rows ``alpha`` (n, 2) and the
    one tuning parameter ``beta``.

    Each is the cell sum of ``(K_ij/Kbar) (t f)^2`` times its factor (the
    bracket ``b = F^(beta-1) + S^(beta-1)`` for J, ``F S b^2`` for K) and
    the (1, w) outer product in theta = (log alpha0, alpha1), carried to
    (alpha0, alpha1) by the Jacobian diag(1/alpha0, 1); each is (n, 2, 2),
    its cells evaluated rows-first, (n, C), as in the solver.
    """
    w, w2, t, weights = plan.cell_vectors
    # F or S may underflow to 0, making F^(b-1) infinite, and 1/alpha0
    # squared may overflow; callers refuse the non-finite matrices
    with np.errstate(all="ignore"):
        _, F, S, f = _cells(alpha[:, :1] * np.exp(alpha[:, 1:] * w), t)
        b = _bracket(F, S, beta)
        j = weights * ((t * f) ** 2 * b)
        k = j * (F * S * b)
        sums = np.array([j, j * w, j * w2, k, k * w, k * w2]).sum(-1)
        inv = 1.0 / alpha[:, 0]
        # rows (j, k) of the (0,0), (0,1), (1,0) and (1,1) entries
        out = np.stack([sums[0::3] * (inv * inv), sums[1::3] * inv,
                        sums[1::3] * inv, sums[2::3]], -1)
    return out.reshape(2, len(alpha), 2, 2)


def j_bar(params: ModelParams, plan: TestPlan, beta: float) -> np.ndarray:
    """Sensitivity matrix of the divergence fit (the sandwich "bread").

    Sums, over stress levels i and times j,

        [[1/a0^2, w/a0], [w/a0, w^2]] * t^2 f^2 [F^(b-1) + (1-F)^(b-1)]

    with cells weighted by K_ij / Kbar on unbalanced plans.  Raises
    :class:`~oneshotdpd.errors.NumericalOverflow`, as :func:`sandwich`
    does, when a rate at a plan stress exceeds the double range.
    """
    beta = _check_beta(beta)
    _plan_cells(params, plan)
    return _alpha_cell_sums(params.as_array()[None], plan, beta)[0, 0]


def k_bar(params: ModelParams, plan: TestPlan, beta: float) -> np.ndarray:
    """Score-variance matrix of the divergence fit (the sandwich "meat").

    Sums, over stress levels i and times j,

        [[1/a0^2, w/a0], [w/a0, w^2]] * t^2 f^2 F S [F^(b-1) + S^(b-1)]^2

    with cells weighted by K_ij / Kbar on unbalanced plans: :func:`j_bar`'s
    cell term times ``F S [F^(b-1) + S^(b-1)]``.  This equals the textbook
    ``F^(2b-1) + S^(2b-1) - (F^b - S^b)^2`` factor because F + S = 1, and
    stays accurate where that difference cancels (F or S near 0).  Raises
    as :func:`j_bar` does.
    """
    beta = _check_beta(beta)
    _plan_cells(params, plan)
    return _alpha_cell_sums(params.as_array()[None], plan, beta)[1, 0]


def fisher_information(params: ModelParams, plan: TestPlan) -> np.ndarray:
    """Per-device Fisher information matrix of the binomial model.

    Equals ``j_bar(params, plan, 0) / (I*J)`` for every plan (the cell
    weighting carries over on unbalanced plans).  Raises as :func:`j_bar`
    does.
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
        inverse = np.empty(mat.shape)
        inverse[..., 0, 0], inverse[..., 1, 1] = c, a
        inverse[..., 0, 1] = inverse[..., 1, 0] = -b
        inverse /= (a * c - b * b)[..., None, None]
    return inverse, ok


def _sandwich_rows(alpha: np.ndarray, plan: TestPlan, beta: float):
    """``(j_bar, k_bar, sigma, ok)`` at each parameter row of ``alpha``
    (n, 2) and the one tuning parameter ``beta``; ``ok`` marks the rows
    whose ``j_bar`` passes the condition guard of :func:`_inverse_2x2`
    (``sigma`` is meaningless elsewhere)."""
    jb, kb = _alpha_cell_sums(alpha, plan, beta)
    j_inv, ok = _inverse_2x2(jb)
    with np.errstate(all="ignore"):
        sigma = j_inv @ kb @ j_inv
        sigma = (sigma + np.swapaxes(sigma, -1, -2)) / 2.0
    return jb, kb, sigma, ok


def sandwich(params: ModelParams, plan: TestPlan, beta: float
             ) -> SandwichCovariance:
    """Sandwich covariance ``j_bar^-1 k_bar j_bar^-1`` at ``params``.

    Raises :class:`~oneshotdpd.errors.NumericalOverflow` when a rate at a
    plan stress exceeds the double range, and
    :class:`~oneshotdpd.errors.SingularInformation` when the sensitivity
    matrix cannot be inverted reliably (condition number at or above
    1e12).
    """
    beta = _check_beta(beta)
    _plan_cells(params, plan)
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
        j_bar=jb, k_bar=kb, sigma=sigma, at_params=params, beta=beta
    )


def _tested_variance(sigma: np.ndarray, hyp: LinearHypothesis):
    """``m' Sigma m`` for each ``sigma[..., :, :]``, and the mask of the
    values that are finite and strictly positive."""
    m0, m1 = hyp.m
    # a large m can overflow either product; the mask drops those values
    with np.errstate(all="ignore"):
        u = m0 * sigma[..., 0, :] + m1 * sigma[..., 1, :]
        variance = u[..., 0] * m0 + u[..., 1] * m1
    return variance, np.isfinite(variance) & (variance > 0.0)


def _checked_variance(params: ModelParams, plan: TestPlan, beta: float,
                      hyp: LinearHypothesis) -> float:
    """``m' Sigma m`` of the sandwich at ``params``; strictly positive.

    Raises :class:`~oneshotdpd.errors.NumericalOverflow` when the value
    leaves the double range and
    :class:`~oneshotdpd.errors.DegenerateVariance` when it is not positive.
    """
    variance, ok = _tested_variance(sandwich(params, plan, beta).sigma, hyp)
    if not np.isfinite(variance):
        raise NumericalOverflow("m' Sigma m overflows the double range")
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
    2 (1 - Phi(|Z|)).  Raises :class:`~oneshotdpd.errors.NumericalOverflow`
    when Z is not a finite double.
    """
    variance = _checked_variance(fit.params, plan, fit.beta, hyp)
    with np.errstate(all="ignore"):
        z = np.sqrt(plan.mean_devices / variance) * hyp.effect(fit.params)
    if not np.isfinite(z):
        raise NumericalOverflow(
            f"the Z statistic {float(z)!r} is not a finite double")
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
    the returned probability is truncated at 1.  ``devices`` is checked as
    every device count is: a fraction, a bool or a string raises
    ValueError, and a whole float such as 50.0 reads as 50.  A count
    beyond the double range raises
    :class:`~oneshotdpd.errors.NumericalOverflow`.
    """
    z_crit = _critical_value(level)
    # an infinite count is beyond the double range, not malformed
    if devices != math.inf:
        devices = _integral(devices, "devices")
    if devices < 1:
        raise ValueError("devices must be >= 1")
    if not devices <= sys.float_info.max:
        raise NumericalOverflow("device count beyond the double range")
    variance = _checked_variance(params_star, plan, beta, hyp)
    effect = hyp.effect(params_star)
    if abs_effect:
        effect = abs(effect)
    # near the top of the double range the ratio overflows, its root not
    ratio = devices / variance
    root = (math.sqrt(ratio) if math.isfinite(ratio)
            else math.sqrt(devices) / math.sqrt(variance))
    return min(2.0 * ndtr(-(z_crit - root * effect)), 1.0)


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
    (m' alpha - d)^2) + 1, dividing by the effect twice so that its square
    cannot underflow.  Round trip:
    ``approximate_power(K) >= target > approximate_power(K - 1)`` for
    moderate K; rounding breaks it at some K above 1e13 on ``table1``.
    """
    z_crit = _critical_value(level)
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
    gap = z_crit - ndtri(1.0 - target_power / 2.0)
    k_real = variance * gap**2 / effect / effect
    if not np.isfinite(k_real):
        raise NumericalOverflow("required device count overflows")
    return max(int(np.floor(k_real)) + 1, 1)
