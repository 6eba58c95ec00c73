"""Reference oracles: the paper's vector-form definitions.

The minimum DPD estimator is defined through the density power divergence
between the 2IJ-point observed and model probability vectors.  The package
minimises it cell by cell (:func:`oneshotdpd.divergence.dpd_objective`,
built on ``divergence._dpd_terms``); the definitions here state the
divergence directly, so the tests can check that the objective is
(IJ)^beta times it, and the beta = 0 value against the binomial
log-likelihood.  A JSON fit result is rebuilt by
:func:`fit_result_from_dict` to check that the CLI's numbers round-trip
exactly.  :func:`certify` proves, in interval arithmetic, that a reported
fit has a strict local minimiser of the solver's objective next to it.
:func:`numpy_binomial` is numpy's own binomial draw, line by line, for
the simulated tables.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from oneshotdpd.divergence import _check_beta
from oneshotdpd.estimator import FitResult
from oneshotdpd.inference import SandwichCovariance
from oneshotdpd.model import (FailureTable, ModelParams, TestPlan,
                              _frozen_array, _plan_cells, cell_probs)


@dataclass(frozen=True)
class ProbabilityVector:
    """Length-2IJ probability vector in cell order.

    Entries alternate (failure, survival) for cells enumerated row-major
    over (stress, time).  Consecutive pairs sum to 1/(I*J) and the whole
    vector sums to 1; both are checked at construction to 1e-12.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries, float)
        if entries.ndim != 1 or entries.size % 2 != 0 or entries.size == 0:
            raise ValueError("entries must be a 1-d array of even positive length")
        if np.any(entries < -1e-15) or np.any(entries > 1.0 + 1e-15):
            raise ValueError("entries must lie in [0, 1]")
        if abs(entries.sum() - 1.0) > 1e-12:
            raise ValueError("entries must sum to 1 within 1e-12")
        cell_mass = 2.0 / entries.size
        pair_sums = entries[0::2] + entries[1::2]
        if np.max(np.abs(pair_sums - cell_mass)) > 1e-12:
            raise ValueError("each (failure, survival) pair must sum to 1/(I*J)")
        object.__setattr__(self, "entries", entries)


def theoretical_probs(params: ModelParams, plan: TestPlan) -> ProbabilityVector:
    """Model probability vector (F_ij/IJ, (1-F_ij)/IJ) in cell order."""
    F, S, _ = cell_probs(params, plan)
    n_cells = plan.n_cells
    entries = np.empty(2 * n_cells)
    entries[0::2] = F.ravel() / n_cells
    entries[1::2] = S.ravel() / n_cells
    return ProbabilityVector(entries)


def observed_probs(table: FailureTable) -> ProbabilityVector:
    """Empirical probability vector (n_ij/(IJ K_ij), (K_ij-n_ij)/(IJ K_ij)).

    With a constant cell size K this is the usual n_ij/(IJK) layout; the
    per-cell form keeps each (failure, survival) pair summing to 1/(I*J)
    for unbalanced plans as well.
    """
    n_cells = table.plan.n_cells
    freq = table.frequencies
    entries = np.empty(2 * n_cells)
    entries[0::2] = freq.ravel() / n_cells
    entries[1::2] = (1.0 - freq).ravel() / n_cells
    return ProbabilityVector(entries)


def _pair(p, q):
    """Entry arrays of two probability vectors of the same length."""
    p, q = (np.asarray(getattr(v, "entries", v), dtype=float) for v in (p, q))
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    return p, q


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum(p * log(p / q)).

    Uses the 0 * log 0 = 0 convention.  Where q is zero but p is not, the
    divergence is +inf (returned, not raised).
    """
    p, q = _pair(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
    return float(np.sum(terms))


def dpd(p, q, beta: float) -> float:
    """Density power divergence between probability vectors ``p`` and ``q``.

    For ``beta > 0`` this is ``sum(q^(1+b) - (1 + 1/b) q^b p + p^(1+b)/b)``;
    at ``beta = 0`` it continuously becomes the Kullback-Leibler divergence.
    The 1/b terms cancel to about b times their size, so the sum is taken
    in ``mpmath`` with as many digits more than 30 as 1/b has; the result
    is the divergence to about 30 digits of its terms, for every b.

    Parameters
    ----------
    p, q : ProbabilityVector or array-like
        Vectors of matching length on the simplex.
    beta : float
        Non-negative tuning parameter.
    """
    beta = _check_beta(beta)
    if beta == 0.0:
        return kl_divergence(p, q)
    import mpmath

    p, q = _pair(p, q)
    with mpmath.workdps(30 + max(0, math.ceil(-math.log10(beta)))):
        b = mpmath.mpf(beta)
        total = mpmath.fsum(
            qi ** (b + 1) - (1 + 1 / b) * qi**b * pi + pi ** (b + 1) / b
            for pi, qi in zip(map(mpmath.mpf, p.ravel().tolist()),
                              map(mpmath.mpf, q.ravel().tolist())))
    return float(total)


def dpd_split(table: FailureTable, params: ModelParams, beta: float):
    """Failure-entry and survival-entry parts of the vector divergence.

    Splits ``dpd(observed_probs(table), theoretical_probs(params, ...), beta)``
    into the partial sum over failure entries and the partial sum over
    survival entries; the two parts add back to the full divergence.
    Requires ``beta > 0`` (the log branch at 0 does not split this way).
    """
    beta = _check_beta(beta)
    if beta == 0.0:
        raise ValueError("dpd_split requires beta > 0; use log_likelihood or "
                         "kl_divergence for the beta = 0 branch")
    F, S, _ = cell_probs(params, table.plan)
    n_cells = table.plan.n_cells
    r = table.frequencies
    return (dpd(r / n_cells, F / n_cells, beta),
            dpd((1.0 - r) / n_cells, S / n_cells, beta))


def log_likelihood(table: FailureTable, params: ModelParams) -> float:
    """Binomial log-likelihood of the failure table under ``params``.

    Cells with zero counts on one side contribute nothing from that side.
    Data impossible under ``params`` (failures where the failure probability
    is exactly 0) give -inf.  Survivor terms use log survival = -lambda t
    evaluated exactly, so enormous rates give a finite, very negative value
    instead of overflowing through log(1 - F).
    """
    plan = table.plan
    lt, F = (v.reshape(plan.shape) for v in _plan_cells(params, plan)[:2])
    n = table.counts
    K = plan.devices
    with np.errstate(divide="ignore", invalid="ignore"):
        fail_terms = np.where(n > 0, n * np.log(F), 0.0)
        surv_terms = np.where(n < K, -(K - n) * lt, 0.0)
    total = float(np.sum(fail_terms) + np.sum(surv_terms))
    return total if not np.isnan(total) else -np.inf


def fit_result_from_dict(data: dict) -> FitResult:
    """Rebuild a fit result from its JSON form (numbers round-trip exactly)."""
    params = ModelParams(data["alpha0"], data["alpha1"])
    cov = None
    if data.get("covariance") is not None:
        cd = data["covariance"]
        cov = SandwichCovariance(
            j_bar=np.array(cd["j_bar"]),
            k_bar=np.array(cd["k_bar"]),
            sigma=np.array(cd["sigma"]),
            at_params=params,
            beta=data["beta"],
        )
    return FitResult(
        beta=data["beta"],
        params=params,
        objective=data["objective"],
        grad_norm=data["grad_norm"],
        iterations=data["iterations"],
        converged=data["converged"],
        covariance=cov,
        boundary_clamped=data.get("boundary_clamped", False),
    )


def _theta_derivatives(iv, r, plan: TestPlan, beta: float, th0, th1):
    """The solver's theta gradient and Hessian, ``g0, g1, h00, h01, h11``
    of ``estimator._eval_theta`` without its clamping, over the intervals
    ``(th0, th1)``: written out cell by cell in ``mpmath.iv``."""
    b = iv.mpf(beta)
    sums = [iv.mpf(0)] * 5
    cells = itertools.product(plan.temps.tolist(), plan.times.tolist())
    for (w, t), frac in zip(cells, np.ravel(r).tolist()):
        lt = iv.exp(th0 + th1 * w) * t
        S = iv.exp(-lt)
        F = -iv.expm1(-lt)
        tf = lt * S
        resid = F - frac
        bracket = F ** (b - 1) + S ** (b - 1)
        hp = (b + 1) * resid * bracket
        hpp = (b + 1) * (bracket
                         + (b - 1) * resid * (F ** (b - 2) - S ** (b - 2)))
        g = hp * tf
        h = hpp * tf * tf + hp * tf * (1 - lt)
        for k, term in enumerate((g, g * w, h, h * w, h * w * w)):
            sums[k] += term
    return [total / plan.n_cells for total in sums]


def certify(r, plan: TestPlan, beta: float, theta, radius: float):
    """A Krawczyk (1969) certificate for the fit ``theta`` = (log alpha0,
    alpha1) of the failure fractions ``r`` (I, J) on ``plan``.

    Over the box X of half-width ``radius`` about x = ``theta``, in 80-bit
    interval arithmetic, with Y a float inverse of the midpoint of the
    interval Hessian H(X): when the Krawczyk image

        K(X) = x - Y g(x) + (I - Y H(X)) (X - x)

    lies inside X, the gradient g has exactly one zero in X, and when
    H(X) is positive definite (h00 > 0 and det > 0 over X) that zero is a
    strict local minimiser of the solver's objective.  Returns K(X), the
    pair of intervals that encloses it, or None when either test fails.
    """
    from mpmath import iv

    prec, iv.prec = iv.prec, 80
    try:
        x = [iv.mpf(float(v)) for v in theta]
        X = [v + iv.mpf([-radius, radius]) for v in x]
        g = _theta_derivatives(iv, r, plan, beta, *x)[:2]
        h00, h01, h11 = _theta_derivatives(iv, r, plan, beta, *X)[2:]
        if not (h00.a > 0 and (h00 * h11 - h01 * h01).a > 0):
            return None
        H = [[h00, h01], [h01, h11]]
        Y = np.linalg.inv([[float(h.mid) for h in row] for row in H]).tolist()
        K = [x[i] - (Y[i][0] * g[0] + Y[i][1] * g[1])
             + sum(((i == j) - Y[i][0] * H[0][j] - Y[i][1] * H[1][j])
                   * (X[j] - x[j]) for j in range(2))
             for i in range(2)]
        inside = all(X[i].a < K[i].a and K[i].b < X[i].b for i in range(2))
        return K if inside else None
    finally:
        iv.prec = prec


def numpy_binomial(n: int, p: float, next_double) -> int:
    """One draw of numpy's ``random_binomial``, transcribed from
    ``numpy/random/src/distributions/distributions.c`` (numpy 2.x) for the
    cells it draws by inversion, ``random_binomial_inversion``
    (Kachitvichyanukul & Schmeiser 1988); ``next_double()`` gives each
    uniform the bit generator would.  The BTPE branch, taken when
    n min(p, 1 - p) > 30, is not transcribed: it raises
    NotImplementedError."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        if p * n <= 30.0:
            return _binomial_inversion(n, p, next_double)
        raise NotImplementedError("numpy draws this cell by BTPE")
    q = 1.0 - p
    if q * n <= 30.0:
        return n - _binomial_inversion(n, q, next_double)
    raise NotImplementedError("numpy draws this cell by BTPE")


def _binomial_inversion(n: int, p: float, next_double) -> int:
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x = 0
    px = qn
    u = next_double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x
