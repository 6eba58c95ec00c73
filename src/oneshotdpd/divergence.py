"""Divergence measures between observed and model probability vectors.

The estimation objective is the density power divergence with tuning
parameter ``beta >= 0``.  ``beta = 0`` is handled as an exact
Kullback-Leibler / log-likelihood branch (not a small-beta limit), so the
maximum likelihood fit is bit-stable.  All cell sums use numpy's pairwise
summation.

The per-cell objective terms (:func:`_dpd_terms`), the ``F^p + S^p``
bracket (:func:`_bracket`) and the theta-coordinate cell sum
(:func:`_theta_cell_sum`) are the one copy of that math; the solver, the
estimating equations and the sandwich all call them.
"""

from __future__ import annotations

import numpy as np

from .model import FailureTable, ModelParams, _plan_cells, cell_probs


def _pair(p, q):
    """Entry arrays of two probability vectors of the same length."""
    p, q = (np.asarray(getattr(v, "entries", v), dtype=float) for v in (p, q))
    if p.shape != q.shape:
        raise ValueError("p and q must have the same length")
    return p, q


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be a finite real >= 0, got {beta}")
    return beta


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
    p, q = _pair(p, q)
    terms = (
        q ** (beta + 1.0)
        - (1.0 + 1.0 / beta) * q**beta * p
        + p ** (beta + 1.0) / beta
    )
    return float(np.sum(terms))


def _dpd_terms(r, F, S, lt, beta: float) -> np.ndarray:
    """Per-cell terms of the estimation objective (see :func:`dpd_objective`).

    ``r`` is the observed failure fraction and ``F``, ``S``, ``lt`` come
    from :func:`oneshotdpd.model._cells`; the arrays broadcast, so a batch
    of parameter points sums over its trailing cell axes.  At ``beta = 0``
    the terms are Kullback-Leibler terms with log survival taken as
    ``-lambda t`` exactly, so enormous rates stay finite.
    """
    with np.errstate(all="ignore"):
        if beta == 0.0:
            return (np.where(r > 0, r * (np.log(r) - np.log(F)), 0.0)
                    + np.where(r < 1, (1 - r) * (np.log1p(-r) + lt), 0.0))
        return (
            F ** (beta + 1.0)
            + S ** (beta + 1.0)
            - (1.0 + beta) / beta * (r * F**beta + (1.0 - r) * S**beta)
        )


def _power(x, p):
    """``x ** p`` for a scalar ``p`` or one exponent per row of ``x``,
    shaped (n, 1, 1).  Rows sharing an exponent are raised by it as a
    scalar, so each keeps the bits of its own scalar evaluation (numpy
    takes exact paths, such as sqrt at 0.5, only for scalar exponents)."""
    if np.ndim(p) == 0:
        return x**p
    p = np.ravel(p)
    out = np.empty(x.shape)
    for value in np.unique(p):
        out[p == value] = x[p == value] ** value
    return out


def _bracket(F, S, p):
    """The ``F^p + S^p`` factor of the estimating equations and sandwich;
    ``p`` is a scalar or per-row (see :func:`_power`)."""
    return _power(F, p) + _power(S, p)


def _cell_sum(a) -> np.ndarray:
    """Sum over the trailing (I, J) cell axes; leading row axes remain."""
    return np.sum(a, axis=(-2, -1))


def _w_powers(w) -> np.ndarray:
    """``(1, w, w^2)`` stacked on a new leading axis."""
    return np.stack([np.ones_like(w), w, w**2])


def _theta_cell_sum(a, w_powers) -> np.ndarray:
    """``[[sum a, sum a w], [sum a w, sum a w^2]]`` over the cells.

    This is the cell sum of ``a`` times the outer product of the gradient
    ``(1, w)`` of ``log lambda`` in ``theta = (log alpha0, alpha1)``;
    ``w_powers`` comes from :func:`_w_powers`.  ``a`` may carry leading row
    axes; the result then has shape (..., 2, 2).
    """
    sums = _cell_sum(a[..., None, :, :] * w_powers)
    return sums[..., [0, 1, 1, 2]].reshape(sums.shape[:-1] + (2, 2))


def log_likelihood(table: FailureTable, params: ModelParams) -> float:
    """Binomial log-likelihood of the failure table under ``params``.

    Cells with zero counts on one side contribute nothing from that side.
    Data impossible under ``params`` (failures where the failure probability
    is exactly 0) give -inf.  Survivor terms use log survival = -lambda t
    evaluated exactly, so enormous rates give a finite, very negative value
    instead of overflowing through log(1 - F).
    """
    lt, F, _, _ = _plan_cells(params, table.plan)
    n = table.counts
    K = table.plan.devices
    with np.errstate(divide="ignore", invalid="ignore"):
        fail_terms = np.where(n > 0, n * np.log(F), 0.0)
        surv_terms = np.where(n < K, -(K - n) * lt, 0.0)
    total = float(np.sum(fail_terms) + np.sum(surv_terms))
    return total if not np.isnan(total) else -np.inf


def dpd_objective(table: FailureTable, params: ModelParams, beta: float) -> float:
    """Estimation objective: per-cell average of the divergence kernel.

    With per-cell failure fraction r = n/K and model probability F this is

        mean_ij[ F^(1+b) + (1-F)^(1+b) - (1+b)/b * (r F^b + (1-r)(1-F)^b) ]

    for ``beta = b > 0``, and the Kullback-Leibler divergence between the
    observed and model probability vectors for ``beta = 0``.  It differs
    from ``dpd(observed_probs(table), theoretical_probs(params, plan), b)``
    by a positive factor and a data-only constant, so both have identical
    minimizers.
    """
    beta = _check_beta(beta)
    lt, F, S, _ = _plan_cells(params, table.plan)
    terms = _dpd_terms(table.frequencies, F, S, lt, beta)
    return float(np.sum(terms) / table.plan.n_cells)


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
