"""The estimation objective: the density power divergence, cell by cell.

The density power divergence with tuning parameter ``beta >= 0`` between
the 2IJ-point observed and model probability vectors is written here per
cell, with the same minimiser (the vector form is a test oracle).
``beta = 0`` is handled as an exact Kullback-Leibler / log-likelihood
branch (not a small-beta limit), so the maximum likelihood fit is
bit-stable.  All cell sums use numpy's pairwise summation.

The per-cell objective terms (:func:`_dpd_terms`) and the
``F^(beta-1) + S^(beta-1)`` bracket (:func:`_bracket`) are the one copy of
that math; :func:`dpd_objective`, the solver kernel and the sandwich all
call them.  The last two read the plan's cell vectors from
:attr:`~oneshotdpd.model.TestPlan.cell_vectors` and work rows-first, as
every table does: a per-cell array is (rows, C) for the C = I J cells of
a plan in row-major (stress, time) order, so each elementwise step is one
numpy call over every row, and each row's cells are contiguous, summed in
the pairwise order of a (rows, I, J) table.
"""

from __future__ import annotations

import numpy as np

from .model import FailureTable, ModelParams, _plan_cells


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be a finite real >= 0, got {beta}")
    # the beta > 0 cell terms carry (1 + beta) / beta: from 1e-300 up it
    # stays 1e8 below the double range, so the cell sums stay finite
    if 0.0 < beta < 1e-300:
        raise ValueError(f"beta must be 0 or at least 1e-300, got {beta}")
    return beta


def _check_betas(betas) -> tuple[float, ...]:
    """Path betas: non-empty, finite, >= 0 and ascending (repeats allowed)."""
    betas = tuple(_check_beta(b) for b in betas)
    if not betas:
        raise ValueError("betas must be non-empty")
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be sorted ascending")
    return betas


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


def _bracket(F, S, beta: float):
    """The ``F^(beta-1) + S^(beta-1)`` factor of the estimating equations
    and of both sandwich matrices, at the one tuning parameter ``beta``."""
    return F ** (beta - 1.0) + S ** (beta - 1.0)


def dpd_objective(table: FailureTable, params: ModelParams, beta: float) -> float:
    """Estimation objective: per-cell average of the divergence kernel.

    With per-cell failure fraction r = n/K and model probability F this is

        mean_ij[ F^(1+b) + (1-F)^(1+b) - (1+b)/b * (r F^b + (1-r)(1-F)^b) ]

    for ``beta = b > 0``, and the Kullback-Leibler divergence between the
    observed and model probability vectors for ``beta = 0``.  For
    ``b > 0`` it differs from the density power divergence between the
    2IJ-point vectors ``(r/IJ, (1-r)/IJ)`` and ``(F/IJ, (1-F)/IJ)`` by a
    positive factor and a data-only constant, so both have identical
    minimizers.
    """
    beta = _check_beta(beta)
    lt, F, S, _ = _plan_cells(params, table.plan)
    terms = _dpd_terms(table.frequencies.ravel(), F, S, lt, beta)
    return float(np.sum(terms) / table.plan.n_cells)
