"""The estimation objective: the density power divergence, cell by cell.

With the Box-Cox transform E(x) = (x^beta - 1) / beta, which is log x at
``beta = 0``, the density power divergence of Basu, Harris, Hjort & Jones
(1998) with tuning parameter ``beta >= 0`` between a cell's observed and
model (failure, survival) probabilities (r, 1 - r) and (F, S) is

    beta (F - r)(E(F) - E(S)) - r E(F) - (1 - r) E(S)
        + r E(r) + (1 - r) E(1 - r),

one formula for every ``beta``: at ``beta = 0`` it is the
Kullback-Leibler term.  Its first line, the model part
(:func:`_dpd_terms`), is what the solver minimises; its second, the data
part (:func:`_data_terms`), is minus the first at F = r, so the
divergence is 0 there; it does not depend on the parameters and is added
once per table wherever a value is reported.  E is taken from
log x, with log S = -lambda t exactly, so enormous rates stay finite and
a subnormal ``beta`` gives the ``beta = 0`` values.  All cell sums use
numpy's pairwise summation.

The per-cell terms and the ``F^(beta-1) + S^(beta-1)`` bracket
(:func:`_bracket`) are the one copy of that math; :func:`dpd_objective`,
the solver kernel and the sandwich all call them.  The last two read the
plan's cell vectors from :attr:`~oneshotdpd.model.TestPlan.cell_vectors`
and work rows-first, as every table does: a per-cell array is (rows, C)
for the C = I J cells of a plan in row-major (stress, time) order, so
each elementwise step is one numpy call over every row, and each row's
cells are contiguous, summed in the pairwise order of a (rows, I, J)
table.
"""

from __future__ import annotations

import numpy as np

from .model import FailureTable, ModelParams, _check_number, _plan_cells


_TINY = np.finfo(float).tiny


def _check_beta(beta) -> float:
    """``beta`` as a float: a finite real >= 0.  A bool, a string or bytes
    is refused with ValueError instead of being read as a number."""
    _check_number(beta, "beta")
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be a finite real >= 0, got {beta}")
    return beta


def _check_betas(betas) -> tuple[float, ...]:
    """Path betas: non-empty, finite, >= 0 and ascending (repeats allowed)."""
    if isinstance(betas, (str, bytes)):
        raise ValueError(f"betas must be a list of numbers, got {betas!r}")
    betas = tuple(_check_beta(b) for b in betas)
    if not betas:
        raise ValueError("betas must be non-empty")
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be sorted ascending")
    return betas


def _box_cox(log_x, beta: float):
    """E(x) = (x^beta - 1) / beta = expm1(beta log x) / beta from
    ``log_x`` <= 0, and log x itself at ``beta = 0``.  At a subnormal
    ``beta``, beta log x keeps too few digits to divide by beta: it is
    subnormal or 0 unless log x is huge, and then E's next term changes
    log x by the relative amount beta log x / 2, below a double's
    resolution, so E is log x there."""
    if beta == 0.0:
        return log_x
    u = beta * log_x
    if beta < _TINY:
        return np.where(u < -_TINY, np.expm1(u) / beta, log_x)
    return np.expm1(u) * (1.0 / beta)


def _dpd_terms(r, F, S, lt, beta: float) -> np.ndarray:
    """Per-cell model part of the divergence (see the module docstring),
    ``beta (F - r)(E(F) - E(S)) - r E(F) - (1 - r) E(S)``.

    ``r`` is the observed failure fraction and ``F``, ``S``, ``lt`` come
    from :func:`oneshotdpd.model._cells`; the arrays broadcast, so a batch
    of parameter points sums over its trailing cell axes.  The terms are
    summed as ``(d - r) E(F) - (d + 1 - r) E(S)`` with d = beta (F - r),
    whose second factor is small where r and F are near 1.  Where F > 1/2,
    log F and F - r are taken from S, which keeps their digits as F nears
    1.  A term that is 0 times an infinite E, at a cell with F = r = 0 or
    F = r = 1, is 0; any other undefined term (an infinite E, at
    ``beta = 0`` or a subnormal ``beta``, or a NaN rate) is +inf.
    """
    with np.errstate(all="ignore"):
        near_one = F > 0.5
        q = 1.0 - r
        log_F = np.where(near_one, np.log1p(-S), np.log(F))
        resid = np.where(near_one, q - S, F - r)
        EF = _box_cox(log_F, beta)
        ES = _box_cox(-lt, beta)
        d = beta * resid
        terms = (d - r) * EF - (d + q) * ES
    undefined = np.isnan(terms)
    if undefined.any():
        terms = np.where(undefined, np.where(F == r, 0.0, np.inf), terms)
    return terms


def _data_terms(r, beta: float) -> np.ndarray:
    """Per-cell data part of the divergence, ``r E(r) + (1 - r) E(1 - r)``:
    minus the model part where the model reproduces the data, F = r, so
    the divergence is 0 there.  It is free of the parameters, and 0 where
    r is 0 or 1."""
    with np.errstate(all="ignore"):
        terms = (r * _box_cox(np.log(r), beta)
                 + (1.0 - r) * _box_cox(np.log1p(-r), beta))
    return np.where((r > 0.0) & (r < 1.0), terms, 0.0)


def _bracket(F, S, beta: float):
    """The ``F^(beta-1) + S^(beta-1)`` factor of the estimating equations
    and of both sandwich matrices, at the one tuning parameter ``beta``."""
    return F ** (beta - 1.0) + S ** (beta - 1.0)


def dpd_objective(table: FailureTable, params: ModelParams, beta: float) -> float:
    """Estimation objective: the per-cell average of the density power
    divergence between observed and model cell probabilities.

    With per-cell failure fraction r = n/K, model probabilities F and
    S = 1 - F and E(x) = (x^b - 1) / b (log x at b = 0) this is

        mean_ij[ b (F - r)(E(F) - E(S)) + r (E(r) - E(F))
                 + (1 - r)(E(1 - r) - E(S)) ]

    for ``beta = b >= 0``: exactly (IJ)^b times the density power
    divergence between the 2IJ-point vectors ``(r/IJ, (1-r)/IJ)`` and
    ``(F/IJ, S/IJ)``, and the Kullback-Leibler divergence between them at
    ``b = 0``.  It is >= 0, 0 where r = F, and comparable across ``b``,
    and resolved to about 1e-16/b absolute, since its data part cancels a
    model part of about 1/b per cell (at b = 200, ``table1``'s minimum of
    7.1e-13 to about 4e-6 relative).  A fit's ``objective`` is this value
    at log alpha0 and so matches it to rounding: 5 of ``table1``'s 31 cold
    fits along 0:0.1:3 differ, by at most 3.7e-15 relative.
    Raises :class:`~oneshotdpd.errors.NumericalOverflow` when a rate at a
    plan stress exceeds the double range.
    """
    beta = _check_beta(beta)
    lt, F, S, _ = _plan_cells(params, table.plan)
    r = table.frequencies.ravel()
    n_cells = table.plan.n_cells
    return float(np.sum(_dpd_terms(r, F, S, lt, beta)) / n_cells
                 + np.sum(_data_terms(r, beta)) / n_cells)
