"""Minimum divergence estimation of the rate-link parameters.

The estimate for tuning parameter ``beta`` minimizes
:func:`oneshotdpd.divergence.dpd_objective`; ``beta = 0`` gives the maximum
likelihood estimate.  The solver works internally in ``theta = (log alpha0,
alpha1)`` coordinates, which keeps ``alpha0`` positive without constraints,
and runs Newton steps safeguarded by a backtracking line search.  Cold
starts scan a coarse log-spaced grid first; the estimating equations can be
flat or multimodal under heavy contamination, so the top grid candidates
are each refined and disagreements are reported as a diagnostic.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import inference
from .divergence import _bracket, _check_beta, _dpd_terms, _theta_cell_sum
from .errors import NoInteriorData, SingularInformation
from .model import FailureTable, ModelParams, _cells

_F_MIN = 1e-300
_F_MAX = 1.0 - 1e-16
_EQ_CAP = 1e30

_GRID_ALPHA0 = np.geomspace(1e-6, 1.0, 41)
_GRID_ALPHA1 = np.linspace(-1.0, 1.0, 41)


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``grad_tol`` applies to the max-abs gradient of the objective in the
    internal (log alpha0, alpha1) coordinates; ``step_tol`` to the max-abs
    parameter change per iteration in the same coordinates.  When
    ``grid_init`` is false the solver starts from ``init`` (or from the
    previous solution in a warm-started path fit).
    """

    max_iters: int = 200
    grad_tol: float = 1e-10
    step_tol: float = 1e-12
    grid_init: bool = True
    init: ModelParams | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.grad_tol > 0 and self.step_tol > 0):
            raise ValueError("tolerances must be > 0")
        if not self.grid_init and self.init is None:
            raise ValueError("grid_init=False requires an explicit init")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus solver and inference diagnostics.

    ``grad_norm`` is the max-abs objective gradient in the internal
    coordinates at ``params``; ``converged`` is true exactly when it is at
    or below the configured tolerance.  ``multistart_spread`` is the widest
    disagreement (same coordinates) between refined grid candidates; values
    above ~1e-6 hint at a flat or multimodal objective.  ``covariance`` is
    the model-based sandwich evaluated at the estimate, or None when the
    information matrix was too ill-conditioned.
    """

    beta: float
    params: ModelParams
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    covariance: "inference.SandwichCovariance | None" = None
    boundary_clamped: bool = False
    multistart_spread: float = 0.0


class _CellData:
    """Plan arrays unpacked once per fit."""

    def __init__(self, table: FailureTable):
        plan = table.plan
        self.w = plan.temps[:, None]
        self.t = plan.times[None, :]
        self.r = table.frequencies
        self.n_cells = plan.n_cells
        self.k_mean = plan.mean_devices


def _theta_of(params: ModelParams) -> np.ndarray:
    return np.array([np.log(params.alpha0), params.alpha1])


def _cells_at(theta: np.ndarray, data: _CellData):
    return _cells(np.exp(theta[0] + theta[1] * data.w), data.t)


def _objective_theta(theta: np.ndarray, data: _CellData, beta: float) -> float:
    lt, F, S, _ = _cells_at(theta, data)
    val = np.sum(_dpd_terms(data.r, F, S, lt, beta)) / data.n_cells
    return float(val) if not np.isnan(val) else np.inf


def _grad_hess_theta(theta: np.ndarray, data: _CellData, beta: float):
    """Gradient and Hessian in theta coordinates, with boundary guards.

    Exponents like F^(beta-1) blow up as F -> 0 for beta < 1; F and S are
    clamped into [1e-300, 1 - 1e-16] on that path and the clamping is
    reported so callers can flag the fit.
    """
    lt, F, S, f = _cells_at(theta, data)
    clamped = bool(np.any(F < _F_MIN) or np.any(F > _F_MAX))
    Fc = np.clip(F, _F_MIN, _F_MAX)
    Sc = np.clip(S, _F_MIN, _F_MAX)
    r = data.r
    b = beta
    with np.errstate(all="ignore"):
        bracket = _bracket(Fc, Sc, b - 1.0)
        hp = (b + 1.0) * (F - r) * bracket
        hpp = (b + 1.0) * (
            bracket + (b - 1.0) * (F - r) * (Fc ** (b - 2.0) - Sc ** (b - 2.0))
        )
        tf = data.t * f
        curv = tf * (1.0 - lt)
        g = np.array([np.sum(hp * tf), np.sum(hp * tf * data.w)]) / data.n_cells
        H = _theta_cell_sum(hpp * tf * tf + hp * curv, data.w) / data.n_cells
    return g, H, clamped


def estimating_equations(
    table: FailureTable,
    params: ModelParams,
    beta: float,
    full_output: bool = False,
):
    """Left-hand sides of the stationarity system for the divergence fit.

    Component p sums, over cells,

        Kbar * (F - n/K) * f * t * [F^(b-1) + (1-F)^(b-1)]  (* w for p = 1)

    where Kbar is the mean cell size, so a balanced plan gives exactly
    sum (K F - n) f t [...].  This is the solver's theta gradient scaled by
    ``IJ Kbar / (b+1)``, so both components vanish at the estimate.  The
    near-boundary exponents are evaluated with F clamped into
    [1e-300, 1 - 1e-16] and the results capped at 1e30 in magnitude; pass
    ``full_output=True`` to receive a dict with the ``clamped`` flag.
    """
    beta = _check_beta(beta)
    data = _CellData(table)
    g, _, clamped = _grad_hess_theta(_theta_of(params), data, beta)
    with np.errstate(all="ignore"):
        vals = g * (data.k_mean * data.n_cells / (beta + 1.0))
    if np.any(np.abs(vals) > _EQ_CAP) or np.any(~np.isfinite(vals)):
        clamped = True
        vals = np.clip(np.nan_to_num(vals, nan=_EQ_CAP, posinf=_EQ_CAP,
                                     neginf=-_EQ_CAP), -_EQ_CAP, _EQ_CAP)
    out = (float(vals[0]), float(vals[1]))
    if full_output:
        return out, {"clamped": clamped}
    return out


def _grid_candidates(data: _CellData, beta: float, n_starts: int = 3):
    """Best coarse-grid points, deduplicated by basin distance."""
    A0, A1 = np.meshgrid(_GRID_ALPHA0, _GRID_ALPHA1, indexing="ij")
    a0 = A0.ravel()
    a1 = A1.ravel()
    lam = a0[:, None, None] * np.exp(a1[:, None, None] * data.w)
    lt, F, S, _ = _cells(lam, data.t)
    vals = np.sum(_dpd_terms(data.r, F, S, lt, beta), axis=(1, 2))
    vals = np.where(np.isnan(vals), np.inf, vals)
    best = vals.min()
    if not np.isfinite(best):
        return [np.array([np.log(1e-3), 0.0])]
    # ties within 1e-12 break toward the smallest alpha0, then alpha1
    tied = np.flatnonzero(vals <= best + 1e-12)
    tied = tied[np.lexsort((a1[tied], a0[tied]))]
    first = tied[0]
    order = np.argsort(vals, kind="stable")
    starts = [np.array([np.log(a0[first]), a1[first]])]
    for idx in order:
        if len(starts) >= n_starts:
            break
        cand = np.array([np.log(a0[idx]), a1[idx]])
        if not np.isfinite(vals[idx]):
            break
        if all(np.max(np.abs(cand - s)) >= 1.0 for s in starts):
            starts.append(cand)
    return starts


def _newton(theta0: np.ndarray, data: _CellData, beta: float,
            config: SolverConfig):
    theta = theta0.copy()
    fval = _objective_theta(theta, data, beta)
    clamped_any = False
    iterations = 0
    grad_norm = np.inf
    for iterations in range(1, config.max_iters + 1):
        g, H, clamped = _grad_hess_theta(theta, data, beta)
        clamped_any |= clamped
        grad_norm = float(np.max(np.abs(g)))
        if not np.isfinite(grad_norm):
            break
        if grad_norm <= config.grad_tol:
            break
        step = None
        # Newton direction only when the Hessian is safely positive definite
        if np.all(np.isfinite(H)) and H[0, 0] > 0.0:
            det = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]
            if det > 0.0:
                step = np.array(
                    [
                        (-g[0] * H[1, 1] + g[1] * H[0, 1]) / det,
                        (g[0] * H[1, 0] - g[1] * H[0, 0]) / det,
                    ]
                )
        if step is None or not np.all(np.isfinite(step)):
            step = -g
        slope = float(np.dot(g, step))
        if slope >= 0.0:
            step = -g
            slope = -float(np.dot(g, g))
        size = np.max(np.abs(step))
        if size > 5.0:
            step = step * (5.0 / size)
            slope = float(np.dot(g, step))
        # rounding allowance: near the optimum the true decrease drops below
        # double resolution of the objective; without it the search stalls
        allowance = 4e-16 * max(1.0, abs(fval))
        lam = 1.0
        accepted = False
        while lam >= 1e-13:
            trial = theta + lam * step
            ftrial = _objective_theta(trial, data, beta)
            if ftrial <= fval + 1e-4 * lam * slope + allowance:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        moved = lam * np.max(np.abs(step))
        theta = trial
        fval = ftrial
        # a stalled step or the last iteration: report the final gradient
        if moved < config.step_tol or iterations == config.max_iters:
            g, _, clamped = _grad_hess_theta(theta, data, beta)
            clamped_any |= clamped
            grad_norm = float(np.max(np.abs(g)))
            break
    return theta, fval, grad_norm, iterations, clamped_any


def fit(table: FailureTable, beta: float, config: SolverConfig | None = None
        ) -> FitResult:
    """Fit the rate-link parameters at tuning parameter ``beta``.

    Deterministic given inputs and configuration.  Raises
    :class:`~oneshotdpd.errors.NoInteriorData` when no cell has a failure
    count strictly between 0 and its size (the minimizer then degenerates).
    When the iteration cap is hit the best iterate is returned with
    ``converged=False`` instead of raising.
    """
    beta = _check_beta(beta)
    if config is None:
        config = SolverConfig()
    if not table.has_interior_cell():
        raise NoInteriorData(
            "every cell is all-failure or all-survival; the estimate "
            "degenerates toward a boundary and is not returned"
        )
    data = _CellData(table)
    starts = _grid_candidates(data, beta) if config.grid_init else []
    if config.init is not None:
        starts.insert(0, _theta_of(config.init))

    runs = [_newton(s, data, beta, config) for s in starts]
    finals = [r for r in runs if np.isfinite(r[1])] or runs
    # among objective values equal to rounding, prefer the best-polished run
    f_best = min(r[1] for r in finals)
    close = [r for r in finals
             if r[1] <= f_best + 1e-12 * max(1.0, abs(f_best))]
    best = min(close, key=lambda r: (r[2], r[0][0], r[0][1]))
    theta, fval, grad_norm, iterations, clamped = best
    converged_thetas = [r[0] for r in finals if r[2] <= config.grad_tol]
    spread = max((float(np.max(np.abs(a - b)))
                  for a, b in itertools.combinations(converged_thetas, 2)),
                 default=0.0)
    params = ModelParams(float(np.exp(theta[0])), float(theta[1]))
    try:
        covariance = inference.sandwich(params, table.plan, beta)
    except SingularInformation:
        covariance = None
    return FitResult(
        beta=beta,
        params=params,
        objective=fval,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=bool(grad_norm <= config.grad_tol),
        covariance=covariance,
        boundary_clamped=clamped,
        multistart_spread=spread,
    )


def fit_path(table: FailureTable, betas, config: SolverConfig | None = None
             ) -> list[FitResult]:
    """Fit a sorted grid of tuning parameters, warm-starting along the path.

    The first entry is fitted per ``config`` (grid initialization by
    default); each later entry starts from the previous solution.  Warm
    starts land on the same optimum as independent cold fits, up to the
    step tolerance.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must be non-empty")
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be sorted ascending")
    if config is None:
        config = SolverConfig()
    results = [fit(table, betas[0], config)]
    for beta in betas[1:]:
        warm = dataclasses.replace(
            config, grid_init=False, init=results[-1].params
        )
        results.append(fit(table, beta, warm))
    return results
