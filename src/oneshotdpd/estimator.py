"""Minimum divergence estimation of the rate-link parameters.

The estimate for tuning parameter ``beta`` minimizes
:func:`oneshotdpd.divergence.dpd_objective`; ``beta = 0`` gives the maximum
likelihood estimate.  The solver works internally in ``theta = (log alpha0,
alpha1)`` coordinates, which keeps ``alpha0`` positive without constraints,
and runs Newton steps safeguarded by a backtracking line search.  Cold
starts scan a coarse log-spaced grid first; the estimating equations can be
flat or multimodal under heavy contamination, so the top grid candidates
are each refined and disagreements are reported as a diagnostic.

One path engine fits rows of tables along a sorted beta grid, each row
from its last converged estimate or else from the grid, with its own
iteration, line search and stopping rule: :func:`fit` is a one-beta path,
the causes of a two-cause study are the rows of one path, and the
Monte-Carlo harness runs it on whole blocks of tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import inference
from .divergence import (_bracket, _cell_sum, _check_beta, _dpd_terms,
                         _theta_cell_sum, _w_powers)
from .errors import NoInteriorData
from .model import FailureTable, ModelParams, TestPlan, _cells

_F_MIN = 1e-300
_F_MAX = 1.0 - 1e-16
_EQ_CAP = 1e30

# the axes of the 41 x 41 cold-start grid
_GRID_A0 = np.geomspace(1e-6, 1.0, 41)
_GRID_LOG_A0 = np.log(_GRID_A0)
_GRID_A1 = np.linspace(-1.0, 1.0, 41)


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``grad_tol`` applies to the max-abs gradient of the objective in the
    internal (log alpha0, alpha1) coordinates; ``step_tol`` to the max-abs
    parameter change per iteration in the same coordinates.
    """

    max_iters: int = 200
    grad_tol: float = 1e-10
    step_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.grad_tol > 0 and self.step_tol > 0):
            raise ValueError("tolerances must be > 0")


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
    """Plan arrays unpacked once per fit or study.

    The kernels below take the observed failure fractions ``r`` next to
    this: shape (I, J) for one table with theta of shape (2,), or
    (rows, I, J) for a block of tables with theta of shape (rows, 2).
    """

    def __init__(self, plan: TestPlan):
        self.w = plan.temps[:, None]
        self.t = plan.times[None, :]
        self.w_powers = _w_powers(self.w)
        self.n_cells = plan.n_cells
        self.k_mean = plan.mean_devices


def _cells_at(theta: np.ndarray, data: _CellData):
    """:func:`_cells` at theta (..., 2); a rate that overflows gives
    infinite or NaN cells, which the objective reports as +inf."""
    theta = theta[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return _cells(np.exp(theta[..., 0, :, :]
                             + theta[..., 1, :, :] * data.w), data.t)


def _objective_theta(theta: np.ndarray, r: np.ndarray, data: _CellData,
                     beta: float):
    """Objective at theta (..., 2); NaN is reported as +inf."""
    lt, F, S, _ = _cells_at(theta, data)
    val = _cell_sum(_dpd_terms(r, F, S, lt, beta)) / data.n_cells
    return np.where(np.isnan(val), np.inf, val)


def _grad_hess_theta(theta: np.ndarray, r: np.ndarray, data: _CellData,
                     beta: float):
    """Gradient (..., 2) and Hessian (..., 2, 2) in theta coordinates, with
    boundary guards.

    Exponents like F^(beta-1) blow up as F -> 0 for beta < 1; F and S are
    clamped into [1e-300, 1 - 1e-16] on that path and the clamping is
    reported per row so callers can flag the fit.
    """
    lt, F, S, f = _cells_at(theta, data)
    clamped = ((F < _F_MIN) | (F > _F_MAX)).any(axis=(-2, -1))
    Fc = np.clip(F, _F_MIN, _F_MAX)
    Sc = np.clip(S, _F_MIN, _F_MAX)
    b = beta
    with np.errstate(all="ignore"):
        bracket = _bracket(Fc, Sc, b - 1.0)
        hp = (b + 1.0) * (F - r) * bracket
        hpp = (b + 1.0) * (
            bracket + (b - 1.0) * (F - r) * (Fc ** (b - 2.0) - Sc ** (b - 2.0))
        )
        tf = data.t * f
        curv = tf * (1.0 - lt)
        g = _cell_sum((hp * tf)[..., None, :, :] * data.w_powers[:2])
        g /= data.n_cells
        H = _theta_cell_sum(hpp * tf * tf + hp * curv, data.w_powers)
        H /= data.n_cells
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
    data = _CellData(table.plan)
    theta = np.array([np.log(params.alpha0), params.alpha1])
    g, _, clamped = _grad_hess_theta(theta, table.frequencies, data, beta)
    clamped = bool(clamped)
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


class _GridTable:
    """The data-free part of the cold-start scan at one (plan, beta).

    Each cell's objective term is affine in its observed fraction r:
    ``r * fail + (1 - r) * surv``, plus a data-only term at beta = 0 that
    moves every grid point alike.  The table holds ``fail`` and ``surv``
    for every cell and grid point, so scoring a block of tables costs one
    (rows, grid) product per cell.  Build it once per plan and beta.
    """

    def __init__(self, plan: TestPlan, beta: float):
        a0 = np.repeat(_GRID_A0, _GRID_A1.size)[:, None, None]
        a1 = np.tile(_GRID_A1, _GRID_A0.size)[:, None, None]
        with np.errstate(all="ignore"):
            lt, F, S, _ = _cells(a0 * np.exp(a1 * plan.temps[:, None]),
                                 plan.times)
            if beta == 0.0:
                fail, surv = -np.log(F), lt
            else:
                both = F ** (beta + 1.0) + S ** (beta + 1.0)
                k = (1.0 + beta) / beta
                fail, surv = both - k * F**beta, both - k * S**beta
        # one contiguous (grid,) row per cell
        self.fail = fail.reshape(len(F), -1).T.copy()
        self.surv = surv.reshape(len(F), -1).T.copy()
        self.beta = beta

    def values(self, r: np.ndarray) -> np.ndarray:
        """Unscaled objective (rows, grid) of the tables with fractions r.

        A side whose fraction is 0 contributes nothing, even where its
        model term is infinite (0 log 0 = 0); NaN is reported as +inf.
        """
        r = r.reshape(len(r), -1)
        vals = np.zeros((len(r), self.fail.shape[1]))
        term = np.empty_like(vals)
        with np.errstate(all="ignore"):
            if self.beta == 0.0:
                vals += np.sum(np.where(r > 0, r * np.log(r), 0.0)
                               + np.where(r < 1, (1 - r) * np.log1p(-r), 0.0),
                               axis=1, keepdims=True)
            for c in range(r.shape[1]):
                rc = r[:, c, None]
                np.add(vals, np.multiply(rc, self.fail[c], out=term),
                       out=vals, where=rc > 0)
                np.add(vals, np.multiply(1 - rc, self.surv[c], out=term),
                       out=vals, where=rc < 1)
        vals[np.isnan(vals)] = np.inf
        return vals


def _grid_theta(index: np.ndarray) -> np.ndarray:
    """Theta (..., 2) of flat grid indices (alpha0-major)."""
    i0, i1 = np.divmod(index, _GRID_A1.size)
    return np.stack([_GRID_LOG_A0[i0], _GRID_A1[i1]], -1)


def _grid_starts(grid: _GridTable, r: np.ndarray, n_starts: int = 3):
    """Best coarse-grid points of each table, deduplicated by basin distance.

    Returns the starts ``theta`` (n, 2) and their rows of ``r`` (n,).
    """
    vals = grid.values(r)
    rows = np.arange(len(vals))
    best = vals.min(axis=1)
    # ties within 1e-12 break toward the smallest alpha0, then alpha1: the
    # grid is flattened alpha0-major, so that is the smallest index
    picks = [np.argmax(vals <= best[:, None] + 1e-12, axis=1)]
    for _ in range(n_starts - 1):
        # each further start is the best point at max-abs theta distance
        # >= 1 from every earlier one (ties: the smallest index)
        last = _grid_theta(picks[-1])
        near = ((np.abs(_GRID_LOG_A0 - last[:, 0, None]) < 1.0)[:, :, None]
                & (np.abs(_GRID_A1 - last[:, 1, None]) < 1.0)[:, None, :])
        vals[near.reshape(vals.shape)] = np.inf
        pick = vals.argmin(axis=1)
        picks.append(np.where(np.isfinite(vals[rows, pick]), pick, -1))
    picks = np.stack(picks, 1)
    theta = _grid_theta(picks)
    # a table with no finite grid value starts from one fixed point
    theta[~np.isfinite(best), 0] = (np.log(1e-3), 0.0)
    found = picks >= 0
    return theta[found], np.broadcast_to(rows[:, None], picks.shape)[found]


def _newton(theta0: np.ndarray, r: np.ndarray, data: _CellData,
            beta: float, config: SolverConfig):
    """Safeguarded Newton from every row of theta0 (n, 2) at once.

    Row k fits the fractions ``r[k]``.  Each row follows its own iteration:
    a Newton direction only when the Hessian is finite and positive
    definite (otherwise steepest descent), steps capped at 5, Armijo
    backtracking down to 1e-13, and the ``grad_tol``, ``step_tol`` and
    ``max_iters`` stops.  Finished rows are masked out.  Returns per-row
    arrays (theta, objective, grad_norm, iterations, clamped).
    """
    n = len(theta0)
    theta = theta0.copy()
    fval = _objective_theta(theta, r, data, beta)
    grad_norm = np.full(n, np.inf)
    iterations = np.zeros(n, dtype=int)
    clamped = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for it in range(1, config.max_iters + 1):
        ra = r[active]
        g, H, cl = _grad_hess_theta(theta[active], ra, data, beta)
        clamped[active] |= cl
        iterations[active] = it
        gn = np.abs(g).max(axis=1)
        grad_norm[active] = gn
        go = np.isfinite(gn) & (gn > config.grad_tol)
        if not go.all():
            active, g, H, ra = active[go], g[go], H[go], ra[go]
            if active.size == 0:
                break
        step, slope = _direction(g, H)
        th, f0 = theta[active], fval[active]
        # rounding allowance: near the optimum the true decrease drops below
        # double resolution of the objective; without it the search stalls
        allowance = 4e-16 * np.maximum(1.0, np.abs(f0))
        lam = np.ones(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        pending = np.arange(active.size)
        while pending.size:
            trial = th[pending] + lam[pending, None] * step[pending]
            ftrial = _objective_theta(trial, ra[pending], data, beta)
            ok = ftrial <= (f0[pending] + 1e-4 * lam[pending] * slope[pending]
                            + allowance[pending])
            done = pending[ok]
            accepted[done] = True
            theta[active[done]] = trial[ok]
            fval[active[done]] = ftrial[ok]
            pending = pending[~ok]
            lam[pending] *= 0.5
            pending = pending[lam[pending] >= 1e-13]
        moved = lam * np.abs(step).max(axis=1)
        # a stalled step or the last iteration: report the final gradient
        final = accepted & ((moved < config.step_tol) | (it == config.max_iters))
        if final.any():
            rows = active[final]
            g, _, cl = _grad_hess_theta(theta[rows], ra[final], data, beta)
            clamped[rows] |= cl
            grad_norm[rows] = np.abs(g).max(axis=1)
        # a failed line search stops its row as well
        active = active[accepted & ~final]
        if active.size == 0:
            break
    return theta, fval, grad_norm, iterations, clamped


def _direction(g: np.ndarray, H: np.ndarray):
    """Per-row search direction and its slope g . step.

    Newton only when the Hessian is finite and safely positive definite,
    otherwise (or uphill) steepest descent; the step is capped at 5.
    """
    g0, g1 = g[:, 0], g[:, 1]
    h00, h01, h10, h11 = H[:, 0, 0], H[:, 0, 1], H[:, 1, 0], H[:, 1, 1]
    step = np.empty_like(g)
    with np.errstate(all="ignore"):
        det = h00 * h11 - h01 * h10
        step[:, 0] = (-g0 * h11 + g1 * h01) / det
        step[:, 1] = (g0 * h10 - g1 * h00) / det
    newton = (np.isfinite(H).all(axis=(1, 2)) & (h00 > 0.0) & (det > 0.0)
              & np.isfinite(step).all(axis=1))
    if not newton.all():
        step[~newton] = -g[~newton]
    slope = _dot(g, step)
    uphill = slope >= 0.0
    if uphill.any():
        step[uphill] = -g[uphill]
        slope[uphill] = -_dot(g[uphill], g[uphill])
    size = np.abs(step).max(axis=1)
    big = size > 5.0
    if big.any():
        step[big] *= (5.0 / size[big])[:, None]
        slope[big] = _dot(g[big], step[big])
    return step, slope


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _solve(r: np.ndarray, data: _CellData, beta: float, theta0: np.ndarray,
           owner: np.ndarray, config: SolverConfig):
    """Refine every row's starts in one Newton batch; keep each row's best.

    Start k, ``theta0[k]``, fits row ``owner[k]`` of ``r`` (rows, I, J),
    and every row has a start.  Among runs with a finite objective, those
    within rounding of the least objective compete and the best-polished
    one wins (smallest gradient, then theta).  ``spread`` is the widest
    max-abs disagreement between a row's converged runs.  Returns per-row
    arrays (theta, objective, grad_norm, iterations, clamped, spread).
    """
    theta, fval, grad_norm, iterations, clamped = _newton(
        theta0, r[owner], data, beta, config)
    best = np.empty(len(r), dtype=int)
    best[owner] = np.arange(len(owner))
    spread = np.zeros(len(r))
    for row in np.flatnonzero(np.bincount(owner, minlength=len(r)) > 1):
        runs = np.flatnonzero(owner == row)
        finals = [k for k in runs if np.isfinite(fval[k])] or list(runs)
        f_best = min(fval[k] for k in finals)
        close = [k for k in finals
                 if fval[k] <= f_best + 1e-12 * max(1.0, abs(f_best))]
        best[row] = min(close, key=lambda k: (grad_norm[k], theta[k, 0],
                                              theta[k, 1]))
        done = theta[[k for k in finals if grad_norm[k] <= config.grad_tol]]
        spread[row] = max((float(np.max(np.abs(a - b)))
                           for a, b in itertools.combinations(done, 2)),
                          default=0.0)
    return (theta[best], fval[best], grad_norm[best], iterations[best],
            clamped[best], spread)


def _fit_rows(r: np.ndarray, plan: TestPlan, betas, config: SolverConfig,
              grids: dict):
    """Fit every table row of ``r`` (rows, I, J) along the sorted ``betas``.

    A row starts from its last usable fit (converged, alpha0 = exp(theta0)
    a positive finite double) or else from the grid; ``grids`` caches a
    :class:`_GridTable` per beta of ``plan``.  Returns (row, beta) arrays:
    ``alpha``, the other :func:`_solve` outputs, and the ``usable`` mask.
    """
    data = _CellData(plan)
    warm = np.full((len(r), 2), np.nan)
    path = []
    for beta in betas:
        hot = ~np.isnan(warm[:, 0])
        theta0, owner = warm[hot], np.flatnonzero(hot)
        if not hot.all():
            if beta not in grids:
                grids[beta] = _GridTable(plan, beta)
            cold = np.flatnonzero(~hot)
            theta, rows = _grid_starts(grids[beta], r[cold])
            theta0 = np.concatenate([theta0, theta])
            owner = np.concatenate([owner, cold[rows]])
        theta, fval, grad_norm, iterations, clamped, spread = _solve(
            r, data, beta, theta0, owner, config)
        with np.errstate(over="ignore"):
            alpha = np.column_stack([np.exp(theta[:, 0]), theta[:, 1]])
        usable = ((grad_norm <= config.grad_tol) & np.isfinite(alpha[:, 0])
                  & (alpha[:, 0] > 0.0))
        warm[usable] = np.column_stack([np.log(alpha[usable, 0]),
                                        alpha[usable, 1]])
        path.append((alpha, fval, grad_norm, iterations, clamped, spread,
                     usable))
    return [np.stack(v, 1) for v in zip(*path)]


def fit(table: FailureTable, beta: float, config: SolverConfig | None = None
        ) -> FitResult:
    """Fit the rate-link parameters at tuning parameter ``beta``.

    Deterministic given inputs and configuration.  Raises
    :class:`~oneshotdpd.errors.NoInteriorData` when no cell has a failure
    count strictly between 0 and its size (the minimizer then degenerates).
    When the iteration cap is hit the best iterate is returned with
    ``converged=False`` instead of raising.
    """
    return fit_path(table, [beta], config)[0]


def fit_path(table: FailureTable, betas, config: SolverConfig | None = None
             ) -> list[FitResult]:
    """Fit a sorted grid of tuning parameters, warm-starting along the path.

    Each entry starts from the last converged estimate on the path, or is
    a cold fit when there is none, as in the Monte-Carlo studies.  Warm
    starts land on the same optimum as independent cold fits, up to the
    step tolerance.  Raises as :func:`fit` does.
    """
    return _fit_tables([table], betas, config)[0]


def _fit_tables(tables, betas, config: SolverConfig | None
                ) -> list[list[FitResult]]:
    """:func:`fit_path` of every table in ``tables``, which share one plan.

    The tables are the rows of one :func:`_fit_rows` call, and one
    per-row-beta sandwich call covers every (table, beta) estimate.
    Returns one list of :class:`FitResult` per table.
    """
    betas = [_check_beta(b) for b in betas]
    if not betas:
        raise ValueError("betas must be non-empty")
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be sorted ascending")
    if config is None:
        config = SolverConfig()
    if not all(table.has_interior_cell() for table in tables):
        raise NoInteriorData(
            "every cell is all-failure or all-survival; the estimate "
            "degenerates toward a boundary and is not returned"
        )
    plan = tables[0].plan
    r = np.stack([table.frequencies for table in tables])
    alpha, *path, _ = _fit_rows(r, plan, betas, config, {})
    alpha = alpha.reshape(-1, 2)
    # ModelParams refuses an overflowed alpha0 before the sandwich sees it
    params = [ModelParams(float(a0), float(a1)) for a0, a1 in alpha]
    beta = np.tile(betas, len(tables))
    covariances = zip(*inference._sandwich_rows(alpha, plan, beta))
    results = []
    for b, p, (jb, kb, sigma, ok), fval, grad_norm, iterations, clamped, \
            spread in zip(beta, params, covariances, *(v.ravel() for v in path)):
        results.append(FitResult(
            beta=float(b),
            params=p,
            objective=float(fval),
            grad_norm=float(grad_norm),
            iterations=int(iterations),
            converged=bool(grad_norm <= config.grad_tol),
            covariance=inference.SandwichCovariance(
                j_bar=jb, k_bar=kb, sigma=sigma, at_params=p, beta=float(b)
            ) if ok else None,
            boundary_clamped=bool(clamped),
            multistart_spread=float(spread),
        ))
    n = len(betas)
    return [results[k:k + n] for k in range(0, len(results), n)]
