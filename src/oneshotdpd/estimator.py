"""Minimum divergence estimation of the rate-link parameters.

The estimate for tuning parameter ``beta`` minimizes
:func:`oneshotdpd.divergence.dpd_objective`, which weights cells equally;
``beta = 0`` gives the maximum likelihood estimate on a balanced plan
only.  The solver works internally in ``theta = (log alpha0, alpha1)``
coordinates, which keeps ``alpha0`` positive without constraints, and runs
Newton steps safeguarded by a backtracking line search.  A cold fit is one
Newton run from the least-squares line through the data's linear form in
theta; at ``beta = 0`` the objective is a cell-weighted binomial
complementary log-log likelihood, concave in theta, so one start reaches
its minimizer.

One path engine fits rows of tables along a sorted beta grid, each row
from its last converged estimate or else cold, with its own
iteration, line search and stopping rule: :func:`fit` is a one-beta path,
the causes of a two-cause study are the rows of one path, and the
Monte-Carlo harness runs it on whole batches of tables.  The one solver
kernel, :func:`_eval_theta`, gives the objective, gradient and Hessian of
every row from one evaluation of its cells.  It works rows-first, as the
tables do (see :mod:`oneshotdpd.divergence`): theta is (rows, 2), and
every per-cell array is (rows, C) with each row's cells contiguous, so
each step is one numpy call over all rows of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import inference
from .divergence import (_bracket, _check_beta, _check_betas, _data_terms,
                         _dpd_terms)
from .errors import NoInteriorData, NumericalOverflow
from .model import FailureTable, ModelParams, TestPlan, _cells, _plan_cells

_F_MIN = 1e-300
_F_MAX = 1.0 - 1e-16

# Newton stops: the cap on evaluated steps, the max-abs step in
# (log alpha0, alpha1) below which a run has stalled, and the largest
# change of log-rate at a plan stress that a final Newton step may make; a
# fit converged when it took such a step, which is unit-free
_MAX_ITERS = 200
_STEP_TOL = 1e-12
_RATE_TOL = 1e-7
# the line search's halvings of a failed full step, eight to a call, down
# to 2^-43, the last power of two at or above 1e-13
_STEPS = np.split(np.ldexp(1.0, -np.arange(1, 44)), range(8, 43, 8))


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus solver and inference diagnostics.

    ``objective`` and ``grad_norm`` are evaluated at ``params``.  The
    former is :func:`~oneshotdpd.divergence.dpd_objective` there to
    rounding, not bit for bit (see that function), the per-cell mean of
    the density power divergence: >= 0, 0 for data the model reproduces
    exactly, and comparable across ``beta``.  The latter is
    the max-abs objective gradient in the internal coordinates (log
    alpha0, alpha1), a diagnostic in the units of the data, not the
    stopping rule.  ``converged`` is true exactly when the run ended on a
    final Newton step (see :func:`fit`), and ``iterations`` counts the
    steps of its one Newton run, that final step included.
    ``boundary_clamped`` is true when some cell's F at ``params`` lies
    outside [1e-300, 1 - 1e-16], where the solver clamps it (see
    :func:`estimating_equations`).  ``covariance`` is the model-based
    sandwich evaluated at the estimate, or None when the information
    matrix was too ill-conditioned.
    """

    beta: float
    params: ModelParams
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    covariance: "inference.SandwichCovariance | None" = None
    boundary_clamped: bool = False


def _eval_theta(theta: np.ndarray, r: np.ndarray, plan: TestPlan,
                beta: float):
    """Objective, gradient and Hessian in theta coordinates at theta
    (rows, 2) from one evaluation of the cells of ``plan``, whose observed
    failure fractions ``r`` are (rows, C), one row per table: a (6, rows)
    array of ``f, g0, g1, h00, h01, h11``.

    ``f`` is the model part of the objective alone
    (:func:`~oneshotdpd.divergence._dpd_terms`): its data part is the same
    at every point of a row, so the solver never evaluates it.  A point
    whose objective is undefined (a rate that overflows) has ``f = +inf``.
    Exponents like F^(beta-1) blow up as F -> 0 for beta < 1, so the
    derivatives clamp F and S into [1e-300, 1 - 1e-16].
    """
    b = beta
    w, w2, t, _ = plan.cell_vectors
    with np.errstate(all="ignore"):
        lt, F, S, f = _cells(np.exp(theta[:, :1] + theta[:, 1:] * w), t)
        Fc = F.clip(_F_MIN, _F_MAX)
        Sc = S.clip(_F_MIN, _F_MAX)
        bracket = _bracket(Fc, Sc, b)
        resid = F - r
        hp = (b + 1.0) * resid * bracket
        hpp = (b + 1.0) * (
            bracket + (b - 1.0) * resid * (Fc ** (b - 2.0) - Sc ** (b - 2.0))
        )
        tf = t * f
        curv = tf * (1.0 - lt)
        g = hp * tf
        h = hpp * tf * tf + hp * curv
        ev = np.array([_dpd_terms(r, F, S, lt, beta), g, g * w, h, h * w,
                       h * w2]).sum(-1)
        ev /= plan.n_cells
    return ev


def estimating_equations(
    table: FailureTable,
    params: ModelParams,
    beta: float,
) -> tuple[float, float]:
    """Left-hand sides of the stationarity system for the divergence fit.

    Component p sums, over cells,

        Kbar * (F - n/K) * f * t * [F^(b-1) + (1-F)^(b-1)]  (* w for p = 1)

    where Kbar is the mean cell size, so a balanced plan gives exactly
    sum (K F - n) f t [...].  This is the solver's theta gradient scaled by
    ``IJ Kbar / (b+1)``, so both components vanish at the estimate, and it
    is returned exactly.  The near-boundary exponents are evaluated with F
    and S clamped into [1e-300, 1 - 1e-16].

    Raises :class:`~oneshotdpd.errors.NumericalOverflow` when a rate at a
    plan stress exceeds the double range, as :func:`dpd_objective` does,
    or when a component does.
    """
    beta = _check_beta(beta)
    plan = table.plan
    _plan_cells(params, plan)
    theta = np.array([[np.log(params.alpha0), params.alpha1]])
    ev = _eval_theta(theta, table.frequencies.reshape(1, -1), plan, beta)
    with np.errstate(all="ignore"):
        vals = ev[1:3, 0] * (plan.mean_devices * plan.n_cells / (beta + 1.0))
    if not np.isfinite(vals).all():
        raise NumericalOverflow("estimating equations overflow")
    return (float(vals[0]), float(vals[1]))


def _data_starts(r: np.ndarray, plan: TestPlan) -> np.ndarray:
    """The cold start ``theta`` (rows, 2) of each table with fractions
    ``r`` (rows, I, J), fitted to the model's linear form.

    Each cell gives ``z = log(-log(1 - q)) - log t = log alpha0 + alpha1 w``
    with ``q = (n + 1/2) / (K + 1)``, so cells at 0 or K stay finite.  The
    start is the device-weighted least-squares line through the cells'
    z, centred at the weighted means of stress and z.  A one-stress plan
    gets slope 0.
    """
    K = plan.devices
    w = plan.temps
    # float sums: an int64 K + 1 or total may wrap
    z = np.log(-np.log1p(-(r * K + 0.5) / (K + 1.0))) - np.log(plan.times)
    weight = K / K.sum(dtype=float)
    z_mean = np.sum(weight * z, axis=(1, 2))
    theta = np.zeros((len(r), 2))
    if len(w) > 1:
        w_mean = weight.sum(axis=1) @ w
        dw = (w - w_mean)[:, None]
        with np.errstate(all="ignore"):
            dz = z - z_mean[:, None, None]
            theta[:, 1] = (np.sum(weight * dw * dz, axis=(1, 2))
                           / np.sum(weight * dw * dw))
            theta[:, 0] = -theta[:, 1] * w_mean
    theta[:, 0] += z_mean
    # stresses too close or too far apart for doubles: the flat line
    rows = np.flatnonzero(~np.isfinite(theta).all(axis=1))
    theta[rows] = np.column_stack([z_mean[rows], np.zeros(rows.size)])
    return theta


def _newton(theta0: np.ndarray, r: np.ndarray, plan: TestPlan,
            beta: float):
    """Safeguarded Newton from every row of theta0 (n, 2) at once.

    Row k fits the fractions ``r[k]`` (n, I, J).  Each row follows its own
    iteration: a Newton direction only when the Hessian is finite and
    positive definite (otherwise steepest descent), steps capped at 5, and
    Armijo backtracking down to 1e-13.  Each point is evaluated once, by
    :func:`_eval_theta` over the rows-first (rows, C) cells, and a row
    keeps the values of the point it stands on.  A pass starts with the
    :func:`_direction` of the point each row stands on; the rows whose
    step there is final, or that stopped in the last pass, leave, and the
    others search: their full steps in one call, then the halvings of the
    rows that failed it eight to a call, each row keeping its largest step
    that passes.  A row converges, and only so, when its Newton step at a
    point with a finite, positive definite Hessian moves no stress level's
    log-rate by more than ``_RATE_TOL``: it takes that step without
    evaluating where it lands, and counts it as one more iteration.  A
    row stops unconverged on a failed search (staying put; a non-finite
    gradient fails every trial), a step below ``_STEP_TOL`` or its
    ``_MAX_ITERS``-th step, unless the point it lands on passes the step
    test.  A row's outputs are written once, in the pass it leaves.
    Returns per-row arrays by name: theta, iterations and converged; the
    values of the returned points are not evaluated here.
    """
    n = len(theta0)
    # the running rows: their indices, points, values, fractions and
    # whether the last pass stopped them
    rows, th, ra = np.arange(n), theta0, r.reshape(n, -1)
    at = _eval_theta(th, ra, plan, beta)
    stop = np.zeros(n, dtype=bool)
    theta = np.empty_like(th)
    iterations = np.empty(n, dtype=int)
    converged = np.empty(n, dtype=bool)
    # it counts the steps each running row has taken
    for it in range(_MAX_ITERS + 1):
        step, slope, final = _direction(at[1:], plan.temps)
        # the one place a row's outputs are written: the pass it leaves
        leave = stop | final
        out = np.flatnonzero(leave)
        if out.size:
            done, last = rows.take(out), final.take(out)
            theta[done] = th.take(out, 0)
            theta[done[last]] += step.T.take(out[last], 0)
            iterations[done] = it + last
            converged[done] = last
            if out.size == rows.size:
                break
            # take is several times faster than a mask on arrays this small
            stay = np.flatnonzero(~leave)
            rows = rows.take(stay)
            th, at, ra = th.take(stay, 0), at.take(stay, 1), ra.take(stay, 0)
            step, slope = step.take(stay, 1), slope.take(stay)
        f0 = at[0]
        # rounding allowance: near the optimum the true decrease drops below
        # double resolution of the objective; without it the search stalls
        allowance = 4e-16 * np.maximum(1.0, np.abs(f0))
        # Armijo backtracking: every row's full step in one call, then the
        # halvings of the rows that fail it; a row's accepted point, its
        # values and its step length overwrite those of its full step
        new = th + step.T
        ev_new = _eval_theta(new, ra, plan, beta)
        accepted = ev_new[0] <= f0 + 1e-4 * slope + allowance
        moved = np.abs(step).max(axis=0)
        if not accepted.all():
            lam = np.ones(rows.size)
            pending = np.flatnonzero(~accepted)
            for lams in _STEPS:
                # one trial per pending row and step length, row-major
                cols = np.repeat(pending, lams.size)
                lam_c = np.tile(lams, pending.size)
                trial = th.take(cols, 0) + lam_c[:, None] * step.T.take(cols, 0)
                ev_c = _eval_theta(trial, ra.take(cols, axis=0), plan, beta)
                ok = (ev_c[0] <= f0.take(cols) + 1e-4 * lam_c * slope.take(cols)
                      + allowance.take(cols)).reshape(pending.size, -1)
                # each row keeps its largest step that passes
                hit = ok.any(axis=1)
                pick = (np.arange(pending.size) * lams.size + ok.argmax(1))[hit]
                done = pending[hit]
                accepted[done] = True
                lam[done] = lam_c[pick]
                new[done] = trial.take(pick, axis=0)
                ev_new[:, done] = ev_c.take(pick, axis=1)
                pending = pending[~hit]
                if pending.size == 0:
                    break
            moved *= lam
            # a failed search stays put
            new[pending], ev_new[:, pending] = th[pending], at[:, pending]
        th, at = new, ev_new
        # a failed search, a stalled step or the last step stops its row,
        # which leaves in the next pass unless its step there is final
        stop = ~accepted | (moved < _STEP_TOL) | (it + 1 == _MAX_ITERS)
    return {"theta": theta, "iterations": iterations,
            "converged": converged}


def _direction(gh: np.ndarray, temps: np.ndarray):
    """Per-row search direction (2, n), its slope g . step and whether it
    is a final step, from the rows ``g0, g1, h00, h01, h11`` of
    :func:`_eval_theta` and the plan's stresses ``temps``.

    Newton when H is finite with h00 > 0 and det H > 0 and the step is
    finite and not uphill (a zero step is a Newton step), else steepest
    descent; steps are capped at 5, except a final step: a Newton step
    that moves the log-rate log alpha0 + alpha1 w at no stress w of the
    plan by more than ``_RATE_TOL``.  That decision does not change when
    g and H are scaled together, when stress is re-coded affinely or when
    times are rescaled, since none of these moves the Newton step's change
    of log-rate at a plan stress.
    """
    g0, g1, h00, h01, h11 = gh
    # an ill-scaled plan (stresses near 1e308) can overflow any product;
    # a NaN slope (inf - inf) keeps its Newton step
    with np.errstate(all="ignore"):
        det = h00 * h11 - h01 * h01
        step = np.array([-g0 * h11 + g1 * h01, g0 * h01 - g1 * h00]) / det
        newton = (np.isfinite(gh[2:]).all(axis=0) & (h00 > 0.0) & (det > 0.0)
                  & np.isfinite(step).all(axis=0)
                  & ~(g0 * step[0] + g1 * step[1] > 0.0))
        final = newton & (np.abs(step[0] + step[1] * temps[:, None])
                          .max(axis=0) <= _RATE_TOL)
        np.negative(gh[:2], out=step, where=~newton)
        size = np.abs(step).max(axis=0)
        np.multiply(step, 5.0 / size, out=step, where=(size > 5.0) & ~final)
        slope = g0 * step[0] + g1 * step[1]
    return step, slope, final


def _fit_rows(r: np.ndarray, plan: TestPlan, betas):
    """Fit every table row of ``r`` (rows, I, J) along the sorted ``betas``.

    A row starts from its last converged fit or else from
    :func:`_data_starts`, and every beta is one :func:`_newton` call over
    all rows.  Returns (row, beta) arrays by name: ``alpha``, then the
    :func:`_newton` outputs, with ``converged`` kept only where alpha0 =
    exp(theta0) is a positive finite double.  No value at ``alpha`` is
    evaluated: the studies read only ``alpha`` and ``converged``.
    """
    warm = _data_starts(r, plan)
    path = []
    for beta in betas:
        fits = _newton(warm, r, plan, beta)
        theta = fits.pop("theta")
        with np.errstate(over="ignore"):
            alpha = np.column_stack([np.exp(theta[:, 0]), theta[:, 1]])
        ok = fits["converged"]
        ok &= np.isfinite(alpha[:, 0]) & (alpha[:, 0] > 0.0)
        warm[ok] = np.column_stack([np.log(alpha[ok, 0]), alpha[ok, 1]])
        path.append({"alpha": alpha, **fits})
    return {name: np.stack([fits[name] for fits in path], axis=1)
            for name in path[0]}


def fit(table: FailureTable, beta: float) -> FitResult:
    """Fit the rate-link parameters at tuning parameter ``beta``.

    Deterministic given its inputs.  One safeguarded Newton run starts
    from the least-squares line through the data's linear form.  Its
    stops are fixed.  A fit converged when, at a point with a finite,
    positive definite Hessian, the Newton step changes the log-rate
    log alpha0 + alpha1 w at every plan stress w by at most 1e-7; the run
    takes that step, without evaluating it, and stops.  This test does not
    depend on the scale of the objective, an affine re-coding of stress
    or the unit of time.  Otherwise the run stops on a failed line search,
    a step below 1e-12 in (log alpha0, alpha1) or after 200 evaluated
    steps, returning the last iterate with ``converged=False`` instead of
    raising.  Raises
    :class:`~oneshotdpd.errors.NoInteriorData` when no cell has a failure
    count strictly between 0 and its size (the minimizer then
    degenerates), and :class:`~oneshotdpd.errors.NumericalOverflow` when
    the fitted ``alpha0`` is not a positive finite double.
    """
    return fit_path(table, [beta])[0]


def fit_path(table: FailureTable, betas) -> list[FitResult]:
    """Fit a sorted grid of tuning parameters, warm-starting along the path.

    Each entry starts from the last converged estimate on the path, or is
    a cold fit when there is none, as in the Monte-Carlo studies.  Where
    the objective has one minimiser that both runs reach, as on the
    bundled tables, warm starts land on the cold fit's optimum to about
    the last digits of a double; where it has several stationary points or
    falls toward a limit at infinity, as on some tables of three-device
    cells, a warm start can end elsewhere than a cold fit.  Raises as
    :func:`fit` does.
    """
    return _fit_tables([table], betas)[0]


def _fit_tables(tables, betas) -> list[list[FitResult]]:
    """:func:`fit_path` of every table in ``tables``, which share one plan.

    The tables are the rows of one :func:`_fit_rows` call.  Each beta is
    one :func:`_eval_theta` call, for the objective and gradient at every
    table's estimate, and one sandwich call over them, as in the studies;
    the objective's data part and the clamp flag, from the cells' F at
    each estimate, are added here.  Returns one list of
    :class:`FitResult` per table.
    """
    betas = _check_betas(betas)
    if not all(table.has_interior_cell() for table in tables):
        raise NoInteriorData(
            "every cell is all-failure or all-survival; the estimate "
            "degenerates toward a boundary and is not returned"
        )
    plan = tables[0].plan
    r = np.stack([table.frequencies for table in tables])
    fits = _fit_rows(r, plan, betas)
    alpha = fits.pop("alpha")
    # exp(log alpha0) leaves the double range on plans such as subnormal
    # inspection times
    if not (np.isfinite(alpha[..., 0]) & (alpha[..., 0] > 0.0)).all():
        raise NumericalOverflow(
            "the fitted alpha0 is not a positive finite double")
    theta = np.stack([np.log(alpha[..., 0]), alpha[..., 1]], axis=-1)
    w, _, t, _ = plan.cell_vectors
    with np.errstate(all="ignore"):
        F = _cells(np.exp(theta[..., :1] + theta[..., 1:] * w), t)[1]
    fits["boundary_clamped"] = ((F < _F_MIN) | (F > _F_MAX)).any(axis=-1)
    r = r.reshape(len(r), -1)
    ev = np.stack([_eval_theta(theta[:, b], r, plan, beta)
                   for b, beta in enumerate(betas)], axis=-1)
    data = np.stack([np.sum(_data_terms(r, beta), axis=-1)
                     for beta in betas], axis=-1)
    fits["objective"] = ev[0] + data / plan.n_cells
    fits["grad_norm"] = np.abs(ev[1:3]).max(axis=0)
    sandwiches = [inference._sandwich_rows(alpha[:, b], plan, beta)
                  for b, beta in enumerate(betas)]
    columns = {name: v.tolist() for name, v in fits.items()}
    results = []
    for k in range(len(tables)):
        results.append([])
        for b, beta in enumerate(betas):
            p = ModelParams(*alpha[k, b].tolist())
            jb, kb, sigma, ok = (v[k] for v in sandwiches[b])
            results[-1].append(FitResult(
                beta=beta,
                params=p,
                covariance=inference.SandwichCovariance(
                    j_bar=jb, k_bar=kb, sigma=sigma, at_params=p, beta=beta
                ) if ok else None,
                **{name: column[k][b] for name, column in columns.items()},
            ))
    return results
