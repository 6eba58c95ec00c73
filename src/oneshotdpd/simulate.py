"""Monte-Carlo harness for contamination studies.

Tables are drawn cell by cell from the binomial model; one designated cell
may instead be generated under shifted parameters, mimicking an outlying
cell that the fitted model does not describe.  Studies report, per tuning
parameter, either the root mean squared estimation error against the clean
truth or the rejection proportion of the two-sided Z-type test.

Studies are batched: replications are drawn and fitted in blocks of a
fixed size, and each beta is one vectorised solve over the block.  Every
row of a block still runs its own safeguarded Newton iteration from its own
start: the last converged estimate of that replication along the beta path,
or cold-start grid points (scored against a per-(plan, beta) table) when it
has none.  The sandwich and the Z statistic are computed once per converged
fit, and only for level/power studies.

Reproducibility contract: every replication draws from its own
Philox4x64-10 counter-based stream keyed by ``(seed, replication_index)``,
rows are solved independently of each other, and aggregation runs in
replication order, so a report depends only on the specification and seed,
never on the block size or the ``workers`` argument.  ``workers`` is kept
for callers; studies run in the calling thread.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .estimator import (SolverConfig, _CellData, _GridTable, _grid_starts,
                        _solve)
from .inference import LinearHypothesis, _z_rows, ndtri
from .model import FailureTable, ModelParams, TestPlan, cell_probs

_MODES = ("none", "alpha0_shift", "alpha1_shift")
# replications solved together: bounds a study's memory whatever its size;
# larger blocks ran faster but raised the peak memory of a study process
_BLOCK = 64


def _check_workers(workers: int) -> None:
    if not workers >= 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


@dataclass(frozen=True)
class ContaminationScheme:
    """Which cell deviates from the model, and how.

    ``alpha0_shift`` replaces the baseline rate in the chosen cell by
    ``value`` (with 0 < value <= alpha0); ``alpha1_shift`` replaces the
    stress coefficient (value <= alpha1).  Both reductions stretch the
    outlying cell's lifetimes.
    """

    mode: str = "none"
    cell: tuple[int, int] = (0, 0)
    value: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode != "none" and self.value is None:
            raise ValueError(f"mode {self.mode!r} requires a value")
        object.__setattr__(self, "cell", (int(self.cell[0]), int(self.cell[1])))

    def contaminated_params(self, true_params: ModelParams) -> ModelParams:
        if self.mode == "alpha0_shift":
            if not 0.0 < self.value <= true_params.alpha0:
                raise ValueError(
                    "alpha0_shift requires 0 < value <= alpha0, got "
                    f"{self.value} vs alpha0={true_params.alpha0}"
                )
            return ModelParams(self.value, true_params.alpha1)
        if self.mode == "alpha1_shift":
            if not self.value <= true_params.alpha1:
                raise ValueError(
                    "alpha1_shift requires value <= alpha1, got "
                    f"{self.value} vs alpha1={true_params.alpha1}"
                )
            return ModelParams(true_params.alpha0, self.value)
        return true_params


@dataclass(frozen=True)
class SimulationSpec:
    """Complete description of one Monte-Carlo scenario."""

    plan: TestPlan
    true_params: ModelParams
    contamination: ContaminationScheme
    betas: tuple[float, ...]
    replications: int
    seed: int
    hypothesis: LinearHypothesis | None = None
    level: float = 0.05

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if not betas:
            raise ValueError("betas must be non-empty")
        if not all(np.isfinite(b) and b >= 0 for b in betas):
            raise ValueError("betas must be finite and >= 0")
        object.__setattr__(self, "betas", betas)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        i, j = self.contamination.cell
        if not (0 <= i < self.plan.shape[0] and 0 <= j < self.plan.shape[1]):
            raise ValueError("contaminated cell index outside the plan")
        # validate the shift against the true parameters right away
        self.contamination.contaminated_params(self.true_params)
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")

    def to_dict(self) -> dict:
        return {
            "plan": {
                "temps": list(map(float, self.plan.temps)),
                "times": list(map(float, self.plan.times)),
                "devices": self.plan.devices.tolist(),
            },
            "true_params": [self.true_params.alpha0, self.true_params.alpha1],
            "contamination": {
                "mode": self.contamination.mode,
                "cell": list(self.contamination.cell),
                "value": self.contamination.value,
            },
            "betas": list(self.betas),
            "replications": self.replications,
            "seed": int(self.seed),
            "hypothesis": None
            if self.hypothesis is None
            else {
                "m": list(map(float, self.hypothesis.m)),
                "d": self.hypothesis.d,
                "level": self.level,
            },
        }


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated study output; see ``to_rows`` for the flat CSV layout."""

    kind: str
    spec: SimulationSpec
    betas: tuple[float, ...]
    used: tuple[int, ...]
    failed_fits: tuple[int, ...]
    rmse_alpha0: tuple[float, ...] | None = None
    rmse_alpha1: tuple[float, ...] | None = None
    rmse_combined: tuple[float, ...] | None = None
    rejection_rate: tuple[float, ...] | None = None

    @property
    def seed(self) -> int:
        return self.spec.seed

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "spec": self.spec.to_dict(),
            "betas": list(self.betas),
            "used": list(self.used),
            "failed_fits": list(self.failed_fits),
        }
        for name in ("rmse_alpha0", "rmse_alpha1", "rmse_combined",
                     "rejection_rate"):
            val = getattr(self, name)
            if val is not None:
                # a beta without a usable fit has no value: null, not NaN
                out[name] = [None if np.isnan(v) else v for v in val]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_rows(self, x_value=None) -> list[dict]:
        """One flat dict per tuning parameter, ready for CSV writing."""
        rows = []
        for idx, beta in enumerate(self.betas):
            row = {
                "beta": beta,
                "x": x_value,
                "rmse_alpha0": None,
                "rmse_alpha1": None,
                "rmse_combined": None,
                "rejection_rate": None,
                "used": self.used[idx],
                "failed_fits": self.failed_fits[idx],
            }
            for name in ("rmse_alpha0", "rmse_alpha1", "rmse_combined",
                         "rejection_rate"):
                val = getattr(self, name)
                if val is not None:
                    row[name] = val[idx]
            rows.append(row)
        return rows


REPORT_CSV_COLUMNS = (
    "beta", "x", "rmse_alpha0", "rmse_alpha1", "rmse_combined",
    "rejection_rate", "used", "failed_fits",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(path, reports, x_values=None) -> None:
    """Write plot-ready rows, one per (tuning parameter, x value)."""
    reports = list(reports)
    if x_values is None:
        x_values = [None] * len(reports)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=REPORT_CSV_COLUMNS)
        writer.writeheader()
        for report, x in zip(reports, x_values):
            for row in report.to_rows(x_value=x):
                writer.writerow({k: _csv_cell(row[k]) for k in REPORT_CSV_COLUMNS})


def _replication_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_table(spec: SimulationSpec, replication_index: int
                   ) -> FailureTable:
    """Draw one table; deterministic given (seed, replication_index)."""
    rng = _replication_rng(spec.seed, replication_index)
    F, _, _ = cell_probs(spec.true_params, spec.plan)
    if spec.contamination.mode != "none":
        shifted = spec.contamination.contaminated_params(spec.true_params)
        Fc, _, _ = cell_probs(shifted, spec.plan)
        F = F.copy()
        i, j = spec.contamination.cell
        F[i, j] = Fc[i, j]
    counts = rng.binomial(spec.plan.devices, F)
    return FailureTable(plan=spec.plan, counts=counts)


def _replication_fits(spec: SimulationSpec, with_z: bool):
    """Per-(replication, beta) estimates, and Z statistics when asked.

    Returns ``alpha`` (replications, betas, 2) and ``stat`` (replications,
    betas); NaN marks a dropped fit (no interior data, no convergence, or
    degenerate inference).  Replications are solved in blocks of
    ``_BLOCK``, but every row of a block runs its own solve, so no value
    depends on the block size.
    """
    n_betas = len(spec.betas)
    alpha = np.full((spec.replications, n_betas, 2), np.nan)
    stat = np.full((spec.replications, n_betas), np.nan)
    config = SolverConfig()
    data = _CellData(spec.plan)
    grids = {}
    for lo in range(0, spec.replications, _BLOCK):
        tables = [generate_table(spec, i)
                  for i in range(lo, min(lo + _BLOCK, spec.replications))]
        reps = lo + np.flatnonzero([t.has_interior_cell() for t in tables])
        if reps.size == 0:
            continue
        r = np.array([tables[i - lo].frequencies for i in reps])
        # each row warm-starts from its last converged fit, if any
        warm = np.full((len(reps), 2), np.nan)
        for b, beta in enumerate(spec.betas):
            cold = np.flatnonzero(np.isnan(warm[:, 0]))
            starts = [[w] for w in warm]
            if cold.size:
                if beta not in grids:
                    grids[beta] = _GridTable(spec.plan, beta)
                for row, row_starts in zip(cold, _grid_starts(
                        grids[beta], r[cold])):
                    starts[row] = row_starts
            theta, _, grad_norm, _, _, _ = _solve(r, data, beta, starts, config)
            est = np.column_stack([np.exp(theta[:, 0]), theta[:, 1]])
            ok = ((grad_norm <= config.grad_tol) & np.isfinite(est[:, 0])
                  & (est[:, 0] > 0.0))
            warm[ok] = np.column_stack([np.log(est[ok, 0]), est[ok, 1]])
            alpha[reps[ok], b] = est[ok]
            if with_z:
                stat[reps[ok], b] = _z_rows(est[ok], spec.plan, beta,
                                            spec.hypothesis)
    if with_z:
        alpha[np.isnan(stat)] = np.nan
    return alpha, stat


def rmse_study(spec: SimulationSpec, workers: int = 1) -> SimulationReport:
    """Root mean squared error of the estimates against the clean truth.

    Contamination is treated as misspecification: errors are always
    measured against ``spec.true_params``.  Replications whose fit fails
    are dropped from the averages and counted in ``failed_fits``.
    ``workers`` must be >= 1; it starts no threads (see the module notes).
    """
    if spec.hypothesis is not None:
        raise ValueError("rmse_study expects a spec without a hypothesis")
    _check_workers(workers)
    alpha, _ = _replication_fits(spec, with_z=False)
    truth = spec.true_params.as_array()
    rmse0, rmse1, rmse_c, used, failed = [], [], [], [], []
    for b_idx in range(len(spec.betas)):
        est = alpha[:, b_idx]
        sq = (est[~np.isnan(est[:, 0])] - truth) ** 2
        n_used = sq.shape[0]
        used.append(n_used)
        failed.append(spec.replications - n_used)
        if n_used == 0:
            rmse0.append(float("nan"))
            rmse1.append(float("nan"))
            rmse_c.append(float("nan"))
        else:
            rmse0.append(float(np.sqrt(np.mean(sq[:, 0]))))
            rmse1.append(float(np.sqrt(np.mean(sq[:, 1]))))
            rmse_c.append(float(np.sqrt(np.mean(sq.sum(axis=1)))))
    return SimulationReport(
        kind="rmse",
        spec=spec,
        betas=spec.betas,
        used=tuple(used),
        failed_fits=tuple(failed),
        rmse_alpha0=tuple(rmse0),
        rmse_alpha1=tuple(rmse1),
        rmse_combined=tuple(rmse_c),
    )


def level_power_study(spec: SimulationSpec, workers: int = 1
                      ) -> SimulationReport:
    """Proportion of replications with |Z| above the two-sided critical value.

    With true parameters satisfying the null this estimates the empirical
    significance level; under an alternative it estimates power.
    ``workers`` must be >= 1; it starts no threads (see the module notes).
    """
    if spec.hypothesis is None:
        raise ValueError("level_power_study requires a hypothesis in the spec")
    _check_workers(workers)
    z_crit = -ndtri(spec.level / 2.0)
    _, stat = _replication_fits(spec, with_z=True)
    rates, used, failed = [], [], []
    for b_idx in range(len(spec.betas)):
        stats = stat[~np.isnan(stat[:, b_idx]), b_idx]
        n_used = stats.size
        used.append(n_used)
        failed.append(spec.replications - n_used)
        rates.append(
            float(np.mean(np.abs(stats) > z_crit)) if n_used else float("nan")
        )
    return SimulationReport(
        kind="level_power",
        spec=spec,
        betas=spec.betas,
        used=tuple(used),
        failed_fits=tuple(failed),
        rejection_rate=tuple(rates),
    )


def contamination_sweep(
    spec: SimulationSpec,
    strengths,
    workers: int = 1,
):
    """Run the matching study across contamination strengths.

    ``strengths`` are relative reductions s in [0, 1): strength s maps to a
    contaminated value (1 - s) * alpha0 (or alpha1, per the spec's mode).
    Strength 0 means no contamination.  Returns (reports, strengths).
    """
    _check_workers(workers)
    base_mode = spec.contamination.mode
    if base_mode == "none":
        raise ValueError("sweep requires an alpha0_shift or alpha1_shift scheme")
    reference = (
        spec.true_params.alpha0
        if base_mode == "alpha0_shift"
        else spec.true_params.alpha1
    )
    reports = []
    strengths = [float(s) for s in strengths]
    for s in strengths:
        if s == 0.0:
            scheme = ContaminationScheme(mode="none")
        else:
            scheme = ContaminationScheme(
                mode=base_mode,
                cell=spec.contamination.cell,
                value=(1.0 - s) * reference,
            )
        variant = dataclasses.replace(spec, contamination=scheme)
        if spec.hypothesis is None:
            reports.append(rmse_study(variant, workers=workers))
        else:
            reports.append(level_power_study(variant, workers=workers))
    return reports, strengths
