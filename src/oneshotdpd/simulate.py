"""Monte-Carlo harness for contamination studies.

Tables are drawn from the binomial model, every replication of a batch in
one array pass that reproduces numpy's ``Generator.binomial`` bit for bit
(see :func:`_draw_counts`); one designated cell may instead be generated
under shifted parameters, mimicking an outlying cell that the fitted model
does not describe.  Studies report, per tuning parameter, either the root
mean squared estimation error against the clean truth or the rejection
proportion of the two-sided Z-type test.

Studies are batched: replications are drawn and fitted in solve batches
of up to 256, so a study of that size makes one Newton, sandwich and Z
call per beta.  Each batch is fitted along the beta path by the engine
behind :func:`oneshotdpd.estimator.fit_path`, with the same start rule.
The sandwich and the Z statistic are computed once per usable fit, and
only for level/power studies.

A sweep over contamination strengths or devices per cell is built as one
spec per value, every value checked, before its first study runs.
``workers`` is checked once, when a study or sweep is entered.

Reproducibility contract: every replication draws from its own
Philox4x64-10 counter-based stream keyed by ``(seed, replication_index)``,
its table is the one ``Generator.binomial`` draws from that stream, rows
are solved independently of each other, and aggregation runs in
replication order, so a report depends only on the specification and seed,
never on the batch size or the ``workers`` argument.  ``workers``
is kept for callers; studies run in the calling thread.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .divergence import _check_betas
from .errors import ParseError
from .estimator import _fit_rows
from .inference import LinearHypothesis, _critical_value, _z_rows
from .io import parse_betas
from .model import FailureTable, ModelParams, TestPlan, _integral, cell_probs

_MODES = ("none", "alpha0_shift", "alpha1_shift")
# replications solved together, one Newton, sandwich and Z call per beta;
# a batch's arrays grow with its rows, and a 1,024-row batch raised a
# study's peak memory by 3.4 MB
_BLOCK = 256
# a study holds 24 bytes per (replication, beta) fit: 1e7 fits, 240 MB
_MAX_FITS = 10**7


def _check_workers(workers: int) -> None:
    if _integral(workers, "workers") < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _numbers(value, name: str):
    """``value`` if it is a number or a list of numbers; a bool or a
    string is refused with ValueError instead of being read as one."""
    items = value if isinstance(value, list) else [value]
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in items):
        raise ValueError(f"{name} takes numbers only, got {value!r}")
    return value


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
        i, j = (_integral(c, "cell index") for c in self.cell)
        object.__setattr__(self, "cell", (i, j))

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
    """Complete description of one Monte-Carlo scenario.

    ``failure_probs`` (derived, read-only) holds each cell's failure
    probability in a draw: the contaminated cell's under the shifted
    parameters, every other cell's under the true ones.  ``level`` is the
    hypothesis's test level, so a spec without a hypothesis keeps the
    default 0.05 (ValueError otherwise): :meth:`to_dict` writes the level
    inside the hypothesis.
    """

    plan: TestPlan
    true_params: ModelParams
    contamination: ContaminationScheme
    betas: tuple[float, ...]
    replications: int
    seed: int
    hypothesis: LinearHypothesis | None = None
    level: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "betas", _check_betas(self.betas))
        replications = _integral(self.replications, "replications")
        if replications < 1:
            raise ValueError("replications must be >= 1")
        if replications * len(self.betas) > _MAX_FITS:
            raise ValueError(f"replications x betas must be at most "
                             f"{_MAX_FITS:,} fits, got {replications} x "
                             f"{len(self.betas)}")
        object.__setattr__(self, "replications", replications)
        seed = _integral(self.seed, "seed")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", seed)
        i, j = self.contamination.cell
        if not (0 <= i < self.plan.shape[0] and 0 <= j < self.plan.shape[1]):
            raise ValueError("contaminated cell index outside the plan")
        # this validates the shift against the true parameters right away
        shifted = self.contamination.contaminated_params(self.true_params)
        F, _, _ = cell_probs(self.true_params, self.plan)
        if self.contamination.mode != "none":
            F[i, j] = cell_probs(shifted, self.plan)[0][i, j]
        F.setflags(write=False)
        object.__setattr__(self, "failure_probs", F)
        _critical_value(self.level)
        if self.hypothesis is None and self.level != 0.05:
            raise ValueError(
                f"level {self.level!r} requires a hypothesis to test")

    @classmethod
    def from_dict(cls, doc: dict) -> SimulationSpec:
        """The spec that :meth:`to_dict` wrote as ``doc``: its exact inverse.

        A document may also give one ``devices`` count for every cell,
        leave ``contamination`` out (or null), give ``betas`` as a list
        string such as ``"0:0.1:1,2"`` (see :func:`~oneshotdpd.io.parse_betas`)
        and leave the hypothesis's ``level`` out for 0.05.  Every
        real-valued field takes JSON numbers only: a bool or a string is
        refused, as the integer fields refuse them.  A bad document raises
        KeyError, TypeError, ValueError, ParseError or, for rates that
        overflow, NumericalOverflow.
        """
        plan_doc = doc["plan"]
        devices = plan_doc["devices"]
        temps = _numbers(plan_doc["temps"], "temps")
        times = _numbers(plan_doc["times"], "times")
        if np.isscalar(devices):
            devices = np.full((len(temps), len(times)), devices)
        plan = TestPlan(temps=temps, times=times, devices=devices)
        true_params = ModelParams(*_numbers(doc["true_params"], "true_params"))
        cont_doc = doc.get("contamination")
        cont_doc = {} if cont_doc is None else cont_doc
        if not isinstance(cont_doc, dict):
            raise ParseError(
                f"contamination must be an object, got {cont_doc!r}")
        value = cont_doc.get("value")
        if value is not None:
            _numbers(value, "contamination value")
        contamination = ContaminationScheme(
            mode=cont_doc.get("mode", "none"),
            cell=tuple(cont_doc.get("cell", (0, 0))), value=value)
        betas = doc["betas"]
        betas = (parse_betas(betas) if isinstance(betas, str)
                 else _numbers(betas, "betas"))
        hypothesis, level = None, 0.05
        hyp_doc = doc.get("hypothesis")
        if hyp_doc is not None:
            hypothesis = LinearHypothesis(
                m=np.array(_numbers(hyp_doc["m"], "m"), dtype=float),
                d=float(_numbers(hyp_doc["d"], "d")))
            level = float(_numbers(hyp_doc.get("level", 0.05), "level"))
        return cls(plan=plan, true_params=true_params,
                   contamination=contamination, betas=tuple(betas),
                   replications=doc["replications"], seed=doc["seed"],
                   hypothesis=hypothesis, level=level)

    @functools.cached_property
    def _inversion(self) -> _Inversion | None:
        """:func:`_inversion_set_up` of the spec's cells, built on its
        first draw."""
        return _inversion_set_up(self.plan.devices, self.failure_probs)

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


# per-beta value fields of a report; a study fills the ones of its kind
_VALUE_FIELDS = ("rmse_alpha0", "rmse_alpha1", "rmse_combined",
                 "rejection_rate")


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
        for name in _VALUE_FIELDS:
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
            row = {"beta": beta, "x": x_value}
            for name in _VALUE_FIELDS:
                val = getattr(self, name)
                row[name] = None if val is None else val[idx]
            row.update(used=self.used[idx], failed_fits=self.failed_fits[idx])
            rows.append(row)
        return rows


REPORT_CSV_COLUMNS = ("beta", "x", *_VALUE_FIELDS, "used", "failed_fits")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(path, reports, x_values=None) -> None:
    """Write plot-ready rows, one per (tuning parameter, x value).

    ``x_values``, when given, holds one x value per report; a different
    count raises ValueError before ``path`` is opened.
    """
    reports = list(reports)
    x_values = [None] * len(reports) if x_values is None else list(x_values)
    if len(x_values) != len(reports):
        raise ValueError(f"x_values must hold one value per report, got "
                         f"{len(x_values)} for {len(reports)}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        _write_report_rows(handle, reports, x_values)


def _write_report_rows(handle, reports, x_values) -> None:
    """:func:`write_report_csv` of ``reports``, each paired with its x
    value, into a text file opened with ``newline=""``."""
    writer = csv.DictWriter(handle, fieldnames=REPORT_CSV_COLUMNS)
    writer.writeheader()
    for report, x in zip(reports, x_values):
        for row in report.to_rows(x_value=x):
            writer.writerow({k: _csv_cell(row[k]) for k in REPORT_CSV_COLUMNS})


# numpy's Generator.binomial draws a cell with n min(p, 1 - p) <= 30 by
# inversion, from one uniform unless the draw passes its bound, and a
# larger one by BTPE (Kachitvichyanukul & Schmeiser 1988)
_INVERSION_MAX_NP = 30.0


@dataclass(frozen=True)
class _Inversion:
    """numpy's inversion set-up for the cells of a plan that draw.

    ``live`` holds the flat indices of the cells with p > 0 (numpy draws
    nothing for the others), ``devices`` their n, ``flipped`` those drawn
    as n - X at 1 - p (p > 0.5), ``bound`` each cell's largest X before a
    redraw, and ``px`` (width, live) the probability px[x] of X = x up to
    each bound, 0 beyond it.
    """

    live: np.ndarray
    devices: np.ndarray
    flipped: np.ndarray
    bound: np.ndarray
    px: np.ndarray


def _inversion_set_up(devices: np.ndarray, probs: np.ndarray
                      ) -> _Inversion | None:
    """The set-up numpy's ``random_binomial`` and
    ``random_binomial_inversion`` (numpy/random/src/distributions/
    distributions.c) compute for each cell, in the same double operations
    and libm calls; None when a cell draws by BTPE."""
    n_all, p_all = devices.ravel(), probs.ravel()
    live = np.flatnonzero(p_all > 0.0)
    bounds, columns = [], []
    for n, p in zip(n_all[live].tolist(), p_all[live].tolist()):
        if p > 0.5:
            p = 1.0 - p
        if p * n > _INVERSION_MAX_NP:
            return None
        q = 1.0 - p
        mean = n * p
        bounds.append(int(min(n, mean + 10.0 * math.sqrt(mean * q + 1.0))))
        column = [math.exp(n * math.log(q))]
        for x in range(1, bounds[-1] + 1):
            column.append((n - x + 1) * p * column[-1] / (x * q))
        columns.append(column)
    px = np.zeros((max(bounds, default=-1) + 1, live.size))
    for j, column in enumerate(columns):
        px[:len(column), j] = column
    return _Inversion(live, n_all[live], p_all[live] > 0.5,
                      np.array(bounds, dtype=np.int64), px)


def _invert(inversion: _Inversion, uniforms: np.ndarray):
    """numpy's inversion of ``uniforms`` (rows, live), stepped for every
    draw at once: the X of each draw, and a mask of the rows in which a
    draw passes its bound, where numpy would redraw from later uniforms.

    numpy walks ``while U > px: X += 1; U -= px``; here every draw
    subtracts every step's px, since U > px exactly when U - px > 0 and
    a finished draw, at or below 0, stays there.
    """
    u = uniforms.copy()
    x = np.zeros(u.shape, dtype=np.int64)
    for px in inversion.px:
        u -= px
        going = u > 0.0
        if not going.any():
            break
        x += going
    return x, (x > inversion.bound).any(axis=1)


def _draw_counts(spec: SimulationSpec, indices, rng: np.random.Generator
                 ) -> np.ndarray:
    """Failure counts (len(indices), I, J) of the replications ``indices``.

    ``rng``, a Philox generator, is re-keyed for each replication i to the
    state of a fresh ``Philox(key=[seed, i])``, so nothing one draw
    leaves behind reaches the next.  Each row equals that stream's
    ``Generator.binomial(devices, failure_probs)`` bit for bit.  When
    every cell draws by inversion, a row's uniforms are its stream's first
    raw words, one per live cell, and all rows are inverted at once; a row
    that numpy would redraw, and every row of a plan with a BTPE cell,
    takes the per-row ``rng.binomial`` call instead.
    """
    # a fresh Philox4x64-10 stream: counter 0, empty buffer; setting the
    # state copies the key, so one key list takes each index in turn (the
    # setter reads lists of ints faster than uint64 arrays)
    key = [spec.seed, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bitgen = rng.bit_generator
    counts = np.zeros((len(indices), spec.plan.n_cells), dtype=np.int64)
    inversion = spec._inversion
    per_row = range(len(indices))
    if inversion is not None:
        m = inversion.live.size
        raw = np.empty((len(indices), m), dtype=np.uint64)
        for row, index in enumerate(indices):
            key[1] = index
            bitgen.state = state
            raw[row] = bitgen.random_raw(m)
        # numpy's next_double: the top 53 bits, scaled to [0, 1)
        x, redraw = _invert(inversion, (raw >> 11) * 2.0**-53)
        counts[:, inversion.live] = np.where(inversion.flipped,
                                             inversion.devices - x, x)
        per_row = np.flatnonzero(redraw)
    for row in per_row:
        key[1] = indices[row]
        bitgen.state = state
        counts[row] = rng.binomial(spec.plan.devices,
                                   spec.failure_probs).ravel()
    return counts.reshape((len(indices),) + spec.plan.shape)


def generate_table(spec: SimulationSpec, replication_index: int
                   ) -> FailureTable:
    """Draw one table from the Philox stream keyed by (seed,
    replication_index).  The index, like the seed, must be an integer in
    [0, 2**64); anything else raises ValueError."""
    index = _integral(replication_index, "replication_index")
    if not 0 <= index < 2**64:
        raise ValueError("replication_index must fit in 64 bits")
    rng = np.random.Generator(np.random.Philox(0))
    return FailureTable(spec.plan, _draw_counts(spec, [index], rng)[0])


def _replication_fits(spec: SimulationSpec):
    """Per-(replication, beta) estimates, and Z statistics under a hypothesis.

    Returns ``alpha`` (replications, betas, 2) and ``stat`` (replications,
    betas); NaN marks a dropped fit (no interior data, no convergence, or
    degenerate inference).  Replications are solved in batches of
    ``_BLOCK`` from one re-keyed generator, but every row of a batch runs
    its own solve, so no value depends on the batch size.
    """
    alpha = np.full((spec.replications, len(spec.betas), 2), np.nan)
    stat = np.full((spec.replications, len(spec.betas)), np.nan)
    devices = spec.plan.devices
    # its seed does not matter: _draw_counts re-keys it for every draw
    rng = np.random.Generator(np.random.Philox(0))
    for lo in range(0, spec.replications, _BLOCK):
        counts = _draw_counts(
            spec, range(lo, min(lo + _BLOCK, spec.replications)), rng)
        interior = ((counts > 0) & (counts < devices)).any(axis=(1, 2))
        reps = lo + np.flatnonzero(interior)
        if reps.size == 0:
            continue
        fits = _fit_rows(counts[interior] / devices, spec.plan, spec.betas)
        est = fits["alpha"]
        for b, beta in enumerate(spec.betas):
            ok = fits["converged"][:, b]
            alpha[reps[ok], b] = est[ok, b]
            if spec.hypothesis is not None:
                stat[reps[ok], b] = _z_rows(est[ok, b], spec.plan, beta,
                                            spec.hypothesis)
    if spec.hypothesis is not None:
        alpha[np.isnan(stat)] = np.nan
    return alpha, stat


def _study(spec: SimulationSpec) -> SimulationReport:
    """The engine of both studies: the rejection rates of the Z test when
    the spec carries a hypothesis, else the RMSEs against the truth."""
    alpha, stat = _replication_fits(spec)
    testing = spec.hypothesis is not None
    truth = spec.true_params.as_array()
    z_crit = _critical_value(spec.level)
    names = _VALUE_FIELDS[3:] if testing else _VALUE_FIELDS[:3]
    used, values = [], []
    for b_idx in range(len(spec.betas)):
        kept = ~np.isnan(alpha[:, b_idx, 0])
        used.append(int(np.count_nonzero(kept)))
        if not used[-1]:
            values.append((float("nan"),) * len(names))
        elif testing:
            values.append(
                (float(np.mean(np.abs(stat[kept, b_idx]) > z_crit)),))
        else:
            # errors near 1e154 square or sum beyond the double range: the
            # report holds inf, which the CLI refuses as NumericalOverflow
            with np.errstate(over="ignore"):
                sq = (alpha[kept, b_idx] - truth) ** 2
                values.append(tuple(
                    float(np.sqrt(np.mean(v)))
                    for v in (sq[:, 0], sq[:, 1], sq.sum(axis=1))))
    return SimulationReport(
        kind="level_power" if testing else "rmse",
        spec=spec,
        betas=spec.betas,
        used=tuple(used),
        failed_fits=tuple(spec.replications - n for n in used),
        **dict(zip(names, zip(*values))),
    )


def rmse_study(spec: SimulationSpec, workers: int = 1) -> SimulationReport:
    """Root mean squared error of the estimates against the clean truth.

    Contamination is treated as misspecification: errors are always
    measured against ``spec.true_params``.  Replications whose fit fails
    are dropped from the averages and counted in ``failed_fits``.
    ``workers`` must be >= 1; it starts no threads (see the module notes).
    """
    _check_workers(workers)
    if spec.hypothesis is not None:
        raise ValueError("rmse_study expects a spec without a hypothesis")
    return _study(spec)


def level_power_study(spec: SimulationSpec, workers: int = 1
                      ) -> SimulationReport:
    """Proportion of replications with |Z| above the two-sided critical value.

    With true parameters satisfying the null this estimates the empirical
    significance level; under an alternative it estimates power.
    ``workers`` must be >= 1; it starts no threads (see the module notes).
    """
    _check_workers(workers)
    if spec.hypothesis is None:
        raise ValueError("level_power_study requires a hypothesis in the spec")
    return _study(spec)


def _sweep_specs(spec: SimulationSpec, parameter: str, values) -> tuple:
    """The specs of a sweep of ``spec`` and their x values, one per value
    of contamination strength (see :func:`contamination_sweep`) or, for
    ``"devices"``, of devices per cell.  Every value is checked here."""
    if parameter == "strength":
        try:
            xs = [float(s) for s in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"sweep strengths must be numbers: {exc}"
                             ) from None
        mode, cell = spec.contamination.mode, spec.contamination.cell
        if mode == "none":
            raise ValueError(
                "sweep requires an alpha0_shift or alpha1_shift scheme")
        ref = (spec.true_params.alpha0 if mode == "alpha0_shift"
               else spec.true_params.alpha1)
        schemes = [ContaminationScheme(mode, cell, (1.0 - s) * ref)
                   if s != 0.0 else ContaminationScheme() for s in xs]
        return [dataclasses.replace(spec, contamination=c)
                for c in schemes], xs
    if parameter == "devices":
        specs, xs = [], []
        for k in values:
            xs.append(_integral(k, "devices"))
            specs.append(dataclasses.replace(spec, plan=TestPlan(
                spec.plan.temps, spec.plan.times,
                np.full(spec.plan.shape, xs[-1]))))
        return specs, xs
    raise ValueError(
        f"sweep parameter must be strength or devices, got {parameter!r}")


def contamination_sweep(spec: SimulationSpec, strengths, workers: int = 1):
    """Run the spec's study, level/power with a hypothesis and rmse
    without, across contamination strengths.

    ``strengths`` are relative reductions s in [0, 1): strength s maps to a
    contaminated value (1 - s) * alpha0 (or alpha1, per the spec's mode).
    Strength 0 means no contamination.  Every strength is checked before
    the first study runs.  Returns (reports, strengths).
    """
    _check_workers(workers)
    specs, strengths = _sweep_specs(spec, "strength", strengths)
    return [_study(s) for s in specs], strengths
