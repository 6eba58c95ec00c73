"""Two-cause extension for tumorigenicity-style studies.

Each animal either is sacrificed at its inspection time (no event), dies
without tumour (cause 1, "natural") or dies with tumour (cause 2).  Every
cause is fitted marginally: deaths from that cause by the inspection time
count as failures out of all animals in the cell, under the plain
exponential model.  Cause lifetimes are treated as independent
exponentials, so the combined expected lifetime is the harmonic sum of the
per-cause means.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .estimator import FitResult, SolverConfig, _fit_tables
from .model import (FailureTable, TestPlan, _frozen_array, hazard,
                    mean_lifetime)


class Cause(enum.Enum):
    """Failure cause: death without tumour (1) or with tumour (2)."""

    NATURAL = 1
    TUMOUR = 2


@dataclass(frozen=True)
class MultiOutcomeTable:
    """Per-cell outcome triples (sacrificed, died natural, died tumour).

    ``plan.devices`` holds the per-cell totals, which are derived from the
    triples at construction.
    """

    plan: TestPlan
    sacrificed: np.ndarray
    died_natural: np.ndarray
    died_tumour: np.ndarray

    def __post_init__(self):
        for name in ("sacrificed", "died_natural", "died_tumour"):
            arr = np.array(getattr(self, name), dtype=int)
            if arr.shape != self.plan.shape:
                raise ValueError(f"{name} must have shape {self.plan.shape}")
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        totals = self.sacrificed + self.died_natural + self.died_tumour
        if not np.array_equal(totals, self.plan.devices):
            raise ValueError(
                "plan.devices must equal the per-cell sum of the three outcomes"
            )

    @classmethod
    def from_counts(cls, temps, times, sacrificed, died_natural, died_tumour
                    ) -> "MultiOutcomeTable":
        sacrificed = np.array(sacrificed, dtype=int)
        died_natural = np.array(died_natural, dtype=int)
        died_tumour = np.array(died_tumour, dtype=int)
        plan = TestPlan(
            temps=temps,
            times=times,
            devices=sacrificed + died_natural + died_tumour,
        )
        return cls(plan=plan, sacrificed=sacrificed,
                   died_natural=died_natural, died_tumour=died_tumour)


@dataclass(frozen=True)
class CauseFit:
    """Marginal fit of one cause plus its mean lifetime at each stress level."""

    cause: Cause
    fit: FitResult
    mean_lifetimes: np.ndarray

    def mean_lifetime_at(self, w: float) -> float:
        return mean_lifetime(self.fit.params, w)


def cause_table(data: MultiOutcomeTable, cause: Cause) -> FailureTable:
    """Failure table for one cause: its deaths out of all animals per cell."""
    counts = data.died_natural if cause is Cause.NATURAL else data.died_tumour
    return FailureTable(plan=data.plan, counts=counts)


def fit_causes(
    data: MultiOutcomeTable,
    betas,
    causes=(Cause.NATURAL, Cause.TUMOUR),
    config: SolverConfig | None = None,
) -> list[list[CauseFit]]:
    """Fit the ``causes`` marginally along the sorted ``betas``.

    The causes share ``data.plan``, so they are fitted together as the rows
    of one warm-started path (see :func:`~oneshotdpd.estimator.fit_path`).
    Returns, per beta, one :class:`CauseFit` per cause in ``causes`` order.
    Raises :class:`~oneshotdpd.errors.NoInteriorData` when a cause has no
    cell with a count strictly between 0 and its size.
    """
    causes = list(causes)
    if not causes:
        raise ValueError("at least one cause is required")
    paths = _fit_tables([cause_table(data, c) for c in causes], betas, config)
    return [
        [CauseFit(cause=cause, fit=result, mean_lifetimes=_frozen_array(
            [mean_lifetime(result.params, w) for w in data.plan.temps], float))
         for cause, result in zip(causes, step)]
        for step in zip(*paths)
    ]


def fit_cause(
    data: MultiOutcomeTable,
    cause: Cause,
    beta: float,
    config: SolverConfig | None = None,
) -> CauseFit:
    """Fit one cause marginally at tuning parameter ``beta``."""
    return fit_causes(data, [beta], [cause], config)[0][0]


def combined_mean_lifetime(fits, w: float) -> float:
    """Expected time to the first event among independent exponential causes.

    Equals ``1 / sum_r hazard_r(w)``, the harmonic combination of the
    per-cause mean lifetimes.
    """
    fits = list(fits)
    if not fits:
        raise ValueError("at least one cause fit is required")
    total_rate = sum(hazard(cf.fit.params, w) for cf in fits)
    return 1.0 / total_rate
