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

from .estimator import FitResult, _fit_tables
from .model import (FailureTable, TestPlan, _frozen_array, _int_array,
                    _mean_life, hazard, mean_lifetime)


class Cause(enum.Enum):
    """Failure cause: death without tumour (1) or with tumour (2)."""

    NATURAL = 1
    TUMOUR = 2


def _totals(*counts) -> np.ndarray:
    """Per-cell sums of int64 outcome counts, checked in exact ints."""
    if np.any(sum(c.astype(object) for c in counts) >= 2**63):
        raise ValueError("a per-cell device total overflows int64")
    return sum(counts)


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
            arr = _int_array(getattr(self, name), name)
            if arr.shape != self.plan.shape:
                raise ValueError(f"{name} must have shape {self.plan.shape}")
            if np.any(arr < 0):
                raise ValueError(f"{name} must be non-negative")
            object.__setattr__(self, name, arr)
        totals = _totals(self.sacrificed, self.died_natural, self.died_tumour)
        if not np.array_equal(totals, self.plan.devices):
            raise ValueError(
                "plan.devices must equal the per-cell sum of the three outcomes"
            )

    @classmethod
    def from_counts(cls, temps, times, sacrificed, died_natural, died_tumour
                    ) -> "MultiOutcomeTable":
        sacrificed = _int_array(sacrificed, "sacrificed")
        died_natural = _int_array(died_natural, "died_natural")
        died_tumour = _int_array(died_tumour, "died_tumour")
        plan = TestPlan(
            temps=temps,
            times=times,
            devices=_totals(sacrificed, died_natural, died_tumour),
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
    """Failure table for one cause: its deaths out of all animals per cell.

    Raises ``ValueError`` when ``cause`` is not a :class:`Cause` member.
    """
    if not isinstance(cause, Cause):
        raise ValueError(f"cause must be a Cause member, got {cause!r}")
    counts = data.died_natural if cause is Cause.NATURAL else data.died_tumour
    return FailureTable(plan=data.plan, counts=counts)


def fit_causes(
    data: MultiOutcomeTable,
    betas,
    causes=(Cause.NATURAL, Cause.TUMOUR),
) -> list[list[CauseFit]]:
    """Fit the ``causes`` marginally along the sorted ``betas``.

    The causes share ``data.plan``, so they are fitted together as the rows
    of one warm-started path (see :func:`~oneshotdpd.estimator.fit_path`).
    Returns, per beta, one :class:`CauseFit` per cause in ``causes`` order.
    Raises ``ValueError`` when a cause is not a :class:`Cause` member (see
    :func:`cause_table`), :class:`~oneshotdpd.errors.NoInteriorData` when
    a cause has no cell with a count strictly between 0 and its size, and
    otherwise as :func:`~oneshotdpd.estimator.fit` does.
    """
    causes = list(causes)
    if not causes:
        raise ValueError("at least one cause is required")
    paths = _fit_tables([cause_table(data, c) for c in causes], betas)
    return [
        [CauseFit(cause=cause, fit=result, mean_lifetimes=_frozen_array(
            [mean_lifetime(result.params, w) for w in data.plan.temps], float))
         for cause, result in zip(causes, step)]
        for step in zip(*paths)
    ]


def fit_cause(data: MultiOutcomeTable, cause: Cause, beta: float) -> CauseFit:
    """Fit one cause marginally at tuning parameter ``beta``."""
    return fit_causes(data, [beta], [cause])[0][0]


def combined_mean_lifetime(fits, w: float) -> float:
    """Expected time to the first event among independent exponential causes.

    Equals ``1 / sum_r hazard_r(w)``, the harmonic combination of the
    per-cause mean lifetimes.  Raises
    :class:`~oneshotdpd.errors.NumericalOverflow`, as
    :func:`~oneshotdpd.model.mean_lifetime` does, when a rate or their sum
    exceeds the double range, or when the sum underflows so far that its
    reciprocal does.
    """
    fits = list(fits)
    if not fits:
        raise ValueError("at least one cause fit is required")
    return _mean_life(sum(hazard(cf.fit.params, w) for cf in fits), w)
