"""Exponential model for one-shot device test data.

A device tested at stress level ``w`` has an exponential lifetime with rate

    lambda(w) = alpha0 * exp(alpha1 * w),

and is inspected once, at time ``t``: the observation is binary (failed by
``t`` or not).  A test plan crosses I stress levels with J inspection times
and places ``K_ij`` devices in each cell; the data are the per-cell failure
counts ``n_ij``.

All functions here are pure; the data types are frozen and safe to share
between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflow


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelParams:
    """Parameter pair of the log-linear rate link.

    Attributes
    ----------
    alpha0 : float
        Baseline rate (per time unit).  Must be strictly positive.
    alpha1 : float
        Stress coefficient (per stress unit).  Any finite real.
    """

    alpha0: float
    alpha1: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0.0):
            raise ValueError(f"alpha0 must be finite and > 0, got {self.alpha0}")
        if not math.isfinite(self.alpha1):
            raise ValueError(f"alpha1 must be finite, got {self.alpha1}")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha0, self.alpha1])


@dataclass(frozen=True)
class TestPlan:
    """Inspection design: stress levels, inspection times, cell sizes.

    ``devices`` is an I x J integer array of per-cell device counts.  A
    balanced design has a constant count in every cell; unbalanced designs
    are supported throughout (real studies rarely stay balanced).
    """

    temps: np.ndarray
    times: np.ndarray
    devices: np.ndarray

    def __post_init__(self):
        temps = _frozen_array(self.temps, float)
        times = _frozen_array(self.times, float)
        devices = _frozen_array(self.devices, int)
        if temps.ndim != 1 or temps.size < 1:
            raise ValueError("temps must be a non-empty 1-d sequence")
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(temps)):
            raise ValueError("temps must be finite")
        if len(np.unique(temps)) != temps.size:
            raise ValueError("temps must be pairwise distinct")
        if not np.all(np.isfinite(times)) or np.any(times <= 0.0):
            raise ValueError("times must be finite and > 0")
        if devices.shape != (temps.size, times.size):
            raise ValueError(
                f"devices must have shape {(temps.size, times.size)}, "
                f"got {devices.shape}"
            )
        if np.any(devices < 1):
            raise ValueError("every cell must contain at least one device")
        object.__setattr__(self, "temps", temps)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "devices", devices)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.temps.size, self.times.size)

    @property
    def n_cells(self) -> int:
        return self.temps.size * self.times.size

    @property
    def is_balanced(self) -> bool:
        return bool(np.all(self.devices == self.devices.flat[0]))

    @functools.cached_property
    def mean_devices(self) -> float:
        """Mean cell size; equals the common K for balanced plans."""
        return float(self.devices.mean())


@dataclass(frozen=True)
class FailureTable:
    """Observed failure counts aligned to a test plan."""

    plan: TestPlan
    counts: np.ndarray

    def __post_init__(self):
        counts = _frozen_array(self.counts, int)
        if counts.shape != self.plan.shape:
            raise ValueError(
                f"counts must have shape {self.plan.shape}, got {counts.shape}"
            )
        if np.any(counts < 0) or np.any(counts > self.plan.devices):
            raise ValueError("counts must satisfy 0 <= n_ij <= K_ij in every cell")
        object.__setattr__(self, "counts", counts)

    @property
    def frequencies(self) -> np.ndarray:
        """Per-cell observed failure fractions n_ij / K_ij."""
        return self.counts / self.plan.devices

    def has_interior_cell(self) -> bool:
        """True when some cell has 0 < n_ij < K_ij."""
        return bool(np.any((self.counts > 0) & (self.counts < self.plan.devices)))


@dataclass(frozen=True)
class ProbabilityVector:
    """Length-2IJ probability vector in cell order.

    Entries alternate (failure, survival) for cells enumerated row-major
    over (stress, time).  Consecutive pairs sum to 1/(I*J) and the whole
    vector sums to 1; both are checked at construction to 1e-12.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen_array(self.entries, float)
        if entries.ndim != 1 or entries.size % 2 != 0 or entries.size == 0:
            raise ValueError("entries must be a 1-d array of even positive length")
        if np.any(entries < -1e-15) or np.any(entries > 1.0 + 1e-15):
            raise ValueError("entries must lie in [0, 1]")
        if abs(entries.sum() - 1.0) > 1e-12:
            raise ValueError("entries must sum to 1 within 1e-12")
        cell_mass = 2.0 / entries.size
        pair_sums = entries[0::2] + entries[1::2]
        if np.max(np.abs(pair_sums - cell_mass)) > 1e-12:
            raise ValueError("each (failure, survival) pair must sum to 1/(I*J)")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return self.entries.size

    def __array__(self, dtype=None):
        return np.asarray(self.entries, dtype=dtype)


# ----------------------------------------------------------------------
# Model functions
# ----------------------------------------------------------------------

def hazard(params: ModelParams, w: float) -> float:
    """Failure rate alpha0 * exp(alpha1 * w) at stress level ``w``.

    Raises :class:`~oneshotdpd.errors.NumericalOverflow` when the rate
    exceeds the double range.
    """
    try:
        rate = params.alpha0 * math.exp(params.alpha1 * w)
    except OverflowError:
        rate = math.inf
    if math.isinf(rate):
        raise NumericalOverflow(f"failure rate at stress {w!r} overflows")
    return rate


def cdf(params: ModelParams, w: float, t: float) -> float:
    """Probability of failure by time ``t`` at stress ``w``."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return -math.expm1(-hazard(params, w) * t)


def pdf(params: ModelParams, w: float, t: float) -> float:
    """Lifetime density at time ``t`` under stress ``w``."""
    if t < 0:
        raise ValueError("t must be >= 0")
    lam = hazard(params, w)
    return lam * math.exp(-lam * t)


def reliability(params: ModelParams, w: float, t: float) -> float:
    """Survival probability exp(-lambda(w) * t); complements :func:`cdf`."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(-hazard(params, w) * t)


def mean_lifetime(params: ModelParams, w: float) -> float:
    """Expected lifetime 1 / lambda(w) at stress ``w``.

    Raises :class:`~oneshotdpd.errors.NumericalOverflow` when the rate
    underflows so far that its reciprocal exceeds the double range.
    """
    rate = hazard(params, w)
    life = 1.0 / rate if rate != 0.0 else math.inf
    if math.isinf(life):
        raise NumericalOverflow(f"mean lifetime at stress {w!r} overflows")
    return life


def _cells(lam, t):
    """Per-cell ``(lambda t, F, S, f)`` for rates ``lam`` at times ``t``.

    The inputs broadcast, so a leading batch axis passes straight through.
    ``F`` and ``S = exp(-lambda t)`` each take their own exact path, and
    ``f`` is the lifetime density at ``t``.
    """
    lt = lam * t
    S = np.exp(-lt)
    return lt, -np.expm1(-lt), S, lam * S


def _plan_cells(params: ModelParams, plan: TestPlan):
    """:func:`_cells` over the I x J plan grid at ``params``."""
    lam = params.alpha0 * np.exp(params.alpha1 * plan.temps)[:, None]
    return _cells(lam, plan.times)


def cell_probs(params: ModelParams, plan: TestPlan):
    """Per-cell failure probability, survival probability and density.

    Returns
    -------
    (F, S, f) : tuple of I x J arrays
        ``F`` is the failure probability by the cell's inspection time,
        ``S = 1 - F`` computed on its own exact path (``exp(-lambda t)``),
        and ``f`` the lifetime density at the inspection time.
    """
    return _plan_cells(params, plan)[1:]


def theoretical_probs(params: ModelParams, plan: TestPlan) -> ProbabilityVector:
    """Model probability vector (F_ij/IJ, (1-F_ij)/IJ) in cell order."""
    F, S, _ = cell_probs(params, plan)
    n_cells = plan.n_cells
    entries = np.empty(2 * n_cells)
    entries[0::2] = F.ravel() / n_cells
    entries[1::2] = S.ravel() / n_cells
    return ProbabilityVector(entries)


def observed_probs(table: FailureTable) -> ProbabilityVector:
    """Empirical probability vector (n_ij/(IJ K_ij), (K_ij-n_ij)/(IJ K_ij)).

    With a constant cell size K this is the usual n_ij/(IJK) layout; the
    per-cell form keeps each (failure, survival) pair summing to 1/(I*J)
    for unbalanced plans as well.
    """
    n_cells = table.plan.n_cells
    freq = table.frequencies
    entries = np.empty(2 * n_cells)
    entries[0::2] = freq.ravel() / n_cells
    entries[1::2] = (1.0 - freq).ravel() / n_cells
    return ProbabilityVector(entries)
