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


def _check_number(value, name: str) -> None:
    """Refuse a bool, a string or bytes with ValueError, where a number
    is expected, instead of reading it as one."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _integral(value, name: str) -> int:
    """``value`` as an int; a bool, a string or a number that is not whole
    is refused with ValueError instead of being truncated or coerced."""
    try:
        out = int(value)
        ok = out == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _int_array(values, name: str) -> np.ndarray:
    """:func:`_frozen_array` of ints, each entry checked by
    :func:`_integral`; an integer array needs no check."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        for value in np.ravel(np.array(values, dtype=object)):
            _integral(value, name)
    return _frozen_array(values, int)


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
        _check_number(self.alpha0, "alpha0")
        _check_number(self.alpha1, "alpha1")
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
        devices = _int_array(self.devices, "devices")
        if temps.ndim != 1 or temps.size < 1:
            raise ValueError("temps must be a non-empty 1-d sequence")
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(temps)):
            raise ValueError("temps must be finite")
        ordered = np.sort(temps)
        if np.any(ordered[1:] == ordered[:-1]):
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

    @functools.cached_property
    def mean_devices(self) -> float:
        """Mean cell size; equals the common K for balanced plans."""
        return float(self.devices.mean())

    @functools.cached_property
    def cell_vectors(self) -> tuple[np.ndarray, ...]:
        """Stress ``w``, its square, time ``t`` and weight ``K_ij / Kbar``
        of every cell, as read-only (C,) vectors over the C = I J cells in
        row-major (stress, time) order; computed once per plan.  A square
        that overflows is infinite; the kernels then report non-finite
        sums."""
        w = np.repeat(self.temps, self.times.size)
        with np.errstate(over="ignore"):
            w2 = w * w
        t = np.tile(self.times, self.temps.size)
        weights = (self.devices / self.mean_devices).ravel()
        for v in (w, w2, t, weights):
            v.setflags(write=False)
        return w, w2, t, weights


@dataclass(frozen=True)
class FailureTable:
    """Observed failure counts aligned to a test plan."""

    plan: TestPlan
    counts: np.ndarray

    def __post_init__(self):
        counts = _int_array(self.counts, "counts")
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
    return _mean_life(hazard(params, w), w)


def _mean_life(rate: float, w: float) -> float:
    """``1 / rate`` for a failure rate ``rate`` at stress ``w``; raises
    :class:`~oneshotdpd.errors.NumericalOverflow` when the rate or its
    reciprocal is beyond the double range."""
    if math.isinf(rate):
        raise NumericalOverflow(f"failure rate at stress {w!r} overflows")
    life = 1.0 / rate if rate != 0.0 else math.inf
    if math.isinf(life):
        raise NumericalOverflow(f"mean lifetime at stress {w!r} overflows")
    return life


def _cells(lam, t):
    """Per-cell ``(lambda t, F, S, f)`` for rates ``lam`` at times ``t``.

    The inputs broadcast, so batch axes pass straight through.  ``F`` and
    ``S = exp(-lambda t)`` each take their own exact path, and ``f`` is the
    lifetime density at ``t``.
    """
    lt = lam * t
    neg = -lt
    S = np.exp(neg)
    return lt, -np.expm1(neg), S, lam * S


def _plan_cells(params: ModelParams, plan: TestPlan):
    """:func:`_cells` at ``params`` over :attr:`TestPlan.cell_vectors`,
    as (C,) vectors in row-major (stress, time) order: the one evaluation
    of a plan at a single parameter point.

    Raises :class:`~oneshotdpd.errors.NumericalOverflow`, as :func:`hazard`
    does, at the first stress whose rate exceeds the double range.  A
    finite rate whose ``lambda t`` overflows gives F = 1, S = 0 and f = 0.
    """
    w, _, t, _ = plan.cell_vectors
    with np.errstate(over="ignore"):
        lam = params.alpha0 * np.exp(params.alpha1 * w)
        if not np.isfinite(lam).all():
            w = float(w[np.argmin(np.isfinite(lam))])
            raise NumericalOverflow(f"failure rate at stress {w!r} overflows")
        return _cells(lam, t)


def cell_probs(params: ModelParams, plan: TestPlan):
    """Per-cell failure probability, survival probability and density.

    Returns
    -------
    (F, S, f) : tuple of I x J arrays
        ``F`` is the failure probability by the cell's inspection time,
        ``S = 1 - F`` computed on its own exact path (``exp(-lambda t)``),
        and ``f`` the lifetime density at the inspection time.

    They are evaluated on :attr:`TestPlan.cell_vectors`, then reshaped.
    Raises :class:`~oneshotdpd.errors.NumericalOverflow` when a rate
    exceeds the double range.
    """
    return tuple(v.reshape(plan.shape) for v in _plan_cells(params, plan)[1:])
