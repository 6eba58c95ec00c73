"""Dataset ingestion and result serialization.

CSV schemas (UTF-8, comma separated, ``.`` decimal, header mandatory):

* failure tables: ``w,t,K,n`` with one row per (stress, time) cell;
* multi-outcome tables: ``w,t,n_sac,n_nat,n_tum``; the cell size is the
  row sum of the three outcome counts.

Every distinct ``w`` becomes a stress level and every distinct ``t`` an
inspection time (both sorted ascending); each (w, t) pair must appear
exactly once.  JSON serialization keeps full double precision (floats are
emitted in shortest round-trip form), so re-parsing reproduces fit fields
exactly.

Import rule: this module imports only ``errors`` and ``model`` of the
package, so a command that fits nothing (``reliability``) imports neither
the estimator nor inference.  The other package names it uses serve
annotations, or are imported by the one function that needs them.
"""

from __future__ import annotations

import csv
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError
from .model import FailureTable, TestPlan

if TYPE_CHECKING:  # pragma: no cover
    from .competing import MultiOutcomeTable
    from .estimator import FitResult
    from .inference import SandwichCovariance

# most points one start:step:stop item of a tuning-parameter list may expand to
_MAX_BETA_POINTS = 10_000


def _read_rows(path, columns):
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise ParseError(f"{path}: empty file, expected header {columns}")
        if set(header) != set(columns) or len(header) != len(columns):
            raise ParseError(
                f"{path}: expected header columns {list(columns)}, got {header}"
            )
        rows = []
        for row in reader:
            # the line the row ends on: DictReader skips blank lines
            line_no = reader.line_num
            # DictReader files the values beyond the header under None
            if None in row:
                raise ParseError(
                    f"{path} row {line_no}: more values than the "
                    f"{len(columns)} header columns"
                )
            parsed = {}
            for col in columns:
                raw = row.get(col)
                if raw is None or raw.strip() == "":
                    raise ParseError(
                        f"{path} row {line_no}: missing value in column {col!r}"
                    )
                try:
                    parsed[col] = float(raw)
                except ValueError:
                    raise ParseError(
                        f"{path} row {line_no}: non-numeric value {raw!r} "
                        f"in column {col!r}"
                    ) from None
            rows.append((line_no, parsed))
        if not rows:
            raise ParseError(f"{path}: no data rows")
        return rows


def _int_field(path, line_no, name, value):
    # the range test comes first: int() refuses NaN and infinity, and the
    # count grids hold int64
    if not (0 <= value < 2**63 and value == int(value)):
        raise ParseError(
            f"{path} row {line_no}: column {name!r} must be a non-negative "
            f"integer, got {value}"
        )
    return int(value)


def _assemble_cells(path, rows, count_columns):
    temps = sorted({parsed["w"] for _, parsed in rows})
    times = sorted({parsed["t"] for _, parsed in rows})
    shape = (len(temps), len(times))
    w_index = {w: i for i, w in enumerate(temps)}
    t_index = {t: j for j, t in enumerate(times)}
    grids = {name: np.full(shape, -1, dtype=int) for name in count_columns}
    seen = np.zeros(shape, dtype=bool)
    for line_no, parsed in rows:
        i, j = w_index[parsed["w"]], t_index[parsed["t"]]
        if seen[i, j]:
            raise ParseError(
                f"{path} row {line_no}: duplicate cell "
                f"(w={parsed['w']}, t={parsed['t']})"
            )
        seen[i, j] = True
        for name in count_columns:
            grids[name][i, j] = _int_field(path, line_no, name, parsed[name])
    if not seen.all():
        i, j = np.argwhere(~seen)[0]
        raise ParseError(
            f"{path}: missing cell (w={temps[i]}, t={times[j]}); every "
            f"(w, t) pair must appear exactly once"
        )
    return np.array(temps), np.array(times), grids


def read_failure_csv(path) -> FailureTable:
    """Read a ``w,t,K,n`` failure table; see the module docstring."""
    rows = _read_rows(path, ("w", "t", "K", "n"))
    temps, times, grids = _assemble_cells(path, rows, ("K", "n"))
    if np.any(grids["n"] > grids["K"]):
        i, j = np.argwhere(grids["n"] > grids["K"])[0]
        raise ParseError(
            f"{path}: cell (w={temps[i]}, t={times[j]}) has n > K "
            f"({grids['n'][i, j]} > {grids['K'][i, j]})"
        )
    try:
        plan = TestPlan(temps=temps, times=times, devices=grids["K"])
        return FailureTable(plan=plan, counts=grids["n"])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_multioutcome_csv(path) -> MultiOutcomeTable:
    """Read a ``w,t,n_sac,n_nat,n_tum`` multi-outcome table."""
    from .competing import MultiOutcomeTable

    rows = _read_rows(path, ("w", "t", "n_sac", "n_nat", "n_tum"))
    temps, times, grids = _assemble_cells(
        path, rows, ("n_sac", "n_nat", "n_tum")
    )
    try:
        return MultiOutcomeTable.from_counts(
            temps=temps,
            times=times,
            sacrificed=grids["n_sac"],
            died_natural=grids["n_nat"],
            died_tumour=grids["n_tum"],
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _list_item_numbers(item: str) -> list[float]:
    """The finite value, or start, step and stop, of one list item."""
    parts = item.split(":")
    if len(parts) not in (1, 3):
        raise ParseError(
            f"grid item {item!r} must have the form start:step:stop"
        )
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        kind = "tuning parameter" if len(parts) == 1 else "grid item"
        raise ParseError(f"non-numeric {kind} {item!r}") from None
    if not all(map(math.isfinite, numbers)):
        raise ParseError(f"non-finite tuning parameter in {item!r}")
    return numbers


def parse_betas(text: str) -> list[float]:
    """Parse a tuning-parameter list like ``0:0.1:1,2,3,4``.

    Comma-separated items are either plain values or inclusive
    ``start:step:stop`` grids, which together may hold at most
    ``_MAX_BETA_POINTS`` values, counted before duplicates go.  Every item
    is read before any grid is built, and a NaN or infinite number in any
    of them (a value, a grid bound or a step) is refused.  The result is
    sorted ascending with duplicates (within 1e-12) removed.
    """
    items = [(item, _list_item_numbers(item))
             for item in map(str.strip, text.split(",")) if item]
    values: list[float] = []
    too_many = f"the list holds more than {_MAX_BETA_POINTS} points"
    for item, numbers in items:
        if len(numbers) == 1:
            values.extend(numbers)
            continue
        start, step, stop = numbers
        if step <= 0 or stop < start:
            raise ParseError(
                f"grid item {item!r} needs step > 0 and stop >= start"
            )
        span = (stop - start) / step
        # checked before the grid is built; an infinite span fails too
        if not len(values) + span < _MAX_BETA_POINTS - 0.5:
            raise ParseError(too_many)
        count = int(round(span))
        grid = [start + k * step for k in range(count + 1)]
        values.extend(v for v in grid if v <= stop + 1e-9)
    if not values:
        raise ParseError(f"no tuning parameters in {text!r}")
    if len(values) > _MAX_BETA_POINTS:
        raise ParseError(too_many)
    if any(v < 0 for v in values):
        raise ParseError("tuning parameters must be >= 0")
    values.sort()
    deduped = [values[0]]
    for v in values[1:]:
        if v - deduped[-1] > 1e-12:
            deduped.append(v)
    return deduped


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------

def covariance_to_dict(cov: SandwichCovariance | None):
    if cov is None:
        return None
    return {
        "j_bar": cov.j_bar.tolist(),
        "k_bar": cov.k_bar.tolist(),
        "sigma": cov.sigma.tolist(),
    }


def fit_result_to_dict(result: FitResult) -> dict:
    return {
        "beta": result.beta,
        "alpha0": result.params.alpha0,
        "alpha1": result.params.alpha1,
        "objective": result.objective,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "boundary_clamped": result.boundary_clamped,
        "covariance": covariance_to_dict(result.covariance),
    }
