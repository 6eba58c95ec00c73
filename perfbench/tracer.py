"""Span tracer that times calls into ``oneshotdpd`` from outside the package.

The package itself is not instrumented.  :meth:`Tracer.install` rebinds the
public functions listed in ``SPANS`` and ``COUNTERS`` to timing wrappers in
every loaded ``oneshotdpd`` module that holds them, so a call through
``from .estimator import fit`` in ``simulate`` is caught as well as a call
through ``estimator.fit``.  :meth:`Tracer.uninstall` restores the originals.

Spans are kept in memory as ``(id, name, start, end, parent, run)`` tuples
and written out by :meth:`Tracer.write`.  A span's self time is its duration
minus the durations of its direct children; traced passes run on one
thread, so children never overlap.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import statistics
import sys
import threading
import time

# (module, function, span name); ``estimator.fit`` is split into cold and
# warm spans by its config at the call boundary
SPANS = (
    ("simulate", "level_power_study", "simulate.study"),
    ("simulate", "generate_table", "simulate.generate_table"),
    ("estimator", "fit", None),
    ("inference", "sandwich", "inference.sandwich"),
    ("inference", "z_statistic", "inference.z_statistic"),
    ("io", "read_failure_csv", "io.read_csv"),
    ("io", "read_multioutcome_csv", "io.read_csv"),
    ("competing", "fit_cause", "competing.fit_cause"),
    ("cli", "main", "cli.main"),
)

# call counts only: these run too often, or (divergence) not at all today
COUNTERS = (
    ("model", "cell_probs", "model.cell_probs"),
    ("divergence", "dpd_objective", "divergence.dpd_objective"),
)


def _fit_span_name(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs.get("config")
    cold = config is None or config.grid_init
    return "estimator.fit_cold" if cold else "estimator.fit_warm"


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        # (iterations, converged, boundary_clamped) of every FitResult
        self.fits: list[tuple[int, bool, bool]] = []
        self.run = ""
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            if name == "simulate.generate_table":
                # replication index: spans of one replication share a run id
                self.run = f"{self.run.split('/')[0]}/rep{args[1]}"
            label = name or _fit_span_name(args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, label, start, end, parent, self.run))
            if name is None:
                self.fits.append(
                    (result.iterations, result.converged,
                     result.boundary_clamped)
                )
            return result

        return traced

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for mod_name in {m for m, _, _ in SPANS + COUNTERS}:
            importlib.import_module(f"oneshotdpd.{mod_name}")
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "oneshotdpd" or key.startswith("oneshotdpd.")
        ]
        plan = [(m, f, self._span, n) for m, f, n in SPANS]
        plan += [(m, f, self._counter, n) for m, f, n in COUNTERS]
        for mod_name, func, factory, name in plan:
            original = getattr(sys.modules[f"oneshotdpd.{mod_name}"], func)
            wrapper = factory(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """Write every recorded span, one CSV row each."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start_s,end_s,parent,run\n")
            for sid, name, start, end, parent, run in self.spans:
                parent = "" if parent is None else parent
                handle.write(f"{sid},{name},{start!r},{end!r},{parent},{run}\n")


def summarize(spans) -> dict:
    """Per span name: calls, self seconds, inclusive durations, and the
    number of calls whose direct parent was each other span name."""
    names = {sid: name for sid, name, *_ in spans}
    child_time = collections.defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = collections.defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "durations": [],
                 "parents": collections.Counter()}
    )
    for sid, name, start, end, parent, _ in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[sid]
        entry["durations"].append(end - start)
        entry["parents"][names.get(parent)] += 1
    return dict(out)


def percentile(values, q: float) -> float:
    """Inclusive linear-interpolation percentile, 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
