"""Command line interface.

Every command writes a JSON document with top-level keys ``config``,
``results``, ``diagnostics`` and ``errors`` (the ``simulate`` command
additionally writes a plot-ready CSV).  Exit codes: 0 on success, 2 for
parse or configuration problems, 3 for computation errors, a result that
is not a finite number included: no document carries NaN or Infinity.
Outputs carry no timestamps, so identical inputs (and seed) give
byte-identical output.

Import rule: this module imports, besides the standard library and numpy,
only ``errors``, ``io`` and ``model`` of the package.  Each command imports
the library functions it calls when it runs, so a process compiles only
the modules its command uses: ``reliability`` none beyond those three,
``simulate`` alone the Monte-Carlo harness, and ``competing-fit`` alone the
competing-risks module.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import NumericalOverflow, OneShotError, ParseError
from .io import (
    fit_result_to_dict,
    parse_betas,
    read_failure_csv,
    read_multioutcome_csv,
)
from .model import ModelParams, mean_lifetime, reliability

if TYPE_CHECKING:  # pragma: no cover
    from .inference import LinearHypothesis

_PARSE_EXIT = 2
_COMPUTE_EXIT = 3


def _parse_floats(text: str, expect: int | None = None) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"expected comma-separated numbers, got {text!r}") from None
    if expect is not None and len(values) != expect:
        raise ParseError(f"expected {expect} comma-separated numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"expected finite numbers, got {text!r}")
    return values


def _check_finite_options(args) -> None:
    """Refuse NaN and infinite values of the ``type=float`` options."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"--{name.replace('_', '-')} must be finite, "
                             f"got {value!r}")


def _hypothesis_from(args) -> LinearHypothesis:
    from .inference import LinearHypothesis

    return LinearHypothesis(m=np.array(_parse_floats(args.m, expect=2)),
                            d=args.d)


def _params_from(text: str) -> ModelParams:
    return ModelParams(*_parse_floats(text, expect=2))


def _design_from(args) -> tuple:
    """Plan, alternative and hypothesis of ``power`` and ``samplesize``."""
    return (read_failure_csv(args.input).plan, _params_from(args.alpha_star),
            _hypothesis_from(args))


def _predictions(params: ModelParams, w0: float | None, mission_times) -> dict:
    out = {}
    if w0 is not None:
        out["mean_lifetime"] = mean_lifetime(params, w0)
        if mission_times is not None:
            out["reliability"] = {
                repr(t): reliability(params, w0, t) for t in mission_times
            }
    return out


def _fit_entry(result, w0, mission_times) -> dict:
    entry = fit_result_to_dict(result)
    entry.update(_predictions(result.params, w0, mission_times))
    return entry


def _fits_document(args, table, betas) -> dict:
    """The ``fit-path`` document; ``fit`` is the path of its one beta."""
    from .estimator import fit_path

    mission = _parse_floats(args.mission_times) if args.mission_times else None
    if args.mission_times is not None and args.w0 is None:
        raise ParseError("--mission-times requires --w0, the stress of the "
                         "reliability predictions")
    results = fit_path(table, betas)
    return {
        "results": {
            "fits": [_fit_entry(r, args.w0, mission) for r in results]
        },
        "diagnostics": {"converged": all(r.converged for r in results)},
    }


def _cmd_fit(args) -> dict:
    return _fits_document(args, read_failure_csv(args.input), [args.beta])


def _cmd_fit_path(args) -> dict:
    return _fits_document(args, read_failure_csv(args.input),
                          parse_betas(args.betas))


def _cmd_reliability(args) -> dict:
    params = _params_from(args.params)
    mission = _parse_floats(args.mission_times)
    return {
        "results": {"alpha0": params.alpha0, "alpha1": params.alpha1,
                    "w0": args.w0, **_predictions(params, args.w0, mission)},
    }


def _cmd_ztest(args) -> dict:
    from .estimator import fit
    from .inference import z_statistic

    table = read_failure_csv(args.input)
    hyp = _hypothesis_from(args)
    result = fit(table, args.beta)
    test = z_statistic(result, table.plan, hyp)
    return {
        "results": {
            "fit": fit_result_to_dict(result),
            "statistic": test.statistic,
            "p_value": test.p_value,
            "level": args.level,
            "reject": test.reject_at(args.level),
        },
        "diagnostics": {"converged": result.converged},
    }


def _cmd_power(args) -> dict:
    from .inference import approximate_power

    plan, params, hyp = _design_from(args)
    power = approximate_power(
        params, plan, args.beta, hyp, args.devices, args.level,
        abs_effect=args.abs_effect,
    )
    return {"results": {"approximate_power": power, "devices": args.devices}}


def _cmd_samplesize(args) -> dict:
    from .inference import approximate_power, required_devices

    plan, params, hyp = _design_from(args)
    devices = required_devices(
        params, plan, args.beta, hyp, args.target_power, args.level
    )
    achieved = approximate_power(
        params, plan, args.beta, hyp, devices, args.level, abs_effect=True
    )
    return {
        "results": {
            "required_devices": devices,
            "achieved_power": achieved,
            "target_power": args.target_power,
        },
    }


def _cmd_competing_fit(args) -> dict:
    from .competing import Cause, combined_mean_lifetime, fit_causes

    data = read_multioutcome_csv(args.input)
    betas = parse_betas(args.betas)
    wanted = []
    for name in args.causes.split(","):
        name = name.strip().lower()
        cause = {"natural": Cause.NATURAL, "tumour": Cause.TUMOUR}.get(name)
        if cause is None:
            raise ParseError(f"unknown cause {name!r} (use natural, tumour)")
        if cause in wanted:
            raise ParseError(f"cause {name!r} is listed more than once")
        wanted.append(cause)
    path = fit_causes(data, betas, wanted)
    rows = []
    for beta, cause_fits in zip(betas, path):
        entry = {"beta": beta, "causes": {
            cf.cause.name.lower(): {
                "fit": fit_result_to_dict(cf.fit),
                "mean_lifetimes": {
                    repr(float(w)): float(m)
                    for w, m in zip(data.plan.temps, cf.mean_lifetimes)
                },
            }
            for cf in cause_fits
        }}
        if len(cause_fits) > 1:
            entry["combined_mean_lifetimes"] = {
                repr(float(w)): combined_mean_lifetime(cause_fits, float(w))
                for w in data.plan.temps
            }
        rows.append(entry)
    converged = all(cf.fit.converged for step in path for cf in step)
    return {"results": {"fits": rows}, "diagnostics": {"converged": converged}}


def _spec_from_json(doc, seed_override: int | None) -> tuple:
    """The spec, study kind and sweep of a ``simulate`` document, and
    whether its seed was generated: ``--seed`` overrides the document's."""
    from .simulate import SimulationSpec

    if not isinstance(doc, dict):
        raise ParseError(f"simulation spec must be an object, got {doc!r}")
    seed = doc.get("seed") if seed_override is None else seed_override
    generated = seed is None
    if generated:
        seed = int(np.random.SeedSequence().entropy % 2**64)
    try:
        spec = SimulationSpec.from_dict({**doc, "seed": seed})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad simulation spec: {exc}") from exc
    # a missing study follows the hypothesis, so a report's spec re-runs
    study = doc.get("study",
                    "rmse" if spec.hypothesis is None else "level_power")
    return spec, study, doc.get("sweep"), generated


def _cmd_simulate(args) -> dict:
    from .simulate import _check_workers, _study, _write_report_rows

    _check_workers(args.workers)
    try:
        with open(args.spec, encoding="utf-8-sig") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot open {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.spec}: invalid JSON: {exc}") from exc
    spec, study, sweep, generated_seed = _spec_from_json(doc, args.seed)
    if study not in ("rmse", "level_power"):
        raise ParseError(f"study must be rmse or level_power, got {study!r}")
    if study == "rmse" and spec.hypothesis is not None:
        raise ParseError("an rmse study must not carry a hypothesis")
    if study == "level_power" and spec.hypothesis is None:
        raise ParseError("a level_power study requires a hypothesis")
    if generated_seed:
        print(f"generated seed: {spec.seed}", file=sys.stderr)
    specs, xs = _run_specs(spec, sweep)
    # the run is built and checked before the CSV is opened, and a run
    # that fails after that removes it (a regular file only: never a
    # device such as /dev/null)
    try:
        handle = open(args.output, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {args.output}: {exc}") from exc
    try:
        with handle:
            reports = [_study(s) for s in specs]
            _write_report_rows(handle, reports, xs)
    except BaseException as exc:
        if os.path.isfile(args.output):
            os.remove(args.output)
        if isinstance(exc, OSError):
            raise ParseError(f"cannot write {args.output}: {exc}") from exc
        raise
    return {
        "results": {
            "csv": args.output,
            "reports": [r.to_dict() for r in reports],
            "x_values": xs,
        },
        "diagnostics": {"seed": spec.seed, "workers": args.workers},
    }


def _run_specs(spec, sweep) -> tuple:
    """The specs a ``simulate`` run studies and their x values: the spec
    itself, or one per value of its sweep."""
    from .simulate import _sweep_specs

    if sweep is None:
        return [spec], [None]
    if not isinstance(sweep, dict):
        raise ParseError(f"sweep must be an object, got {sweep!r}")
    values = sweep.get("values")
    if not (isinstance(values, list) and values):
        raise ParseError("sweep requires a non-empty values list")
    try:
        return _sweep_specs(spec, sweep.get("parameter", "strength"), values)
    except NumericalOverflow:
        raise
    except OverflowError as exc:
        raise ParseError(f"bad simulation spec: {exc}") from exc


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as :class:`ParseError` once the usual usage
    lines are on stderr, so that :func:`main` writes its JSON document;
    subcommand parsers inherit the class.  An option is read only by its
    full name: a prefix such as ``--m`` for ``--mission-times`` is a usage
    error.  Every token that starts with ``-`` and a digit or ``.``, such
    as ``-1,1`` or ``-2.5e1``, and every ``-inf``, ``-infinity`` or
    ``-nan`` in any case, is an option's value: no option is spelled that
    way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:[\d.]|(?:inf|infinity|nan)$)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise ParseError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged,
    so calls on several threads may share it."""
    parser = _ArgumentParser(
        prog="oneshotdpd",
        description="Robust estimation and testing for one-shot device data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each option several commands share, declared once as (flag, kwargs)
    output = [("--output", dict(
        default=None, help="write the JSON document here instead of stdout"))]
    table = [("--input", dict(required=True, help="failure CSV: w,t,K,n"))]
    beta = [("--beta", dict(type=float, required=True,
                            help="tuning parameter of the divergence"))]
    betas = [("--betas", dict(required=True,
                              help="list such as 0:0.1:1,2,3,4"))]
    predictions = [
        ("--w0", dict(type=float, default=None,
                      help="normal-use stress for predictions")),
        ("--mission-times", dict(default=None, help="comma-separated "
                                 "times for reliability predictions"))]
    test = [("--m", dict(required=True, help="m0,m1 of H0: m'alpha = d")),
            ("--d", dict(type=float, required=True,
                         help="d of H0: m'alpha = d")),
            ("--level", dict(type=float, default=0.05,
                             help="significance level"))]
    alpha_star = [("--alpha-star", dict(
        required=True, help="alpha0,alpha1 of the alternative"))]

    def add(name, handler, help, *groups):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag, kwargs in (option for group in groups for option in group):
            p.add_argument(flag, **kwargs)
        return p

    add("fit", _cmd_fit, "fit one tuning parameter", output, table, beta,
        predictions)
    add("fit-path", _cmd_fit_path, "fit a grid of tuning parameters", output,
        table, betas, predictions)
    p = add("reliability", _cmd_reliability,
            "reliability and mean lifetime from given parameters", output)
    p.add_argument("--params", required=True, help="alpha0,alpha1")
    p.add_argument("--w0", type=float, required=True)
    p.add_argument("--mission-times", required=True)
    add("ztest", _cmd_ztest, "Z-type test of m'alpha = d", output, table,
        beta, test)
    p = add("power", _cmd_power, "approximate power at an alternative",
            output, table, alpha_star, beta, test)
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--abs-effect", action="store_true",
                   help="use |m' alpha - d| (two-sided alternative)")
    p = add("samplesize", _cmd_samplesize,
            "devices per cell needed for a target power", output, table,
            alpha_star, beta, test)
    p.add_argument("--target-power", type=float, required=True)
    p = add("simulate", _cmd_simulate, "Monte-Carlo study from a spec file")
    p.add_argument("--output", required=True,
                   help="plot-ready CSV destination")
    p.add_argument("--spec", required=True, help="JSON scenario description")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the seed in the spec file")
    p.add_argument("--workers", type=int, default=1)
    p = add("competing-fit", _cmd_competing_fit,
            "per-cause fits for a multi-outcome table", output,
            [("--input", dict(required=True, help="multi-outcome CSV: "
                              "w,t,n_sac,n_nat,n_tum"))], betas)
    p.add_argument("--causes", default="natural,tumour")

    return parser


def _config_echo(args) -> dict:
    """The parsed options; a non-finite float is echoed as its text, since
    JSON has no NaN or infinity."""
    skip = {"handler", "command"}
    return {
        "command": args.command,
        **{k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in sorted(vars(args).items()) if k not in skip},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a usage error leaves args None: the raw arguments stand in for the
    # argument echo and the document goes to stdout
    args, status, out = None, 0, sys.stdout
    payload = {"config": {"argv": argv}, "results": {}, "diagnostics": {},
               "errors": []}
    try:
        args = _build_parser().parse_args(argv)
        payload["config"] = _config_echo(args)
        # simulate's --output is its CSV; a JSON one is opened before the run
        if args.output is not None and args.command != "simulate":
            try:
                out = open(args.output, "w", encoding="utf-8")
            except OSError as exc:
                raise ParseError(f"cannot write {args.output}: {exc}") from exc
        _check_finite_options(args)
        document = {**payload, **args.handler(args)}
        try:
            text = json.dumps(document, indent=2, sort_keys=True,
                              allow_nan=False)
        except ValueError:
            # no document carries NaN or Infinity; a refused simulate run
            # removes its CSV, as any failed run does
            if args.command == "simulate" and os.path.isfile(args.output):
                os.remove(args.output)
            raise NumericalOverflow(
                "a result is not a finite double") from None
    except (OneShotError, ValueError) as exc:
        # a library ValueError is a refused input, as a ParseError is
        parse = isinstance(exc, (ParseError, ValueError))
        status = _PARSE_EXIT if parse else _COMPUTE_EXIT
        payload["errors"] = [{"code": "ParseError" if parse else exc.code,
                              "message": str(exc)}]
        text = json.dumps(payload, indent=2, sort_keys=True)
    out.write(text + "\n")
    if out is not sys.stdout:
        out.close()
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
