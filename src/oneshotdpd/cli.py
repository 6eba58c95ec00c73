"""Command line interface.

Every command writes a JSON document with top-level keys ``config``,
``results``, ``diagnostics`` and ``errors`` (the ``simulate`` command
additionally writes a plot-ready CSV).  Exit codes: 0 on success, 2 for
parse or configuration problems, 3 for computation errors.  Outputs carry
no timestamps, so identical inputs (and seed) give byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .competing import Cause, combined_mean_lifetime, fit_causes
from .errors import OneShotError, ParseError
from .estimator import fit, fit_path
from .inference import (
    LinearHypothesis,
    approximate_power,
    required_devices,
    z_statistic,
)
from .io import (
    fit_result_to_dict,
    parse_betas,
    read_failure_csv,
    read_multioutcome_csv,
)
from .model import ModelParams, TestPlan, mean_lifetime, reliability
from .simulate import (
    ContaminationScheme,
    SimulationSpec,
    contamination_sweep,
    level_power_study,
    rmse_study,
    write_report_csv,
)

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
    m = _parse_floats(args.m, expect=2)
    try:
        return LinearHypothesis(m=np.array(m), d=args.d)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _params_from(text: str) -> ModelParams:
    a0, a1 = _parse_floats(text, expect=2)
    try:
        return ModelParams(a0, a1)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _predictions(params: ModelParams, w0: float | None, mission_times) -> dict:
    out = {}
    if w0 is not None:
        out["mean_lifetime"] = mean_lifetime(params, w0)
        if mission_times:
            out["reliability"] = {
                repr(t): reliability(params, w0, t) for t in mission_times
            }
    return out


def _fit_entry(result, w0, mission_times) -> dict:
    entry = fit_result_to_dict(result)
    entry.update(_predictions(result.params, w0, mission_times))
    return entry


def _cmd_fit(args) -> dict:
    table = read_failure_csv(args.input)
    mission = _parse_floats(args.mission_times) if args.mission_times else []
    result = fit(table, args.beta)
    return {
        "results": {"fits": [_fit_entry(result, args.w0, mission)]},
        "diagnostics": {"converged": result.converged},
    }


def _cmd_fit_path(args) -> dict:
    table = read_failure_csv(args.input)
    betas = parse_betas(args.betas)
    mission = _parse_floats(args.mission_times) if args.mission_times else []
    results = fit_path(table, betas)
    return {
        "results": {
            "fits": [_fit_entry(r, args.w0, mission) for r in results]
        },
        "diagnostics": {"converged": all(r.converged for r in results)},
    }


def _cmd_reliability(args) -> dict:
    params = _params_from(args.params)
    mission = _parse_floats(args.mission_times)
    return {
        "results": {
            "alpha0": params.alpha0,
            "alpha1": params.alpha1,
            "w0": args.w0,
            "mean_lifetime": mean_lifetime(params, args.w0),
            "reliability": {
                repr(t): reliability(params, args.w0, t) for t in mission
            },
        },
        "diagnostics": {},
    }


def _cmd_ztest(args) -> dict:
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
    plan = read_failure_csv(args.input).plan
    params = _params_from(args.alpha_star)
    hyp = _hypothesis_from(args)
    power = approximate_power(
        params, plan, args.beta, hyp, args.devices, args.level,
        abs_effect=args.abs_effect,
    )
    return {
        "results": {"approximate_power": power, "devices": args.devices},
        "diagnostics": {},
    }


def _cmd_samplesize(args) -> dict:
    plan = read_failure_csv(args.input).plan
    params = _params_from(args.alpha_star)
    hyp = _hypothesis_from(args)
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
        "diagnostics": {},
    }


def _cmd_competing_fit(args) -> dict:
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


def _spec_from_json(doc: dict, seed_override: int | None) -> tuple:
    try:
        plan_doc = doc["plan"]
        devices = plan_doc["devices"]
        temps = plan_doc["temps"]
        times = plan_doc["times"]
        if np.isscalar(devices):
            devices = np.full((len(temps), len(times)), int(devices))
        plan = TestPlan(temps=temps, times=times, devices=devices)
        true_params = ModelParams(*doc["true_params"])
        cont_doc = doc.get("contamination") or {"mode": "none"}
        contamination = ContaminationScheme(
            mode=cont_doc.get("mode", "none"),
            cell=tuple(cont_doc.get("cell", (0, 0))),
            value=cont_doc.get("value"),
        )
        betas = doc["betas"]
        if isinstance(betas, str):
            betas = parse_betas(betas)
        hypothesis = None
        level = 0.05
        if doc.get("hypothesis") is not None:
            hyp_doc = doc["hypothesis"]
            hypothesis = LinearHypothesis(
                m=np.array(hyp_doc["m"], dtype=float), d=float(hyp_doc["d"])
            )
            level = float(hyp_doc.get("level", 0.05))
        seed = seed_override
        if seed is None:
            seed = doc.get("seed")
        generated = False
        if seed is None:
            seed = int(np.random.SeedSequence().entropy % 2**64)
            generated = True
        spec = SimulationSpec(
            plan=plan,
            true_params=true_params,
            contamination=contamination,
            betas=tuple(betas),
            replications=int(doc["replications"]),
            seed=int(seed),
            hypothesis=hypothesis,
            level=level,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad simulation spec: {exc}") from exc
    return spec, doc.get("study", "rmse"), doc.get("sweep"), generated


def _cmd_simulate(args) -> dict:
    try:
        with open(args.spec, encoding="utf-8") as handle:
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

    if sweep is not None:
        parameter = sweep.get("parameter", "strength")
        values = sweep.get("values")
        if not values:
            raise ParseError("sweep requires a non-empty values list")
        if parameter == "strength":
            reports, xs = contamination_sweep(spec, values, workers=args.workers)
        elif parameter == "devices":
            reports, xs = [], []
            for k in values:
                devices = np.full(spec.plan.shape, int(k))
                plan = TestPlan(spec.plan.temps, spec.plan.times, devices)
                variant = dataclasses.replace(spec, plan=plan)
                runner = rmse_study if study == "rmse" else level_power_study
                reports.append(runner(variant, workers=args.workers))
                xs.append(int(k))
        else:
            raise ParseError(
                f"sweep parameter must be strength or devices, got {parameter!r}"
            )
    else:
        runner = rmse_study if study == "rmse" else level_power_study
        reports = [runner(spec, workers=args.workers)]
        xs = [None]

    write_report_csv(args.output, reports, xs)
    return {
        "results": {
            "csv": args.output,
            "reports": [r.to_dict() for r in reports],
            "x_values": xs,
        },
        "diagnostics": {"seed": spec.seed, "workers": args.workers},
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneshotdpd",
        description="Robust estimation and testing for one-shot device data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, output_help="write the JSON document here instead "
            "of stdout", output_required=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--output", default=None, required=output_required,
                       help=output_help)
        return p

    p = add("fit", _cmd_fit, help="fit one tuning parameter")
    p.add_argument("--input", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--w0", type=float, default=None,
                   help="normal-use stress for predictions")
    p.add_argument("--mission-times", default=None,
                   help="comma-separated times for reliability predictions")

    p = add("fit-path", _cmd_fit_path, help="fit a grid of tuning parameters")
    p.add_argument("--input", required=True)
    p.add_argument("--betas", required=True,
                   help="list such as 0:0.1:1,2,3,4")
    p.add_argument("--w0", type=float, default=None)
    p.add_argument("--mission-times", default=None)

    p = add("reliability", _cmd_reliability,
            help="reliability and mean lifetime from given parameters")
    p.add_argument("--params", required=True, help="alpha0,alpha1")
    p.add_argument("--w0", type=float, required=True)
    p.add_argument("--mission-times", required=True)

    p = add("ztest", _cmd_ztest, help="Z-type test of m'alpha = d")
    p.add_argument("--input", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", required=True, help="m0,m1")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--level", type=float, default=0.05)

    p = add("power", _cmd_power, help="approximate power at an alternative")
    p.add_argument("--input", required=True,
                   help="failure CSV supplying the test plan")
    p.add_argument("--alpha-star", required=True, help="alpha0,alpha1")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--devices", type=int, required=True)
    p.add_argument("--abs-effect", action="store_true",
                   help="use |m' alpha - d| (two-sided alternative)")

    p = add("samplesize", _cmd_samplesize,
            help="devices per cell needed for a target power")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha-star", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--target-power", type=float, required=True)

    p = add("simulate", _cmd_simulate, help="Monte-Carlo study from a spec file",
            output_help="plot-ready CSV destination", output_required=True)
    p.add_argument("--spec", required=True, help="JSON scenario description")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the seed in the spec file")
    p.add_argument("--workers", type=int, default=1)

    p = add("competing-fit", _cmd_competing_fit,
            help="per-cause fits for a multi-outcome table")
    p.add_argument("--input", required=True)
    p.add_argument("--betas", required=True)
    p.add_argument("--causes", default="natural,tumour")

    return parser


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    output = getattr(args, "output", None)
    if output is None or getattr(args, "command", "") == "simulate":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    payload = {"config": _config_echo(args), "results": {}, "diagnostics": {},
               "errors": []}
    try:
        _check_finite_options(args)
        body = args.handler(args)
    except ParseError as exc:
        payload["errors"] = [{"code": exc.code, "message": str(exc)}]
        _emit(payload, args)
        return _PARSE_EXIT
    except OneShotError as exc:
        payload["errors"] = [{"code": exc.code, "message": str(exc)}]
        _emit(payload, args)
        return _COMPUTE_EXIT
    except ValueError as exc:
        payload["errors"] = [{"code": "ParseError", "message": str(exc)}]
        _emit(payload, args)
        return _PARSE_EXIT
    payload.update(body)
    _emit(payload, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
