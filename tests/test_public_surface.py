"""The package's public surface: what it exports, and that every public
function or class in its modules serves the package."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oneshotdpd
from oneshotdpd.cli import main
from oneshotdpd.datasets import dataset_path
from oneshotdpd.estimator import FitResult

PACKAGE = Path(oneshotdpd.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = PERFBENCH / "tracer.py"


def test_all_is_sorted_unique_and_resolves():
    names = oneshotdpd.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    # each name is the object its defining module holds under that name
    homes = {name: getattr(oneshotdpd, name).__module__ for name in names}
    assert [n for n, home in homes.items()
            if not home.startswith("oneshotdpd.")
            or getattr(sys.modules[home], n) is not getattr(oneshotdpd, n)
            ] == []


def test_namespace_contract():
    submodules = [m.name for m in pkgutil.iter_modules(oneshotdpd.__path__)]
    assert {"cli", "datasets", "simulate"} <= set(submodules)
    assert [m for m in submodules if getattr(oneshotdpd, m)
            is not importlib.import_module(f"oneshotdpd.{m}")] == []
    assert set(oneshotdpd.__all__) | set(submodules) <= set(dir(oneshotdpd))
    star = {}
    exec("from oneshotdpd import *", star)
    assert [n for n in oneshotdpd.__all__
            if star.get(n) is not getattr(oneshotdpd, n)] == []
    with pytest.raises(AttributeError, match="'no_such_name'"):
        oneshotdpd.no_such_name


def _loaded_modules(code: str, *args: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + report, *args],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True, timeout=60)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = _loaded_modules("import oneshotdpd")
    assert "oneshotdpd" in loaded
    assert [m for m in loaded if m.startswith("oneshotdpd.")
            or m.split(".")[0] == "numpy"] == []


def _command_argv(command: str, tmp_path: Path) -> list:
    table1 = str(dataset_path("table1"))
    hyp = ["--beta", "0.5", "--m", "0,1", "--d", "0.05"]
    design = ["--input", table1, "--alpha-star", "0.004,0.03", *hyp]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "plan": {"temps": [35, 45], "times": [10, 20], "devices": 10},
        "true_params": [0.004, 0.05], "betas": [0.0],
        "replications": 2, "seed": 1}))
    return [command, *{
        "fit": ["--input", table1, "--beta", "0.5"],
        "fit-path": ["--input", table1, "--betas", "0,0.5"],
        "reliability": ["--params", "0.005,0.05", "--w0", "25",
                        "--mission-times", "10"],
        "ztest": ["--input", table1, *hyp],
        "power": [*design, "--devices", "50"],
        "samplesize": [*design, "--target-power", "0.8"],
        "simulate": ["--spec", str(spec), "--output",
                     str(tmp_path / "study.csv")],
        "competing-fit": ["--input", str(dataset_path("ed01")), "--betas",
                          "0,0.5"],
    }[command]]


@pytest.mark.parametrize("command", [
    "fit", "fit-path", "reliability", "ztest", "power", "samplesize",
    "simulate", "competing-fit"])
def test_command_loads_only_the_modules_it_uses(command, tmp_path):
    argv = _command_argv(command, tmp_path)
    loaded = _loaded_modules(
        "import contextlib, io, json, sys\n"
        "from oneshotdpd.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(json.loads(sys.argv[1]))\n"
        "assert status == 0, status", json.dumps(argv))
    package = {m.removeprefix("oneshotdpd.") for m in loaded
               if m.startswith("oneshotdpd.")}
    assert ("simulate" in package) == (command == "simulate")
    assert ("competing" in package) == (command == "competing-fit")
    if command == "reliability":
        assert package == {"cli", "errors", "io", "model"}


def test_every_public_definition_is_exported_or_used():
    # a public top-level function or class of a module must be exported,
    # or be named somewhere in the package's code outside the package
    # __init__: code that only the tests call belongs in the tests
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.rglob("*.py")}
    used = {getattr(node, attr)
            for path, tree in trees.items() if path != PACKAGE / "__init__.py"
            for node in ast.walk(tree)
            for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"),
                               (ast.alias, "name"))
            if isinstance(node, kind)}
    unused = [f"{path.stem}.{node.name}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in oneshotdpd.__all__
              and node.name not in used]
    assert unused == []


def test_readme_names_the_fit_fields_and_error_codes(table1):
    # the fit-entry field dictionary holds exactly the keys the CLI writes
    # for a fit (plus the optional predictions), its covariance row names
    # the covariance keys, and the list of failure codes is that of the
    # typed errors; and README passes no keyword a function lacks
    from oneshotdpd.io import fit_result_to_dict

    text = README.read_text(encoding="utf-8")
    table = text.split("Field dictionary for a fit entry", 1)[1]
    table = table.split("\n\n", 2)[1]
    names = [name for row in table.splitlines()[2:]
             for name in re.findall(r"`([^`]+)`", row.split(" | ")[0])]
    entry = fit_result_to_dict(oneshotdpd.fit(table1, 0.5))
    assert {name.split(".")[0] for name in names
            if not name.startswith(".")} == {*entry, "reliability",
                                              "mean_lifetime"}
    assert {name.rsplit(".", 1)[-1] for name in names
            if name.startswith(("covariance.", "."))} == \
        set(entry["covariance"])
    codes = text.split("machine-readable codes:", 1)[1].split(" (", 1)[0]

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert sorted(re.findall(r"`(\w+)`", codes)) == sorted(
        cls.code for cls in subclasses(oneshotdpd.OneShotError))
    # a keyword that a call of an exported name passes in the README is
    # one of its parameters
    passed = []
    for match in re.finditer(r"\b(\w+)\(", text):
        if match[1] in oneshotdpd.__all__:
            depth, end = 1, match.end()
            while depth and end < len(text):
                depth += {"(": 1, ")": -1}.get(text[end], 0)
                end += 1
            call = text[match.end():end - 1]
            while re.search(r"\([^()]*\)", call):
                call = re.sub(r"\([^()]*\)", "", call)
            passed += [(match[1], kw) for kw in re.findall(r"(\w+)=", call)]
    assert passed
    assert [(name, kw) for name, kw in passed if kw not in inspect.signature(
        getattr(oneshotdpd, name)).parameters] == []


def test_benchmark_entry_points_resolve():
    # the benchmark's tracer wraps each (module, function) of its SPANS and
    # COUNTERS by name and reads fields of every fit's result, so a rename
    # would fail the benchmark run, not a test; read without importing it
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    names = ("SPANS", "COUNTERS")
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in names}
    assert set(tables) == set(names)
    missing = [f"{module}.{name}"
               for module, name, _ in tables["SPANS"] + tables["COUNTERS"]
               if not callable(getattr(importlib.import_module(
                   f"oneshotdpd.{module}"), name, None))]
    assert missing == []
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "result"}
    assert read == {"iterations", "converged", "boundary_clamped"}
    assert read <= {field.name for field in dataclasses.fields(FitResult)}


def test_benchmark_correctness_gates(monkeypatch, tmp_path):
    # the gates behind the benchmark's "correct" flag: the reference-seed
    # study's used, failed and rejection counts, and strict JSON of every
    # call of a CLI session, fit-path matching the published table1 fits
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.check_reference("mc_level_power")
    for argv in run.cli_argv_list(61, tmp_path):
        assert main(argv) == 0
        run.check_cli_output(argv, Path(argv[-1]).read_text(encoding="utf-8"))
