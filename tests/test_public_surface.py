"""The package's public surface: what it exports, and that every public
function or class in its modules serves the package."""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import oneshotdpd
from oneshotdpd.cli import main
from oneshotdpd.estimator import FitResult

PACKAGE = Path(oneshotdpd.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_all_is_sorted_unique_and_resolves():
    names = oneshotdpd.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(oneshotdpd, n)] == []


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
