"""The package's public surface: what it exports, and that every public
function or class in its modules serves the package."""

import ast
from pathlib import Path

import oneshotdpd

PACKAGE = Path(oneshotdpd.__file__).parent


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
