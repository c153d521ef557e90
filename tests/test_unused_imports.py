"""Every name a module of src/gaeq imports is used in it: referenced in its
code, or re-exported through its __all__.  Since __all__ counts as a use,
every __all__ entry must also name an attribute of its module, once."""

import ast
import importlib
import pathlib
import types

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gaeq"


def unused_imports(source):
    """The names the module source imports but never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a; from m import x as y binds y
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import_and_counts_all_as_use():
    source = "import os\nimport a.b\nfrom m import x, y as z\n__all__ = ['x']\na.c(z)\n"
    assert unused_imports(source) == [(1, "os")]


def export_problems(module):
    """(names in module.__all__ the module lacks, names __all__ repeats)."""
    names = list(getattr(module, "__all__", []))
    missing = [n for n in names if not hasattr(module, n)]
    return missing, sorted({n for n in names if names.count(n) > 1})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_all_entry_resolves_once(path):
    name = "gaeq" if path.stem == "__init__" else f"gaeq.{path.stem}"
    assert export_problems(importlib.import_module(name)) == ([], [])


def test_export_check_sees_a_stale_and_a_repeated_name():
    module = types.ModuleType("m")
    module.x = 1
    module.__all__ = ["x", "gone", "x"]
    assert export_problems(module) == (["gone"], ["x"])
