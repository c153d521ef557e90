"""Every private name (_name) a module of src/gaeq binds at module level, and
every private method and self._name attribute of its classes, is read
somewhere in src/gaeq or perfbench/: a helper, constant or attribute nothing
reads is dead code, such as one left behind when a second code path is
removed."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaeq"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def private_definitions(tree):
    """{name: line} of the private, non-dunder names bound at module level
    by a def, a class or an assignment, and of the private methods and
    self._name attributes of every class."""
    defined = {}

    def bind(names, line):
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, line)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bind([node.name], node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bind([n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)], node.lineno)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bind([node.name], node.lineno)
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                bind([node.attr], node.lineno)
    return defined


def read_names(tree):
    """The names a module reads: loaded names, loaded attributes (as in
    solver._DENSE_MAX_VEC) and names imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_private_names(source, readers):
    """(line, name) of the private names source defines (see
    private_definitions) that none of the reader sources reads; source reads
    its own names, so it should be one of the readers."""
    read = set().union(*(read_names(ast.parse(r)) for r in readers))
    defined = private_definitions(ast.parse(source))
    return sorted((line, name) for name, line in defined.items() if name not in read)


@pytest.fixture(scope="module")
def readers():
    return [path.read_text() for path in READERS]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_every_private_name(path, readers):
    assert unread_private_names(path.read_text(), readers) == []


def test_check_sees_an_unread_name_and_counts_reads_elsewhere():
    source = (
        "_CAP = 3\n"
        "_A, _B = 1, 2\n"
        "def _helper():\n    return _A\n"
        "def _dead():\n    return _helper()\n"
        "class _Old:\n    pass\n"
        "def __getattr__(name):\n    pass\n"
    )
    reader = "from m import _B\nimport m\nm._CAP\nm._Old = None\n"
    assert unread_private_names(source, [source, reader]) == [(5, "_dead"), (7, "_Old")]


def test_check_sees_unread_class_members():
    source = (
        "class Table:\n"
        "    def __init__(self):\n"
        "        self._kept = 1\n"
        "        self._stale, self.public = 2, 3\n"
        "    def _used(self):\n"
        "        return self._kept\n"
        "    def _left_over(self):\n"
        "        pass\n"
        "    def run(self):\n"
        "        return self._used()\n"
    )
    assert unread_private_names(source, [source]) == [(4, "_stale"), (7, "_left_over")]
