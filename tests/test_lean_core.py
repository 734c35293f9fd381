"""The library exports only what its own CLI and checks use.

Every public function in felcheck.__all__ must be read somewhere in src
other than the package __init__ and its own definition; an import alone does
not count. A function that only tests call belongs in tests/oracles.py. So
must every public method or property of a public class in src, read as an
attribute. Every module in src but the package __init__ reads each name it
imports.
"""

import ast
import inspect
from pathlib import Path

import felcheck

SRC = Path(felcheck.__file__).parent

# Methods and properties that only the benchmark's probes (perfbench/spans.py)
# read. They stay until ROADMAP item 4 retires the probes.
PROBED = {"exact_div", "at_exp", "truncate", "terms"}


def _modules():
    """(name, parsed tree) of every module in src but the package __init__."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _outside(tree: ast.AST, skip: str | None = None):
    """The nodes of tree, not counting the body of a function definition
    named skip."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == skip:
            continue
        yield node
        yield from _outside(node, skip)


def _loads(tree: ast.AST, skip: str | None = None):
    """Names read in tree (bare or as an attribute), not counting the body of
    a function definition named skip."""
    for node in _outside(tree, skip):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_exported_function_is_used_in_src():
    trees = [tree for _, tree in _modules()]
    public = [
        name
        for name in felcheck.__all__
        if inspect.isfunction(getattr(felcheck, name))
    ]
    unused = [name for name in public if not any(name in set(_loads(t, name)) for t in trees)]
    assert public and unused == []


def test_every_public_method_is_used_in_src():
    trees = [tree for _, tree in _modules()]
    methods = [
        (cls.name, node.name)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unused = [
        f"{cls}.{name}"
        for cls, name in methods
        if name not in PROBED
        and not any(
            isinstance(node, ast.Attribute) and node.attr == name
            for t in trees
            for node in _outside(t, name)
        )
    ]
    assert PROBED <= {name for _, name in methods}
    assert unused == []


def _imported(tree: ast.AST):
    """Names bound by the import statements in tree, other than __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_read():
    unused = {
        name: sorted(set(_imported(tree)) - set(_loads(tree)))
        for name, tree in _modules()
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_only_exact_names_the_series_container():
    """RationalSeries stays off every runtime path: exact.py defines it for
    the benchmark's probes and the tests, and no other module in src, the
    package __init__ included, imports or reads it."""
    named = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "RationalSeries" in {*_imported(tree), *_loads(tree)} and path.name != "exact.py":
            named.append(path.name)
    assert named == []
