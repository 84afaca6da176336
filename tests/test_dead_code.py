"""Every function, class and method of the package is used by the program.

A name counts as used when it appears as a name, an attribute or an
imported name outside its own definition, in the package modules or the
non-test modules of the benchmark.  The package ``__init__`` does not
count: a re-export is not a use.  Tests do not count either, except for
``oracles.py``: its brute-force scans exist for tests to compare against.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bhht"
ORACLES = PACKAGE / "oracles.py"


def _program():
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")])


def _tests():
    return (sorted((ROOT / "tests").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("test_*.py")))


def _references(tree):
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
    return names


def _definitions(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in ast.walk(tree) if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _used(paths):
    used = Counter()
    for path in paths:
        used += _references(ast.parse(path.read_text()))
    return used


def unreferenced_definitions():
    trees = {path: ast.parse(path.read_text()) for path in _program()}
    used = _used(trees)
    used_by_tests = _used(_tests())
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in _definitions(tree):
            count = used[node.name] - _references(node)[node.name]
            if path == ORACLES:
                count += used_by_tests[node.name]
            if count <= 0:
                out.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return out


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
