"""Every function, class, method and default of the package is used by the program.

The program is the package modules and the non-test modules of the
benchmark.  A module-level function or class counts as used only when a
program module imports it by name from its module or reads it as an
attribute of its module (``polynomials.transpose``), or when its own module
names it outside its own definition; an attribute of another object that
shares its name (``self.fixed_chi``) does not count.  A method or nested
definition counts as used when its name appears as a name, an attribute or
an imported name anywhere in the program outside its own definition.  The
package ``__init__`` does not count: a re-export is not a use.  Tests do
not count either, except for ``oracles.py``: its brute-force scans exist
for tests to compare against.

A definition outside ``oracles.py`` that only ``oracles.py`` uses is oracle
code, and belongs there: counted without ``oracles.py``, every definition
of the other modules must still be used.

A parameter with a default counts as used when some call in those same
modules passes it, by keyword or positionally past the required arguments.
A parameter that only tests set is a knob the program never turns.
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


def _names(tree):
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def _module_attributes(tree):
    """(module, name) per ``module.name`` or ``package.module.name`` read."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            module = value.id if isinstance(value, ast.Name) else getattr(value, "attr", None)
            out[module, node.attr] += 1
    return out


def _imports(tree):
    """(module, name) per name imported from a package module."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 1 or node.module.startswith("bhht."):
                module = node.module.split(".")[-1]
                out.update((module, alias.name) for alias in node.names)
    return out


def _definitions(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in ast.walk(tree) if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _used(paths):
    used = Counter()
    for path in paths:
        used += _references(ast.parse(path.read_text()))
    return used


def unreferenced_definitions(program=None):
    trees = {path: ast.parse(path.read_text()) for path in program or _program()}
    used = _used(trees)
    imported = sum((_imports(tree) + _module_attributes(tree) for tree in trees.values()),
                   Counter())
    used_by_tests = _used(_tests())
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        own = _names(tree)
        top = {id(node) for node in tree.body}
        for node in _definitions(tree):
            if id(node) in top:
                count = (imported[(path.stem, node.name)]
                         + own[node.name] - _names(node)[node.name])
            else:
                count = used[node.name] - _references(node)[node.name]
            if path == ORACLES:
                count += used_by_tests[node.name]
            if count <= 0:
                out.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return out


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []


def test_no_definition_outside_the_oracles_is_used_only_by_them():
    assert unreferenced_definitions([p for p in _program() if p != ORACLES]) == []


def _defaults(tree):
    """(callee, parameter, position) per defaulted parameter of the tree.

    The callee is the name a call uses: the function's, or the class's for
    an ``__init__``.  The position is the parameter's index among the
    positional arguments of a call, or None for a keyword-only parameter.
    """
    methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = a.posonlyargs + a.args
        if id(node) in methods:
            params = params[1:]
        callee = methods[id(node)] if node.name == "__init__" else node.name
        first = len(params) - len(a.defaults)
        out += [(callee, p.arg, i) for i, p in enumerate(params) if i >= first]
        out += [(callee, p.arg, None)
                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _passes(call, name, position):
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    args = call.args
    return len(args) > position or any(isinstance(x, ast.Starred) for x in args)


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unpassed_defaults():
    trees = {path: ast.parse(path.read_text()) for path in _program()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for callee, name, position in _defaults(tree):
            if (path.name, callee) == ("cli.py", "main"):
                continue  # argv is the seam tests drive the command line through
            if not any(_passes(c, name, position) for c in calls.get(callee, ())):
                out.append("%s(%s)" % (callee, name))
    return out


def test_every_default_is_passed_by_the_program():
    assert unpassed_defaults() == []
