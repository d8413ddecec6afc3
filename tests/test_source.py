"""Source-level rules for the package.

Invariants raise typed ``TorusRigError``s rather than ``assert``, which
``python -O`` strips.  No object is built through ``__new__``, so every
``TorusComplex`` and ``DiscMap`` passes its constructor's checks.  Every
definition in the package has a user: code that only tests call lives in
``tests/helpers.py``.  Every name a module imports is used there, except
the bindings the benchmark tracer wraps.  Every import is from the standard
library or relative, as the empty ``dependencies`` of ``pyproject.toml``
promise (numpy, say, would also add about 14 MB to a process's resident
memory).
"""

import ast
import collections
import importlib.util
import pathlib
import sys

import pytest

import torusrig

TESTS = pathlib.Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"
SOURCES = sorted((TESTS.parent / "src" / "torusrig").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_object_built_through_new(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert not lines, f"{path.name}: __new__ at lines {lines}"


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes,
    as (AST node, owning class or None) pairs; dunder methods are called by
    the language, not by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, None
        if isinstance(node, ast.ClassDef):
            yield from ((m, node) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _names_used(tree, attributes_only=False) -> collections.Counter:
    """How often each identifier occurs as an attribute and, unless
    ``attributes_only``, as a bare name."""
    kinds = (ast.Attribute,) if attributes_only else (ast.Name, ast.Attribute)
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, kinds))


def _acceptance_imports():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("torusrig")
            for alias in node.names}


def test_every_definition_has_a_user():
    # a definition is used when src/ names it outside its own body, exports
    # it, or the acceptance criteria import it; cli.main is the entry point.
    # A method counts as named only where src/ reads it as an attribute, so
    # a local variable of the same name does not hide an unused method.
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    named = sum((_names_used(t) for t in trees.values()), collections.Counter())
    read = sum((_names_used(t, attributes_only=True) for t in trees.values()),
               collections.Counter())
    allowed = set(torusrig.__all__) | _acceptance_imports() | {"main"}
    unused = [f"{name}:{node.lineno} {owner.name + '.' if owner else ''}{node.name}"
              for name, tree in trees.items() if name != "__init__.py"
              for node, owner in _definitions(tree)
              if node.name not in allowed
              and (read if owner else named)[node.name]
              == _names_used(node, attributes_only=bool(owner))[node.name]]
    assert not unused, f"defined in src/ but used only by tests: {unused}"


def _traced_bindings(monkeypatch) -> dict:
    """{module: names} of the bindings ``perfbench/tracer.py`` wraps, which
    a module keeps so that the tracer finds them even if it never calls
    them.  The tracer is loaded read-only, as in test_tracer.py."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = collections.defaultdict(set)
    for _name, _home, attr, modules in tracer.LAYERS:
        for module in modules or ():
            bindings[module].add(attr)
    return bindings


def test_every_import_is_used(monkeypatch):
    exempt = _traced_bindings(monkeypatch)
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named = _names_used(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name not in exempt[path.stem] and not named[name]]
    assert not unused, f"imported in src/ but never used: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append((node.lineno, node.module))
    outside = [f"{path.name}:{line} {name}" for line, name in modules
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"imports from outside the standard library: {outside}"
