"""Source-level rules for the package.

Invariants raise typed ``TorusRigError``s rather than ``assert``, which
``python -O`` strips.  Every definition in the package has a user: code
that only tests call lives in ``tests/helpers.py``.
"""

import ast
import collections
import pathlib

import pytest

import torusrig

TESTS = pathlib.Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "torusrig").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


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
