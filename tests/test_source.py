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
    as AST nodes; dunder methods are called by the language, not by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _names_used(tree) -> collections.Counter:
    """How often each identifier occurs as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _acceptance_imports():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("torusrig")
            for alias in node.names}


def test_every_definition_has_a_user():
    # a definition is used when src/ names it outside its own body, exports
    # it, or the acceptance criteria import it; cli.main is the entry point
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    used = sum((_names_used(t) for t in trees.values()), collections.Counter())
    allowed = set(torusrig.__all__) | _acceptance_imports() | {"main"}
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items() if name != "__init__.py"
              for node in _definitions(tree)
              if node.name not in allowed
              and used[node.name] == _names_used(node)[node.name]]
    assert not unused, f"defined in src/ but used only by tests: {unused}"
