"""Source-level rules for the package.

Invariants raise typed ``TorusRigError``s rather than ``assert``, which
``python -O`` strips.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "src" / "torusrig").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"
