"""``tools/untraced.py`` lists every statement outside a docstring whose
line never ran; its report is checked on a hand-made hit map of a small
module.  The tool is loaded read-only, as test_tracer.py loads the
benchmark tracer."""

import importlib.util
import pathlib
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "untraced.py"

SMALL = '''"""A module docstring."""

def f(x):
    """A docstring
    of two lines."""
    if x:
        return 1
    y = [
        x,
    ]
    return y


class C:
    """Docs."""
    n = 3
'''


def _tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("untraced_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_lists_the_statements_that_never_ran(tmp_path, monkeypatch):
    # a docstring is no statement, a statement over three lines is listed
    # by its first, and a module that is only a docstring lists nothing
    tool = _tool(monkeypatch)
    (tmp_path / "small.py").write_text(SMALL)
    (tmp_path / "bare.py").write_text('"""Only a docstring."""\n')
    ran = {str(tmp_path / "small.py"): {3, 6, 8, 11, 14, 16}}
    assert tool.report(tmp_path, ran) == ["small:7 return 1"]
    assert tool.report(tmp_path, {}) == [
        "small:3 def f(x):", "small:6 if x:", "small:7 return 1", "small:8 y = [",
        "small:11 return y", "small:14 class C:", "small:16 n = 3"]
