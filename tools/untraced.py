"""List the statements of the torusrig package that no test runs.

    python3 tools/untraced.py [pytest arguments]

Runs pytest in this process, with ``-p no:cacheprovider``, on ``tests/``
(or on the given arguments) under a line tracer (``sys.settrace`` and
``threading.settrace``) that follows only frames whose code lies in
``src/torusrig/``.  Then it prints ``module:line statement`` for every
statement outside a docstring whose first line never ran, and exits with
pytest's status.  Subprocesses, such as the CLI tests' runs, are not
traced, so a statement only they reach is listed.

It writes nothing into the repository: Hypothesis keeps its example
database in a temporary directory, removed afterwards, and no bytecode is
written, by this process or by the subprocesses it starts.  The trace
makes the tests about five times slower than a plain run (6 minutes on a
shared 2-vCPU host), so this is not a tier-1 step.
"""

from __future__ import annotations

import ast
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusrig"


def statements(source: str) -> list[tuple[int, str]]:
    """(line, text of that line) of the first line of every statement of
    ``source`` that is not a docstring, by line."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    lines = source.splitlines()
    return sorted({(node.lineno, lines[node.lineno - 1].strip())
                   for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and id(node) not in docstrings})


def report(package: Path, hits: dict) -> list[str]:
    """``module:line statement`` for every statement of the modules of
    ``package`` whose line is not among ``hits``, a map from a module's
    path (a string) to the set of its lines that ran."""
    out = []
    for path in sorted(package.glob("*.py")):
        ran = hits.get(str(path), ())
        out += [f"{path.stem}:{line} {text}"
                for line, text in statements(path.read_text()) if line not in ran]
    return out


def trace(args: list[str]) -> tuple[int, dict]:
    """Pytest's exit status on ``args`` and the lines it ran in
    ``PACKAGE``, traced in this process and its threads."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict = {}

    def lines(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return lines

    sys.settrace(calls)
    threading.settrace(calls)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    scratch = tempfile.mkdtemp(prefix="untraced-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
    try:
        status, hits = trace(argv or [str(ROOT / "tests"), "-q"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in report(PACKAGE, hits):
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
