"""The benchmark's layer tracer still matches the package's bindings.

``perfbench/tracer.py`` checks, when it is built, that each traced function
is bound in exactly the modules it lists, and raises TracerError otherwise.
Building it here turns a refactor that moves a traced import into a test
failure.  The file is loaded read-only: no bytecode is written next to it.
"""

import importlib.util
import pathlib
import sys

import torusrig

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_matches_package_bindings(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer(torusrig)
    assert set(traced.stats) == {name for name, *_ in tracer.LAYERS}
