"""The benchmark's workloads still run on the package's API.

Each workload that ``BENCHMARK.json`` lists runs its op on every tiny input
at the two benchmark seeds, and its check passes on every output, as
``perfbench/run.py --tiny`` would run them.  So a change to a function,
name or option the benchmark calls fails here, not only in a benchmark
run.  ``perfbench/workloads.py`` is loaded read-only, as in test_tracer.py.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    # the dataclass decorator looks its module up in sys.modules, so the
    # module sits there while it runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 1009])
@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_and_checks_on_tiny_inputs(workloads, name, seed):
    wl = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(wl, seed, tiny=True)
    args = wl.prepare(inputs)
    assert inputs and len(args) == len(inputs)
    failures = [(i, kind) for i, (item, arg) in enumerate(zip(inputs, args))
                if (kind := wl.check(item, wl.op(arg))) is not None]
    assert not failures, f"{name} at seed {seed}: {failures}"
