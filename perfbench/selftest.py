"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on tiny inputs, that every workload (also ``decide``, which
BENCHMARK.json does not list) emits exactly the metric names and units
listed in BENCHMARK.json (end-to-end untraced, per-layer traced),
that two untraced runs on one seed attempt and fail the same ops, that two
traced runs on one seed give identical ``.calls`` counts, that the
tracer refuses a layer list that no longer matches the package's bindings,
and that without the package the benchmark exits nonzero and prints no
result.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


class SelfTestFailure(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def _bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc, what: str) -> dict:
    _expect(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{what}: result keys {sorted(result)}")
    _expect(result["correct"] is True, f"{what}: outputs failed their checks")
    _expect(result["attempted"] >= 1, f"{what}: no ops attempted")
    return result


def check_metric_names(spec: dict, names) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            what = f"{name} --trace {trace}"
            metrics = _result(_bench(name, trace), what)["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            _expect(got == want, f"{what}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, "
                    f"units {[n for n in want if n in got and got[n] != want[n]]}")
            _expect(all(isinstance(m["value"], (int, float))
                        for m in metrics.values()), f"{what}: non-numeric value")
            print(f"ok  {what}: {len(got)} metrics", flush=True)


def check_op_counts_repeat(names) -> None:
    for name in names:
        runs = [_result(_bench(name, 0), name) for _ in range(2)]
        counts = [(r["attempted"], r["failed"]) for r in runs]
        _expect(counts[0] == counts[1],
                f"{name}: (attempted, failed) differ between two runs: {counts}")
        print(f"ok  {name}: attempted and failed repeat across runs", flush=True)


def check_trace_counts_repeat(names) -> None:
    for name in names:
        runs = [_result(_bench(name, 1), name)["metrics"] for _ in range(2)]
        calls = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")}
                 for m in runs]
        _expect(calls[0] == calls[1], f"{name}: .calls differ between two traced runs")
        _expect(any(calls[0].values()), f"{name}: no layer was called")
        print(f"ok  {name}: .calls repeat across traced runs", flush=True)


def check_tracer_refuses_stale_bindings() -> None:
    import torusrig
    from torusrig import corpus, graphs, sparsity
    from tracer import Tracer, TracerError

    def refused() -> bool:
        try:
            Tracer(torusrig)
        except TracerError:
            return True
        return False

    _expect(not refused(), "tracer refuses the current package")
    original = corpus.check_3_6
    del corpus.check_3_6
    try:
        _expect(refused(), "tracer accepted a listed binding that is gone")
    finally:
        corpus.check_3_6 = original
    graphs.check_3_6 = sparsity.check_3_6
    try:
        _expect(refused(), "tracer accepted an unlisted binding")
    finally:
        del graphs.check_3_6
    _expect(not refused(), "tracer refuses the restored package")
    print("ok  tracer refuses stale binding lists", flush=True)


def check_fails_without_package(name: str) -> None:
    tmp = tempfile.mkdtemp(prefix=".selftest-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(name, 0, cwd=tmp)
    finally:
        shutil.rmtree(tmp)
    _expect(proc.returncode != 0, "benchmark ran without the package")
    _expect(proc.stdout.strip() == "", "benchmark printed a result without the package")
    print("ok  exits nonzero without the package", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    listed = {wl["name"] for wl in spec["workloads"]}
    try:
        _expect(listed <= set(WORKLOADS),
                f"BENCHMARK.json lists unknown workloads {sorted(listed - set(WORKLOADS))}")
        check_tracer_refuses_stale_bindings()
        check_fails_without_package(spec["workloads"][0]["name"])
        check_metric_names(spec, sorted(WORKLOADS))
        check_op_counts_repeat(sorted(WORKLOADS))
        check_trace_counts_repeat(sorted(WORKLOADS))
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
