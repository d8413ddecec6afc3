"""Per-layer spans for the torusrig benchmark, recorded from outside the package.

Each layer is a public function (or, for ``DiscMap``, a constructor) that is
replaced by a timing wrapper at every module binding the program resolves it
through.  The binding list is checked both ways when the tracer is built:
a listed binding that is gone, or a binding of a layer that is not listed,
raises ``TracerError``, so a refactor cannot silently drop a layer from the
trace.  Spans nest: a layer's self time is its total time minus the time of
the layer spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter
from time import perf_counter

# (metric prefix, defining module, attribute, modules binding the attribute);
# "" names the package namespace itself.
LAYERS = (
    ("sparsity.check_3_6", "sparsity", "check_3_6",
     ("sparsity", "reduction", "corpus", "")),
    ("sparsity.maximal_tight_subgraph", "sparsity", "maximal_tight_subgraph",
     ("sparsity", "reduction")),
    ("maxflow.densest_extension", "maxflow", "densest_extension",
     ("maxflow", "sparsity", "reduction")),
    ("rigidity.generic_rank", "rigidity", "generic_rank",
     ("rigidity", "reduction", "")),
    ("rigidity.rank_at_placement", "rigidity", "rank_at_placement",
     ("rigidity",)),
    ("complexes.DiscMap", "complexes", "DiscMap", None),
    ("complexes.infer_disc", "complexes", "infer_disc",
     ("complexes", "fileio")),
    ("fileio.record_to_hole", "fileio", "record_to_hole", ("fileio",)),
    ("catalog.classify", "catalog", "classify", ("catalog", "")),
    ("catalog.catalog_graph_for_class", "catalog", "catalog_graph_for_class",
     ("catalog",)),
    ("homology.crossover_class", "homology", "crossover_class",
     ("homology", "")),
    ("graphs.is_isomorphic", "graphs", "is_isomorphic",
     ("graphs", "reduction", "")),
    ("reduction.contract", "reduction", "contract", ("reduction", "")),
    ("reduction.retriangulate_holes", "complexes", "retriangulate_holes",
     ("complexes", "reduction")),
    ("reduction.find_critical_cycle_through", "reduction",
     "find_critical_cycle_through", ("reduction", "")),
    ("reduction.is_critical", "reduction", "is_critical", ("reduction",)),
    ("reduction.fission", "reduction", "fission", ("reduction", "")),
    ("reduction.reduce_greedy", "reduction", "reduce_greedy",
     ("reduction", "")),
    ("reduction.certify", "reduction", "certify", ("reduction", "")),
    ("reduction.verify_certificate", "reduction", "verify_certificate",
     ("reduction", "")),
)

STAT_UNITS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"),
              ("failed", "count"))

# layer-specific figures derived from the counters above
DERIVED = (
    ("maxflow.densest_extension.nodes", "count"),
    ("rigidity.trials_per_rank", "trials/rank"),
    ("complexes.DiscMap.useful_ratio", "built/attempted"),
)


class TracerError(RuntimeError):
    """The layer list no longer matches the package's bindings."""


class _Stats:
    __slots__ = ("calls", "total_s", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0


def _network_nodes(graph, force_in, force_out=()):
    """Node count of the flow network ``densest_extension`` builds."""
    out = frozenset(force_out)
    edges = sum(1 for u, v in graph.edges if u not in out and v not in out)
    return 2 + edges + len(graph.vertices - out)


def _modules(package) -> dict:
    mods = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        mods[info.name] = importlib.import_module(
            f"{package.__name__}.{info.name}")
    return mods


class Tracer:
    """Checks the layer list against the package's bindings when built;
    counters cover calls made between ``install()`` and ``uninstall()``."""

    def __init__(self, package):
        self.stats = {name: _Stats() for name, *_ in LAYERS}
        self.parents: Counter = Counter()
        self.nodes = 0
        self._stack: list = []
        self._patches = self._plan(_modules(package))
        self._installed = False

    def _wrap(self, name, fn, on_call=None):
        stats = self.stats[name]
        stack = self._stack
        parents = self.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            child_s = [0.0]
            stack.append((name, child_s))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child_s[0]
                if stack:
                    stack[-1][1][0] += dt
                parents[(parent, name)] += 1

        return traced

    def _count_nodes(self, *args, **kwargs):
        self.nodes += _network_nodes(*args, **kwargs)

    def _plan(self, mods) -> list:
        """(owner, attribute, original, wrapper) for every binding."""
        plan = []
        for name, home, attr, bindings in LAYERS:
            original = getattr(mods[home], attr, None)
            if original is None:
                raise TracerError(f"{name}: {home}.{attr} no longer exists")
            if bindings is None:  # a class: wrap its constructor in place
                if not isinstance(original, type) or "__init__" not in vars(original):
                    raise TracerError(f"{name}: {home}.{attr} has no own __init__")
                init = original.__init__
                plan.append((original, "__init__", init, self._wrap(name, init)))
                continue
            bound = {m for m, mod in mods.items()
                     if any(v is original for v in vars(mod).values())}
            missing = set(bindings) - bound
            if missing:
                raise TracerError(
                    f"{name}: listed bindings {sorted(missing)} of {attr} are gone")
            extra = bound - set(bindings)
            if extra:
                raise TracerError(
                    f"{name}: {attr} is also bound in {sorted(extra)}; "
                    "list those bindings so their calls are traced")
            hook = self._count_nodes if name == "maxflow.densest_extension" else None
            wrapper = self._wrap(name, original, hook)
            plan.extend((mods[m], attr, original, wrapper) for m in bindings)
        return plan

    def install(self) -> None:
        if self._installed:
            raise TracerError("tracer is already installed")
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        for name, st in self.stats.items():
            for stat, unit in STAT_UNITS:
                out[f"{name}.{stat}"] = (getattr(st, stat), unit)
        rank = self.stats["rigidity.generic_rank"].calls
        trials = self.stats["rigidity.rank_at_placement"].calls
        disc = self.stats["complexes.DiscMap"]
        values = {
            "maxflow.densest_extension.nodes": self.nodes,
            "rigidity.trials_per_rank": trials / rank if rank else 0.0,
            "complexes.DiscMap.useful_ratio":
                (disc.calls - disc.failed) / disc.calls if disc.calls else 0.0,
        }
        for name, unit in DERIVED:
            out[name] = (values[name], unit)
        return out

    def call_tree(self) -> dict:
        """Span counts by caller: ``{"parent > child": calls}``."""
        return {f"{p or 'op'} > {c}": n
                for (p, c), n in sorted(self.parents.items(),
                                        key=lambda kv: (kv[0][0] or "", kv[0][1]))}
