"""The four torusrig benchmark workloads.

A workload makes its distinct op inputs from the seed (set-up, untimed),
turns them into fresh op arguments before every pass (untimed, so no object
is reused across passes), runs the timed op on one argument, and checks one
output afterwards.  The op calls the same public functions as the matching
CLI subcommand, in-process.  Checks test properties of the output, not which
engine produced it; they return a failure kind or None.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from torusrig import catalog, fileio, homology, reduction, rigidity, sparsity
from torusrig.corpus import CorpusSpec, corpus_records

# Every grid torus from 3x3 to 6x6: 9 to 36 torus vertices.
GRIDS = tuple((r, s) for r in range(3, 7) for s in range(r, 7))

# Input mixes: (grid, tight records, non-tight records).  A fixed mix keeps
# every seed's workload equally heavy, since op cost depends mostly on the
# grid and on the verdict.
DECIDE_MIX = tuple((g, 6, 4) for g in GRIDS)
CLASSIFY_MIX = DECIDE_MIX
# certify latency climbs from ~30 ms at 3x3 to seconds at 6x6, so larger
# grids would stretch a run of 100 ops far beyond its nominal time; the
# uneven counts keep the median op inside one size class rather than on the
# edge between two.
CERTIFY_MIX = (((3, 3), 16, 0), ((3, 4), 24, 0), ((3, 5), 32, 0), ((4, 4), 32, 0))
# The share of contractible edges whose contraction breaks tightness falls
# with graph size, from ~17% at 12 torus vertices to ~5% at 36; those ops
# cost ten times the others.  On these grids the share stays near 15%, clear
# of 10%, so the 90th percentile falls among them rather than on the edge
# between the two kinds of op.
KEYLEMMA_MIX = (((3, 4), 16, 0), ((3, 5), 16, 0), ((4, 4), 16, 0), ((3, 6), 16, 0))
MAX_DRAWS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple              # the generated records, see _records
    make_inputs: Callable   # (records) -> list of distinct op inputs
    prepare: Callable       # (inputs) -> list of op arguments for one pass
    trace_stride: int       # the traced run takes every trace_stride-th input
    ops_per_second: int     # nominal rate; sets the op count of a timed run
    op: Callable            # (argument) -> JSON-able output
    check: Callable         # (input, output) -> failure kind or None


def _tiny(mix) -> tuple:
    """The two smallest grids of a mix, one record of each kind."""
    return tuple((g, min(t, 1), min(o, 1)) for g, t, o in mix[:2])


def _interleave(groups) -> list:
    """Merge lists so that every prefix holds each list in proportion to its
    length; a run that stops mid-pass then still sees the whole mix."""
    keyed = [((k + 0.5) / len(g), i, x)
             for i, g in enumerate(groups) for k, x in enumerate(g)]
    keyed.sort(key=lambda t: t[:2])
    return [x for _f, _i, x in keyed]


def _records(seed: int, mix) -> list[dict]:
    """``torusrig gen`` records in the given per-grid mix, interleaved."""
    per_grid = []
    for (r, s), tight, other in mix:
        rng = random.Random(f"{seed}:{r}x{s}")
        want = {True: tight, False: other}
        got: list[dict] = []
        for draw in itertools.count():
            if not (want[True] or want[False]):
                break
            if draw == MAX_DRAWS:
                raise RuntimeError(f"{r}x{s}: {want} still missing "
                                   f"after {MAX_DRAWS} records")
            spec = CorpusSpec(seed=rng.getrandbits(32), count=1, grids=((r, s),))
            rec = corpus_records(spec)[0]
            is_tight = rec["meta"]["status"] == "Tight"
            if want[is_tight]:
                want[is_tight] -= 1
                got.append(rec)
        per_grid.append(got)
    return _interleave(per_grid)


def _parse(records) -> list:
    return [fileio.record_to_hole(r) for r in records]


# -- decide: sparsity, rank and classification of generated records ---------

def decide_op(record: dict) -> dict:
    hole = fileio.record_to_hole(record)
    verdict = sparsity.check_3_6(hole.graph)
    report = rigidity.rigidity_report(hole.graph)
    cls = catalog.classify(hole)
    return {"status": verdict.status.value,
            "witness": sorted(verdict.witness) if verdict.witness else None,
            "rank": report.rank, "minimally_rigid": report.minimally_rigid,
            "word": cls.word}


def decide_check(record: dict, out: dict) -> str | None:
    if (out["status"] == "Tight") != out["minimally_rigid"]:
        return "tight_iff_rigid"
    if out["status"] != record["meta"]["status"]:
        return "status_differs_from_gen"
    if (out["status"] == "Violation") != (out["witness"] is not None):
        return "witness_missing"
    if out["witness"] is not None:
        s = set(out["witness"])
        graph = fileio.record_to_hole(record).graph
        induced = sum(1 for u, v in graph.edges if u in s and v in s)
        if len(s) < 3 or induced <= 3 * len(s) - 6:
            return "witness_not_violating"
    return None


# -- certify: reduction to K4 / K5-e and replay-checked certificates --------

def certify_op(hole) -> dict:
    cert = reduction.certify(hole)
    ok = reduction.verify_certificate(cert, hole.graph, check_rank=True)
    return {"certificate": cert.to_json(), "verified": ok}


def certify_check(record: dict, out: dict) -> str | None:
    return None if out["verified"] is True else "not_verified"


# -- keylemma: critical-cycle search and fission on every contractible edge -

# A None result is checked by a full sparsity scan of the contracted graph,
# several times the cost of the op itself; every NONE_CHECK_STRIDE-th input
# is checked so that the checks stay a small share of a run.
NONE_CHECK_STRIDE = 8


def keylemma_inputs(records) -> list[tuple]:
    per_graph = [[(records[idx], idx, e) for e in reduction.contractible_edges(hole)]
                 for idx, hole in enumerate(_parse(records))]
    return [item + (pos,) for pos, item in enumerate(_interleave(per_graph))]


def keylemma_prepare(items) -> list:
    holes = {}
    for record, idx, _e, _pos in items:
        if idx not in holes:
            holes[idx] = fileio.record_to_hole(record)
    return [(holes[idx], e) for _record, idx, e, _pos in items]


def keylemma_op(arg) -> dict | None:
    hole, e = arg
    cycle = reduction.find_critical_cycle_through(hole, e)
    if cycle is None:
        return None
    g1, g2 = reduction.fission(hole, cycle)
    return {"cycle": list(cycle.walk.vertices),
            "g1": [len(g1.graph.vertices), len(g1.graph.edges)],
            "g2": [len(g2.graph.vertices), len(g2.graph.edges)]}


def keylemma_check(item, out) -> str | None:
    record, _idx, e, pos = item
    if out is None:
        if pos % NONE_CHECK_STRIDE:
            return None
        contracted = reduction.contract(fileio.record_to_hole(record), e)
        if not sparsity.check_3_6(contracted.graph).is_tight:
            return "none_but_contraction_not_tight"
        return None
    cycle = out["cycle"]
    if len(cycle) != 9:
        return "cycle_length_not_9"
    steps = {frozenset(p) for p in zip(cycle, cycle[1:] + cycle[:1])}
    if frozenset(e) not in steps:
        return "cycle_misses_edge"
    return None


# -- classify: parsing, disc inference, catalog and crossover homology ------

def classify_inputs(records) -> list[dict]:
    """Generated records plus the 17 catalog graphs ``torusrig catalog`` emits."""
    items = [{"record": rec, "tight": rec["meta"]["status"] == "Tight",
              "word": None} for rec in records]
    for i, word in enumerate(catalog.THE_17_WORDS, start=1):
        items.append({"record": fileio.hole_to_record(catalog.build_H(i)),
                      "tight": True, "word": word})
    return items


def _crossover_edges(hole) -> list:
    """FF edges with both endpoints on the boundary graph, as in
    ``torusrig homology``."""
    on_boundary = {v for e in hole.boundary_edges for v in e}
    return [e for e in hole.graph.sorted_edges()
            if e not in hole.boundary_edges and hole.is_ff_edge(e)
            and e[0] in on_boundary and e[1] in on_boundary]


def classify_op(item: dict) -> dict:
    hole = fileio.record_to_hole(item["record"])
    cls = catalog.classify(hole)
    crossings = []
    if item["tight"]:
        for e in _crossover_edges(hole):
            classes = homology.crossover_class(hole, e)
            crossings.append([list(e), sorted(map(list, classes))])
    return {"word": cls.word, "crossover": crossings}


def classify_check(item: dict, out: dict) -> str | None:
    if item["word"] is not None and out["word"] != item["word"]:
        return "catalog_word_differs"
    if item["tight"] and out["word"] is None:
        return "tight_but_excluded_form"
    return None


WORKLOADS = {w.name: w for w in (
    Workload("decide", DECIDE_MIX, list, list, 1, 30, decide_op,
             decide_check),
    Workload("certify", CERTIFY_MIX, list, _parse, 2, 8, certify_op,
             certify_check),
    Workload("keylemma", KEYLEMMA_MIX, keylemma_inputs, keylemma_prepare, 2,
             100, keylemma_op, keylemma_check),
    Workload("classify", CLASSIFY_MIX, classify_inputs, list, 1, 500,
             classify_op, classify_check),
)}


def make_inputs(wl: Workload, seed: int, tiny: bool = False) -> list:
    """The distinct op inputs of a workload; ``tiny`` keeps two small grids."""
    return wl.make_inputs(_records(seed, _tiny(wl.mix) if tiny else wl.mix))
