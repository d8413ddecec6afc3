"""Reproducible random corpora of torus graphs with holes.

A corpus entry is a grid torus plus a randomly grown face-connected disc
region with a prescribed boundary-walk length.  Same spec, same corpus:
all randomness flows from the seed.  Each grid shape is built once per
process, with its face adjacency, and the holes of one shape share that
torus; a ``TorusComplex`` is never changed after it is built.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import errors
from .complexes import DiscMap, TorusWithHole, rectangular_torus
from .fileio import hole_to_record
from .graphs import freedom
from .sparsity import check_3_6


#: faces in the largest region a hole attempt tries before it gives up
MAX_REGION = 24

#: hole attempts per graph before generation gives up
ATTEMPTS_PER_GRAPH = 400


@dataclass(frozen=True)
class CorpusSpec:
    seed: int
    count: int
    grids: tuple = ((3, 3), (3, 4), (4, 4))
    boundary_lengths: tuple = (9,)


@functools.lru_cache(maxsize=None)
def _grid(r: int, s: int) -> tuple:
    """The r x s grid torus and its face adjacency, built once per shape."""
    torus = rectangular_torus(r, s)
    return torus, torus.face_adjacency()


def _grow_hole(torus, adj, rng, target_len: int) -> DiscMap | None:
    """Randomly grow a face-connected region until its disc boundary has the
    target length; fully glued discs only.

    A fully glued disc's walk takes one step per open half-edge, and the
    region counts those as it grows: 3F - 2S for F faces and S region face
    pairs that share an edge, which share only that edge on a simplicial
    torus.  Only a count equal to the target builds a ``DiscMap``; any other
    would be no disc (NotADisc, as the region stays face-connected) or one
    of another length.  The draws never read the ``DiscMap``, so skipping
    it changes no hole.
    """
    start = rng.randrange(len(torus.faces))
    region = [start]
    region_set = {start}
    open_halves = 3
    while len(region) <= MAX_REGION:
        if open_halves == target_len:
            try:
                return DiscMap(torus, region)
            except errors.NotADisc:
                pass
        frontier = sorted({n for f in region for n in adj[f]} - region_set)
        if not frontier:
            return None
        nxt = rng.choice(frontier)
        open_halves += 3 - 2 * len(adj[nxt] & region_set)
        region.append(nxt)
        region_set.add(nxt)
    return None


def gen_corpus(spec: CorpusSpec) -> list[TorusWithHole]:
    """Generate ``spec.count`` single-hole graphs; deterministic in the seed.

    Raises BadArgument, before any draw, for no grid or no boundary length,
    or a boundary length below 3 (a hole's walk has at least three edges) or
    above ``MAX_REGION`` + 2 (a face-connected region of F faces has F - 1
    or more shared edges, so its walk has at most F + 2), and NotADisc when
    ``ATTEMPTS_PER_GRAPH`` attempts grow no hole of the wanted length.
    """
    if not (spec.grids and spec.boundary_lengths):
        raise errors.BadArgument("a corpus spec needs a grid and a boundary length")
    for n in spec.boundary_lengths:
        if n < 3:
            raise errors.BadArgument(
                f"boundary length {n} is below 3, the shortest hole boundary")
        if n > MAX_REGION + 2:
            raise errors.BadArgument(
                f"boundary length {n} is above {MAX_REGION + 2}, the longest "
                f"boundary of a hole of at most {MAX_REGION} faces")
    rng = random.Random(spec.seed)
    out: list[TorusWithHole] = []
    while len(out) < spec.count:
        r, s = spec.grids[len(out) % len(spec.grids)]
        target = spec.boundary_lengths[len(out) % len(spec.boundary_lengths)]
        torus, adj = _grid(r, s)
        disc = None
        for _ in range(ATTEMPTS_PER_GRAPH):
            disc = _grow_hole(torus, adj, rng, target)
            if disc is not None:
                break
        if disc is None:
            raise errors.NotADisc(
                f"could not grow a boundary-{target} hole on the {r}x{s} torus")
        out.append(TorusWithHole(torus, [disc]))
    return out


def corpus_records(spec: CorpusSpec) -> list[dict]:
    """JSON records with per-graph metadata, ready for JSON-lines output."""
    records = []
    for idx, hole in enumerate(gen_corpus(spec)):
        rec = hole_to_record(hole)
        verdict = check_3_6(hole.graph)
        rec["meta"] = {
            "index": idx,
            "freedom": freedom(hole.graph),
            "boundary_length": len(hole.detachment_walk()),
            "status": verdict.status.value,
        }
        records.append(rec)
    return records
