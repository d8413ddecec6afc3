"""Generic infinitesimal 3-rigidity by exact rigidity-matrix rank.

Placements are drawn uniformly from the prime field of order 2^62 - 57 and
ranks are computed by exact modular elimination.  Rank can only be
under-reported (a random placement may be unlucky), never over-reported, so
the maximum over independent trials converges one-sidedly to the generic
rank.  Each r x r minor of the rigidity matrix has degree at most r <= 3|V|
as a polynomial in the coordinates, so the per-trial failure probability is
at most 3|V| / 2^62 -- far below 2^-40 at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import errors
from .graphs import as_graph

# largest prime below 2**62
FIELD_PRIME = 4611686018427387847

DIM = 3


@dataclass(frozen=True)
class Placement:
    """Vertex coordinates in the prime field, reproducible from a seed."""
    coords: dict
    modulus: int
    seed: int

    def __getitem__(self, v):
        return self.coords[v]


def random_placement(graph, seed: int, modulus: int = FIELD_PRIME) -> Placement:
    g = as_graph(graph)
    rng = random.Random(seed)
    coords = {v: tuple(rng.randrange(modulus) for _ in range(DIM))
              for v in sorted(g.vertices)}
    return Placement(coords, modulus, seed)


def rigidity_matrix(graph, placement: Placement) -> list[list[int]]:
    """The |E| x 3|V| matrix: row uv carries p(u)-p(v) in u's block and the
    negative in v's block."""
    g = as_graph(graph)
    verts = sorted(g.vertices)
    col = {v: DIM * i for i, v in enumerate(verts)}
    p = placement.coords
    mod = placement.modulus
    for v in verts:
        if v not in p:
            raise errors.MissingCoordinate(f"vertex {v} has no coordinates")
    rows = []
    for u, v in g.sorted_edges():
        row = [0] * (DIM * len(verts))
        pu, pv = p[u], p[v]
        for d in range(DIM):
            diff = (pu[d] - pv[d]) % mod
            row[col[u] + d] = diff
            row[col[v] + d] = (-diff) % mod
        rows.append(row)
    return rows


def rank_mod_p(rows, p: int = FIELD_PRIME) -> int:
    """Exact rank of an integer matrix over GF(p), by Gaussian elimination."""
    if not rows:
        return 0
    rows = [[x % p for x in row] for row in rows]
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = pow(pr[c], -1, p)
        if inv != 1:
            rows[rank] = pr = [(x * inv) % p for x in pr]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            f = ri[c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(ri, pr)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rank_at_placement(graph, placement: Placement) -> int:
    return rank_mod_p(rigidity_matrix(graph, placement), placement.modulus)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise errors.BadArgument(f"trials must be at least 1, got {trials}")


def generic_rank(graph, trials: int = 3, seed: int = 0) -> int:
    """Max exact rank over ``trials`` random prime-field placements.

    One-sided: never exceeds the true generic rank, and falls short only if
    every trial's placement is degenerate.  Raises BadArgument for fewer
    than one trial.
    """
    _check_trials(trials)
    g = as_graph(graph)
    if not g.vertices:
        return 0
    if not g.edges:
        return 0
    best = 0
    cap = min(len(g.edges), max(0, DIM * len(g.vertices) - 6)) \
        if len(g.vertices) >= DIM else len(g.edges)
    for t in range(trials):
        placement = random_placement(g, seed + t)
        best = max(best, rank_at_placement(g, placement))
        if best == cap:
            break
    return best


@dataclass(frozen=True)
class RigidityReport:
    rank: int
    dof: int
    independent: bool
    minimally_rigid: bool

    def to_json(self) -> dict:
        return {"rank": self.rank, "dof": self.dof,
                "independent": self.independent,
                "minimally_rigid": self.minimally_rigid}


def rigidity_report(graph, trials: int = 3, seed: int = 0) -> RigidityReport:
    g = as_graph(graph)
    if len(g.vertices) < 3:
        raise errors.TooFewVertices("rigidity report needs at least 3 vertices")
    rank = generic_rank(g, trials=trials, seed=seed)
    target = DIM * len(g.vertices) - 6
    return RigidityReport(
        rank=rank,
        dof=target - rank,
        independent=(rank == len(g.edges)),
        minimally_rigid=(rank == len(g.edges) == target),
    )


def is_min_3_rigid(graph, trials: int = 3, seed: int = 0) -> bool:
    """True iff |E| = 3|V| - 6 and the generic rank attains it."""
    _check_trials(trials)
    g = as_graph(graph)
    if len(g.vertices) < 3:
        raise errors.TooFewVertices("minimal 3-rigidity needs at least 3 vertices")
    target = DIM * len(g.vertices) - 6
    if len(g.edges) != target:
        return False
    return generic_rank(g, trials=trials, seed=seed) == target
