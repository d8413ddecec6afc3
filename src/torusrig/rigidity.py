"""Generic infinitesimal 3-rigidity by exact rigidity-matrix rank.

Placements are drawn uniformly from the prime field of order 2^62 - 57 and
ranks are computed by exact modular elimination.  Rank can only be
under-reported (a random placement may be unlucky), never over-reported, so
the maximum over independent trials converges one-sidedly to the generic
rank.  Each r x r minor of the rigidity matrix has degree at most r <= 3|V|
as a polynomial in the coordinates, so the per-trial failure probability is
at most 3|V| / 2^62 -- far below 2^-40 at desk scale.

The elimination (``rank_mod_p``) runs on sparse rows and reduces an entry
mod p only where it reads it, and ``rank_at_placement`` orders the column
blocks by greedy minimum-degree elimination of the vertices, which keeps the
fill small.  Neither changes a rank: the field, the placements, the trials
and so the one-sided bound above are those of the plain dense elimination,
which the tests keep as the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

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


def rigidity_matrix(graph, placement: Placement, order=None) -> list[list[int]]:
    """The |E| x 3|V| matrix: row uv carries p(u)-p(v) in u's block and the
    negative in v's block.  The blocks come in sorted vertex order, or in
    ``order``, a list of the vertices."""
    g = as_graph(graph)
    verts = sorted(g.vertices) if order is None else order
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
    """Exact rank over GF(p) of a matrix of any integers, by Gaussian
    elimination with lazy reduction.

    Rows are held sparse (column -> entry) and columns are eliminated left
    to right.  An entry is reduced mod p only when its column comes up: that
    one read is both the pivot test and the row's multiplier f, and the
    column is then dropped from the row.  The pivot row is reduced once and
    scaled to -1/pivot, so clearing the column from another row is the plain
    update a + f*b over the pivot row's entries, with no division by p; an
    entry grows by less than p^2 per update, and at most once per pivot.
    Entries may be negative, at least p, or nonzero multiples of p (which
    count as zero).
    """
    if not rows:
        return 0
    ncols = len(rows[0])
    rows = [dict(compress(enumerate(r), r)) for r in rows]
    holders = [[] for _ in range(ncols)]  # column -> rows with an entry there
    for i, r in enumerate(rows):
        for c in r:
            holders[c].append(i)
    rank = 0
    for c in range(ncols):
        live = []  # (index, row, multiplier) of the rows nonzero at c
        for i in holders[c]:
            r = rows[i]
            if r is not None:
                f = r.pop(c) % p
                if f:
                    live.append((i, r, f))
        if not live:
            continue
        (i, pivot, x), *live = live
        rows[i] = None
        rank += 1
        if not live:
            continue
        s = -pow(x, -1, p)
        scaled = [(k, b * s % p) for k, b in pivot.items()]
        for i, r, f in live:
            for k, b in scaled:
                a = r.get(k)
                if a is None:
                    r[k] = f * b
                    holders[k].append(i)
                else:
                    r[k] = a + f * b
    return rank


def _min_degree_order(g) -> list:
    """The vertices in greedy minimum-degree elimination order: repeatedly
    take a vertex of least degree (least label on ties), delete it and join
    its neighbours pairwise.  The joins are the fill that eliminating its
    column block brings to the rows of those neighbours."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs
            adj[u] -= {u, v}
        order.append(v)
    return order


def rank_at_placement(graph, placement: Placement) -> int:
    """Exact rank of the rigidity matrix at ``placement``, its column blocks
    in minimum-degree order; rank does not depend on the column order."""
    g = as_graph(graph)
    return rank_mod_p(rigidity_matrix(g, placement, _min_degree_order(g)),
                      placement.modulus)


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
