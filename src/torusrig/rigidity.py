"""Generic infinitesimal 3-rigidity by exact rigidity-matrix rank.

The generic rank is the rank at one placement drawn uniformly from the
prime field of order 2^62 - 57, computed by exact modular elimination.  A
rank is one-sided: a minor that vanishes at the placement's integer
coordinates vanishes mod every prime p, so the rank over GF(p) is at most
the rank over the rationals, itself at most the generic rank, and a rank of
3|V| - 6 over any prime proves the generic one.  Only a shortfall can be
false, at an unlucky point.  An r x r minor of the rigidity matrix that is
nonzero as a polynomial has degree at most r <= 3|V| in the coordinates,
so it vanishes at a random placement with probability at most
r / p <= 3|V| / 2^62 (Schwartz 1980; Zippel 1979) -- far below 2^-40 at
desk scale.  So ``_rank_word_first`` ranks first at the same point read mod
``WORD_PRIME``, below 2^30, where every reduced entry is one CPython digit,
and at 2^62 - 57 only on a shortfall, which keeps that bound on a false
"not rigid"; ``generic_rank`` is one 62-bit rank.

A placement is drawn per (seed, vertex): p(v) depends on nothing else, so
a rank is the same in every process at the same seed, and the placement of
a subgraph is the restriction of the graph's.  A certificate needs one rank
check, of its target (``_rank_word_first``): its vertex splits keep generic
rigidity by Whiteley's lemma, so the steps before it need none
(``reduction.verify_certificate``).

``rank_at_placement`` holds row uv as the blocks p(u) - p(v) at u and its
negative at v, and clears one vertex block at a time in (degree, label)
order (faster than greedy minimum-degree order on 8 x 8 and 12 x 12 grids).
At v, let L be the live rows whose block there, taken off and reduced mod
p, is nonzero.  If L's first three blocks a, b, c, the rows of P, have
det P = a . (b x c) != 0, the rank grows by 3 and their rows are dropped
untouched, since the rank is 3 plus that of the other rows once their
v-blocks are cleared.  As adj P (columns b x c, c x a, a x b) has
adj P . P = det P . I, a row with v-block x clears it by subtracting the
pivot rows times x . adj P / det P, the one inverse folded into reducing
the pivots; with three rows in L none is taken.  Otherwise the columns are
cleared one by one.  Pivots enter updates reduced and multipliers are below
p, so an entry grows by less than p^2 per update until its vertex comes up.
The rank is that of the dense elimination of ``rigidity_matrix``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import errors
from .graphs import Graph

# largest prime below 2**62
FIELD_PRIME = 4611686018427387847
# largest prime below 2**30, so that a reduced entry is one CPython digit
WORD_PRIME = 1073741789

DIM = 3


@dataclass(frozen=True)
class Placement:
    """Vertex coordinates, integers read in the prime field of order
    ``modulus`` (``_block_rows`` reduces each difference)."""
    coords: dict
    modulus: int

    def __getitem__(self, v):
        return self.coords[v]


@functools.lru_cache(maxsize=1 << 12)
def _coordinates(seed: int, v: int) -> tuple:
    """p(v) at ``seed``.  ``random`` seeds from the string "seed:v" through
    SHA-512, so the draw is the same in every process, whatever its
    PYTHONHASHSEED."""
    rng = random.Random(f"{seed}:{v}")
    return tuple(rng.randrange(FIELD_PRIME) for _ in range(DIM))


def random_placement(graph: Graph, seed: int) -> Placement:
    """The placement of the graph's vertices at ``seed``, each vertex's
    coordinates drawn from (seed, vertex) alone.  BadArgument unless the
    seed is an ``int``: ``True`` or ``1.0`` would share 1's cached draws,
    though the string each is drawn from differs."""
    if type(seed) is not int:
        raise errors.BadArgument(f"seed {seed!r} is not an integer")
    return Placement({v: _coordinates(seed, v) for v in graph.vertices}, FIELD_PRIME)


def _block_rows(g, placement: Placement) -> list[dict]:
    """Row uv as {u: p(u) - p(v), v: p(v) - p(u)} mod p, edges sorted."""
    p = placement.coords
    missing = g.vertices - p.keys()
    if missing:
        raise errors.MissingCoordinate(f"vertex {min(missing)} has no coordinates")
    mod = placement.modulus
    rows = []
    for u, v in g.sorted_edges():
        pu, pv = p[u], p[v]
        d = [(pu[0] - pv[0]) % mod, (pu[1] - pv[1]) % mod, (pu[2] - pv[2]) % mod]
        rows.append({u: d, v: [-d[0] % mod, -d[1] % mod, -d[2] % mod]})
    return rows


def rigidity_matrix(graph: Graph, placement: Placement) -> list[list[int]]:
    """The |E| x 3|V| matrix: row uv carries p(u)-p(v) in u's block and the
    negative in v's block, the blocks in sorted vertex order."""
    col = {v: DIM * i for i, v in enumerate(sorted(graph.vertices))}
    rows = []
    for blocks in _block_rows(graph, placement):
        row = [0] * (DIM * len(col))
        for v, d in blocks.items():
            row[col[v]:col[v] + DIM] = d
        rows.append(row)
    return rows


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _add(rows, holders, i, f, pivot) -> None:
    """Row i += f * pivot, a list of (vertex, block) pairs."""
    row = rows[i]
    for k, (b0, b1, b2) in pivot:
        a = row.get(k)
        if a is None:
            row[k] = [f * b0, f * b1, f * b2]
            holders[k].append(i)
        else:
            a[0] += f * b0
            a[1] += f * b1
            a[2] += f * b2


def _clear_columns(live, rows, holders, p: int) -> int:
    """Rank of one vertex block cleared column by column; ``live`` is L."""
    rank = 0
    for d in range(DIM):
        hits = [(i, x, f) for i, x in live if (f := x[d] % p)]
        if not hits:
            continue
        (i, x, f), *hits = hits
        live = [t for t in live if t[0] != i]
        rank += 1
        if hits:
            s = -pow(f, -1, p)
            x = [b * s % p for b in x]
            pivot = [(k, [b * s % p for b in blk]) for k, blk in rows[i].items()]
            for j, y, f in hits:
                for e in range(d + 1, DIM):
                    y[e] += f * x[e]
                _add(rows, holders, j, f, pivot)
        rows[i] = None
    return rank


def rank_at_placement(graph: Graph, placement: Placement) -> int:
    """Exact rank over GF(p) of the rigidity matrix at ``placement``."""
    p = placement.modulus
    rows = _block_rows(graph, placement)  # None once a row is a pivot
    holders = {v: [] for v in graph.vertices}  # vertex -> rows with a block there
    for i, r in enumerate(rows):
        for v in r:
            holders[v].append(i)
    rank = 0
    for v in sorted(graph.vertices, key=lambda v: (graph.degree(v), v)):
        live = []
        for i in holders[v]:
            if rows[i] is not None:
                x0, x1, x2 = rows[i].pop(v)
                x = [x0 % p, x1 % p, x2 % p]
                if x[0] or x[1] or x[2]:
                    live.append((i, x))
        if len(live) >= DIM:
            (i, a), (j, b), (k, c), *rest = live
            bc = _cross(b, c)
            det = (a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2]) % p
            if det:
                if rest:
                    inv = pow(det, -1, p)
                    adj = (bc, _cross(c, a), _cross(a, b))
                    pivots = [(col, [(key, [e * inv % p for e in blk])
                                     for key, blk in rows[m].items()])
                              for col, m in zip(adj, (i, j, k))]
                    for m, (x0, x1, x2) in rest:
                        for col, pivot in pivots:
                            f = -(x0 * col[0] + x1 * col[1] + x2 * col[2]) % p
                            if f:
                                _add(rows, holders, m, f, pivot)
                rows[i] = rows[j] = rows[k] = None
                rank += DIM
                continue
        rank += _clear_columns(live, rows, holders, p)
    return rank


def generic_rank(graph: Graph, seed: int = 0) -> int:
    """Exact rank at the random prime-field placement drawn from ``seed``.

    One-sided: never exceeds the true generic rank, and falls short only if
    the placement is degenerate.
    """
    return rank_at_placement(graph, random_placement(graph, seed))


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


def rigidity_report(graph: Graph, seed: int = 0) -> RigidityReport:
    if len(graph.vertices) < 3:
        raise errors.TooFewVertices("rigidity report needs at least 3 vertices")
    rank = generic_rank(graph, seed=seed)
    target = DIM * len(graph.vertices) - 6
    return RigidityReport(
        rank=rank,
        dof=target - rank,
        independent=(rank == len(graph.edges)),
        minimally_rigid=(rank == len(graph.edges) == target),
    )


def _rank_word_first(graph: Graph, seed: int = 0) -> int:
    """``generic_rank``'s answer, taken at the seed's placement read mod
    ``WORD_PRIME`` and at ``generic_rank``'s 62-bit point only when that
    falls short of 3|V| - 6: one rank when the word point reaches it, two
    on a shortfall, whose answer is the 62-bit rank.  A full rank over any
    prime is the generic one, so it differs from ``generic_rank`` only where
    that point alone is unlucky."""
    word = Placement(random_placement(graph, seed).coords, WORD_PRIME)
    rank = rank_at_placement(graph, word)
    return rank if rank == DIM * len(graph.vertices) - 6 else generic_rank(graph, seed=seed)


def is_min_3_rigid(graph: Graph, seed: int = 0) -> bool:
    """True iff |E| = 3|V| - 6 and the generic rank attains it, ranked word
    point first (``_rank_word_first``)."""
    if len(graph.vertices) < 3:
        raise errors.TooFewVertices("minimal 3-rigidity needs at least 3 vertices")
    return (len(graph.edges) == DIM * len(graph.vertices) - 6
            and _rank_word_first(graph, seed) == len(graph.edges))
