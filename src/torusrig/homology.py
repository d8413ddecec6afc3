"""First-homology bookkeeping for walks and crossover edges on a grid torus.

The two identification seams of a rectangular torus define an integer
cochain: an edge picks up (1,0) when it crosses the vertical seam in the
positive direction and (0,1) across the horizontal seam.  Summing along a
closed walk gives its class in H_1 = Z^2; face boundaries sum to zero.
Crossover edges (FF edges with both endpoints on the hole boundary) are
classed by the cycles they form with arcs of the detachment walk, recorded
up to sign.
"""

from __future__ import annotations

from . import errors
from .complexes import ClosedWalk, TorusComplex, TorusWithHole
from .graphs import edge_key


class EdgeCochain:
    """Seam-crossing vector of each directed edge of a rectangular torus."""

    def __init__(self, torus: TorusComplex):
        if torus.provenance is None:
            raise errors.NoProvenance(
                "homology cochain needs rectangular-grid provenance")
        self.torus = torus
        self.r = torus.provenance.r
        self.s = torus.provenance.s

    def value(self, tail: int, head: int) -> tuple[int, int]:
        """Class contribution of traversing the edge tail -> head."""
        r, s = self.r, self.s
        i1, j1 = divmod(tail, s)
        i2, j2 = divmod(head, s)
        di = (i2 - i1) % r
        dj = (j2 - j1) % s
        # grid steps move one unit in each coordinate at most (r, s >= 3
        # makes the direction unambiguous)
        if di == r - 1:
            a = -1 if i2 == r - 1 else 0
        elif di == 1:
            a = 1 if i1 == r - 1 else 0
        elif di == 0:
            a = 0
        else:
            raise errors.UnknownEdge(f"({tail},{head}) is not a grid edge")
        if dj == s - 1:
            b = -1 if j2 == s - 1 else 0
        elif dj == 1:
            b = 1 if j1 == s - 1 else 0
        elif dj == 0:
            b = 0
        else:
            raise errors.UnknownEdge(f"({tail},{head}) is not a grid edge")
        if di == 0 and dj == 0:
            raise errors.UnknownEdge("degenerate edge")
        return (a, b)

    def face_sum(self, face) -> tuple[int, int]:
        a, b, c = face
        vals = [self.value(a, b), self.value(b, c), self.value(c, a)]
        return (sum(v[0] for v in vals), sum(v[1] for v in vals))


def standard_cochain(torus: TorusComplex) -> EdgeCochain:
    """The seam cochain of a rectangular torus; closed on every face."""
    return EdgeCochain(torus)


def walk_homology(cochain: EdgeCochain, walk: ClosedWalk) -> tuple[int, int]:
    """Sum of cochain values along the walk's traversal directions."""
    a = b = 0
    for tail, head in walk.directed_edges():
        da, db = cochain.value(tail, head)
        a += da
        b += db
    return (a, b)


def canonical_class(vec: tuple[int, int]) -> tuple[int, int]:
    """Representative of the unordered pair {v, -v}: first nonzero positive."""
    a, b = vec
    if a < 0 or (a == 0 and b < 0):
        return (-a, -b)
    return (a, b)


def _walk_arcs(walk: ClosedWalk, start: int, goal: int):
    """Arcs of a closed walk from an occurrence of start to one of goal.

    An arc runs forward or backward along the walk between the two
    occurrences and passes no further occurrence of either endpoint.
    """
    seq = walk.vertices
    n = len(seq)
    for i, x in enumerate(seq):
        if x != start:
            continue
        for step in (1, -1):
            arc = [start]
            for k in range(1, n):
                y = seq[(i + step * k) % n]
                arc.append(y)
                if y in (start, goal):
                    break
            if arc[-1] == goal:
                yield arc


def crossover_class(hole: TorusWithHole, e) -> frozenset:
    """Canonical classes of all cycles through a crossover edge.

    A crossover edge is an FF edge with both endpoints on the boundary graph;
    its cycles close up along the arcs of the detachment walk between the
    endpoints (see ``_walk_arcs``).  The trivial class cannot occur on tight
    inputs: the edge and an arc would bound a disc next to the hole, and
    adding it to the hole disc gives an enlargement bounded by the edge and
    the rest of the walk, shorter than nine, whose complementary graph
    breaks (3,6)-sparsity.  The argument needs walk arcs: a path of the
    boundary graph may cut across a pinch vertex and skip a lobe of the
    walk, and the disc it bounds with the edge then need not contain the
    hole, so its class may be trivial on a tight graph.
    """
    cochain = standard_cochain(hole.torus)
    u, v = edge_key(*e)
    if not hole.is_ff_edge((u, v)):
        raise errors.NotACrossover(f"({u},{v}) is not an FF edge")
    on_boundary = {w for be in hole.boundary_edges for w in be}
    if u not in on_boundary or v not in on_boundary:
        raise errors.NotACrossover(f"({u},{v}) endpoints are not on the boundary graph")
    classes = set()
    base = cochain.value(u, v)
    for path in _walk_arcs(hole.detachment_walk(), v, u):
        a, b = base
        for x, y in zip(path, path[1:]):
            da, db = cochain.value(x, y)
            a += da
            b += db
        classes.add(canonical_class((a, b)))
    if (0, 0) in classes:
        raise errors.TrivialClassFound(
            f"crossover edge ({u},{v}) has a null-homologous cycle")
    return frozenset(classes)
