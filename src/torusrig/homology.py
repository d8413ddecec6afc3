"""First-homology bookkeeping for walks and crossover edges on a torus.

Any triangulated torus carries an integer cochain, built by the
tree–cotree decomposition (Eppstein, "Dynamic generators of topologically
embedded graphs", SODA 2003): a BFS spanning tree of the graph, a spanning
tree of the dual over the remaining edges, and the two edges left over,
which get (1,0) and (0,1).  Tree edges get zero, and each cotree edge is
solved so that its face's boundary sums to zero.  Summing along a closed
walk gives its class in H_1 = Z^2.  A class vector is defined only up to a
change of basis of Z^2; the basis is fixed per torus, one basis per
interned torus (``fileio.record_to_hole``).  Crossover edges (FF edges
with both endpoints on the hole boundary) are classed by the cycles they
form with arcs of the detachment walk, recorded up to sign.
"""

from __future__ import annotations

from . import errors, fileio
from .complexes import ClosedWalk, TorusComplex, TorusWithHole, _edge_arg
from .graphs import edge_key


class EdgeCochain:
    """Tree–cotree class vector of each directed edge of a torus.

    Holds only the edge values, not the torus, so a torus may cache its
    cochain without keeping itself alive; a torus is never changed
    (``complexes.TorusComplex``), so it builds one cochain for every hole
    that shares it.
    """

    def __init__(self, torus: TorusComplex):
        neighbors: dict = {v: [] for v in torus.vertices}
        for u, v in torus.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        root = min(torus.vertices)
        tree, seen = set(), {root}
        queue = [root]
        for u in queue:
            for w in sorted(neighbors[u]):
                if w not in seen:
                    seen.add(w)
                    tree.add(edge_key(u, w))
                    queue.append(w)
        # dual BFS tree over the non-tree edges: face -> edge to its parent
        parent_edge = {0: None}
        order = [0]
        for f in order:
            a, b, c = torus.faces[f]
            for e in (edge_key(a, b), edge_key(b, c), edge_key(c, a)):
                if e not in tree:
                    for g in torus.edge_faces[e]:
                        if g not in parent_edge:
                            parent_edge[g] = e
                            order.append(g)
        values = dict.fromkeys(tree, (0, 0))
        # Euler characteristic 0 leaves exactly two edges in neither tree
        leftover = sorted(torus.edges - tree - set(parent_edge.values()))
        values.update(zip(leftover, ((1, 0), (0, 1))))
        for f in reversed(order[1:]):
            # every other edge of f is known: tree, leftover or a child's
            a, b, c = torus.faces[f]
            sa = sb = 0
            for x, y in ((a, b), (b, c), (c, a)):
                e = edge_key(x, y)
                sign = 1 if x < y else -1
                if e == parent_edge[f]:
                    own = sign
                else:
                    sa += sign * values[e][0]
                    sb += sign * values[e][1]
            values[parent_edge[f]] = (-own * sa, -own * sb)
        self._values = {}
        for (u, v), (a, b) in values.items():
            self._values[(u, v)] = (a, b)
            self._values[(v, u)] = (-a, -b)

    def value(self, tail: int, head: int) -> tuple[int, int]:
        """Class contribution of traversing the edge tail -> head."""
        try:
            return self._values[(tail, head)]
        except KeyError:
            raise errors.UnknownEdge(f"({tail},{head}) is not a torus edge") from None


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
    cochain = hole.torus.cochain
    u, v = _edge_arg(e)
    if not hole.is_ff_edge((u, v)):
        raise errors.NotACrossover(f"({u},{v}) is not an FF edge")
    on_boundary = {w for be in hole.boundary_edges for w in be}
    if u not in on_boundary or v not in on_boundary:
        raise errors.NotACrossover(f"({u},{v}) endpoints are not on the boundary graph")
    # an arc from v to u, closed by the edge u -> v, is the cycle itself
    classes = {canonical_class(walk_homology(cochain, ClosedWalk(arc)))
               for arc in _walk_arcs(hole.detachment_walk(), v, u)}
    if (0, 0) in classes:
        raise fileio.with_record(
            errors.TrivialClassFound, hole,
            f"crossover edge ({u},{v}) has a null-homologous cycle")
    return frozenset(classes)
