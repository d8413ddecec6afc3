"""(3,6)-sparsity and tightness decisions with violation certificates.

A graph is (3,6)-sparse when every subgraph on at least three vertices has
freedom number >= 6, and (3,6)-tight when additionally f(G) = 6.

(3,6) is not matroidal, but (3,5) is.  A simple graph violates (3,6) exactly
when some set S of three or more vertices spans at least 3|S| - 5 edges.  The
(3,5) pebble game places the edges one at a time and, with component
detection, finds the largest (3,5)-tight set containing each edge it places.
At the first placement that makes some S violating, S spans exactly 3|S| - 5
edges, the new one among them, so S is (3,5)-tight and the new edge's
component has three or more vertices.  So one pebble game decides sparsity and
tightness.  Such an S has five or more vertices, and S less either end of the
new edge spans at most 3|S| - 9 edges, as it was sparse before; so each end
has four or more placed edges into S.  So a placement with an end of lower
degree needs no component search, and otherwise a search from the
in-neighbours of one end decides.  The board is the out-sets of the
orientation and each vertex's count of edges still to place: a placed
degree is the graph degree less that count, and in-neighbours are read off
the graph's neighbour sets.  Each edge is covered from the end with fewer
edges still to place, so the other end keeps its pebbles for its next edge.
Only a violating graph has a witness: one min-cut per edge, in sorted edge
order, over vertex sets S containing that edge's endpoints, maximising
|E(G[S])| - 3|S|; the first set of three or more vertices pushing the maximum
above -6 is the witness.  That scan runs when the witness is first read, so a
caller that reads only the status never pays for it.  A subset-enumeration
oracle in the tests cross-validates both paths on small graphs.

The key lemma and the greedy reduction ask again and again about graphs that
share most edges with the hole's graph G, decided already: G/e and the
fission child.  So the game's final orientation, every vertex's out-set,
stays on each graph it decides, and a graph may name such a graph as its
origin.  The game copies the origin's out-sets and cuts the edges that the
origin has and the graph lacks, which leaves the origin's orientation of the
edges the two graphs share (the empty board without an origin decided
sparse), and places only the graph's other edges, in sorted order.  That
is sound for any two graphs: the shared edges span a subgraph of a sparse
graph, so they are sparse, and the restricted orientation has out-degree at
most three, a valid start.  Whether pebbles can be gathered and which
component the search detects depend only on the placed graph, not on the
order of placement or the valid start.  A violating graph still gets its
witness from the unchanged flow scan.
"""

from __future__ import annotations

import enum

from . import errors
from .graphs import Graph, freedom
from .maxflow import densest_extension, fetch_pebble


class Status(enum.Enum):
    TIGHT = "Tight"
    SPARSE_NOT_TIGHT = "SparseNotTight"
    VIOLATION = "Violation"


class SparsityVerdict:
    """A sparsity status and, for a violation, a violating vertex set.

    The witness may be given as a function of no arguments; it is then
    called on the first read of ``witness``.  Verdicts are equal when their
    status and witness are."""

    __slots__ = ("status", "_witness")

    def __init__(self, status: Status, witness=None):
        self.status = status
        self._witness = witness

    @property
    def witness(self) -> frozenset | None:
        if callable(self._witness):
            self._witness = self._witness()
        return self._witness

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsityVerdict) and self.status is other.status
                and self.witness == other.witness)

    def __hash__(self):
        return hash((self.status, self.witness))

    def __repr__(self):
        return f"SparsityVerdict(status={self.status!r}, witness={self.witness!r})"

    @property
    def is_tight(self) -> bool:
        return self.status is Status.TIGHT

    @property
    def is_sparse(self) -> bool:
        return self.status is not Status.VIOLATION

    def to_json(self) -> dict:
        return {"status": self.status.value,
                "witness": sorted(self.witness) if self.witness else None}


def _sparse_verdict(g: Graph) -> SparsityVerdict:
    status = Status.TIGHT if freedom(g) == 6 else Status.SPARSE_NOT_TIGHT
    return SparsityVerdict(status)


class _PebbleGame:
    """The (3,5) pebble game with component detection (Lee & Streinu 2008;
    Jacobs & Hendrickson 1997) on a graph: three pebbles per vertex, the
    out-sets of the placed edges' orientation, and ``todo``, the number of
    edges still to place at each vertex that has any.

    Every vertex starts with three pebbles, and a pebble on a vertex either
    lies free or covers one of its out-edges, so every vertex set S has
    3|S| = free(S) + |E(S)| + out(S).  Edge uv is accepted once u and v
    hold six pebbles; then a pebble of the end with fewer edges still to
    place covers it, of u on a tie.  That end spends the pebble, and the
    other keeps its three for its next edge: every edge a contraction adds
    is at the merged vertex, which so gathers its pebbles once per game.
    With the five left on u and v, a set S containing both is (3,5)-tight
    exactly when it is closed under out-edges and holds no other free
    pebble.  The largest such set, the component of uv, is every vertex that
    cannot reach a free pebble off u and v; forward searches from the
    in-neighbours of one end alone decide whether it has three or more
    vertices, and only when both ends have placed degree four or more (the
    degree lemma of ``_big_component``).  A component that big, or a
    rejected edge, is a (3,6) violation; on a simple graph the component is
    always found first.

    The game may start from any orientation of a (3,6)-sparse subgraph with
    out-degree at most three, given as every vertex's out-set: the identity
    above holds for it, and that is all gathering pebbles and finding
    components rely on.  A vertex's placed degree is its degree in the
    graph less its edges still to place, so no count of the board is kept;
    a cold game starts ``todo`` from the graph's degrees.
    """

    __slots__ = ("graph", "pebbles", "out", "todo")

    def __init__(self, graph: Graph, out: dict, todo: dict):
        self.graph = graph
        self.out = out
        self.todo = todo
        self.pebbles = {t: 3 - len(heads) for t, heads in out.items()}

    def place(self, u, v) -> bool:
        """Place edge uv; False when the placed graph stops being
        (3,6)-sparse."""
        pebbles, out, todo = self.pebbles, self.out, self.todo
        pinned = (u, v)
        for x in pinned:
            while pebbles[x] < 3:
                if not fetch_pebble(pebbles, out, x, pinned):
                    return False
        if todo[v] < todo[u]:
            u, v = v, u
        todo[u] -= 1
        todo[v] -= 1
        pebbles[u] -= 1
        out[u].add(v)
        return not self._big_component(u, v)

    def _big_component(self, u, v) -> bool:
        """Whether the (3,5)-tight component of the placed edge uv has three
        or more vertices.

        Before the placement u and v hold all their six pebbles, so no other
        out-edge leaves them: the covered edge, from either end, is the only
        one, and every other placed edge at u or v points into it.  The
        component S is {u, v} with every vertex that reaches no free pebble
        off u and v, called dead here; so S is big exactly when some vertex
        is dead.

        Degree lemma: a big S has five or more vertices, as three or four
        vertices cannot span 3|S| - 5 edges.  S - u has three or more
        vertices, does not hold uv and was placed before it, so it is
        (3,6)-sparse and spans at most 3|S| - 9 edges; so four or more placed
        edges join u to S, uv and three or more from dead in-neighbours of
        u, and the same holds for v.  So only the end x with fewer placed
        in-neighbours (the other end aside) is searched: a dead one proves S
        big, and once all but two of them are shown to reach a free pebble,
        S is not big.  With fewer than three, placed degree below four, no
        search runs.

        An in-neighbour holding a pebble reaches one; any other gets a
        forward search that avoids u and v.  A vertex on the parent chain to
        a free pebble reaches one too and is marked; the other vertices that
        search visited may be dead, so they are not.  A search stops at the
        first pushed vertex that holds a pebble or is marked.
        """
        pebbles, out, todo = self.pebbles, self.out, self.todo
        adj = self.graph.neighbors
        left_u = len(adj(u)) - todo[u] - 1
        left_v = len(adj(v)) - todo[v] - 1
        x, other, left = (u, v, left_u) if left_u <= left_v else (v, u, left_v)
        if left < 3:
            return False
        escapes: set = set()
        for w in adj(x):
            if w == other or x not in out[w]:
                continue
            if not pebbles[w] and w not in escapes:
                parent = {w: None}
                stack = [w]
                while stack:
                    t = stack.pop()
                    for y in out[t]:
                        if y in parent or y == u or y == v:
                            continue
                        parent[y] = t
                        if pebbles[y] or y in escapes:
                            break
                        stack.append(y)
                    else:
                        continue
                    while y is not None:
                        escapes.add(y)
                        y = parent[y]
                    break
                else:
                    return True
            left -= 1
            if left < 3:
                return False
        return False


def _final_orientation(g: Graph) -> dict | bool:
    """The pebble game's final orientation of ``g``, as every vertex's
    out-set, or False when ``g`` is not (3,6)-sparse.

    The game starts from a copy of the origin's out-sets with the edges
    that ``g`` lacks cut, its orientation of the edges the two graphs
    share, and places the other edges of ``g`` in sorted order; without an
    origin decided sparse, from the empty board.
    """
    origin = g._origin
    board = origin is not None and origin._orientation
    if board:
        out = {t: set(board[t]) if t in board else set() for t in g.vertices}
        for a, b in origin.edges - g.edges:
            t, h = (a, b) if b in board[a] else (b, a)
            if t in out:
                out[t].remove(h)
        edges = sorted(g.edges - origin.edges)
        todo: dict = {}
        for a, b in edges:
            todo[a] = todo.get(a, 0) + 1
            todo[b] = todo.get(b, 0) + 1
    else:
        out = {t: set() for t in g.vertices}
        edges = sorted(g.edges)
        todo = {t: len(ns) for t, ns in g._adj.items()}
    game = _PebbleGame(g, out, todo)
    for a, b in edges:
        if not game.place(a, b):
            return False
    return game.out


def _pebble_sparse(g: Graph) -> bool:
    """True iff ``g`` is (3,6)-sparse, decided by the pebble game once per
    graph: the final orientation, or False, stays on ``g``, and the link to
    its origin is cleared."""
    if g._orientation is None:
        g._orientation = _final_orientation(g)
        g._origin = None
    return g._orientation is not False


def _flow_scan(g: Graph, edges) -> SparsityVerdict:
    """The verdict of one min-cut per edge of ``edges``, in their order, with
    the first violating set found as the witness.  When none is found the
    verdict is ``g``'s sparse one, which is right when every violating set
    of ``g`` spans one of ``edges``.

    The trivial optimum S = {u, v} of edge uv scores -5, so a score of -4 or
    better proves the least optimiser violating outright; at exactly -5 an
    optimiser violates when it has three or more vertices.
    """
    for u, v in edges:
        value, s_min, s_max = densest_extension(g, (u, v))
        for s in (s_min, s_max):
            if value > -5 or value == -5 and len(s) >= 3:
                return SparsityVerdict(Status.VIOLATION, s)
    return _sparse_verdict(g)


def check_3_6(graph: Graph) -> SparsityVerdict:
    """Decide (3,6)-sparsity/tightness, with a violating-set certificate.

    The (3,5) pebble game decides: a simple graph is (3,6)-sparse iff the
    game rejects no edge and finds no (3,5)-tight component of three or more
    vertices, since such a component spans 3|S| - 5 edges.  A sparse graph
    is answered at once.  Otherwise one min-cut per edge, in sorted order,
    names the first violating set found, so verdicts and witnesses are those
    of the per-edge flow scan alone.  That scan runs on the first read of
    the verdict's ``witness``, never for a caller that reads only the status.

    The game runs once per graph: its final orientation, or False for a
    violating graph, is remembered on the ``Graph``, and a later call on it
    plays no game.  A graph whose origin G (``Graph._origin``) is decided
    sparse starts from G's orientation of the shared edges, a valid start as
    they span a subgraph of a sparse graph, and places only its other edges;
    once decided it drops its link to G.  ``contract_edge`` links G/e to G,
    and ``fission`` links its child.
    """
    if len(graph.vertices) < 3:
        raise errors.TooFewVertices("(3,6)-sparsity needs at least 3 vertices")
    if _pebble_sparse(graph):
        return _sparse_verdict(graph)
    return SparsityVerdict(
        Status.VIOLATION, lambda: _flow_scan(graph, graph.sorted_edges()).witness)


def maximal_tight_subgraph(graph: Graph, core, exclude=()) -> frozenset | None:
    """The unique maximal S with f(G[S]) = 6 containing ``core``, avoiding
    ``exclude``; None when every such extension is denser than tight allows
    or the core cannot reach freedom 6.

    Only meaningful on sparse graphs, where tight vertex sets through a common
    tight core are closed under union.
    """
    value, _s_min, s_max = densest_extension(graph, core, exclude)
    if value != -6:
        return None
    return s_max


def is_in_T(hole) -> bool:
    """Membership in the class of (3,6)-tight single-hole torus graphs."""
    if len(hole.discs) != 1:
        return False
    return check_3_6(hole.graph).is_tight
