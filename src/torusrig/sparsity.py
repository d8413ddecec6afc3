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
tightness.  Only a violating graph pays for a witness: one min-cut per edge,
in sorted edge order, over vertex sets S containing that edge's endpoints,
maximising |E(G[S])| - 3|S|; the first set of three or more vertices pushing
the maximum above -6 is the witness.  The ``through_vertex`` argument of
``check_3_6`` only moves the edges at one vertex to the front of that scan,
so the verdict is always that of the whole graph.  A subset-enumeration
oracle cross-validates both paths on small graphs.

The key lemma and the greedy reduction ask again and again whether G/e is
still tight, for a G already decided.  So the game's final orientation stays
on each graph it decides, and ``contract_edge`` links G/e to G.  The game on
G/e, with w the merged vertex, starts from G's orientation with both ends of
e dropped, each tail taking its pebble back, and places only the edges at w.
That is sound: G/e - w = G - u - v is a subgraph of G, so it is sparse, and
whether pebbles can be gathered and which component the search detects
depend only on the placed graph and on a valid configuration, not on the
order of placement.  So the verdict is the one the whole game gives, and a
violating G/e still gets its witness from the unchanged flow scan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import errors
from .graphs import Graph, as_graph, edge_key, freedom
from .maxflow import densest_extension

BRUTE_FORCE_CAP = 16


class Status(enum.Enum):
    TIGHT = "Tight"
    SPARSE_NOT_TIGHT = "SparseNotTight"
    VIOLATION = "Violation"


@dataclass(frozen=True)
class SparsityVerdict:
    status: Status
    witness: frozenset | None = None

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
    Jacobs & Hendrickson 1997): three pebbles per vertex, the out-sets of
    the placed edges' orientation and their in-sets.

    Every vertex starts with three pebbles, and a pebble on a vertex either
    lies free or covers one of its out-edges, so every vertex set S has
    3|S| = free(S) + |E(S)| + out(S).  Edge uv is accepted once u and v
    hold six pebbles; one of u's then covers it as u -> v.  With the five
    left on u and v, a set S containing both is (3,5)-tight exactly when it
    is closed under out-edges and holds no other free pebble.  The largest
    such set, the component of uv, is every vertex that cannot reach a free
    pebble off u and v; forward searches from the in-neighbours of u and v
    alone decide whether it has three or more vertices.  A component that
    big, or a rejected edge, is a (3,6) violation; on a simple graph the
    component is always found first.

    The game may start from any orientation of a (3,6)-sparse graph with
    out-degree at most three: the identity above holds for it, and that is
    all gathering pebbles and finding components rely on.
    """

    __slots__ = ("pebbles", "out", "into")

    def __init__(self, vertices, orientation=()):
        self.pebbles = dict.fromkeys(vertices, 3)
        self.out = {v: set() for v in vertices}
        self.into = {v: set() for v in vertices}
        for t, h in orientation:
            self.pebbles[t] -= 1
            self.out[t].add(h)
            self.into[h].add(t)

    def orientation(self) -> tuple:
        """The placed edges as (tail, head) pairs."""
        return tuple((t, h) for t, heads in self.out.items() for h in heads)

    def drop(self, x) -> None:
        """Take every edge at x off the board; each tail gets its pebble
        back, so x holds three free pebbles again."""
        for h in self.out[x]:
            self.into[h].remove(x)
        for t in self.into[x]:
            self.out[t].remove(x)
            self.pebbles[t] += 1
        self.out[x] = set()
        self.into[x] = set()
        self.pebbles[x] = 3

    def place(self, u, v) -> bool:
        """Place edge uv; False when the placed graph stops being
        (3,6)-sparse."""
        pinned = (u, v)
        for x in pinned:
            while self.pebbles[x] < 3:
                if not self._fetch(x, pinned):
                    return False
        self.pebbles[u] -= 1
        self.out[u].add(v)
        self.into[v].add(u)
        return not self._big_component(u, v)

    def _fetch(self, root, pinned) -> bool:
        """Move a free pebble off ``pinned`` to ``root`` by reversing the
        out-path that reaches it."""
        pebbles, out, into = self.pebbles, self.out, self.into
        parent = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in parent:
                    continue
                parent[y] = x
                if pebbles[y] and y not in pinned:
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    while y != root:
                        x = parent[y]
                        out[x].remove(y)
                        into[y].remove(x)
                        out[y].add(x)
                        into[x].add(y)
                        y = x
                    return True
                stack.append(y)
        return False

    def _big_component(self, u, v) -> bool:
        """Whether the (3,5)-tight component of the placed edge uv has three
        or more vertices.

        Before the placement u and v hold all their six pebbles, so no other
        out-edge leaves them: u -> v is the only one, and the component is
        {u, v} with every vertex that reaches no free pebble off u and v.  A
        (3,5)-tight set S on three or more vertices spans a connected graph:
        a part of a vertices spans at most 3a - 3 edges, so two parts with
        no edge between them span at most 3|S| - 6.  So a component that big
        holds a vertex w other than u and v adjacent to one of them, the
        edge points w -> u or w -> v, and only these in-neighbours need a
        forward search.  A vertex on the parent chain to a free pebble
        reaches one too and is marked; the other vertices that search
        visited may be dead ends inside the component, so they are not.
        """
        pebbles, out = self.pebbles, self.out
        escapes: set = set()
        for w in (self.into[u] | self.into[v]) - {u, v}:
            parent = {w: None}
            stack = [w]
            while stack:
                x = stack.pop()
                if x in escapes or pebbles[x]:
                    while x is not None:
                        escapes.add(x)
                        x = parent[x]
                    break
                for y in out[x]:
                    if y not in parent and y != u and y != v:
                        parent[y] = x
                        stack.append(y)
            else:
                return True
        return False


def _final_orientation(g: Graph) -> tuple | bool:
    """The pebble game's final orientation of ``g``, or False when ``g`` is
    not (3,6)-sparse.

    When ``g`` is the contraction G/uv of a graph G already decided sparse,
    the game starts from G's orientation with u and v dropped and places
    only the edges at the merged vertex u; otherwise it places every edge,
    in sorted order.
    """
    origin = g._origin
    if origin is not None and origin[0]._orientation not in (None, False):
        parent, u, v = origin
        game = _PebbleGame(parent.vertices, parent._orientation)
        game.drop(u)
        game.drop(v)
        edges = sorted(edge_key(u, w) for w in g.neighbors(u))
    else:
        game = _PebbleGame(g.vertices)
        edges = g.sorted_edges()
    for a, b in edges:
        if not game.place(a, b):
            return False
    return game.orientation()


def _pebble_sparse(g: Graph) -> bool:
    """True iff ``g`` is (3,6)-sparse, decided by the pebble game once per
    graph: the final orientation, or False, stays on ``g``, and the link to
    the graph ``g`` was contracted from is cleared."""
    if g._orientation is None:
        g._orientation = _final_orientation(g)
        g._origin = None
    return g._orientation is not False


def _violation_through(g: Graph, u: int, v: int) -> frozenset | None:
    """A violating vertex set containing edge uv, or None.

    The trivial optimum S = {u, v} scores -5, so a score of -4 or better
    proves a violation outright; at exactly -5 the maximal optimiser decides
    whether a three-or-more-vertex optimiser exists.
    """
    value, s_min, s_max = densest_extension(g, (u, v))
    if value >= -4:
        return s_min
    if value == -5:
        if len(s_min) >= 3:
            return s_min
        if len(s_max) >= 3:
            return s_max
    return None


def _flow_scan(g: Graph, through_vertex: int | None = None) -> SparsityVerdict:
    """The verdict of one min-cut per edge in sorted order, the edges at
    ``through_vertex`` first, with the first violating set found as the
    witness."""
    for u, v in sorted(g.edges, key=lambda e: (through_vertex not in e, e)):
        witness = _violation_through(g, u, v)
        if witness is not None:
            return SparsityVerdict(Status.VIOLATION, witness)
    return _sparse_verdict(g)


def check_3_6(graph, through_vertex: int | None = None) -> SparsityVerdict:
    """Decide (3,6)-sparsity/tightness, with a violating-set certificate.

    The (3,5) pebble game decides: a simple graph is (3,6)-sparse iff the
    game rejects no edge and finds no (3,5)-tight component of three or more
    vertices, since such a component spans 3|S| - 5 edges.  A sparse graph
    is answered at once.  Otherwise one min-cut per edge, in sorted order,
    names the first violating set found, so verdicts and witnesses are those
    of the per-edge flow scan alone.

    ``through_vertex`` only orders that witness search: the edges at the
    vertex are scanned first, so a violation through it is named before any
    other.  The verdict is always that of the whole graph.  After a
    contraction of a tight graph every violating set contains the merged
    vertex (all other induced subgraphs are unchanged), so the witness is
    found among the edges at it.

    The game runs once per graph: its final orientation, or False for a
    violating graph, is remembered on the ``Graph``, and a later call on it
    plays no game.  A graph from ``contract_edge(G, u, v)`` of a G decided
    sparse is decided from G's orientation by placing only the edges at u;
    once decided it drops its link to G.
    """
    g = as_graph(graph)
    if len(g.vertices) < 3:
        raise errors.TooFewVertices("(3,6)-sparsity needs at least 3 vertices")
    if _pebble_sparse(g):
        return _sparse_verdict(g)
    return _flow_scan(g, through_vertex)


def brute_force_3_6(graph) -> SparsityVerdict:
    """Exhaustive reference oracle over all vertex subsets of size >= 3."""
    g = as_graph(graph)
    n = len(g.vertices)
    if n < 3:
        raise errors.TooFewVertices("(3,6)-sparsity needs at least 3 vertices")
    if n > BRUTE_FORCE_CAP:
        raise errors.TooLarge(f"{n} vertices exceeds the cap of {BRUTE_FORCE_CAP}")
    verts = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    masks = [0] * n
    for u, v in g.edges:
        masks[pos[u]] |= 1 << pos[v]
        masks[pos[v]] |= 1 << pos[u]
    best: tuple[int, frozenset] | None = None
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        if size < 3:
            continue
        m = 0
        rest = subset
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            m += (masks[i] & subset).bit_count()
            rest ^= low
        m //= 2
        excess = m - (3 * size - 6)
        if excess > 0 and (best is None or excess > best[0]):
            best = (excess, frozenset(verts[i] for i in range(n) if subset >> i & 1))
    if best is not None:
        return SparsityVerdict(Status.VIOLATION, best[1])
    return _sparse_verdict(g)


def maximal_tight_subgraph(graph, core, exclude=()) -> frozenset | None:
    """The unique maximal S with f(G[S]) = 6 containing ``core``, avoiding
    ``exclude``; None when every such extension is denser than tight allows
    or the core cannot reach freedom 6.

    Only meaningful on sparse graphs, where tight vertex sets through a common
    tight core are closed under union.
    """
    g = as_graph(graph)
    value, _s_min, s_max = densest_extension(g, core, exclude)
    if value != -6:
        return None
    return s_max


def is_in_T(hole) -> bool:
    """Membership in the class of (3,6)-tight single-hole torus graphs."""
    if len(hole.discs) != 1:
        return False
    return check_3_6(hole.graph).is_tight
