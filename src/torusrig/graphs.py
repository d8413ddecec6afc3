"""Plain simple graphs and the freedom number.

Everything downstream (sparsity checks, rigidity ranks, certificates) works
on these immutable vertex/edge-set graphs; surface structure lives in
:mod:`torusrig.complexes` and projects down via ``.graph``.  The two moves,
contraction and vertex split, each have one body, which changes a working
adjacency (a dict of neighbour sets) in place: a chain of moves copies its
graph's adjacency once (``_working``) and builds one graph at its end
(``_graph_of``).
"""

from __future__ import annotations

from . import errors


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalised unordered edge (u, v) with u < v."""
    if u == v:
        raise errors.LoopEdge(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable simple graph on integer vertex ids; the public
    constructor refuses a vertex that is not an ``int``, and an edge that is
    not a pair of them, with BadArgument, as the two moves refuse such ids.

    Vertices need not be consecutive; isolated vertices are allowed (they
    matter for freedom-number bookkeeping).  One more slot, ``_board``,
    belongs to :mod:`torusrig.sparsity` and takes no part in equality or
    hashing: None, the board, or the witness: None until ``check_3_6``
    decides the graph, then a violation's witness, else the pebble game's
    final board, a dict of every vertex's out-set and one of its free pebbles.

    A chain of moves (``_contract_in_place``, ``_split_in_place``) runs on
    a working adjacency, not on graphs; its one graph, at the end
    (``_graph_of``), comes through the private ``_adj`` argument, which
    skips the normalisation of every edge and the rebuild of every
    neighbour set.  A torus graph with holes passes the private ``_keyed``
    instead: its edges, a frozenset of key-ordered pairs, skip the
    normalisation alone, and an edge that leaves the vertex set still
    raises NonSimple.
    """

    __slots__ = ("vertices", "edges", "_adj", "_board")

    def __init__(self, vertices, edges, *, _adj=None, _keyed=False):
        self._board = None
        if _adj is not None:
            # a working adjacency's graph (_graph_of), all of it frozen
            self.vertices, self.edges, self._adj = vertices, edges, _adj
            return
        vertices = frozenset(vertices)
        if not _keyed:
            bad = [v for v in vertices if type(v) is not int]
            if bad:
                raise errors.BadArgument(f"vertex {bad[0]!r} is not an integer")
            keyed = set()
            for e in edges:
                try:
                    u, v = e
                except (TypeError, ValueError):
                    u = v = None
                if type(u) is not int or type(v) is not int:
                    raise errors.BadArgument(f"edge {e!r} is not a pair of integers")
                # edge_key only for pairs not already in key order, and for loops
                keyed.add((u, v) if u < v else edge_key(v, u))
            edges = frozenset(keyed)
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise errors.NonSimple(f"edge ({u},{v}) leaves the vertex set")
            adj[u].add(v)
            adj[v].add(u)
        self.vertices = vertices
        self.edges = edges
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

    # -- basic queries ------------------------------------------------

    def __contains__(self, edge) -> bool:
        """Whether the pair ``edge`` is an edge, in either order: False for
        a loop or a pair of non-integers, BadArgument for a non-pair."""
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise errors.BadArgument(f"edge {edge!r} is not a pair") from None
        if type(u) is not int or type(v) is not int:
            return False
        return ((u, v) if u < v else (v, u)) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _working(g: Graph) -> dict[int, set[int]]:
    """A working adjacency of ``g``: every vertex's neighbour set, each a
    fresh ``set`` the moves change in place."""
    return {v: set(ns) for v, ns in g._adj.items()}


def _graph_of(adj) -> Graph:
    """The graph of a working adjacency, built once: its vertex set, its
    key-ordered edges and frozen neighbour sets, handed to the constructor
    through the private ``_adj`` argument."""
    edges = frozenset([(u, v) for u, ns in adj.items() for v in ns if u < v])
    return Graph(frozenset(adj), edges,
                 _adj={v: frozenset(ns) for v, ns in adj.items()})


def _contract_in_place(adj, u: int, v: int) -> None:
    """Merge v into u in the working adjacency ``adj`` (simple-graph
    contraction, parallel edges coalesce).  BadArgument unless u and v are
    ``int``s, LoopEdge when they are equal and NotAnEdge unless uv is an
    edge, each before the first write."""
    if type(u) is not int or type(v) is not int:
        raise errors.BadArgument(f"edge {(u, v)!r} is not a pair of integers")
    if u == v:
        raise errors.LoopEdge(f"loop at vertex {u}")
    at_u = adj.get(u)
    if at_u is None or v not in at_u:
        raise errors.NotAnEdge(f"({u},{v})")
    at_v = adj.pop(v)
    at_v.discard(u)
    at_u.discard(v)
    for w in at_v:
        at_w = adj[w]
        at_w.discard(v)
        at_w.add(u)
    at_u |= at_v


def _split_in_place(adj, v1: int, v2: int, v3: int, moved_edges,
                    new_vertex: int) -> None:
    """Vertex split at v1 with anchor neighbours v2, v3, in the working
    adjacency ``adj``.

    The vertex ``new_vertex`` is added and joined to v1, v2, v3, and each
    edge v1--t in ``moved_edges`` is replaced by new_vertex--t.
    BadArgument unless v1, v2, v3, ``new_vertex`` and the ends of each
    moved edge are ``int``s: a moved ``3.0`` or ``True`` would pass as the
    neighbour it equals and enter the new vertex's neighbour set.  Every
    check comes before the first write, so a refused split leaves ``adj``
    as it was.
    """
    for x in (v1, v2, v3, new_vertex):
        if type(x) is not int:
            raise errors.BadArgument(f"vertex {x!r} is not an integer")
    at_v1 = adj.get(v1)
    if at_v1 is None:
        raise errors.InvalidAnchors(f"{v1} is not a vertex of the graph")
    if v2 not in at_v1 or v3 not in at_v1 or v2 == v3:
        raise errors.InvalidAnchors(f"{v2}, {v3} must be distinct neighbours of {v1}")
    moved = set()
    for e in moved_edges:
        try:
            e = edge_key(*e)
        except TypeError:
            raise errors.NotAnEdge(f"{e!r} is not a vertex pair") from None
        for x in e:
            if type(x) is not int:
                raise errors.BadArgument(f"vertex {x!r} is not an integer")
        t = e[0] if e[1] == v1 else e[1]
        if v1 not in e or t not in at_v1:
            raise errors.NotAnEdge(f"{e} is not an edge at {v1}")
        if t in (v2, v3):
            raise errors.InvalidAnchors("anchor edges cannot be moved")
        moved.add(t)
    if new_vertex in adj:
        raise errors.NonSimple(f"vertex id {new_vertex} already in use")
    at_v1 -= moved
    at_v1.add(new_vertex)
    for t in moved:
        at_t = adj[t]
        at_t.discard(v1)
        at_t.add(new_vertex)
    adj[v2].add(new_vertex)
    adj[v3].add(new_vertex)
    adj[new_vertex] = moved | {v1, v2, v3}


def freedom(obj) -> int:
    """Freedom number 3|V| - |E| of a graph or surface complex."""
    return 3 * len(obj.vertices) - len(obj.edges)


def complete_graph(n: int) -> Graph:
    vs = range(n)
    return Graph(vs, [(i, j) for i in vs for j in vs if i < j])


def double_banana() -> Graph:
    """Two copies of K5 minus an edge glued at the missing-edge pair.

    The standard 8-vertex graph that meets the Maxwell count yet is flexible;
    vertices 3 and 4 form the hinge.
    """
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
             (0, 4), (1, 4), (2, 4),
             (5, 6), (5, 7), (6, 7), (3, 5), (3, 6), (3, 7),
             (4, 5), (4, 6), (4, 7)]
    return Graph(range(8), edges)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test, meant for small graphs (|V| <= ~12)."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    d1 = sorted(g1.degree(v) for v in g1.vertices)
    d2 = sorted(g2.degree(v) for v in g2.vertices)
    if d1 != d2:
        return False
    # order g1's vertices to keep the search tree connected where possible
    vs1 = sorted(g1.vertices, key=lambda v: -g1.degree(v))
    vs2 = sorted(g2.vertices)

    def extend(mapping, used):
        if len(mapping) == len(vs1):
            return True
        v = vs1[len(mapping)]
        for w in vs2:
            if w in used or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for pv, pw in mapping.items():
                if (pv in g1.neighbors(v)) != (pw in g2.neighbors(w)):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(mapping, used):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return extend({}, set())
