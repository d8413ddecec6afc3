"""Plain simple graphs and the freedom number.

Everything downstream (sparsity checks, rigidity ranks, certificates) works
on these immutable vertex/edge-set graphs; surface structure lives in
:mod:`torusrig.complexes` and projects down via ``.graph``.
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
    hashing: None until ``check_3_6`` decides the graph, then False when it
    violates, else the pebble game's final board, a dict of every vertex's
    out-set and one of its free pebbles.

    The two moves, ``contract_edge`` and ``split_vertex``, build the child
    from the parent's vertex set, edge set and adjacency, changed at the
    merged or split vertex and its neighbours only; they hand the result to
    the constructor through the private ``_adj`` argument, which skips the
    normalisation of every edge and the rebuild of every neighbour set.
    A torus graph with holes passes the private ``_keyed`` instead: its
    edges, a frozenset of key-ordered pairs, skip the normalisation alone,
    and an edge that leaves the vertex set still raises NonSimple.
    """

    __slots__ = ("vertices", "edges", "_adj", "_board")

    def __init__(self, vertices, edges, *, _adj=None, _keyed=False):
        self._board = None
        if _adj is not None:
            # a move's child: frozensets of vertices and key-ordered edges
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
        return edge_key(*edge) in self.edges

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

    # -- moves on abstract graphs --------------------------------------

    def split_vertex(self, v1: int, v2: int, v3: int, moved_edges,
                     new_vertex: int) -> "Graph":
        """Vertex split at v1 with anchor neighbours v2, v3.

        The vertex ``new_vertex`` is added and joined to v1, v2, v3, and each
        edge v1--t in ``moved_edges`` is replaced by new_vertex--t.
        BadArgument unless v1, v2, v3 and ``new_vertex`` are ``int``s.
        """
        for x in (v1, v2, v3, new_vertex):
            if type(x) is not int:
                raise errors.BadArgument(f"vertex {x!r} is not an integer")
        if v1 not in self._adj:
            raise errors.InvalidAnchors(f"{v1} is not a vertex of the graph")
        if v2 not in self._adj[v1] or v3 not in self._adj[v1] or v2 == v3:
            raise errors.InvalidAnchors(f"{v2}, {v3} must be distinct neighbours of {v1}")
        moved = set()
        for e in moved_edges:
            try:
                e = edge_key(*e)
            except TypeError:
                raise errors.NotAnEdge(f"{e!r} is not a vertex pair") from None
            if e not in self.edges or v1 not in e:
                raise errors.NotAnEdge(f"{e} is not an edge at {v1}")
            t = e[0] if e[1] == v1 else e[1]
            if t in (v2, v3):
                raise errors.InvalidAnchors("anchor edges cannot be moved")
            moved.add(t)
        if new_vertex in self.vertices:
            raise errors.NonSimple(f"vertex id {new_vertex} already in use")
        adj = dict(self._adj)
        adj[new_vertex] = frozenset(moved | {v1, v2, v3})
        adj[v1] = adj[v1] - moved | {new_vertex}
        for t in moved:
            adj[t] = adj[t] - {v1} | {new_vertex}
        for x in (v2, v3):
            adj[x] = adj[x] | {new_vertex}
        edges = (self.edges - {edge_key(v1, t) for t in moved}
                 | {edge_key(new_vertex, t) for t in adj[new_vertex]})
        return Graph(self.vertices | {new_vertex}, edges, _adj=adj)


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Merge v into u (simple-graph contraction, parallel edges coalesce).
    BadArgument unless u and v are ``int``s."""
    if type(u) is not int or type(v) is not int:
        raise errors.BadArgument(f"edge {(u, v)!r} is not a pair of integers")
    if edge_key(u, v) not in g.edges:
        raise errors.NotAnEdge(f"({u},{v})")
    adj = dict(g._adj)
    at_v = adj.pop(v)
    gained = at_v - adj[u] - {u}  # v's neighbours that u did not have
    for w in at_v - {u}:
        adj[w] = adj[w] - {v} | {u} if w in gained else adj[w] - {v}
    adj[u] = adj[u] - {v} | gained
    edges = (g.edges - {edge_key(v, w) for w in at_v}
             | {edge_key(u, w) for w in gained})
    return Graph(g.vertices - {v}, edges, _adj=adj)


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
