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
orientation and every vertex's free pebbles; the game counts the edges
still to place at their ends, so a placed degree is the graph degree less
that count, and in-neighbours are read off the graph's neighbour sets.
Each edge is covered from the end with fewer
edges still to place, so the other end keeps its pebbles for its next edge.
Only a violating graph has a witness: one min-cut per edge, in sorted edge
order, over vertex sets S containing that edge's endpoints, maximising
|E(G[S])| - 3|S|; the first set of three or more vertices pushing the maximum
above -6 is the witness.  That scan runs when the witness is first read, so a
caller that reads only the status never pays for it.  A subset-enumeration
oracle in the tests cross-validates both paths on small graphs.

The key lemma and the greedy reduction ask again and again whether G/e is
sparse, for the hole's graph G, decided already.  So the game's final
board, every vertex's out-set and free pebbles, stays on the graph it
decides, and G/e is tried on G's board in place (``_contraction_trial``).
Every game is a ``_trial``, where the start is shown valid and the undo
exact; a graph's first game starts from the empty board.
"""

from __future__ import annotations

import enum

from . import errors
from .graphs import Graph, edge_key, freedom
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

    def to_json(self) -> dict:
        return {"status": self.status.value,
                "witness": sorted(self.witness) if self.witness else None}


def _sparse_verdict(g: Graph) -> SparsityVerdict:
    status = Status.TIGHT if freedom(g) == 6 else Status.SPARSE_NOT_TIGHT
    return SparsityVerdict(status)


class _PebbleGame:
    """The (3,5) pebble game with component detection (Lee & Streinu 2008;
    Jacobs & Hendrickson 1997) on a board: ``out``, the out-sets of the
    placed edges' orientation, and ``pebbles``, every vertex's free
    pebbles.  ``adj`` gives the neighbour sets, in the graph being decided,
    of the ends of the edges to place, and ``todo`` the number of edges
    still to place at each of them.  ``log`` saves every out-set the game
    changes, by its tail, as it was before the first change (``_trial``).

    Every vertex has three pebbles, and a pebble on a vertex either lies
    free or covers one of its out-edges, so every vertex set S has
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

    A vertex's placed degree is its degree in the graph less its edges
    still to place, so no count of the board is kept.  Each move changes a
    vertex's out-degree by one and its free pebbles the other way, so every
    vertex of a board holds three pebbles less its out-degree.
    """

    __slots__ = ("adj", "out", "pebbles", "todo", "log")

    def __init__(self, adj, out: dict, pebbles: dict, todo: dict, log: dict):
        self.adj = adj
        self.out = out
        self.pebbles = pebbles
        self.todo = todo
        self.log = log

    def play(self, cut, added) -> bool:
        """Play a delta: lift the edges of ``cut`` off the board, then place
        those of ``added`` in sorted order; False at the first placement
        that leaves the placed graph not (3,6)-sparse."""
        out, pebbles, log = self.out, self.pebbles, self.log
        for a, b in cut:
            t, h = (a, b) if b in out[a] else (b, a)
            if t not in log:
                log[t] = set(out[t])
            out[t].remove(h)
            pebbles[t] += 1
        for a, b in sorted(added):
            if not self.place(a, b):
                return False
        return True

    def place(self, u, v) -> bool:
        """Place edge uv; False when the placed graph stops being
        (3,6)-sparse."""
        pebbles, out, todo, log = self.pebbles, self.out, self.todo, self.log
        pinned = (u, v)
        for x in pinned:
            while pebbles[x] < 3:
                if not fetch_pebble(pebbles, out, x, pinned, log):
                    return False
        if todo[v] < todo[u]:
            u, v = v, u
        todo[u] -= 1
        todo[v] -= 1
        if u not in log:
            log[u] = set(out[u])
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
        pebbles, out, todo, adj = self.pebbles, self.out, self.todo, self.adj
        left_u = len(adj[u]) - todo[u] - 1
        left_v = len(adj[v]) - todo[v] - 1
        x, other, left = (u, v, left_u) if left_u <= left_v else (v, u, left_v)
        if left < 3:
            return False
        escapes: set = set()
        for w in adj[x]:
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


def _copy_board(g: Graph) -> tuple[dict, dict]:
    """A copy of the board of ``g``, decided sparse: every out-set of its
    final orientation, and every vertex's free pebbles."""
    out, pebbles = g._board
    return {t: set(heads) for t, heads in out.items()}, dict(pebbles)


def _undo(board, log) -> None:
    """Put ``board`` back as it was before the trial that wrote ``log``:
    every out-set the trial changed gets back the copy saved before its
    first change, and its vertex three pebbles less its out-degree, as on
    every board."""
    out, pebbles = board
    for t, heads in log.items():
        out[t] = heads
        pebbles[t] = 3 - len(heads)


def _trial(board, adj, todo, cut, added) -> tuple[bool, dict]:
    """Whether the graph reached from G by the delta ``cut``, ``added`` is
    (3,6)-sparse, played in place on ``board``, G's board decided sparse
    (for a graph's first game, G has no edges and the board is empty);
    with the log that ``_undo`` takes back.  ``adj`` gives the neighbour
    sets, in that graph, of the ends of the edges of ``added``, and ``todo``
    the number of them at each end.

    Any valid start is sound.  Lifting the edges of ``cut`` leaves G's
    orientation of the edges the two graphs share.  They span a subgraph of
    a sparse graph, so they are sparse, and an orientation of them with
    out-degree at most three, with three pebbles less the out-degree on
    each vertex, is a valid start: the identity of ``_PebbleGame`` holds
    for it, and that is all gathering pebbles and finding components rely
    on.  Whether pebbles can be gathered and which component the search
    detects depend only on the placed graph, not on the order of placement
    or the start, so the verdict is a cold game's.

    The undo is exact.  The log saves every out-set that the cuts, the
    placements and the path reversals of ``fetch_pebble`` change, as it was
    before the first change, and every vertex of a board holds three
    pebbles less its out-degree (``_PebbleGame``); so putting the logged
    out-sets back gives back the board's out-sets and pebbles exactly.  An interrupted trial is
    undone before the exception leaves.  Until the caller undoes the trial
    or keeps its result, the board is the trial's, so two trials on one
    board must not overlap."""
    log: dict = {}
    try:
        return _PebbleGame(adj, *board, todo, log).play(cut, added), log
    except BaseException:
        _undo(board, log)
        raise


def _contraction_trial(g: Graph, board, e) -> tuple[bool, int, dict]:
    """Whether G/e is (3,6)-sparse, a ``_trial`` on ``board``, the board of
    ``g`` decided sparse; with the end of e the trial removed and the log.

    The end with fewer neighbours (the second on a tie) is merged into the
    other: the graph is G/e up to the merged vertex's name, and fewer edges
    are cut and placed.  Its edges are cut, and the edges it gives the kept
    end are placed, so no child graph is built.  The game reads the
    neighbour sets of the ends of those edges: the kept end's in G/e, and
    G's for each vertex gaining an edge.  That set is as large as in G/e,
    as the vertex loses the removed end and gains the kept one, and the
    component search finds the same in-neighbours in it: the removed end
    has no out-edge left, and the kept one is the placed edge's other end,
    which the search skips."""
    u, v = e
    adj = g._adj
    keep, gone = (v, u) if len(adj[u]) < len(adj[v]) else (u, v)
    at_gone = adj[gone]
    gained = at_gone - adj[keep] - {keep}
    ends = {w: adj[w] for w in gained}
    ends[keep] = (adj[keep] | at_gone) - {keep, gone}
    todo = dict.fromkeys(gained, 1)
    todo[keep] = len(gained)
    sparse, log = _trial(board, ends, todo, [(gone, w) for w in at_gone],
                         [edge_key(keep, w) for w in gained])
    return sparse, gone, log


def _contraction_sparse(g: Graph, e) -> bool:
    """Whether G/e is (3,6)-sparse, for ``g`` decided sparse: a contraction
    trial on ``g``'s own board, undone before it returns."""
    board = g._board
    sparse, _, log = _contraction_trial(g, board, e)
    _undo(board, log)
    return sparse


def _rename_merged(board, child: Graph, e, gone) -> None:
    """Make ``board``, left by a sparse trial of contracting e that removed
    the end ``gone``, a board of ``child``, the graph G/e that
    ``contract_edge`` builds: the entry of ``gone`` goes, and when that was
    e's first end, the one ``child`` keeps, the trial's merged vertex is
    renamed to it."""
    u, v = e
    out, pebbles = board
    del out[gone], pebbles[gone]
    if gone == u:
        out[u], pebbles[u] = out.pop(v), pebbles.pop(v)
        for w in child.neighbors(u):
            heads = out[w]
            if v in heads:
                heads.remove(v)
                heads.add(u)


def _pebble_sparse(g: Graph) -> bool:
    """True iff ``g`` is (3,6)-sparse, decided once per graph by a
    ``_trial`` on the empty board that cuts nothing and adds every edge:
    the final board, or False, stays on ``g``."""
    if g._board is None:
        board = {t: set() for t in g.vertices}, dict.fromkeys(g.vertices, 3)
        todo = {t: len(ns) for t, ns in g._adj.items()}
        sparse, _ = _trial(board, g._adj, todo, (), g.edges)
        g._board = board if sparse else False
    return g._board is not False


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

    The game runs once per graph: its final board, or False for a violating
    graph, is remembered on the ``Graph``, and a later call on it plays no
    game (``_pebble_sparse``).
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
