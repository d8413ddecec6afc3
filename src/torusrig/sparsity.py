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
tightness (``_PebbleGame``).

A violation's witness is the component of the failing placement: with the
edges placed in sorted order, the first whose placement leaves the placed
graph not (3,6)-sparse has ends u and v, and the witness is the largest S
holding them that spans 3|S| - 5 placed edges.  The placed graph is
(3,5)-sparse, so that S is unique and depends on the graph alone: u, v and
every vertex that reaches no free pebble off them (``_PebbleGame``), read
off the board at the failure.  A subset-enumeration oracle in the tests
pins it on small graphs.

The key lemma and the greedy reduction ask again and again whether G/e is
sparse, for the hole's graph G, decided already.  So the game's final
board, every vertex's out-set, stays on the graph it decides
(``_pebble_sparse``), and G/e is tried on G's board in place
(``_contraction_trial``); greedy reduction keeps a sparse trial's board as
G/e's (``_contract_board``).  Every game is a ``_trial``, where the start is
shown valid and the undo exact.

A tight extension of a core (``maximal_tight_subgraph``) solves the
selection problem, on a board of its own (``densest_extension``): choose a
vertex set S containing ``force_in`` and avoiding ``force_out`` that
maximises |E(G[S])| - 3|S|.  It is a bounded out-degree orientation
question (Hakimi 1965), the one the pebble game answers.  Every vertex off
``force_out`` holds three pebbles, but those of ``force_in``, pinned in
every search, cover no edge; each edge with both ends off ``force_out`` is
covered by a pebble of one end, fetched along a reversed out-path when
neither end holds one, and no undo reads that fetch's log.  An edge whose
ends reach no free pebble stays loose for good: what they reach is closed
under out-edges and no later fetch enters it.  Each S has
|E(G[S])| - 3|S \\ force_in| <= #loose, as an edge of G[S] is loose or
covered from S, with equality exactly when S holds the loose edges' ends,
is closed under out-edges and holds no free pebble off ``force_in``.  So
the value is #loose - 3|force_in|, the least optimiser is ``force_in`` with
all the loose edges' ends reach, and the greatest is every vertex that
reaches no free pebble off ``force_in``: the residual reach sets of the
project-selection min cut.  They are the selection problem's own, whichever
largest cover the search finds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import errors
from .graphs import Graph, edge_key, freedom


class Status(enum.Enum):
    TIGHT = "Tight"
    SPARSE_NOT_TIGHT = "SparseNotTight"
    VIOLATION = "Violation"


@dataclass(frozen=True, slots=True)
class SparsityVerdict:
    """A sparsity status and, for a violation, a violating vertex set, the
    module docstring's witness."""
    status: Status
    witness: frozenset | None = None

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
    Jacobs & Hendrickson 1997) on a board, ``out``: the out-sets of the
    placed edges' orientation, and nothing else.  ``adj`` gives the
    neighbour sets, in the graph being decided, of the ends of the edges to
    place, and ``todo`` the number of edges still to place at each of them.
    ``log`` is the trial's log, kept as ``_trial`` states.

    Every vertex has three pebbles, and a pebble on a vertex either lies
    free or covers one of its out-edges, so a vertex's free pebbles are
    three less its out-degree, and every vertex set S has
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
    rejected edge, is a (3,6) violation; on a simple graph the component,
    the module docstring's witness, is always found first.

    A vertex's placed degree is its degree in the graph less its edges
    still to place, so no count of the board is kept.
    """

    __slots__ = ("adj", "out", "todo", "log")

    def __init__(self, adj, out: dict, todo: dict, log: dict):
        self.adj = adj
        self.out = out
        self.todo = todo
        self.log = log

    def play(self, cut, added) -> tuple | None:
        """Play a delta: lift the edges of ``cut`` off the board, then place
        those of ``added`` in sorted order; the first edge whose placement
        leaves the placed graph not (3,6)-sparse, else None."""
        out, log = self.out, self.log
        for a, b in cut:
            t, h = (a, b) if b in out[a] else (b, a)
            if t not in log:
                log[t] = out[t]
                out[t] = set(out[t])
            out[t].remove(h)
        for a, b in sorted(added):
            if not self.place(a, b):
                return a, b
        return None

    def place(self, u, v) -> bool:
        """Place edge uv; False when the placed graph stops being
        (3,6)-sparse."""
        out, todo, log = self.out, self.todo, self.log
        pinned = (u, v)
        for x in pinned:
            while out[x]:
                if not fetch_pebble(out, x, pinned, log):
                    return False
        if todo[v] < todo[u]:
            u, v = v, u
        todo[u] -= 1
        todo[v] -= 1
        if u not in log:
            log[u] = out[u]
            out[u] = set(out[u])
        out[u].add(v)
        return not self._big_component(u, v)

    def _big_component(self, u, v) -> bool:
        """Whether the (3,5)-tight component of the placed edge uv has three
        or more vertices.

        Before the placement u and v hold all their six pebbles, so no other
        out-edge leaves them: the covered edge, from either end, is the only
        one, and every other placed edge at u or v points into it.  The
        component S (``_PebbleGame``) is big exactly when some vertex
        reaches no free pebble off u and v, called dead here.

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
        out, todo, adj = self.out, self.todo, self.adj
        left_u = len(adj[u]) - todo[u] - 1
        left_v = len(adj[v]) - todo[v] - 1
        x, other, left = (u, v, left_u) if left_u <= left_v else (v, u, left_v)
        if left < 3:
            return False
        escapes: set = set()
        for w in adj[x]:
            if w == other or x not in out[w]:
                continue
            if len(out[w]) == 3 and w not in escapes:
                parent = {w: None}
                stack = [w]
                while stack:
                    t = stack.pop()
                    for y in out[t]:
                        if y in parent or y == u or y == v:
                            continue
                        parent[y] = t
                        if len(out[y]) < 3 or y in escapes:
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


def fetch_pebble(out, root, pinned, log) -> bool:
    """Move a free pebble off ``pinned`` to ``root`` on the board ``out``
    by reversing the out-path that reaches it; False when no out-path from
    ``root`` does.

    The depth-first search takes the first free pebble it meets; its first
    level is ``root``'s out-set, in its order.  Each out-set the reversal
    changes goes to ``log`` before its first change, as ``_trial`` states."""
    parent = {root: None}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in out[x]:
            if y in parent:
                continue
            parent[y] = x
            if len(out[y]) < 3 and y not in pinned:
                while y != root:
                    x = parent[y]
                    if x not in log:
                        log[x] = out[x]
                        out[x] = set(out[x])
                    if y not in log:
                        log[y] = out[y]
                        out[y] = set(out[y])
                    out[x].remove(y)
                    out[y].add(x)
                    y = x
                return True
            stack.append(y)
    return False


def _reach(step, start) -> frozenset:
    """Every vertex reached from ``start`` along ``step``."""
    seen = set(start)
    stack = list(seen)
    while stack:
        for y in step[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def _dead(out, spent) -> frozenset:
    """The vertices of the board ``out`` that reach no free pebble off
    ``spent``: those the reversed orientation misses from one."""
    back = {v: [] for v in out}
    for t, heads in out.items():
        for h in heads:
            back[h].append(t)
    return frozenset(out.keys() - _reach(back, [v for v, heads in out.items()
                                                if len(heads) < 3 and v not in spent]))


def densest_extension(graph, force_in, force_out=()):
    """Maximise |E(G[S])| - 3|S| over force_in <= S, S disjoint from force_out.

    Returns (best value, minimal optimal S, maximal optimal S).  The optimal
    sets form a lattice, so the minimal and maximal optimisers are unique.
    BadArgument when the two sets overlap or name a vertex not in the graph.
    """
    force_in = frozenset(force_in)
    force_out = frozenset(force_out)
    if force_in & force_out:
        raise errors.BadArgument("force_in and force_out overlap")
    unknown = (force_in | force_out) - graph.vertices
    if unknown:
        raise errors.BadArgument(f"vertices {sorted(unknown)} are not in the graph")
    out = {v: set() for v in graph.vertices - force_out}
    loose, log = [], {}

    def free(x):
        return len(out[x]) < 3 and x not in force_in

    for u, v in graph.edges:
        if u in force_out or v in force_out:
            continue
        if free(u) or not free(v) and fetch_pebble(out, u, force_in, log):
            out[u].add(v)
        elif free(v) or fetch_pebble(out, v, force_in, log):
            out[v].add(u)
        else:
            loose.append((u, v))
    s_min = _reach(out, {x for e in loose for x in e}) | force_in
    return len(loose) - 3 * len(force_in), s_min, _dead(out, force_in)


def _copy_board(g: Graph) -> dict:
    """A copy of the board of ``g``, decided sparse: every out-set of its
    final orientation."""
    return {t: set(heads) for t, heads in g._board.items()}


def _trial(board, adj, todo, cut, added) -> tuple[tuple | None, dict]:
    """Whether the graph reached from G by the delta ``cut``, ``added`` is
    (3,6)-sparse, played in place on ``board``, G's board decided sparse
    (for a graph's first game, G has no edges and the board is empty): None
    if so, else the failing edge (``_PebbleGame.play``), whose component the
    board holds until ``board.update(log)`` takes the trial back, returned
    with the log.  ``adj`` gives the neighbour sets, in that graph, of the
    ends of the edges of ``added``, and ``todo`` the number of them at each
    end.

    Any valid start is sound.  Lifting the edges of ``cut`` leaves G's
    orientation of the edges the two graphs share.  They span a subgraph of
    a sparse graph, so they are sparse, and an orientation of them with
    out-degree at most three is a valid start: the identity of
    ``_PebbleGame`` holds for it, and that is all gathering pebbles and
    finding components rely on.  Whether pebbles can be gathered and which
    component the search detects depend only on the placed graph, not on
    the order of placement or the start, so the verdict is a cold game's.

    The undo is exact.  Before a vertex's out-set first changes, by a cut,
    a placement or a path reversal of ``fetch_pebble``, the log keeps the
    set object by its tail and the board gets a copy to change, so no kept
    object ever changes.  So putting the kept objects back gives back the
    board exactly, each out-set in its own iteration order, and a repeated
    trial fetches along the same paths.  An interrupted trial is undone
    before the exception leaves.  Until the caller undoes the trial or keeps
    its result, the board is the trial's, so two trials on one board must
    not overlap."""
    log: dict = {}
    try:
        return _PebbleGame(adj, board, todo, log).play(cut, added), log
    except BaseException:
        board.update(log)
        raise


def _contraction_trial(adj, board, e) -> tuple[tuple | None, int, dict]:
    """Whether G/e is (3,6)-sparse, a ``_trial`` on ``board``, the board of
    G decided sparse, for ``adj`` G's neighbour sets (a graph's, or the
    working adjacency of a chain of contractions): None or the failing
    edge; with the end of e the trial removed and the log.

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
    keep, gone = (v, u) if len(adj[u]) < len(adj[v]) else (u, v)
    at_gone = adj[gone]
    gained = at_gone - adj[keep] - {keep}
    ends = {w: adj[w] for w in gained}
    ends[keep] = (adj[keep] | at_gone) - {keep, gone}
    todo = dict.fromkeys(gained, 1)
    todo[keep] = len(gained)
    failed, log = _trial(board, ends, todo, [(gone, w) for w in at_gone],
                         [edge_key(keep, w) for w in gained])
    return failed, gone, log


def _contraction_violator(g: Graph, e) -> frozenset | None:
    """None when G/e is (3,6)-sparse, else a violating set of G/e, for ``g``
    decided sparse: the module docstring's witness of a contraction trial on
    ``g``'s own board, which places the edges G/e gains at the kept end,
    read before the trial is undone.  It holds the kept end, not the other."""
    board = g._board
    failed, _, log = _contraction_trial(g._adj, board, e)
    try:
        return None if failed is None else _dead(board, failed)
    finally:
        board.update(log)


def _contract_board(adj, board, e) -> bool:
    """Whether G/e is (3,6)-sparse, a ``_contraction_trial`` on ``board``,
    G's board decided sparse, for ``adj`` G's neighbour sets.  A failed
    trial is undone.  A sparse one leaves a board of G/e with e's second end
    merged into its first: the removed end's entry goes, and when that was
    e's first end, the merged vertex is renamed to it."""
    failed, gone, log = _contraction_trial(adj, board, e)
    if failed is not None:
        board.update(log)
        return False
    u, v = e
    del board[gone]
    if gone == u:
        board[u] = board.pop(v)
        for w in (adj[u] | adj[v]) - {u, v}:
            heads = board[w]
            if v in heads:
                heads.remove(v)
                heads.add(u)
    return True


def _pebble_sparse(g: Graph) -> bool:
    """True iff ``g`` is (3,6)-sparse, decided once per graph by a
    ``_trial`` on the empty board that cuts nothing and adds every edge:
    the final board, or the witness of a violation, stays on ``g``."""
    if g._board is None:
        board = {t: set() for t in g.vertices}
        todo = {t: len(ns) for t, ns in g._adj.items()}
        failed, _ = _trial(board, g._adj, todo, (), g.edges)
        g._board = board if failed is None else _dead(board, failed)
    return isinstance(g._board, dict)


def check_3_6(graph: Graph) -> SparsityVerdict:
    """Decide (3,6)-sparsity/tightness, with the module docstring's
    witness for a violation; one game per graph (``_pebble_sparse``)."""
    if len(graph.vertices) < 3:
        raise errors.TooFewVertices("(3,6)-sparsity needs at least 3 vertices")
    if _pebble_sparse(graph):
        return _sparse_verdict(graph)
    return SparsityVerdict(Status.VIOLATION, graph._board)


def maximal_tight_subgraph(graph: Graph, core, exclude=()) -> frozenset | None:
    """The unique maximal S with f(G[S]) = 6 containing ``core``, avoiding
    ``exclude``; None when every such extension is denser than tight allows
    or the core cannot reach freedom 6.

    Tight vertex sets through a common tight core are closed under union
    only on a (3,6)-sparse graph, so a graph that is not is refused with
    BadArgument, decided once per graph as ``check_3_6`` decides it.
    """
    if not _pebble_sparse(graph):
        raise errors.BadArgument("maximal_tight_subgraph needs a (3,6)-sparse graph")
    value, _s_min, s_max = densest_extension(graph, core, exclude)
    if value != -6:
        return None
    return s_max


def is_in_T(hole) -> bool:
    """Membership in the class of (3,6)-tight single-hole torus graphs."""
    if len(hole.discs) != 1:
        return False
    return check_3_6(hole.graph).is_tight
