"""The pebble search, and densest extensions solved on the pebble game's board.

``fetch_pebble`` is the one search that moves a pebble, in every game and
trial of ``sparsity`` and in ``densest_extension``, whose log no undo reads.

The selection problem: choose a vertex set S containing ``force_in`` and
avoiding ``force_out`` that maximises |E(G[S])| - 3|S|.  It is a bounded
out-degree orientation question (Hakimi 1965), the one the pebble game
answers (Lee & Streinu 2008).  Every vertex off ``force_out`` holds three
pebbles, but those of ``force_in``, pinned in every search, cover no edge;
each edge with both ends off ``force_out`` is covered by a pebble of one
end, fetched along a reversed out-path when neither end holds one.  An edge
whose ends reach no free pebble stays loose for good: what they reach is
closed under out-edges and no later fetch enters it.  Each S has
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

from . import errors


def fetch_pebble(out, root, pinned, log) -> bool:
    """Move a free pebble off ``pinned`` to ``root`` by reversing the
    out-path that reaches it; False when no out-path from ``root`` does.

    ``out`` is the board (``sparsity._PebbleGame``).  The depth-first
    search takes the first free pebble it meets; its first level is
    ``root``'s out-set, in its order.  Each out-set the reversal changes
    goes to ``log`` before its first change, as ``sparsity._trial``
    states."""
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
