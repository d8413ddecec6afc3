"""Densest extensions, solved on the pebble game's board.

The selection problem: choose a vertex set S containing ``force_in`` and
avoiding ``force_out`` that maximises |E(G[S])| - 3|S|.  It is a bounded
out-degree orientation question (Hakimi 1965), the one the pebble game
answers (Lee & Streinu 2008).  Every vertex off ``force_out`` holds three
pebbles, those of ``force_in`` none, and each edge with both ends off
``force_out`` is covered by a pebble of one end, fetched along a reversed
out-path when neither end holds one.  An edge whose ends reach no free
pebble stays loose for good: what they reach is closed under out-edges and
no later fetch enters it.  Each S has |E(G[S])| - 3|S \\ force_in| <= #loose,
as an edge of G[S] is loose or covered from S, with equality exactly when S
holds the loose edges' ends, is closed under out-edges and holds no free
pebble.  So the value is #loose - 3|force_in|, the least optimiser is
``force_in`` with all the loose edges' ends reach, and the greatest is every
vertex that reaches no free pebble: the residual reach sets of the
project-selection min cut.  They are the selection problem's own, whichever
largest cover the search finds.
"""

from __future__ import annotations

from . import errors


def fetch_pebble(pebbles, out, root, pinned=()) -> bool:
    """Move a free pebble off ``pinned`` to ``root`` by reversing the
    out-path that reaches it; False when no out-path from ``root`` does.

    ``pebbles`` holds each vertex's free pebbles and ``out`` the out-sets
    of the covered edges' orientation.  Most pebbles lie one edge away, so
    ``root``'s out-set is scanned first and the first head holding one
    gives it up by reversing that edge; only a miss starts the depth-first
    search.  The search meets the heads in that same order and takes the
    first such pebble, so the scan moves the pebble the search would."""
    heads = out[root]
    for y in heads:
        if pebbles[y] and y not in pinned:
            pebbles[y] -= 1
            pebbles[root] += 1
            heads.remove(y)
            out[y].add(root)
            return True
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
    pebbles = {v: 0 if v in force_in else 3 for v in graph.vertices - force_out}
    out = {v: set() for v in pebbles}
    loose = []
    for u, v in graph.edges:
        if u in force_out or v in force_out:
            continue
        if pebbles[u] or not pebbles[v] and fetch_pebble(pebbles, out, u):
            tail, head = u, v
        elif pebbles[v] or fetch_pebble(pebbles, out, v):
            tail, head = v, u
        else:
            loose.append((u, v))
            continue
        pebbles[tail] -= 1
        out[tail].add(head)
    back = {v: [] for v in out}  # the final orientation reversed
    for t, heads in out.items():
        for h in heads:
            back[h].append(t)
    s_min = _reach(out, {x for e in loose for x in e}) | force_in
    s_max = pebbles.keys() - _reach(back, [v for v, p in pebbles.items() if p])
    return len(loose) - 3 * len(force_in), s_min, frozenset(s_max)
