"""Oracles and builders that only the tests use.

The package keeps the decide, classify, reduce and certify path; these are
the slow cross-checks (dense modular and rational rank, subset-enumeration
sparsity and witnesses, the per-edge flow scan, also at a contraction's
merged vertex, the pebble game's component search without its shortcuts, a
pebble fetch by the full out-path search alone,
exhaustive critical-cycle search over connected regions, the
contraction rule from scans of the faces and edges, the candidate scan of
every edge, greedy reduction that carries the hole through every step,
the contraction and the vertex split that build a new graph per move, the
complementary region by scans of every face and edge, the slot-based disc unfolding, hole growth that
builds a disc after every added face, the record and face-list checks one
field at a time, walk alignments by consistency of the vertex map, the
disc region in two passes, the hole graph by the generic build and the
3n-face collar refill),
the builders (face-graph quotients, separating cycles from a region, vertex
splits on a torus, a certificate's chain of graphs) that tests compare
that path against, every torus on
seven to nine vertices by a search of the flip graph, the records the
keylemma benchmark draws, and an in-process CLI runner.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

from torusrig import cli, errors, rigidity, sparsity
from torusrig.catalog import _classes
from torusrig.complexes import (ClosedWalk, DiscMap, SurfaceComplex,
                                TorusComplex, TorusWithHole, _face_edges,
                                _face_tuple, _Region, _symmetries,
                                disc_structures, grid_faces)
from torusrig.corpus import MAX_REGION, CorpusSpec, corpus_records
from torusrig.fileio import _items
from torusrig.graphs import Graph, _graph_of, _working, edge_key
from torusrig.reduction import (Contraction, EdgeClass, SeparatingCycle,
                                _region_criticals, contract)
from torusrig.rigidity import rank_at_placement as _rank_at_placement
from torusrig.sparsity import (SparsityVerdict, Status, _PebbleGame,
                               _sparse_verdict, check_3_6, densest_extension)

BRUTE_FORCE_CAP = 16

#: the specs of the ``corpus9`` and ``corpus_cuts`` fixtures
CORPUS9_SPEC = CorpusSpec(seed=20260809, count=200,
                          grids=((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (6, 6)))
CORPUS_CUTS_SPEC = CorpusSpec(seed=987, count=500,
                              grids=((4, 4), (4, 5), (5, 5)),
                              boundary_lengths=tuple(range(3, 13)))


def keylemma_records(seed: int, per_grid: int) -> list[dict]:
    """The first ``per_grid`` tight records of each grid that the keylemma
    benchmark draws at ``seed``: grids 3x4, 3x5, 4x4 and 3x6, each drawn one
    record at a time from a generator seeded "<seed>:<r>x<s>"."""
    records = []
    for r, s in ((3, 4), (3, 5), (4, 4), (3, 6)):
        rng = random.Random(f"{seed}:{r}x{s}")
        drawn = (corpus_records(CorpusSpec(seed=rng.getrandbits(32), count=1,
                                           grids=((r, s),)))[0]
                 for _ in itertools.count())
        records += itertools.islice(
            (rec for rec in drawn if rec["meta"]["status"] == "Tight"), per_grid)
    return records


def run_main(args, record) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(args)`` run in-process with
    the JSON record on stdin, which the CLI reads as bytes."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(json.dumps(record).encode()), encoding="utf-8")
    with mock.patch("sys.stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def record_ranks(monkeypatch, short=lambda g, placement: False) -> list:
    """Every ``rigidity.rank_at_placement`` call from now on, as (graph,
    placement) pairs, each through the kernel; a call that ``short`` picks
    reports one less than the rank.  Another call replaces the recorder."""
    calls = []

    def recorded(g, placement):
        calls.append((g, placement))
        return _rank_at_placement(g, placement) - bool(short(g, placement))

    monkeypatch.setattr(rigidity, "rank_at_placement", recorded)
    return calls


def dense_rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) by dense Gaussian elimination, every entry reduced
    after every update, columns in the given order; the reference for
    ``rigidity.rank_at_placement`` on ``rigidity_matrix``."""
    if not rows:
        return 0
    rows = [[x % p for x in row] for row in rows]
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = pow(pr[c], -1, p)
        if inv != 1:
            rows[rank] = pr = [(x * inv) % p for x in pr]
        for i in range(rank + 1, len(rows)):
            ri = rows[i]
            f = ri[c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(ri, pr)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def rank_rational(rows) -> int:
    """Rank over the rationals; cross-check for ``rigidity.rank_at_placement``
    on small integer placements."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / pr[c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def brute_force_3_6(g: Graph) -> SparsityVerdict:
    """Exhaustive reference oracle over all vertex subsets of size >= 3;
    BadArgument above ``BRUTE_FORCE_CAP`` vertices."""
    n = len(g.vertices)
    if n < 3:
        raise errors.TooFewVertices("(3,6)-sparsity needs at least 3 vertices")
    if n > BRUTE_FORCE_CAP:
        raise errors.BadArgument(f"{n} vertices exceeds the cap of {BRUTE_FORCE_CAP}")
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


def flow_scan(g: Graph, edges) -> SparsityVerdict:
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


def _span_counts(n: int, edges) -> list[int]:
    """The number of ``edges``, pairs of positions below n, that each
    vertex subset spans, indexed by the subset's bit mask."""
    nbr = [0] * n
    for a, b in edges:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    counts = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        counts[mask] = counts[rest] + (nbr[low.bit_length() - 1] & rest).bit_count()
    return counts


def first_violator(g: Graph, order=None) -> frozenset | None:
    """``check_3_6``'s witness by subset enumeration: None for a
    (3,6)-sparse graph, else, for the first edge of ``order`` (the sorted
    edges by default) whose prefix of ``order`` is not (3,6)-sparse, the
    largest vertex set that holds its ends and spans 3|S| - 5 prefix edges.
    That set is the union of all such sets, which is checked.  BadArgument
    above ``BRUTE_FORCE_CAP`` vertices."""
    verts = sorted(g.vertices)
    n = len(verts)
    if n > BRUTE_FORCE_CAP:
        raise errors.BadArgument(f"{n} vertices exceeds the cap of {BRUTE_FORCE_CAP}")
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in order or g.sorted_edges()]
    sizes = [mask.bit_count() for mask in range(1 << n)]

    def breaks_at(m) -> int:
        """The position of the edge at which the set m first violates, the
        (3|S| - 5)-th edge that it spans."""
        inside = (k for k, (a, b) in enumerate(edges) if m >> a & m >> b & 1)
        return next(itertools.islice(inside, 3 * sizes[m] - 6, None))

    breaks = [breaks_at(m) for m, c in enumerate(_span_counts(n, edges))
              if sizes[m] >= 3 and c > 3 * sizes[m] - 6]
    if not breaks:
        return None
    last = min(breaks)
    a, b = edges[last]
    ends = 1 << a | 1 << b
    tight = [m for m, c in enumerate(_span_counts(n, edges[:last + 1]))
             if m & ends == ends and c == 3 * sizes[m] - 5]
    largest = max(tight, key=sizes.__getitem__)
    assert all(m | largest == largest for m in tight)
    return frozenset(verts[i] for i in range(n) if largest >> i & 1)


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Merge v into u (simple-graph contraction, parallel edges coalesce).
    BadArgument unless u and v are ``int``s."""
    if type(u) is not int or type(v) is not int:
        raise errors.BadArgument(f"edge {(u, v)!r} is not a pair of integers")
    if edge_key(u, v) not in g.edges:
        raise errors.NotAnEdge(f"({u},{v})")
    at_v = g._adj[v]
    gained = at_v - g._adj[u] - {u}  # v's neighbours that u did not have
    edges = (g.edges - {edge_key(v, w) for w in at_v}
             | {edge_key(u, w) for w in gained})
    return Graph(g.vertices - {v}, edges, _keyed=True)


def split_vertex(g: Graph, v1: int, v2: int, v3: int, moved_edges,
                 new_vertex: int) -> Graph:
    """Vertex split at v1 with anchor neighbours v2, v3.

    The vertex ``new_vertex`` is added and joined to v1, v2, v3, and each
    edge v1--t in ``moved_edges`` is replaced by new_vertex--t.
    BadArgument unless v1, v2, v3, ``new_vertex`` and the ends of each
    moved edge are ``int``s.
    """
    for x in (v1, v2, v3, new_vertex):
        if type(x) is not int:
            raise errors.BadArgument(f"vertex {x!r} is not an integer")
    if v1 not in g._adj:
        raise errors.InvalidAnchors(f"{v1} is not a vertex of the graph")
    if v2 not in g._adj[v1] or v3 not in g._adj[v1] or v2 == v3:
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
        if e not in g.edges or v1 not in e:
            raise errors.NotAnEdge(f"{e} is not an edge at {v1}")
        t = e[0] if e[1] == v1 else e[1]
        if t in (v2, v3):
            raise errors.InvalidAnchors("anchor edges cannot be moved")
        moved.add(t)
    if new_vertex in g.vertices:
        raise errors.NonSimple(f"vertex id {new_vertex} already in use")
    edges = (g.edges - {edge_key(v1, t) for t in moved}
             | {edge_key(new_vertex, t) for t in moved | {v1, v2, v3}})
    return Graph(g.vertices | {new_vertex}, edges, _keyed=True)


def both_moves(reference, move, g: Graph, *args) -> Graph:
    """A move made twice: by ``reference`` (``contract_edge`` or
    ``split_vertex``) on g, and by the package's in-place ``move``
    (``graphs._contract_in_place`` or ``graphs._split_in_place``) on a
    working adjacency of g.  Both give the same graph, with the same
    neighbour sets, or raise the same error with the same message, and a
    refused in-place move leaves its adjacency as it was; the graph is
    returned, the error raised."""
    adj = _working(g)
    try:
        want = reference(g, *args)
    except Exception as exc:
        try:
            move(adj, *args)
        except Exception as got:
            assert (type(got), str(got)) == (type(exc), str(exc)), (got, exc)
            assert adj == g._adj
            raise
        raise AssertionError(f"the in-place move takes what the reference refuses: {exc!r}")
    move(adj, *args)
    got = _graph_of(adj)
    assert got == want and got._adj == want._adj == adj
    return want


def candidate_scan(graph: Graph, border) -> list[tuple[int, int]]:
    """The sorted FF edges, the graph's edges off ``border`` (the edges of
    the boundary walks), that pass greedy reduction's rule, by a scan of
    every edge.  The oracle for the candidate set that ``reduction._reduce``
    keeps and recounts only where a move changes it."""
    adj = graph._adj
    return sorted([e for e in graph.edges - border
                   if len(adj[e[0]] & adj[e[1]]) == 2])


def scan_violator(g: Graph, e) -> frozenset | None:
    """A violator of G/e as the key-lemma search once found it, for ``g``
    tight: None when a fresh G/e is sparse, else the first violating set of
    the flow scan of the edges at the merged vertex z = e[0] of
    ``contract_edge(g, *e)``, in order of their other end.  z lies in e,
    so its union with e is the lift the search takes."""
    z = e[0]
    h = contract_edge(g, *e)
    if check_3_6(h).status is not Status.VIOLATION:
        return None
    return flow_scan(h, [edge_key(z, w) for w in sorted(h.neighbors(z))]).witness


def violates_3_6(g: Graph, s) -> bool:
    """Whether the vertex set ``s`` of three or more vertices spans more
    than 3|s| - 6 edges of ``g``."""
    return len(s) >= 3 and len(induced(g, s).edges) > 3 * len(s) - 6


def replay_chain(cert) -> list[Graph]:
    """Every graph of a certificate's replay, K3 first: the splits applied
    one at a time, as ``Certificate.target`` applies them, each graph
    kept."""
    a, b, c = cert.base_vertices
    graphs = [Graph([a, b, c], [(a, b), (a, c), (b, c)])]
    for s in cert.splits:
        graphs.append(split_vertex(
            graphs[-1], s.vertex, *s.anchors, [(s.vertex, t) for t in s.moved],
            s.new_vertex))
    return graphs


def is_connected(g: Graph) -> bool:
    if not g.vertices:
        return True
    seen = set()
    stack = [next(iter(g.vertices))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(g.neighbors(v) - seen)
    return len(seen) == len(g.vertices)


def induced(g: Graph, vertex_set) -> Graph:
    """The subgraph of g induced on ``vertex_set``."""
    s = frozenset(vertex_set)
    return Graph(s, (e for e in g.edges if e[0] in s and e[1] in s))


def tight_plus_one_edge(rng, n_core, n_outer):
    """A tight graph grown by 0-extensions (a new vertex joined to three old
    ones) from a triangle: the first ``n_core`` vertices span a tight subset
    S, and one more edge between two non-adjacent vertices of S makes S
    violate.  Vertex ids are shuffled, so the edge that closes the violation
    comes anywhere in the sorted placement order."""
    edges = {(0, 1), (0, 2), (1, 2)}
    for z in range(3, n_core + n_outer):
        edges |= {(a, z) for a in rng.sample(range(z), 3)}
    missing = [(a, b) for a in range(n_core) for b in range(a + 1, n_core)
               if (a, b) not in edges]
    edges.add(rng.choice(missing))
    label = list(range(n_core + n_outer))
    rng.shuffle(label)
    return Graph(label, [(label[a], label[b]) for a, b in edges])


def random_parent(rng, kind, n):
    """A graph on n vertices of the given kind: tight (0-extensions from a
    triangle), sparse but not tight (a tight graph less one to three edges)
    or violating (a tight graph plus one edge inside a tight subset)."""
    if kind == "violating":
        n_core = rng.randint(5, n)
        return tight_plus_one_edge(rng, n_core, n - n_core)
    edges = {(0, 1), (0, 2), (1, 2)}
    for z in range(3, n):
        edges |= {(a, z) for a in rng.sample(range(z), 3)}
    if kind == "sparse":
        edges -= set(rng.sample(sorted(edges), rng.randint(1, 3)))
    return Graph(range(n), edges)


def brute_force_densest_extension(g: Graph, force_in, force_out=()):
    """``(value, s_min, s_max)`` of ``sparsity.densest_extension`` by
    enumerating every S with force_in <= S and S disjoint from force_out:
    the best |E(G[S])| - 3|S|, and the intersection and the union of the
    sets that reach it."""
    force_in = frozenset(force_in)
    optional = sorted(g.vertices - force_in - frozenset(force_out))
    best, optimal = None, []
    for mask in range(1 << len(optional)):
        s = force_in | {v for i, v in enumerate(optional) if mask >> i & 1}
        value = len(induced(g, s).edges) - 3 * len(s)
        if best is None or value > best:
            best, optimal = value, []
        if value == best:
            optimal.append(s)
    return best, frozenset.intersection(*optimal), frozenset.union(*optimal)


def record_pebble_games(monkeypatch) -> tuple[dict, list]:
    """From now on, ``{id(g): (g, edges placed)}`` for every graph g whose
    whole game is played (``sparsity._pebble_sparse`` on g undecided), and
    every edge placed, by those games and by trials, in order; g is kept so
    that no other graph takes its id."""
    games, placed = {}, []
    real_place, real_sparse = _PebbleGame.place, sparsity._pebble_sparse

    def counting_place(self, u, v):
        placed.append((u, v))
        return real_place(self, u, v)

    def recording_sparse(g):
        if g._board is not None:
            return real_sparse(g)
        start = len(placed)
        result = real_sparse(g)
        games[id(g)] = (g, placed[start:])
        return result

    monkeypatch.setattr(_PebbleGame, "place", counting_place)
    monkeypatch.setattr(sparsity, "_pebble_sparse", recording_sparse)
    return games, placed


def holds(obj, target) -> bool:
    """Whether ``target`` is reachable from ``obj`` through graphs and
    containers."""
    seen, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if x is target:
            return True
        if id(x) not in seen and isinstance(
                x, (Graph, tuple, list, dict, set, frozenset)):
            seen.add(id(x))
            stack.extend(gc.get_referents(x))
    return False


def board_state(board) -> dict:
    """A frozen copy of a pebble board: every out-set."""
    return {t: frozenset(heads) for t, heads in board.items()}


def assert_board_of(out, g: Graph):
    """``out``, on ``g``'s vertices, orients each edge of ``g`` once with
    out-degree at most three: a board of ``g`` that a pebble game may start
    from."""
    out = {t: out[t] for t in g.vertices}
    pairs = sorted(edge_key(t, h) for t, heads in out.items() for h in heads)
    assert pairs == g.sorted_edges()
    assert all(len(heads) <= 3 for heads in out.values())


def fetch_pebble_reference(out, root, pinned=()) -> bool:
    """``sparsity.fetch_pebble`` without its log: a depth-first search of
    the out-paths from ``root``, which takes the first free pebble off
    ``pinned`` that it meets, on a vertex with fewer than three out-edges,
    and reverses the path to it in place."""
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
                    out[x].remove(y)
                    out[y].add(x)
                    y = x
                return True
            stack.append(y)
    return False


def big_component_oracle(game: _PebbleGame, u, v) -> bool:
    """Whether the (3,5)-tight component of the edge uv just placed on
    ``game`` has three or more vertices, by a forward search from every
    in-neighbour of u and v other than u and v, found by scanning every
    out-set: no degree test, no start skipped for its pebbles, and a
    vertex tested for a free pebble, fewer than three out-edges, when it is
    popped.  The reference for ``_PebbleGame._big_component``."""
    out = game.out
    escapes: set = set()
    for w in {t for t, heads in out.items() if u in heads or v in heads} - {u, v}:
        parent = {w: None}
        stack = [w]
        while stack:
            x = stack.pop()
            if x in escapes or len(out[x]) < 3:
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


@contextlib.contextmanager
def component_oracle_checked():
    """Within the block, every pebble game checks its component verdict
    against ``big_component_oracle`` at each placement.  Yields a counter
    of ``(placed degree of u or v below four, verdict)`` over the
    placements, to show which cases ran."""
    real = _PebbleGame._big_component
    seen = Counter()

    def checked(game, u, v):
        got = real(game, u, v)
        want = big_component_oracle(game, u, v)
        if got is not want:
            raise AssertionError(f"component of {(u, v)}: {got}, oracle {want}")
        low = min(sum(x in heads for heads in game.out.values()) + len(game.out[x])
                  for x in (u, v)) < 4
        seen[low, got] += 1
        return got

    with mock.patch.object(_PebbleGame, "_big_component", checked):
        yield seen


def edge_rule_oracle(hole: TorusWithHole, e) -> tuple[EdgeClass, tuple]:
    """The class of a graph edge under the contraction rule, and the third
    corners of its torus faces in face order, from scans of every torus
    face and every graph vertex: BOUNDARY_INCIDENT_FACE unless both torus
    faces at e are retained; then FF_CONTRACTIBLE when the ends' common
    graph neighbours are exactly the two third corners, else FF_BLOCKED.
    The reference for ``reduction.classify_edge`` that shares none of its
    code."""
    u, v = e
    at_e = [i for i, f in enumerate(hole.torus.faces) if u in f and v in f]
    apexes = tuple(next(x for x in hole.torus.faces[i] if x not in e) for i in at_e)
    if any(i in hole.hole_faces for i in at_e):
        return EdgeClass.BOUNDARY_INCIDENT_FACE, apexes
    edges = hole.graph.edges
    common = {w for w in hole.graph.vertices - set(e)
              if edge_key(u, w) in edges and edge_key(v, w) in edges}
    if common == set(apexes):
        return EdgeClass.FF_CONTRACTIBLE, apexes
    return EdgeClass.FF_BLOCKED, apexes


def face_candidates(graph: Graph, faces) -> tuple[dict, list]:
    """The apexes of each edge of the retained ``faces``, in face order, and
    the sorted edges with two apexes whose ends have no other common
    neighbour: greedy reduction's rule read off a face map.  The oracle for
    the candidates of ``reduction._reduce``, which reads the graph and the
    boundary walk and keeps no face map."""
    apexes: dict = {}
    for f in faces:
        for i in range(3):
            u, v, w = f[i], f[(i + 1) % 3], f[(i + 2) % 3]
            apexes.setdefault(edge_key(u, v), []).append(w)
    return apexes, sorted(
        e for e, xs in apexes.items() if len(xs) == 2
        and graph.neighbors(e[0]) & graph.neighbors(e[1]) <= set(xs))


def contract_faces_stepwise(faces, edges) -> list:
    """The retained faces contracted along ``edges`` one at a time: at each
    edge its two faces dropped and its gone end renamed keep.  The oracle
    for ``reduction._contract_faces``, which renames once."""
    for keep, gone in edges:
        faces = [tuple(keep if x == gone else x for x in f) for f in faces
                 if keep not in f or gone not in f]
    return list(faces)


def walk_runs(b) -> int:
    """m: a walk's positions split greedily from position 0 into runs whose
    spanned vertices are distinct; one run when the walk is simple.  The
    fill of ``retriangulate_holes`` has one fresh apex per run."""
    if len(set(b)) == len(b):
        return 1
    m, run = 1, {b[0]}
    for t in range(len(b)):
        v = b[(t + 1) % len(b)]
        if v in run:
            m, run = m + 1, {b[t]}
        run.add(v)
    return m


def collar_refill(retained_faces, walks) -> TorusWithHole:
    """The retained faces closed by a collar over each walk: from its
    canonical rotation, a ring of n fresh vertices and a coned centre, 3n
    faces.  The reference for ``retriangulate_holes``, whose fill keeps the
    collar's one property, a fresh end on every interior edge, in n + 2m - 2
    faces: both give the same graph, walks and kept edges."""
    faces = [tuple(f) for f in retained_faces]
    next_id = max(itertools.chain((v for f in faces for v in f if type(v) is int),
                                  *(w.vertices for w in walks)), default=0) + 1
    regions = []
    for w in walks:
        b = w.canonical()
        n = len(b)
        ring = list(range(next_id, next_id + n))
        centre = next_id + n
        next_id += n + 1
        regions.append((range(len(faces), len(faces) + 3 * n), w))
        for t in range(n):
            faces.append((b[t], b[(t + 1) % n], ring[t]))
            faces.append((b[(t + 1) % n], ring[t], ring[(t + 1) % n]))
            faces.append((ring[t], ring[(t + 1) % n], centre))
    torus = TorusComplex(faces)
    discs = []
    for idxs, w in regions:
        edges = w.edges()
        keeps = {e for e in edges if edges.count(e) > 1}
        discs.append(DiscMap(torus, idxs, keep_edges=keeps))
    return TorusWithHole(torus, discs)


def hole_reduce_greedy(hole: TorusWithHole) -> tuple[TorusWithHole, list[Contraction]]:
    """Greedy reduction that carries the hole through every step: each
    step takes the first edge, in sorted order, that ``edge_rule_oracle``
    finds contractible, whose graph contraction is tight and whose
    ``contract`` succeeds.  The oracle for ``reduction._reduce``, which
    reads only the graph and its walk; its moves and leaf graph are the
    same, and its leaf hole is ``reduce_greedy``'s."""
    if not check_3_6(hole.graph).is_tight:
        raise errors.NotTight("greedy reduction needs a tight single-hole graph")
    current = hole
    moves: list[Contraction] = []
    while cand := [e for e in current.graph.sorted_edges()
                   if edge_rule_oracle(current, e)[0] is EdgeClass.FF_CONTRACTIBLE]:
        for e in cand:
            if not check_3_6(contract_edge(current.graph, *e)).is_tight:
                continue
            try:
                result = contract(current, e)
            except errors.NotContractible:
                continue
            keep, gone = e
            apexes = edge_rule_oracle(current, e)[1]
            moved = current.graph.neighbors(gone) - {keep} - set(apexes)
            moves.append(Contraction(e, apexes, frozenset(moved)))
            current = result
            break
        else:
            raise errors.StuckButContractible(
                f"no tightness-preserving contraction among {len(cand)} "
                "contractible edges")
    return current, moves


# -- patterns of the detachment forms ----------------------------------------


def num_vertices(pattern) -> int:
    """Distinct vertices of a walk pattern."""
    return len(set(pattern))


def num_edges(pattern) -> int:
    """Distinct edges of a cyclic walk pattern."""
    n = len(pattern)
    return len({frozenset((pattern[i], pattern[(i + 1) % n]))
                for i in range(n)})


# -- record and face-list checks ---------------------------------------------


def check_record_oracle(record) -> None:
    """``fileio._check_record`` as one ``_items`` check per field, in field
    order: MalformedRecord naming the first bad field.  The reference for
    the error that the one-comprehension face check falls back to."""
    if not isinstance(record, dict) or type(record.get("vertices")) is not int:
        raise errors.MalformedRecord("record must be an object with integer vertices")
    if not isinstance(record.get("meta", {}), dict):
        raise errors.MalformedRecord("meta must be an object")
    faces = _items(record.get("faces"), "faces")
    for i, f in enumerate(faces):
        _items(f, f"faces[{i}]", 3, ints=True)
    for i, h in enumerate(_items(record.get("holes", []), "holes")):
        field = f"holes[{i}]"
        if isinstance(h, dict):
            for k, e in enumerate(_items(h.get("keep", []), f"{field}.keep")):
                _items(e, f"{field}.keep[{k}]", 2, ints=True)
            h, field = h.get("faces"), f"{field}.faces"
        for k, x in enumerate(_items(h, field, ints=True)):
            if not 0 <= x < len(faces):
                raise errors.MalformedRecord(f"{field}[{k}]: {x} is not a face index")


def canon_face(face):
    """Rotate a corner triple so the smallest corner comes first.

    Cyclic order (orientation) is preserved; only the starting point changes.
    """
    a, b, c = face
    if a <= b and a <= c:
        return face
    return (b, c, a) if b <= c else (c, a, b)


def surface_complex_oracle(faces) -> None:
    """The checks of ``SurfaceComplex(faces)`` one at a time: the first
    face that is not three comparable corners, repeats a corner or repeats a
    corner set; then, from a separate edge -> faces map, the first edge in
    three or more faces; then the first face with a corner that is not an
    integer.  The reference for the order of its errors."""
    canon, corner_sets = [], set()
    for face in faces:
        try:
            f = canon_face(tuple(face))
        except (TypeError, ValueError):
            raise errors.BadArgument(
                f"face {face!r} is not three comparable corners") from None
        if len(set(f)) != 3:
            raise errors.LoopEdge(f"face {f} repeats a corner")
        if frozenset(f) in corner_sets:
            raise errors.DuplicateFace(f"face {f} occurs twice")
        corner_sets.add(frozenset(f))
        canon.append(f)
    edge_faces: dict = {}
    for idx, f in enumerate(canon):
        for e in _face_edges(f):
            edge_faces.setdefault(e, []).append(idx)
    for e, fs in edge_faces.items():
        if len(fs) > 2:
            raise errors.EdgeInThreeFaces(f"edge {e} lies in {len(fs)} faces")
    for f in canon:
        if any(type(v) is not int for v in f):
            raise errors.BadArgument(f"face {f} has a corner that is not an integer")


def raised(fn, *args):
    """``(type, message)`` of the TorusRigError that ``fn(*args)`` raises,
    or None."""
    try:
        fn(*args)
    except errors.TorusRigError as exc:
        return type(exc), str(exc)
    return None


NOT_INTEGERS = (1.5, "2", True, None, [0])


def corrupt(data, record):
    """A copy of the record with one to three corruptions drawn from
    ``data``: a face that drops or repeats a corner or has a corner that is
    not an integer, a duplicate face or a third face on an edge inserted
    anywhere, or a hole entry that is no face index."""
    out = json.loads(json.dumps(record))
    faces = out["faces"]
    for _ in range(data.draw(st.integers(1, 3), label="corruptions")):
        kind = data.draw(st.sampled_from(
            ["drop", "repeat", "not-int", "duplicate", "third", "hole"]), label="kind")
        src = list(record["faces"][data.draw(
            st.integers(0, len(record["faces"]) - 1), label="face")])
        k, m = data.draw(st.permutations(range(3)), label="corners")[:2]
        at = data.draw(st.integers(0, len(faces)), label="position")
        if kind == "drop":
            faces[min(at, len(faces) - 1)] = src[:k] + src[k + 1:]
        elif kind == "repeat":
            src[k] = src[m]
            faces[min(at, len(faces) - 1)] = src
        elif kind == "not-int":
            src[k] = data.draw(st.sampled_from(NOT_INTEGERS), label="corner")
            faces[min(at, len(faces) - 1)] = src
        elif kind == "duplicate":
            faces.insert(at, src[k:] + src[:k] if m > k else src[::-1])
        elif kind == "third":
            x = data.draw(st.integers(0, record["vertices"] - 1).filter(
                lambda x: x not in src[:2]), label="apex")
            faces.insert(at, [src[0], src[1], x])
        else:
            hole = out["holes"][0]
            idxs = hole["faces"] if isinstance(hole, dict) else hole
            idxs[min(at, len(idxs) - 1)] = data.draw(st.sampled_from(
                [-1, 10 ** 6, *NOT_INTEGERS]), label="index")
    return out


# -- tori -------------------------------------------------------------------


class NonSimpleQuotient(errors.TorusRigError):
    """Identification produced loops or parallel edges."""


def identify_face_graph(disc: SurfaceComplex, boundary_matching) -> TorusComplex:
    """Quotient a planar face graph into a torus by identifying boundary vertices.

    ``boundary_matching`` maps merged vertex ids to their targets (dict or
    pair list); chains are resolved.  Covers both the rectangular form
    (side paths identified order-reversingly) and the annular form (inner and
    outer boundary cycles identified); the caller supplies the bijections.
    """
    mapping = dict(boundary_matching)

    def resolve(v):
        seen = set()
        while v in mapping:
            if v in seen:
                raise NonSimpleQuotient(f"cyclic identification at {v}")
            seen.add(v)
            v = mapping[v]
        return v

    try:
        return TorusComplex([tuple(resolve(v) for v in f) for f in disc.faces])
    except (errors.LoopEdge, errors.DuplicateFace, errors.EdgeInThreeFaces) as exc:
        raise NonSimpleQuotient(str(exc)) from exc


def boundary_edges(sc: SurfaceComplex) -> frozenset:
    """Edges of a surface complex lying in fewer than two faces."""
    return frozenset(e for e, fs in sc.edge_faces.items() if len(fs) < 2)


def face_index(torus: TorusComplex, face) -> int:
    """Position of a face given by any corner ordering."""
    target = frozenset(face)
    for i, f in enumerate(torus.faces):
        if frozenset(f) == target:
            return i
    raise KeyError(face)


def _shared_edges(torus: TorusComplex, region) -> list:
    """Sorted torus edges whose two faces both lie in the region, by a scan
    of every torus edge."""
    return sorted(e for e, (f1, f2) in torus.edge_faces.items()
                  if f1 in region and f2 in region)


def _unfolding(torus: TorusComplex, faces, glued):
    """Corner classes and Euler characteristic of the faces glued along
    ``glued``, from one class computation over every corner.

    A corner is a (face, vertex) pair; gluing an edge merges the corners of
    its two faces at each endpoint, and a class representative is the least
    corner of its class.  The classes come as a map from every corner to
    its representative.
    """
    pairs = []
    for e in glued:
        f1, f2 = torus.edge_faces[e]
        pairs.extend(((f1, v), (f2, v)) for v in e)
    corner_class = _classes(((f, v) for f in faces for v in torus.faces[f]),
                            pairs)
    n_classes = len(set(corner_class.values()))
    return corner_class, n_classes - (3 * len(faces) - len(glued)) + len(faces)


def two_pass_region(torus: TorusComplex, face_indices) -> dict:
    """The fields of ``complexes._Region`` by two passes over the region.

    The first sorts each half-edge into a shared edge's pair or the open
    ones and counts every vertex's corners; the second files each shared
    edge under its two faces and takes it off the counts at its two ends,
    so ``paths`` is corners less shared edges.  The region's edges come from
    every face's three, ``connected`` from a search of its own, and
    ``open_halves`` as a set and ``across`` as each face's set of (edge,
    other face).  The reference for the one-pass ``_Region``.
    """
    faces = _face_tuple(torus, face_indices)
    region = set(faces)
    halves, open_halves, paths = {}, set(), {}
    for f in faces:
        a, b, c = torus.faces[f]
        for u, v in ((a, b), (b, c), (c, a)):
            e = edge_key(u, v)
            f1, f2 = torus.edge_faces[e]
            if f1 in region and f2 in region:
                halves.setdefault(e, []).append((f, u, v))
            else:
                open_halves.add((f, u, v))
            paths[u] = paths.get(u, 0) + 1
    across = {f: set() for f in faces}
    for e, ((f1, _, _), (f2, _, _)) in halves.items():
        across[f1].add((e, f2))
        across[f2].add((e, f1))
        for x in e:
            paths[x] -= 1
    seen, stack = set(faces[:1]), list(faces[:1])
    while stack:
        for _e, g in across[stack.pop()]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    closed = sum(n == 0 for n in paths.values())
    return {"halves": halves, "open_halves": open_halves, "paths": paths,
            "chi0": len(faces) - len(halves) + closed,
            "connected": len(seen) == len(faces),
            "edges": {e for f in faces for e in _face_edges(torus.faces[f])},
            "across": across}


def hole_graph_oracle(hole: TorusWithHole) -> Graph:
    """The hole's graph by the generic build, which puts every torus edge in
    key order again: the torus's vertices and edges less the deleted ones."""
    return Graph(hole.torus.vertices - hole.deleted_vertices,
                 hole.torus.edges - hole.deleted_edges)


def region_mismatches(torus: TorusComplex, face_indices) -> list[str]:
    """The fields of the one-pass ``_Region`` that differ from
    ``two_pass_region``'s; an empty list when all agree."""
    region = _Region(torus, face_indices)
    got = {"halves": region.halves, "open_halves": set(region.open_halves),
           "paths": region.paths, "chi0": region.chi0,
           "connected": region.connected, "edges": region.edges,
           "across": {f: set(xs) for f, xs in region._across.items()}}
    want = two_pass_region(torus, face_indices)
    return [name for name in want if got[name] != want[name]]


def one_pass_mismatches(hole: TorusWithHole) -> list[str]:
    """What the one-pass builds of a hole get wrong against the oracles:
    each disc's region (``region_mismatches``) and the edges its
    ``DiscMap`` keeps, and the graph, adjacency too, against
    ``hole_graph_oracle``; an empty list when all agree."""
    wrong = []
    for k, d in enumerate(hole.discs):
        wrong += [f"disc {k} {name}" for name in region_mismatches(hole.torus, d.faces)]
        if d.region_edges != {e for f in d.faces for e in _face_edges(hole.torus.faces[f])}:
            wrong.append(f"disc {k} region_edges")
    graph = hole_graph_oracle(hole)
    if hole.graph != graph or hole.graph._adj != graph._adj:
        wrong.append("graph")
    return wrong


def slot_disc(torus: TorusComplex, face_indices, keep_edges=()):
    """``(walk, interior edges, interior vertices)`` of a face region by the
    slot-based unfolding that ``DiscMap`` replaced; the reference for its
    boundary walk.

    A boundary slot is a (face, edge) incidence left unglued.  Every boundary
    corner class must meet exactly two slots; the walk starts at any class,
    steps from slot to slot until it is back, and is returned as its least
    rotation or reversal.  Faces are connected by their own depth-first
    search, and a vertex is interior when every torus edge at it is glued.
    Raises the errors ``DiscMap`` raises, and NotADisc where the walk is not
    one cycle.
    """
    faces = sorted(set(face_indices))
    if not faces:
        raise errors.NotADisc("empty face set")
    if not all(0 <= i < len(torus.faces) for i in faces):
        raise errors.NotADisc("face index out of range")
    region = set(faces)
    shared = _shared_edges(torus, region)
    keep = {edge_key(*e) for e in keep_edges}
    if not keep <= set(shared):
        raise errors.NotADisc("keep edges are not interior to the region")
    glued = set(shared) - keep

    def connected(edges):
        adj = {f: set() for f in faces}
        for e in edges:
            f1, f2 = torus.edge_faces[e]
            adj[f1].add(f2)
            adj[f2].add(f1)
        seen, stack = set(), faces[:1]
        while stack:
            f = stack.pop()
            if f not in seen:
                seen.add(f)
                stack.extend(adj[f] - seen)
        return len(seen) == len(faces)

    if not connected(glued):
        if not connected(shared):
            raise errors.NotFaceConnected("face set is not adjacency-connected")
        raise errors.NotADisc("unfolded complex is disconnected")
    corner_class, chi = _unfolding(torus, faces, glued)
    if chi != 1:
        raise errors.NotADisc(f"unfolded Euler characteristic {chi} != 1")
    slots = [(f, e) for f in faces for e in _face_edges(torus.faces[f])
             if e not in glued]
    slot_at: dict = {}
    for f, e in slots:
        for v in e:
            slot_at.setdefault(corner_class[f, v], []).append((f, e))
    if not slots or any(len(s) != 2 for s in slot_at.values()):
        raise errors.NotADisc("boundary is not a single cycle")
    start = next(iter(slot_at))
    first = slot_at[start][0]
    walk = []
    cls, slot = start, first
    while True:
        walk.append(cls[1])
        f, (u, v) = slot
        other = corner_class[f, v]
        if other == cls:
            other = corner_class[f, u]
        cls, slot = other, next(s for s in slot_at[other] if s != slot)
        if (cls, slot) == (start, first) or len(walk) > len(slots):
            break
    if len(walk) != len(slots):
        raise errors.NotADisc("boundary is not a single cycle")
    corners = {v for f in faces for v in torus.faces[f]}
    skeleton = Graph(torus.vertices, torus.edges)
    interior = frozenset(v for v in corners if all(
        edge_key(v, w) in glued for w in skeleton.neighbors(v)))
    return ClosedWalk(walk).canonical(), frozenset(glued), interior


# -- separating cycles and vertex splits -------------------------------------


def separating_cycle(hole: TorusWithHole, region_faces) -> SeparatingCycle:
    """Validate an enlarged-disc region into a separating cycle.

    The region must contain every hole face and its disc structure must keep
    deleting everything the hole deletes.  The disc structure is the first
    that ``disc_structures`` finds with no hole-deleted edge kept unglued, of
    any boundary length and up to ``MAX_KEEP`` exposed edges.
    """
    region = frozenset(region_faces)
    if not set(hole.single_disc.faces) <= region:
        raise errors.InvalidCycle("region does not contain the hole disc")
    d1 = next(disc_structures(hole.torus, region, forbid_keep=hole.deleted_edges),
              None)
    if d1 is None:
        raise errors.InvalidCycle("region carries no enlargement disc structure")
    if not hole.deleted_edges <= d1.interior_edges:
        raise errors.InvalidCycle("enlargement stops deleting a hole-interior edge")
    return SeparatingCycle(d1)


def walk_alignments(w_h, w_c):
    """Vertex maps sending walk w_h onto walk w_c slot by slot, over every
    rotation and then the reversal of w_h (``_symmetries``), that are
    consistent and injective: the alignments that fission chooses among by
    slot pattern."""
    for seq in _symmetries(w_h):
        mapping: dict[int, int] = {}
        if len(seq) == len(w_c) and \
                all(mapping.setdefault(x, y) == y for x, y in zip(seq, w_c)) and \
                len(set(mapping.values())) == len(mapping):
            yield mapping


def grow_hole_oracle(torus: TorusComplex, rng, target_len: int) -> DiscMap | None:
    """``corpus._grow_hole`` without the running count: the same draws, but a
    ``DiscMap`` built after every added face, kept when it is a fully glued
    disc of the target length."""
    adj = torus.face_adjacency()
    start = rng.randrange(len(torus.faces))
    region = [start]
    region_set = {start}
    while len(region) <= MAX_REGION:
        try:
            disc = DiscMap(torus, region)
            if len(disc.boundary_walk) == target_len:
                return disc
        except errors.NotADisc:
            pass
        frontier = sorted({n for f in region for n in adj[f]} - region_set)
        if not frontier:
            return None
        nxt = rng.choice(frontier)
        region.append(nxt)
        region_set.add(nxt)
    return None


def connected_regions(torus: TorusComplex, seed_faces) -> list[frozenset]:
    """Every face set that holds the connected ``seed_faces`` and is
    connected across the edges its faces share, each once, by size and
    then by its sorted faces.

    Extension with an exclusion set, as in ESU (Wernicke, "Efficient
    detection of network motifs", 2006): the frontier holds the faces next
    to the region that are neither in it nor excluded; the branch that adds
    the i-th frontier face excludes the ones before it, so the regions of
    the branches are disjoint and together are every connected superset.
    """
    adj = torus.face_adjacency()
    out = []

    def grow(region, frontier, excluded):
        out.append(region)
        excluded = set(excluded)
        for i, f in enumerate(frontier):
            new = [g for g in sorted(adj[f]) if g not in region
                   and g not in excluded and g not in frontier]
            grow(region | {f}, frontier[i + 1:] + new, excluded)
            excluded.add(f)

    seed = frozenset(seed_faces)
    grow(seed, sorted({g for f in seed for g in adj[f]} - seed), ())
    return sorted(out, key=lambda r: (len(r), sorted(r)))


# -- every small torus: a flip-graph census ----------------------------------

#: K7 on the torus: faces (i, i+1, i+3) and (i, i+2, i+3) mod 7
K7_TORUS_FACES = [f for i in range(7) for f in
                  (tuple((i + d) % 7 for d in (0, 1, 3)),
                   tuple((i + d) % 7 for d in (0, 2, 3)))]


def _rotation_code(faces) -> tuple:
    """A key of a torus triangulation up to isomorphism, reflections too:
    the least breadth-first rotation code.  From a dart (v, w) and a sense,
    v gets label 0; each labelled vertex in turn lists its neighbours
    around it in that sense, from the one it was reached from (w for v),
    labelling new ones as met.  Only darts with the greatest degree key
    start, a choice that isomorphisms keep."""
    turn: dict = {}
    for a, b, c in TorusComplex(faces).faces:  # coherently oriented
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            turn.setdefault(x, {})[y] = z
    back = {x: {z: y for y, z in step.items()} for x, step in turn.items()}
    key = {x: (len(step), sorted(len(turn[y]) for y in step))
           for x, step in turn.items()}
    best = max((key[v], key[w]) for v in turn for w in turn[v])
    codes = []
    for step in (turn, back):
        for v in turn:
            for w in turn[v]:
                if (key[v], key[w]) != best:
                    continue
                label, order, came, code = {v: 0}, [v], {v: w}, []
                for x in order:
                    y = came[x]
                    while True:
                        if y not in label:
                            label[y] = len(order)
                            order.append(y)
                            came[y] = x
                        code.append(label[y])
                        y = step[x][y]
                        if y == came[x]:
                            break
                    code.append(-1)
                codes.append(tuple(code))
    return min(codes)


def _flips(faces):
    """Every triangulation one diagonal flip from ``faces``: edge uv, in
    faces (u, v, x) and (v, u, y) coherently oriented, becomes xy when x
    and y are not adjacent."""
    faces = TorusComplex(faces).faces
    at = {}
    for i, (a, b, c) in enumerate(faces):
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            at[x, y] = (i, z)
    adjacent = set(at)
    for (u, v), (i, x) in at.items():
        j, y = at[v, u]
        if u < v and (x, y) not in adjacent:
            rest = [f for k, f in enumerate(faces) if k != i and k != j]
            yield rest + [(u, y, x), (y, v, x)]


def torus_census(n: int) -> dict:
    """{``_rotation_code``: faces} of every triangulated torus on ``n`` (7, 8
    or 9) vertices, each once: flips connect the triangulations of a
    surface with a given number of vertices (Dewdney 1973), so a search of
    the flip graph from one of them reaches all.  It starts from K7, from
    K7 with face (0, 1, 3) subdivided, or from the 3 x 3 grid."""
    if n == 7:
        start = K7_TORUS_FACES
    elif n == 8:
        start = [f for f in K7_TORUS_FACES if f != (0, 1, 3)] + \
            [(0, 1, 7), (1, 3, 7), (3, 0, 7)]
    else:
        start = grid_faces(3, 3)
    found = {_rotation_code(start): start}
    todo = [start]
    while todo:
        for faces in _flips(todo.pop()):
            code = _rotation_code(faces)
            if code not in found:
                found[code] = faces
                todo.append(faces)
    return found


def exhaustive_critical_cycles_through(hole: TorusWithHole, e) -> list[SeparatingCycle]:
    """All critical cycles through e, by enumerating every enlarged disc:
    every face-connected region that holds the hole (``connected_regions``).

    Exponential in the number of non-hole faces; the slow oracle for
    validating the constructive search on small graphs.
    """
    e = edge_key(*e)
    return [c for region in connected_regions(hole.torus, hole.single_disc.faces)
            for c in _region_criticals(hole, region, e)]


def _blocked_faces(hole: TorusWithHole, k_set: frozenset) -> set[int]:
    """Torus faces whose 3-cycles are subgraphs of the induced graph on k_set."""
    torus = hole.torus
    g = hole.graph
    blocked = set()
    for i, f in enumerate(torus.faces):
        if all(v in k_set for v in f) and \
                all(e in g.edges for e in _face_edges(f)):
            blocked.add(i)
    return blocked


def _grow_region(torus: TorusComplex, start: int, blocked) -> frozenset:
    """The class of ``start`` among the unblocked faces, across their edges."""
    faces = {f for f in range(len(torus.faces)) if f not in blocked} | {start}
    cls = _classes(faces, (fs for fs in torus.edge_faces.values()
                           if fs[0] in faces and fs[1] in faces))
    return frozenset(f for f, rep in cls.items() if rep == cls[start])


def tight_set_critical_cycles(hole: TorusWithHole, e) -> list[SeparatingCycle]:
    """Critical cycles through e, read off every tight vertex set through e.

    A critical cycle's outer part G1 is the graph induced on its vertex set
    K (an edge of G between two vertices of G1 outside G1 would make G
    violate), so K holds both ends of e and f(G[K]) = 6.  The region of such
    a K is the component, holding the hole, of the faces K does not span.
    Exponential in the number of vertices other than the ends of e; the
    slow oracle beside ``exhaustive_critical_cycles_through``.
    """
    e = edge_key(*e)
    g = hole.graph
    rest = sorted(g.vertices - set(e))
    hole_faces = hole.single_disc.faces
    regions = set()
    for mask in range(1 << len(rest)):
        k_set = frozenset(e) | {v for i, v in enumerate(rest) if mask >> i & 1}
        n_edges = sum(1 for a, b in g.edges if a in k_set and b in k_set)
        if 3 * len(k_set) - n_edges != 6:
            continue
        blocked = _blocked_faces(hole, k_set) - set(hole_faces)
        regions.add(_grow_region(hole.torus, hole_faces[0], blocked))
    return [c for region in sorted(regions, key=sorted)
            for c in _region_criticals(hole, region, e)]


def vertex_split(g, v1: int, v2: int, v3: int, moved_edges):
    """Split v1 with anchor neighbours v2, v3, moving ``moved_edges`` to the
    new vertex ``max + 1``.

    On a plain Graph this is the abstract move.  On a TorusWithHole the split
    is performed on the containing torus when v2, v3 cut the facial star of v1
    into arcs and the moved edges are exactly the graph edges of one open arc
    (``facial_split``); otherwise the abstract graph of the split is returned.
    """
    if isinstance(g, Graph):
        return split_vertex(g, v1, v2, v3, moved_edges, max(g.vertices) + 1)
    try:
        return facial_split(g, v1, v2, v3, moved_edges)
    except errors.TorusRigError:
        return split_vertex(g.graph, v1, v2, v3, moved_edges,
                            max(g.graph.vertices) + 1)


def link_cycle(torus: TorusComplex, z: int) -> list[int]:
    """Neighbours of z in cyclic facial order around z."""
    nbrs: dict[int, set[int]] = {}
    for f in torus.faces:
        if z in f:
            a, b = (x for x in f if x != z)
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
    start = min(nbrs)
    cyc = [start]
    prev = None
    while True:
        step = sorted(nbrs[cyc[-1]] - ({prev} if prev is not None else set()))
        if not step:
            raise errors.NotClosedSurface(f"star of {z} does not close up")
        prev = cyc[-1]
        cyc.append(step[0])
        if cyc[-1] == start:
            return cyc[:-1]
        if len(cyc) > len(nbrs) + 1:
            raise errors.NotClosedSurface(f"star of {z} does not close up")


def facial_split(hole: TorusWithHole, v1, v2, v3, moved_edges) -> TorusWithHole:
    """The vertex split of ``vertex_split`` performed on the torus, so the
    hole discs and their exposed edges carry over."""
    torus = hole.torus
    if v1 not in torus.vertices:
        raise errors.InvalidAnchors(f"{v1} is not a torus vertex")
    cyc = link_cycle(torus, v1)
    if v2 not in cyc or v3 not in cyc or v2 == v3:
        raise errors.InvalidAnchors(f"{v2}, {v3} must be facial neighbours of {v1}")
    i, j = cyc.index(v2), cyc.index(v3)
    if i > j:
        i, j = j, i
    arcs = (set(cyc[i + 1:j]), set(cyc[j + 1:] + cyc[:i]))
    moved_targets = set()
    for m in moved_edges:
        m = edge_key(*m)
        if v1 not in m:
            raise errors.NotAnEdge(f"{m} is not an edge at {v1}")
        moved_targets.add(m[0] if m[1] == v1 else m[1])
    k = len(cyc)
    graph_arc0 = {t for t in arcs[0] if edge_key(v1, t) in hole.graph.edges}
    graph_arc1 = {t for t in arcs[1] if edge_key(v1, t) in hole.graph.edges}
    # faces correspond to consecutive link pairs; the moved arc's faces follow
    # the new vertex
    if moved_targets == graph_arc0:
        lo, hi = i, j
    elif moved_targets == graph_arc1:
        lo, hi = j, i + k
    else:
        raise errors.InvalidAnchors("moved edges are not an anchor-to-anchor arc")
    moved_pairs = {frozenset((cyc[t % k], cyc[(t + 1) % k]))
                   for t in range(lo, hi)}
    v0 = max(torus.vertices) + 1

    def rename(f):
        return tuple(v0 if x == v1 else x for x in f)

    new_faces = []
    for f in torus.faces:
        if v1 in f and frozenset(x for x in f if x != v1) in moved_pairs:
            new_faces.append(rename(f))
        else:
            new_faces.append(f)
    new_faces.append((v1, v0, cyc[i % k]))
    new_faces.append((v1, v0, cyc[j % k]))
    torus2 = TorusComplex(new_faces)
    discs2 = []
    # every old face keeps its index; the two new faces come last
    for d in hole.discs:
        keep2 = []
        for a, b in d.keep_edges:
            if edge_key(a, b) in torus2.edges:
                keep2.append((a, b))
            else:
                keep2.append(edge_key(v0 if a == v1 else a, v0 if b == v1 else b))
        discs2.append(DiscMap(torus2, d.faces, keep_edges=keep2))
    return TorusWithHole(torus2, discs2)
