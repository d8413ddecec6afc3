import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors, sparsity
from torusrig.catalog import build_H
from torusrig.complexes import cut_hole, rectangular_torus
from torusrig.graphs import (Graph, complete_graph, contract_edge,
                             double_banana, edge_key, freedom)
from torusrig.reduction import certify, contract, contractible_edges
from torusrig.sparsity import (SparsityVerdict, Status, _flow_scan,
                               _pebble_sparse, _PebbleGame, check_3_6,
                               is_in_T, maximal_tight_subgraph)

from helpers import (brute_force_3_6, component_oracle_checked, induced,
                     random_parent, record_pebble_games, tight_plus_one_edge)


def random_graph(data, max_n=11):
    """A simple graph on 4..max_n vertices, from empty up to 3n - 3 edges."""
    n = data.draw(st.integers(min_value=4, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = data.draw(st.integers(min_value=0, max_value=3 * n - 3))
    return Graph(range(n), data.draw(st.permutations(pairs))[:m])


def test_k4_tight_both_paths():
    assert check_3_6(complete_graph(4)).status is Status.TIGHT
    assert brute_force_3_6(complete_graph(4)).status is Status.TIGHT


def test_k5_violation_with_witness():
    v = check_3_6(complete_graph(5))
    assert v.status is Status.VIOLATION
    assert v.witness == frozenset(range(5))


def test_k3_plus_pendant_sparse_not_tight():
    g = Graph(range(4), [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert check_3_6(g).status is Status.SPARSE_NOT_TIGHT
    assert freedom(g) == 8


def test_double_banana_tight():
    assert check_3_6(double_banana()).status is Status.TIGHT
    assert brute_force_3_6(double_banana()).status is Status.TIGHT


def test_h1_tight():
    assert check_3_6(build_H(1).graph).status is Status.TIGHT


def test_too_few_vertices():
    with pytest.raises(errors.TooFewVertices):
        check_3_6(Graph([0, 1], [(0, 1)]))
    with pytest.raises(errors.BadArgument):
        brute_force_3_6(complete_graph(17))


def test_witness_certificate_contract():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(5, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randrange(3 * n - 8, min(len(pairs), 3 * n - 2))
        g = Graph(range(n), rng.sample(pairs, m))
        v = check_3_6(g)
        if v.witness is not None:
            w = v.witness
            ind = induced(g, w)
            assert len(w) >= 3
            assert len(ind.edges) > 3 * len(w) - 6


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flow_path_matches_brute_force(data):
    n = data.draw(st.integers(min_value=4, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = data.draw(st.integers(min_value=n - 1, max_value=min(len(pairs), 3 * n - 4)))
    edges = data.draw(st.permutations(pairs))[:m]
    g = Graph(range(n), edges)
    assert check_3_6(g).status is brute_force_3_6(g).status


def test_witness_is_searched_only_when_read(monkeypatch, tight_corpus):
    # the flow scan behind a violation's witness runs on the first read of
    # the witness, once; greedy reduction reads only tightness, so certify
    # runs none, though it meets violating contractions
    calls = []
    real = sparsity.densest_extension

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sparsity, "densest_extension", counting)
    v = check_3_6(complete_graph(5))
    assert v.status is Status.VIOLATION and not v.is_sparse and not calls
    assert v.witness == frozenset(range(5)) and calls
    scans = len(calls)
    assert v.witness == frozenset(range(5)) and len(calls) == scans
    calls.clear()
    for hole in tight_corpus[:20]:
        certify(hole)
    assert not calls


def test_violation_monotone_under_supergraph():
    g = complete_graph(5)
    v = check_3_6(g)
    assert v.status is Status.VIOLATION
    bigger = Graph(range(6), list(g.edges) + [(0, 5), (1, 5), (2, 5)])
    assert check_3_6(bigger).status is Status.VIOLATION


def test_is_in_T():
    assert is_in_T(build_H(1))
    trivially_cut = cut_hole(rectangular_torus(3, 3), [0])
    assert not is_in_T(trivially_cut)  # f = 0


def test_through_vertex_restriction():
    # K5 plus a far-away triangle, and K5 plus a pendant edge: every
    # violation avoids the last vertex, so a scan of the edges at it finds
    # none, while the scan of every edge names K5
    k5 = SparsityVerdict(Status.VIOLATION, frozenset(range(5)))
    g = Graph(range(8), list(complete_graph(5).edges) +
              [(5, 6), (5, 7), (6, 7)])
    assert check_3_6(g) == _flow_scan(g, g.sorted_edges()) == k5
    assert _flow_scan(g, [(5, 7), (0, 4)]) == k5
    assert _flow_scan(g, [(5, 7), (6, 7)]).is_sparse
    pendant = Graph(range(6), list(complete_graph(5).edges) + [(0, 5)])
    assert check_3_6(pendant) == _flow_scan(pendant, pendant.sorted_edges()) == k5
    assert _flow_scan(pendant, [(0, 5)]).is_sparse


def test_maximal_tight_subgraph():
    # two K4 blocks sharing a triangle: the union is the maximal tight set
    k4a = complete_graph(4)
    edges = set(k4a.edges) | {(1, 4), (2, 4), (3, 4)}
    g = Graph(range(5), edges)
    assert check_3_6(g).status is Status.TIGHT
    s = maximal_tight_subgraph(g, {0, 1, 2})
    assert s == frozenset(range(5))
    s2 = maximal_tight_subgraph(g, {0, 1, 2}, exclude={4})
    assert s2 == frozenset(range(4))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pebble_game_matches_brute_force(data):
    g = random_graph(data)
    assert _pebble_sparse(g) is brute_force_3_6(g).is_sparse


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_through_vertex_matches_flow_scan(data):
    # check_3_6's witness is the sorted scan's; a scan with the edges at x
    # first has the same status, and a violation that the edges at x alone
    # find is the one that scan names
    g = random_graph(data)
    x = data.draw(st.sampled_from(sorted(g.vertices)))
    assert check_3_6(g) == _flow_scan(g, g.sorted_edges())
    x_first = sorted(g.edges, key=lambda e: (x not in e, e))
    assert _flow_scan(g, x_first).status is check_3_6(g).status
    at_x = _flow_scan(g, [e for e in x_first if x in e])
    if not at_x.is_sparse:
        assert at_x == _flow_scan(g, x_first)


def test_verdicts_match_flow_scan_on_corpus(corpus9, tight_corpus):
    tight = 0
    for hole in corpus9:
        want = _flow_scan(hole.graph, hole.graph.sorted_edges())
        assert check_3_6(hole.graph).to_json() == want.to_json()
        tight += want.is_tight
    assert tight == len(tight_corpus) > 50


def test_contraction_verdicts_match_flow_scan():
    violations = 0
    for i in range(1, 7):
        hole = build_H(i)
        for e in contractible_edges(hole):
            g = contract(hole, e).graph
            got = check_3_6(g).to_json()
            assert got == _flow_scan(g, g.sorted_edges()).to_json()
            violations += got["status"] == Status.VIOLATION.value
    assert violations > 0


def test_pebble_component_check_on_tight_plus_one_edge():
    # each graph violates inside S; the ends of a placed edge hold no other
    # out-edge, so the rest of its component is reached only through
    # in-edges.  With one edge deleted a graph may or may not violate; there
    # a search that marks every visited vertex as escaping goes wrong.
    rng = random.Random(13)
    for _ in range(400):
        n_core = rng.randint(5, 8)
        g = tight_plus_one_edge(rng, n_core, rng.randint(0, 5))
        assert not brute_force_3_6(g).is_sparse
        assert _pebble_sparse(g) is False
        for e in rng.sample(sorted(g.edges), 3):
            h = Graph(g.vertices, g.edges - {e})
            assert _pebble_sparse(h) is brute_force_3_6(h).is_sparse


# -- the component search's degree test against the unfiltered search -------


def test_component_shortcut_matches_oracle_on_corpora(tight_corpus, corpus_cuts):
    # every placement of every game gives the unfiltered search's verdict:
    # from scratch on each graph of the corpora and H1-H17, and warm from
    # the parent on each contraction of a tight one.  The oracle agrees that
    # no placement with an end of placed degree below four closes a big
    # component, and each kind of placement occurs
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)] + list(corpus_cuts)
    with component_oracle_checked() as seen:
        for hole in holes:
            g = Graph(hole.graph.vertices, hole.graph.edges)
            if check_3_6(g).is_tight:
                for e in contractible_edges(hole):
                    check_3_6(contract_edge(g, *e))
    assert min(seen[True, False], seen[False, False], seen[False, True]) > 100


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_component_shortcut_matches_oracle_on_random_graphs(data):
    # tight, sparse and violating parents (a tight graph plus one edge),
    # each violating one also less one edge, and a contraction of each
    # decided from its parent when that is sparse
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["tight", "sparse", "violating"]))
    g = random_parent(rng, kind, data.draw(st.integers(6, 14)))
    graphs = [g]
    if kind == "violating":
        graphs += [Graph(g.vertices, g.edges - {e}) for e in rng.sample(sorted(g.edges), 3)]
    with component_oracle_checked():
        for h in graphs:
            check_3_6(h)
            check_3_6(contract_edge(h, *rng.choice(h.sorted_edges())))


def test_component_search_reads_each_out_set_once():
    # uv just placed; four in-neighbours of u share one path c -> d -> e to
    # a free pebble.  The first search marks that path, every later one
    # stops on entering it, and c and d start none, so no out-set is walked
    # twice.  The marks only save work: without them the verdict stands and
    # the path is walked again from each in-neighbour.  Only walks of an
    # out-set count, from the end of the game's set-up: telling an
    # in-neighbour is a membership test
    u, v, c, d, e = 0, 1, 6, 7, 8
    heads = {u: {v}, v: set(), c: {d, u, v}, d: {e, u, v}, e: set(),
             **{w: {u, v, c} for w in (2, 3, 4, 5)}}
    g = Graph(heads, [(t, h) for t, hs in heads.items() for h in hs])
    assert brute_force_3_6(g).is_sparse
    reads = Counter()

    class CountingSet(set):
        def __init__(self, t, items):
            super().__init__(items)
            self.tail = t

        def __iter__(self):
            reads[self.tail] += 1
            return super().__iter__()

    game = _PebbleGame(g, {t: CountingSet(t, hs) for t, hs in heads.items()},
                       dict.fromkeys(heads, 0))
    reads.clear()
    assert not game._big_component(u, v)
    assert reads[c] == reads[d] == 1 and max(reads.values()) == 1


# -- contractions decided from the parent's pebble game ---------------------


def _assert_orientation_of(g: Graph):
    """A sparse graph's memo, every vertex's out-set, orients each of its
    edges once, out-degree at most three."""
    board = g._orientation
    assert board.keys() == g.vertices
    pairs = sorted(edge_key(t, h) for t, heads in board.items() for h in heads)
    assert pairs == g.sorted_edges()
    assert all(len(heads) <= 3 for heads in board.values())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_contraction_chain_verdicts_match_fresh_graphs(data):
    # each graph of the chain is decided from its parent's orientation when
    # the parent is sparse; verdict and witness must be those of a graph
    # built from scratch, and the status that of the exhaustive oracle
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["tight", "sparse", "violating"]))
    g = random_parent(rng, kind, data.draw(st.integers(6, 14)))
    assert check_3_6(g).is_sparse is (kind != "violating")
    for _ in range(data.draw(st.integers(1, 3))):
        u, v = data.draw(st.sampled_from(g.sorted_edges()))
        if data.draw(st.booleans()):
            u, v = v, u
        memo = g._orientation
        h = contract_edge(g, u, v)
        got = check_3_6(h)
        assert got == check_3_6(Graph(h.vertices, h.edges))
        assert got.status is brute_force_3_6(h).status
        assert g._orientation is memo
        if got.is_sparse:
            _assert_orientation_of(h)
        g = h


def test_contraction_verdicts_match_fresh_graphs_on_corpus(tight_corpus):
    # every contractible edge of the tight corpus and of H1-H17, decided
    # from the parent's orientation; the parent's memo never changes.  The
    # key-lemma search reads a violating G/e's witness off the edges at the
    # merged vertex z alone, in order of their other end; on tight input
    # that is the verdict of a scan of every edge with z's first
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)]
    checked = violations = 0
    for hole in holes:
        g = hole.graph
        assert check_3_6(g).is_tight
        memo = g._orientation
        for e in contractible_edges(hole):
            h = contract_edge(g, *e)
            got = check_3_6(h)
            fresh = Graph(h.vertices, h.edges)
            assert got == check_3_6(fresh), e
            assert g._orientation is memo
            checked += 1
            if not got.is_sparse:
                z = e[0]
                at_z = _flow_scan(h, [edge_key(z, w) for w in sorted(h.neighbors(z))])
                z_first = sorted(h.edges, key=lambda f: (z not in f, f))
                assert at_z == _flow_scan(h, z_first), e
                violations += 1
    assert checked > 3000 and violations > 100


def test_contraction_places_only_the_edges_at_the_merged_vertex(monkeypatch):
    # a contraction's game starts from the parent's orientation of the
    # shared edges and places exactly the edges the parent lacks, all of
    # them at the merged vertex
    hole = build_H(1)
    g = hole.graph
    assert check_3_6(g).is_tight
    games = record_pebble_games(monkeypatch)
    for u, v in contractible_edges(hole):
        h = contract_edge(g, u, v)
        assert check_3_6(h).is_tight
        assert games[id(h)][1] == sorted(h.edges - g.edges)
        assert all(u in e for e in games[id(h)][1])
    # an undecided parent leaves its contraction to the whole game
    h = contract_edge(Graph(g.vertices, g.edges), u, v)
    check_3_6(h)
    assert len(games[id(h)][1]) == len(g.edges) - 3


def test_contraction_gathers_the_merged_vertex_pebbles_once(monkeypatch):
    # every edge a contraction adds joins the merged vertex z to a vertex
    # with no other edge to place, so it is covered from that end, and z
    # keeps the three pebbles it gathered for its next edge: at most three
    # fetches to z per game, however many edges it gains
    real = sparsity.fetch_pebble
    fetches = Counter()

    def counting_fetch(pebbles, out, root, pinned=()):
        fetches[root] += 1
        return real(pebbles, out, root, pinned)

    monkeypatch.setattr(sparsity, "fetch_pebble", counting_fetch)
    gained = Counter()
    for i in range(1, 18):
        hole = build_H(i)
        g = hole.graph
        assert check_3_6(g).is_tight
        for e in contractible_edges(hole):
            h = contract_edge(g, *e)
            fetches.clear()
            check_3_6(h)
            assert fetches[e[0]] <= 3, (i, e, fetches[e[0]])
            gained[len(h.edges - g.edges)] += 1
    assert gained.keys() - {0, 1}, gained


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_warm_start_from_any_decided_origin_matches_fresh_graphs(data):
    # a child that keeps some of the origin's vertices and edges, drops
    # others and adds new vertices and edges is decided from the origin's
    # orientation of the shared edges when the origin is sparse; verdict
    # and witness must be those of a graph built from scratch, and the
    # status that of the exhaustive oracle
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["tight", "sparse", "violating"]))
    g = random_parent(rng, kind, data.draw(st.integers(6, 12)))
    assert check_3_6(g).is_sparse is (kind != "violating")
    memo = g._orientation
    kept = set(rng.sample(sorted(g.vertices), rng.randint(3, len(g.vertices))))
    new = set(range(len(g.vertices), len(g.vertices) + rng.randint(0, 3)))
    vertices = sorted(kept | new)
    dropped = rng.random() / 3
    edges = {e for e in g.edges if set(e) <= kept and rng.random() >= dropped}
    pairs = [(a, b) for a in vertices for b in vertices
             if a < b and (a, b) not in g.edges]
    edges |= set(rng.sample(pairs, min(len(pairs), rng.randint(0, 5))))
    h = Graph(vertices, edges)
    h._origin = g
    got = check_3_6(h)
    assert got == check_3_6(Graph(h.vertices, h.edges))
    assert got.status is brute_force_3_6(h).status
    assert g._orientation is memo and h._origin is None
    if got.is_sparse:
        _assert_orientation_of(h)


def test_memo_takes_no_part_in_equality_or_hashing():
    g = build_H(1).graph
    h = contract_edge(g, *contractible_edges(build_H(1))[0])
    twin = Graph(h.vertices, h.edges)
    assert h._origin is not None and twin._origin is None
    assert h == twin and hash(h) == hash(twin)
    check_3_6(h)
    assert h._orientation is not None and twin._orientation is None
    assert h == twin and hash(h) == hash(twin)
    assert {h: 1}[twin] == 1


def _holds(obj, target) -> bool:
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


def test_decided_graph_holds_no_ancestor():
    # the link to the parent goes once the graph is decided, so a chain of
    # contractions keeps only its last graph alive
    g = build_H(1).graph
    assert check_3_6(g).is_tight and g._origin is None
    chain = [g]
    for _ in range(3):
        u, v = chain[-1].sorted_edges()[0]
        h = contract_edge(chain[-1], u, v)
        assert h._origin is chain[-1] and _holds(h, chain[-1])
        check_3_6(h)
        assert h._origin is None and not _holds(h, chain[-1])
        chain.append(h)
