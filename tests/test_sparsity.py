import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors, sparsity
from torusrig.catalog import build_H
from torusrig.complexes import (TorusComplex, cut_hole, cut_holes,
                                rectangular_torus)
from torusrig.corpus import CorpusSpec, gen_corpus
from torusrig.graphs import (Graph, complete_graph, double_banana, edge_key,
                             freedom)
from torusrig.reduction import contract, contractible_edges
from torusrig.sparsity import (SparsityVerdict, Status, _contract_board,
                               _contraction_trial, _contraction_violator,
                               _copy_board, _pebble_sparse, _PebbleGame,
                               _trial, check_3_6, is_in_T,
                               maximal_tight_subgraph)

from torusrig.fileio import record_to_hole

from helpers import (BRUTE_FORCE_CAP, assert_board_of, board_state,
                     brute_force_3_6, component_oracle_checked, contract_edge,
                     first_violator,
                     flow_scan, holds, keylemma_records, random_parent,
                     record_pebble_games, tight_plus_one_edge, torus_census,
                     violates_3_6)


def random_graph(data, max_n=11):
    """A simple graph on 4..max_n vertices, from empty up to 3n - 3 edges."""
    n = data.draw(st.integers(min_value=4, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = data.draw(st.integers(min_value=0, max_value=3 * n - 3))
    return Graph(range(n), data.draw(st.permutations(pairs))[:m])


def assert_oracles_agree(g: Graph, got: SparsityVerdict):
    """``got``, ``check_3_6``'s verdict on ``g``, has the status of the flow
    scan of every edge in sorted order and a witness that violates; on a
    graph within ``BRUTE_FORCE_CAP`` vertices the witness is the first
    failing placement's component by subset enumeration."""
    assert got.status is flow_scan(g, g.sorted_edges()).status
    assert got.witness is None or violates_3_6(g, got.witness)
    if len(g.vertices) <= BRUTE_FORCE_CAP:
        assert got.witness == first_violator(g)


def assert_contraction_violator(g: Graph, e) -> frozenset | None:
    """``_contraction_violator(g, e)``, for ``g`` decided sparse, checked and
    returned: None exactly when a fresh G/e is sparse, else a violating set
    of G/e named by the end of e it holds, the kept one.  Within
    ``BRUTE_FORCE_CAP`` vertices it is the first failing placement's
    component by subset enumeration, with the edges G/e gains at the kept
    end placed last, in sorted order, as the trial places them."""
    u, v = e
    got = _contraction_violator(g, e)
    h = contract_edge(g, u, v)
    fresh = check_3_6(Graph(h.vertices, h.edges))
    assert (got is None) is (fresh.status is not Status.VIOLATION), e
    if got is not None:
        keep = u if u in got else v
        gone = u + v - keep
        assert gone not in got
        h = contract_edge(g, keep, gone)
        assert violates_3_6(h, got)
        if len(h.vertices) <= BRUTE_FORCE_CAP:
            gained = sorted(edge_key(keep, x) for x in
                            g.neighbors(gone) - g.neighbors(keep) - {keep})
            assert first_violator(h, sorted(h.edges - set(gained)) + gained) == got
    return got


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
        assert v.witness is None or violates_3_6(g, v.witness)
        assert v.witness == first_violator(g)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_flow_path_matches_brute_force(data):
    n = data.draw(st.integers(min_value=4, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = data.draw(st.integers(min_value=n - 1, max_value=min(len(pairs), 3 * n - 4)))
    edges = data.draw(st.permutations(pairs))[:m]
    g = Graph(range(n), edges)
    got = check_3_6(g)
    assert got.status is brute_force_3_6(g).status
    assert got.witness == first_violator(g)


def test_witness_is_not_the_flow_scans():
    # a 7-vertex, 17-edge draw on which the first failing placement's
    # component, {0..6}, is not the set the per-edge flow scan finds
    # first, {0..5}: the witness depends on the sorted edges alone
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
             (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5),
             (4, 5)]
    g = Graph(range(7), edges)
    assert check_3_6(g).witness == first_violator(g) == frozenset(range(7))
    assert flow_scan(g, g.sorted_edges()).witness == frozenset(range(6))


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
    # two faces with no common vertex cut two holes, which T excludes
    torus = rectangular_torus(4, 4)
    far = next(i for i, f in enumerate(torus.faces) if not set(f) & set(torus.faces[0]))
    assert not is_in_T(cut_holes(torus, [[0], [far]]))


def test_through_vertex_restriction():
    # K5 plus a far-away triangle, and K5 plus a pendant edge: every
    # violation avoids the last vertex, so a scan of the edges at it finds
    # none, while the scan of every edge names K5
    k5 = SparsityVerdict(Status.VIOLATION, frozenset(range(5)))
    g = Graph(range(8), list(complete_graph(5).edges) +
              [(5, 6), (5, 7), (6, 7)])
    assert check_3_6(g) == flow_scan(g, g.sorted_edges()) == k5
    assert flow_scan(g, [(5, 7), (0, 4)]) == k5
    assert flow_scan(g, [(5, 7), (6, 7)]).status is not Status.VIOLATION
    pendant = Graph(range(6), list(complete_graph(5).edges) + [(0, 5)])
    assert check_3_6(pendant) == flow_scan(pendant, pendant.sorted_edges()) == k5
    assert flow_scan(pendant, [(0, 5)]).status is not Status.VIOLATION


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


@pytest.mark.parametrize("n", [5, 6])
def test_maximal_tight_subgraph_refuses_a_violating_graph(n):
    # K5 and K6 are not (3,6)-sparse, so tight sets through a core need not
    # close under union: refused, not answered None; the refusal plays the
    # one game check_3_6 then reads
    g = complete_graph(n)
    with pytest.raises(errors.BadArgument, match="sparse"):
        maximal_tight_subgraph(g, {0, 1, 2})
    assert check_3_6(g).status is Status.VIOLATION


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pebble_game_matches_brute_force(data):
    g = random_graph(data)
    assert _pebble_sparse(g) is (brute_force_3_6(g).status is not Status.VIOLATION)
    assert check_3_6(g).witness == first_violator(g)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_through_vertex_matches_flow_scan(data):
    # check_3_6's status is the sorted scan's, and its witness violates and
    # is the first failing placement's component; a scan with the edges at
    # x first has the same status, and a violation that the edges at x
    # alone find is the one that scan names
    g = random_graph(data)
    x = data.draw(st.sampled_from(sorted(g.vertices)))
    assert_oracles_agree(g, check_3_6(g))
    x_first = sorted(g.edges, key=lambda e: (x not in e, e))
    assert flow_scan(g, x_first).status is check_3_6(g).status
    at_x = flow_scan(g, [e for e in x_first if x in e])
    if at_x.status is Status.VIOLATION:
        assert at_x == flow_scan(g, x_first)


def test_verdicts_match_flow_scan_on_corpus(corpus9, tight_corpus):
    tight = 0
    for hole in corpus9:
        got = check_3_6(hole.graph)
        assert_oracles_agree(hole.graph, got)
        tight += got.is_tight
    assert tight == len(tight_corpus) > 50


def test_contraction_verdicts_match_flow_scan():
    violations = 0
    for i in range(1, 7):
        hole = build_H(i)
        for e in contractible_edges(hole):
            g = contract(hole, e).graph
            got = check_3_6(g)
            assert_oracles_agree(g, got)
            violations += got.status is Status.VIOLATION
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
        assert brute_force_3_6(g).status is Status.VIOLATION
        assert _pebble_sparse(g) is False
        for e in rng.sample(sorted(g.edges), 3):
            h = Graph(g.vertices, g.edges - {e})
            assert _pebble_sparse(h) is (brute_force_3_6(h).status is not Status.VIOLATION)


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
            h_e = contract_edge(h, *rng.choice(h.sorted_edges()))
            for x in (h, h_e):
                assert check_3_6(x).witness == first_violator(x)


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
    assert brute_force_3_6(g).status is not Status.VIOLATION
    reads = Counter()

    class CountingSet(set):
        def __init__(self, t, items):
            super().__init__(items)
            self.tail = t

        def __iter__(self):
            reads[self.tail] += 1
            return super().__iter__()

    game = _PebbleGame(g._adj, {t: CountingSet(t, hs) for t, hs in heads.items()},
                       dict.fromkeys(heads, 0), {})
    reads.clear()
    assert not game._big_component(u, v)
    assert reads[c] == reads[d] == 1 and max(reads.values()) == 1


# -- contractions decided from the parent's pebble game ---------------------


def _assert_board_on(g: Graph):
    """A sparse graph's memo, every vertex's out-set, orients each of its
    edges once, out-degree at most three."""
    assert g._board.keys() == g.vertices
    assert_board_of(g._board, g)


def _delta_sparse(g: Graph, child: Graph) -> bool:
    """Whether ``child``, a graph on some of the vertices of ``g`` decided
    sparse, is (3,6)-sparse: a ``_trial`` of the edges of ``g`` it lacks
    and those it adds on ``g``'s own board, undone before it returns.  The
    vertices it drops are left bare, all their edges cut."""
    board = g._board
    added = child.edges - g.edges
    todo = Counter(x for e in added for x in e)
    failed, log = _trial(board, child._adj, todo, g.edges - child.edges, added)
    board.update(log)
    return failed is None


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_contraction_chain_verdicts_match_fresh_graphs(data):
    # each contraction of the chain is tried on its parent's board in place
    # when the parent is sparse; the trial must give the verdict of a graph
    # built from scratch and the status of the exhaustive oracle, and leave
    # the parent's board as it was.  The child, checked afterwards, plays
    # the whole game and gives the fresh graph's verdict and witness
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["tight", "sparse", "violating"]))
    g = random_parent(rng, kind, data.draw(st.integers(6, 14)))
    assert (check_3_6(g).status is not Status.VIOLATION) is (kind != "violating")
    for _ in range(data.draw(st.integers(1, 3))):
        u, v = data.draw(st.sampled_from(g.sorted_edges()))
        if data.draw(st.booleans()):
            u, v = v, u
        memo = g._board
        h = contract_edge(g, u, v)
        fresh = check_3_6(Graph(h.vertices, h.edges))
        assert fresh.status is brute_force_3_6(h).status
        assert fresh.witness == first_violator(h)
        if isinstance(memo, dict):
            before = board_state(g._board)
            assert_contraction_violator(g, (u, v))
            assert board_state(g._board) == before
        assert h._board is None
        got = check_3_6(h)
        assert got == fresh
        assert g._board is memo
        if got.status is not Status.VIOLATION:
            _assert_board_on(h)
        g = h


def test_contraction_verdicts_match_fresh_graphs_on_corpus(tight_corpus):
    # every contractible edge of the tight corpus and of H1-H17, tried on
    # the parent's board in place; the parent's board never changes.  A
    # violating G/e's violator, which the key-lemma search reads off the
    # trial, violates and is the failing placement's component; on tight
    # input the flow scan of the edges at the merged vertex z alone finds a
    # violation too
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)]
    checked = violations = 0
    for hole in holes:
        g = hole.graph
        assert check_3_6(g).is_tight
        memo = g._board
        before = board_state(g._board)
        for e in contractible_edges(hole):
            violator = assert_contraction_violator(g, e)
            assert g._board is memo
            checked += 1
            if violator is not None:
                z = e[0]
                h = contract_edge(g, *e)
                at_z = flow_scan(h, [edge_key(z, w) for w in sorted(h.neighbors(z))])
                assert at_z.status is Status.VIOLATION, e
                violations += 1
        assert board_state(g._board) == before
    assert checked > 3000 and violations > 100


def test_contraction_places_only_the_edges_at_the_merged_vertex(monkeypatch):
    # a contraction trial starts from the parent's orientation of the
    # shared edges and places exactly the edges G/e has and G lacks, all
    # of them at the kept end z, and plays no whole game; a contract_edge
    # child checked afterwards plays the whole game
    hole = build_H(1)
    g = hole.graph
    assert check_3_6(g).is_tight
    games, placed = record_pebble_games(monkeypatch)
    board = g._board
    for u, v in contractible_edges(hole):
        placed.clear()
        failed, gone, log = _contraction_trial(g._adj, board, (u, v))
        board.update(log)
        z = u + v - gone
        assert failed is None and not games
        assert placed == sorted(contract_edge(g, z, gone).edges - g.edges)
        assert all(z in e for e in placed)
    h = contract_edge(g, u, v)
    check_3_6(h)
    assert len(games[id(h)][1]) == len(g.edges) - 3


def test_contraction_gathers_the_merged_vertex_pebbles_once(monkeypatch):
    # every edge a contraction adds joins the merged vertex z to a vertex
    # with no other edge to place, so it is covered from that end, and z
    # keeps the three pebbles it gathered for its next edge: at most three
    # fetches to z per game, however many edges it gains.  That holds for
    # the contraction trial, where z is the end it keeps, and for a trial
    # of the contract_edge child's edge-set differences on G's board, where
    # z is the first end
    real = sparsity.fetch_pebble
    fetches = Counter()

    def counting_fetch(out, root, pinned, log):
        fetches[root] += 1
        return real(out, root, pinned, log)

    monkeypatch.setattr(sparsity, "fetch_pebble", counting_fetch)
    gained = Counter()
    for i in range(1, 18):
        hole = build_H(i)
        g = hole.graph
        assert check_3_6(g).is_tight
        board = g._board
        for e in contractible_edges(hole):
            fetches.clear()
            _, gone, log = _contraction_trial(g._adj, board, e)
            board.update(log)
            z = sum(e) - gone
            assert fetches[z] <= 3, (i, e, fetches[z])
            gained[len(g.neighbors(gone) - g.neighbors(z)) - 1] += 1
            h = contract_edge(g, *e)
            fetches.clear()
            _delta_sparse(g, h)
            assert fetches[e[0]] <= 3, (i, e, fetches[e[0]])
            gained[len(h.edges - g.edges)] += 1
    assert gained.keys() - {0, 1}, gained


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_warm_start_from_any_decided_origin_matches_fresh_graphs(data):
    # a child on a subset of the parent's vertices that keeps some of the
    # parent's edges, drops others and adds new ones is tried on the
    # parent's board in place, a trial from a valid start that is not the
    # empty board and not a contraction's; the verdict must be that of a
    # graph built from scratch and the status that of the exhaustive
    # oracle, the parent's board is as it was, and the child stays
    # undecided
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["tight", "sparse"]))
    g = random_parent(rng, kind, data.draw(st.integers(6, 12)))
    assert check_3_6(g).status is not Status.VIOLATION
    memo = g._board
    before = board_state(g._board)
    kept = sorted(rng.sample(sorted(g.vertices), rng.randint(3, len(g.vertices))))
    dropped = rng.random() / 3
    edges = {e for e in g.edges if set(e) <= set(kept) and rng.random() >= dropped}
    pairs = [(a, b) for a in kept for b in kept if a < b and (a, b) not in g.edges]
    edges |= set(rng.sample(pairs, min(len(pairs), rng.randint(0, 5))))
    h = Graph(kept, edges)
    got = _delta_sparse(g, h)
    fresh = check_3_6(Graph(h.vertices, h.edges))
    assert got is (fresh.status is not Status.VIOLATION)
    assert fresh.status is brute_force_3_6(h).status
    assert g._board is memo and h._board is None
    assert board_state(g._board) == before


def test_memo_takes_no_part_in_equality_or_hashing():
    # a graph that holds its board, or False for a violation, equals and
    # hashes as a fresh twin with no board, and as the twin once that has
    # its own board from its own game
    hole = build_H(1)
    g = hole.graph
    assert check_3_6(g).is_tight
    violating = complete_graph(5)
    for h in (contract_edge(g, *contractible_edges(hole)[0]), violating):
        check_3_6(h)
        twin = Graph(h.vertices, h.edges)
        assert h._board is not None and twin._board is None
        assert h == twin and hash(h) == hash(twin)
        check_3_6(twin)
        if h is violating:
            assert h._board == twin._board == frozenset(range(5))
        else:
            assert h._board and twin._board and twin._board is not h._board
        assert h == twin and hash(h) == hash(twin)
        assert {h: 1}[twin] == 1


def test_decided_graph_holds_no_ancestor():
    # a contract_edge child never holds its parent: not before it is
    # decided and not after, so a chain of contractions keeps only its last
    # graph alive.  The board _contract_board leaves on a copy of G's, read
    # with G's neighbour sets, after a sparse trial, renamed to the end
    # contract_edge keeps, is a board of the child, which holds neither that
    # board nor G; after a failed one it is G's board again
    hole = build_H(1)
    g = hole.graph
    assert check_3_6(g).is_tight
    chain = [g]
    for _ in range(3):
        u, v = chain[-1].sorted_edges()[0]
        h = contract_edge(chain[-1], u, v)
        assert not holds(h, chain[-1])
        check_3_6(h)
        assert not holds(h, chain[-1])
        chain.append(h)
    for e in contractible_edges(hole):
        board = _copy_board(g)
        if not _contract_board(g._adj, board, e):
            assert board_state(board) == board_state(g._board)
            continue
        h = contract_edge(g, *e)
        assert_board_of(board, h)
        assert board.keys() == h.vertices
        assert h._board is None and not holds(h, g) and not holds(h, board)


# -- contraction trials on the parent's board, in place ---------------------


def _sparse_spanning(graph: Graph) -> Graph:
    """A maximal (3,6)-sparse spanning subgraph: the sorted edges, each
    kept while a cold game finds the edges kept so far with it sparse."""
    kept = []
    for e in graph.sorted_edges():
        if check_3_6(Graph(graph.vertices, kept + [e])).status is not Status.VIOLATION:
            kept.append(e)
    return Graph(graph.vertices, kept)


def _trial_cases() -> list:
    """(graph, edges to contract): the contractible edges of the tight
    ``gen`` records on 3x4 to 3x6 and of H1-H17, and every edge of a
    maximal sparse spanning subgraph of each census torus on 7, 8 and 9
    vertices, contractible or not.  Each graph is fresh, so its board comes
    from a cold game."""
    spec = CorpusSpec(seed=40, count=60, grids=((3, 4), (3, 5), (3, 6)))
    holes = [h for h in gen_corpus(spec) if check_3_6(h.graph).is_tight]
    holes += [build_H(i) for i in range(1, 18)]
    cases = [(Graph(h.graph.vertices, h.graph.edges), contractible_edges(h))
             for h in holes]
    for n in (7, 8, 9):
        for faces in torus_census(n).values():
            torus = TorusComplex(faces)
            g = _sparse_spanning(Graph(torus.vertices, torus.edges))
            cases.append((g, g.sorted_edges()))
    return cases


def test_contraction_trial_matches_a_cold_game_and_undoes_exactly():
    # every trial of G/e on G's board, for e given either way round, gives
    # the verdict of a cold game on a fresh copy of contract_edge(G, *e);
    # a sparse one leaves a board of G/e, named after the end it keeps, and
    # the removed end bare.  The undo gives back G's out-sets exactly.
    # Trials fail and pass, removing either end of e as given
    seen = Counter()
    for g, edges in _trial_cases():
        assert check_3_6(g).status is not Status.VIOLATION
        board = g._board
        before = board_state(board)
        for e in edges:
            for u, v in (e, e[::-1]):
                h = contract_edge(g, u, v)
                want = check_3_6(Graph(h.vertices, h.edges)).status is not Status.VIOLATION
                failed, gone, log = _contraction_trial(g._adj, board, (u, v))
                sparse = failed is None
                assert sparse is want, (e, u, gone)
                child = contract_edge(g, u + v - gone, gone)
                if sparse:
                    assert_board_of(board, child)
                    assert not board[gone]
                else:
                    assert failed in child.edges - g.edges, (e, u, failed)
                board.update(log)
                assert board_state(board) == before, (e, u, gone)
                seen[sparse, gone == u] += 1
    assert len(seen) == 4 and min(seen.values()) > 100, seen


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_contraction_trial_matches_the_oracle_on_random_parents(data):
    # tight and sparse parents that are not torus graphs, with edges of any
    # number of common neighbours: every trial gives the exhaustive
    # oracle's status of G/e, and its undo gives back G's board
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = random_parent(rng, data.draw(st.sampled_from(["tight", "sparse"])),
                      data.draw(st.integers(6, 12)))
    assert check_3_6(g).status is not Status.VIOLATION
    board = g._board
    before = board_state(board)
    for u, v in g.sorted_edges():
        failed, _, log = _contraction_trial(g._adj, board, (u, v))
        want = brute_force_3_6(contract_edge(g, u, v)).status
        assert (failed is None) is (want is not Status.VIOLATION), (u, v)
        board.update(log)
        assert board_state(board) == before


def test_a_repeated_contraction_trial_fetches_the_same_way(monkeypatch, tight_corpus):
    # the undo puts back the very out-set objects, so every out-set lists
    # its heads in the same order afterwards, and the same trial repeated
    # on the same board fetches pebbles along the same paths, as often: on
    # every contractible edge of the tight corpus and of the keylemma
    # benchmark's seed-1 inputs
    real = sparsity.fetch_pebble
    fetches = [0]

    def counting_fetch(*args):
        fetches[0] += 1
        return real(*args)

    monkeypatch.setattr(sparsity, "fetch_pebble", counting_fetch)
    holes = list(tight_corpus) + [record_to_hole(r) for r in keylemma_records(1, 16)]
    trials = 0
    for hole in holes:
        g = hole.graph
        assert check_3_6(g).is_tight
        out = g._board
        order = {t: list(heads) for t, heads in out.items()}
        for e in contractible_edges(hole):
            counts = []
            for _ in range(3):
                fetches[0] = 0
                _contraction_violator(g, e)
                counts.append(fetches[0])
            assert counts[0] == counts[1] == counts[2], (e, counts)
            assert {t: list(heads) for t, heads in out.items()} == order, e
            trials += 1
    assert trials > 3000, trials


def test_contraction_trial_removes_the_end_with_fewer_neighbours():
    # G/e up to the merged vertex's name either way; the end with fewer
    # neighbours goes, the second end on a tie, so fewer edges are cut and
    # placed
    kinds = Counter()
    for i in range(1, 18):
        hole = build_H(i)
        g = hole.graph
        assert check_3_6(g).is_tight
        board = g._board
        for u, v in contractible_edges(hole):
            for a, b in ((u, v), (v, u)):
                _, gone, log = _contraction_trial(g._adj, board, (a, b))
                board.update(log)
                assert gone == (a if g.degree(a) < g.degree(b) else b)
                kinds[g.degree(a) == g.degree(b)] += 1
    assert min(kinds[True], kinds[False]) > 20, kinds
