import collections
import dataclasses
import itertools
import json
import pathlib
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import catalog, errors, reduction, rigidity, sparsity
from torusrig.catalog import build_H, classify
from torusrig.complexes import (ClosedWalk, DiscMap, TorusComplex,
                                TorusWithHole, cut_hole, disc_structures,
                                rectangular_torus, retriangulate_holes)
from torusrig.corpus import CorpusSpec, corpus_records
from torusrig.fileio import hole_to_record, load_hole, record_to_hole
from torusrig.graphs import (Graph, complete_graph, edge_key, freedom,
                             is_isomorphic)
from torusrig.homology import crossover_class
from torusrig.reduction import (Certificate, EdgeClass, SeparatingCycle,
                                certify, classify_edge,
                                contract, contractible_edges, divide,
                                find_critical_cycle_through, fission,
                                is_critical, is_uncontractible, reduce_greedy,
                                verify_certificate)
from torusrig.rigidity import generic_rank
from torusrig.sparsity import SparsityVerdict, Status, check_3_6

from helpers import (_blocked_faces, _grow_region, assert_board_of, board_state,
                     candidate_scan, canon_face, collar_refill, connected_regions,
                     contract_edge, contract_faces_stepwise, edge_rule_oracle,
                     exhaustive_critical_cycles_through, face_candidates,
                     facial_split, grow_hole_oracle, holds,
                     hole_reduce_greedy, induced, is_connected,
                     keylemma_records, link_cycle,
                     one_pass_mismatches, record_pebble_games, record_ranks,
                     replay_chain, run_main, scan_violator, separating_cycle,
                     tight_set_critical_cycles, torus_census, vertex_split,
                     walk_alignments, walk_runs)

DATA = pathlib.Path(__file__).resolve().parent / "data"

K5_MINUS_EDGE = Graph(range(5), complete_graph(5).edges - {(0, 1)})


def _is_h16_or_h17(g: Graph) -> bool:
    return is_isomorphic(g, complete_graph(4)) or is_isomorphic(g, K5_MINUS_EDGE)


def test_classify_edge_kinds():
    h1 = build_H(1)
    boundary = next(iter(h1.boundary_edges))
    assert classify_edge(h1, boundary) is EdgeClass.BOUNDARY_INCIDENT_FACE
    assert contractible_edges(h1)  # interior panel edges exist
    h16 = build_H(16)
    for e in h16.graph.sorted_edges():
        assert classify_edge(h16, e) is not EdgeClass.FF_CONTRACTIBLE
    with pytest.raises(errors.UnknownEdge):
        classify_edge(h1, (0, 99))


def test_uncontractible_exactly_h16_h17():
    assert is_uncontractible(build_H(16))
    assert is_uncontractible(build_H(17))
    for i in range(1, 16):
        assert not is_uncontractible(build_H(i)), i


def test_trivially_cut_torus_contractibility():
    # on the 3x3 grid every row, column and diagonal wraps around in a
    # nonfacial 3-cycle, so every FF edge is blocked; from 4x4 up the wrap
    # cycles are longer and contractible edges appear
    hole33 = cut_hole(rectangular_torus(3, 3), [0])
    assert is_uncontractible(hole33)
    hole44 = cut_hole(rectangular_torus(4, 4), [0])
    assert not is_uncontractible(hole44)


def test_contract_counts_and_freedom():
    h1 = build_H(1)
    e = contractible_edges(h1)[0]
    g2 = contract(h1, e)
    assert len(g2.graph.vertices) == len(h1.graph.vertices) - 1
    assert len(g2.graph.edges) == len(h1.graph.edges) - 3
    assert len(g2.faces) == len(h1.faces) - 2
    assert freedom(g2.graph) == freedom(h1.graph)
    assert check_3_6(g2.graph).is_tight


def test_contraction_is_graph_contraction_and_renames_walk(tight_corpus):
    # the contracted graph is the plain edge contraction, and the hole's
    # detachment walk is the old walk with the merged vertex renamed; the
    # hole form itself may change (greedy reduction ends at H16/H17).  The
    # retained faces stay in order, renamed and without e's two faces, as
    # the greedy loop and its one-refill leaf rely on
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)]
    checked = 0
    for hole in holes:
        walk = hole.detachment_walk().vertices
        for keep, gone in contractible_edges(hole):
            out = contract(hole, (keep, gone))
            assert out.graph == contract_edge(hole.graph, keep, gone)
            renamed = ClosedWalk(keep if x == gone else x for x in walk)
            assert out.detachment_walk() == renamed, (keep, gone)
            assert [set(f) for f in out.faces] == [
                {keep if x == gone else x for x in f} for f in hole.faces
                if keep not in f or gone not in f], (keep, gone)
            checked += 1
    assert checked > 1000


def test_contract_refills_a_disc_that_would_swallow_an_apex_edge():
    # five of the six faces at vertex 0 of the 4x4 grid cut a non-tight
    # hole in which 0 has degree two and is an apex of (4, 5).  The renamed
    # hole faces would glue (0, 4) inside the hole and delete 0; contract
    # reads only the retained faces and the walk, so its fresh collar keeps
    # (0, 4) on the walk and 0 in the graph
    torus = rectangular_torus(4, 4)
    hole = cut_hole(torus, [i for i, f in enumerate(torus.faces)
                            if 0 in f and set(f) != {0, 4, 5}])
    assert hole.graph.neighbors(0) == {4, 5}
    out = contract(hole, (4, 5))
    assert out.graph == contract_edge(hole.graph, 4, 5)
    assert 0 in out.graph.vertices


def test_contract_blocked_edge_raises():
    h16 = build_H(16)
    ff_blocked = [e for e in h16.graph.sorted_edges()
                  if classify_edge(h16, e) is EdgeClass.FF_BLOCKED]
    assert ff_blocked
    with pytest.raises(errors.NotContractible):
        contract(h16, ff_blocked[0])


def test_vertex_split_abstract():
    g = vertex_split(complete_graph(3), 0, 1, 2, [])
    assert is_isomorphic(g, complete_graph(4))
    g = vertex_split(complete_graph(4), 0, 1, 2, [(0, 3)])
    assert is_isomorphic(g, K5_MINUS_EDGE)


def test_vertex_split_facial():
    hole = cut_hole(rectangular_torus(3, 3), [0])
    torus = hole.torus
    star = sorted(v for f in torus.faces for v in f if 0 in f and v != 0)
    # anchors: two facial neighbours of 0; move the graph edges of one arc
    cyc = link_cycle(torus, 0)
    v2, v3 = cyc[0], cyc[2]
    moved = [(0, cyc[1])]
    out = vertex_split(hole, 0, v2, v3, moved)
    assert len(out.graph.vertices) == len(hole.graph.vertices) + 1
    assert len(out.graph.edges) == len(hole.graph.edges) + 3
    assert freedom(out.graph) == freedom(hole.graph)
    assert hasattr(out, "torus")  # facial structure carried over


def test_vertex_split_falls_back_to_abstract():
    hole = cut_hole(rectangular_torus(3, 3), [0])
    cyc = link_cycle(hole.torus, 0)
    # moved set that is not an arc between the anchors
    out = vertex_split(hole, 0, cyc[0], cyc[1], [(0, cyc[3])])
    assert isinstance(out, Graph)
    assert len(out.vertices) == len(hole.graph.vertices) + 1


def test_tightness_preserved_by_splits_on_corpus(tight_corpus):
    for hole in tight_corpus[:10]:
        torus = hole.torus
        v1 = min(hole.graph.vertices)
        cyc = link_cycle(torus, v1)
        graph_nbrs = [t for t in cyc if (min(v1, t), max(v1, t)) in hole.graph.edges]
        if len(graph_nbrs) < 2:
            continue
        v2, v3 = graph_nbrs[0], graph_nbrs[1]
        out = vertex_split(hole.graph, v1, v2, v3, [])
        assert check_3_6(out).is_tight


def test_divide_at_detachment_walk():
    h1 = build_H(1)
    sep = separating_cycle(h1, h1.single_disc.faces)
    g1, ann = divide(h1, sep)
    assert g1.graph == h1.graph
    assert ann.edges == h1.boundary_edges
    assert is_critical(h1, sep)


def test_divide_freedom_additivity(tight_corpus):
    # inclusion-exclusion over the division at any enlargement
    checked = 0
    for hole in tight_corpus:
        region = set(hole.single_disc.faces)
        adj = hole.torus.face_adjacency()
        frontier = sorted({n for f in region for n in adj[f]} - region)
        if not frontier:
            continue
        region.add(frontier[0])
        try:
            sep = separating_cycle(hole, region)
        except errors.TorusRigError:
            continue
        g1, ann = divide(hole, sep)
        cyc_graph = Graph({v for e in sep.walk.edge_set() for v in e},
                          sep.walk.edge_set())
        assert freedom(hole.graph) == \
            freedom(g1.graph) + freedom(ann) - freedom(cyc_graph)
        checked += 1
        if checked >= 10:
            break
    assert checked >= 5


def test_critical_cycle_none_when_contraction_tight():
    h1 = build_H(1)
    for e in contractible_edges(h1):
        if check_3_6(contract(h1, e).graph).is_tight:
            assert find_critical_cycle_through(h1, e) is None
            return
    pytest.skip("no tight contraction on H1")


def _breaking_edges(hole):
    for e in contractible_edges(hole):
        if not check_3_6(contract(hole, e).graph).is_tight:
            yield e


def test_critical_cycle_constructive_matches_oracle():
    # catalog graphs are small enough for the exhaustive enlarged-disc oracle
    seen = 0
    for i in range(1, 18):
        hole = build_H(i)
        for e in _breaking_edges(hole):
            cycle = find_critical_cycle_through(hole, e)
            assert cycle is not None
            assert len(cycle.walk) == 9
            assert tuple(sorted(e)) in {tuple(sorted(x))
                                        for x in cycle.walk.edges()}
            assert is_critical(hole, cycle)
            oracle = exhaustive_critical_cycles_through(hole, e)
            assert oracle, (i, e)
            assert any(o.walk.canonical() == cycle.walk.canonical()
                       for o in oracle)
            seen += 1
    assert seen >= 1


# The keylemma repro records are tight, and their lifted violators hold
# neither apex of the edge (a = 0 in the count of the reduction module
# docstring).  Repro A has three critical cycles through (0, 6), one from
# each tight core; H2's breaking edge has a = 1.


def _canonical_walks(cycles):
    return {c.walk.canonical() for c in cycles}


@pytest.mark.parametrize("hole, e", [
    (load_hole(DATA / "keylemma_repro_a.json"), (0, 6)),
    (build_H(2), (0, 8)),
], ids=["repro_a", "H2"])
def test_tight_set_oracle_matches_exhaustive_oracle(hole, e):
    oracle = _canonical_walks(tight_set_critical_cycles(hole, e))
    assert oracle == _canonical_walks(exhaustive_critical_cycles_through(hole, e))
    cycle = find_critical_cycle_through(hole, e)
    assert cycle.walk.canonical() in oracle
    assert is_critical(hole, cycle)


# the cycles the search finds through contractible edges of H1-H17 and
# repro A, each in its canonical rotation; every other contractible edge
# gives None
SEARCH_WALKS = {
    ("H2", (0, 8)): (0, 3, 4, 5, 3, 0, 8, 7, 6),
    ("repro_a", (0, 1)): (0, 1, 2, 5, 0, 4, 3, 2, 6),
    ("repro_a", (0, 6)): (0, 1, 2, 5, 0, 4, 3, 2, 6),
}


def test_search_decides_without_contracting_the_hole(monkeypatch):
    holes = [(f"H{i}", build_H(i)) for i in range(1, 18)]
    holes.append(("repro_a", load_hole(DATA / "keylemma_repro_a.json")))
    expected = {}
    for name, hole in holes:
        for e in contractible_edges(hole):
            tight = check_3_6(contract(hole, e).graph).is_tight
            expected[name, e] = None if tight else SEARCH_WALKS[name, e]
    assert len(expected) == 54

    def no_contract(*args):
        raise AssertionError("the search built a contracted hole")

    monkeypatch.setattr(reduction, "contract", no_contract)
    for name, hole in holes:
        for e in contractible_edges(hole):
            cycle = find_critical_cycle_through(hole, e)
            got = None if cycle is None else cycle.walk.vertices
            assert got == expected[name, e], (name, e)


def test_fission_rejects_a_cycle_that_is_not_critical():
    # one face added to H1's hole: the enlarged disc deletes the edge the
    # face shares with the hole, so the outer part has freedom 7
    h1 = build_H(1)
    region = set(h1.single_disc.faces)
    extra = min(set().union(*(h1.torus.face_adjacency()[f] for f in region))
                - region)
    cycle = separating_cycle(h1, region | {extra})
    assert freedom(cycle.outer.graph) == 7
    assert not is_critical(h1, cycle)
    with pytest.raises(errors.InvalidCycle, match="not critical"):
        fission(h1, cycle)


@pytest.mark.parametrize("hole, e", [
    (load_hole(DATA / "keylemma_repro_a.json"), (0, 6)),
    (build_H(2), (0, 8)),
    (cut_hole(rectangular_torus(3, 3), [0, 1, 2, 3, 9, 14, 15]), (3, 7)),
], ids=["repro_a", "H2", "pinched_v3v6"])
def test_search_builds_no_outer_part(monkeypatch, hole, e):
    # the search checks G, whose board G/e is then tried on in place, and
    # builds no outer part; fission checks G again through is_critical,
    # which finds it decided, then checks G2, and decides no G1
    checked, built, counted = [], [], []
    real_check, real_is_critical = reduction.check_3_6, reduction.is_critical
    real_hole = reduction.TorusWithHole

    def counting_check(g, **kwargs):
        checked.append(g)
        return real_check(g, **kwargs)

    def counting_is_critical(hole, cycle):
        counted.append(cycle)
        return real_is_critical(hole, cycle)

    def counting_hole(*args):
        built.append(args)
        return real_hole(*args)

    monkeypatch.setattr(reduction, "check_3_6", counting_check)
    monkeypatch.setattr(reduction, "is_critical", counting_is_critical)
    monkeypatch.setattr(reduction, "TorusWithHole", counting_hole)
    cycle = find_critical_cycle_through(hole, e)
    assert checked == [hole.graph]
    assert built == [] and counted == [] and "outer" not in vars(cycle)
    g1, g2 = fission(hole, cycle)
    assert counted == [cycle]
    assert g1 is cycle.outer and g1.graph._board is None
    assert [id(g) for g in checked] == [id(hole.graph), id(hole.graph), id(g2.graph)]


def _counting(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def test_search_decides_the_contraction_on_the_hole_board(monkeypatch, tight_corpus):
    # once G is decided, a search builds no G/e, copies no board and plays
    # no game of its own, whether its contraction stays tight or not: it
    # tries G/e on G's board in place, reads a violator off the failing
    # placement and undoes the trial.  G's board is as it was after every
    # search
    calls = collections.Counter()
    monkeypatch.setattr(reduction, "_contract_in_place",
                        _counting(calls, "contract", reduction._contract_in_place))
    monkeypatch.setattr(sparsity, "_copy_board",
                        _counting(calls, "copy", sparsity._copy_board))
    real_sparse = sparsity._pebble_sparse

    def cold(g):
        if g._board is None:
            calls["game"] += 1
        return real_sparse(g)

    monkeypatch.setattr(sparsity, "_pebble_sparse", cold)
    outcomes = collections.Counter()
    for hole in list(tight_corpus) + [build_H(i) for i in range(1, 18)]:
        g = hole.graph
        assert check_3_6(g).is_tight
        before = board_state(g._board)
        for e in contractible_edges(hole):
            calls.clear()
            cycle = find_critical_cycle_through(hole, e)
            assert not calls, e
            outcomes[cycle is None] += 1
        assert board_state(g._board) == before
    assert min(outcomes.values()) > 300, outcomes


def _step_graph(adj) -> Graph:
    """The graph of ``_reduce``'s working adjacency at a step, built from
    scratch."""
    return Graph(adj.keys(), [(u, v) for u, ns in adj.items() for v in ns if u < v])


def test_reduce_copies_one_board_and_builds_one_graph(monkeypatch, tight_corpus):
    # greedy reduction copies the input's board and adjacency once, tries
    # each candidate on the board in place (sparsity._contract_board),
    # undoing each failed trial, and contracts the winner in the adjacency,
    # once per move; the board the trial leaves, renamed where the trial
    # merged the lower end into the higher, is a board of that G/e at the
    # next step.  It builds one
    # graph, the leaf, which holds no board and nothing of the input; the
    # input keeps its own board and neighbour sets
    calls, winners, boards, steps = collections.Counter(), collections.Counter(), [], []
    real_copy, real_trial = reduction._copy_board, sparsity._contraction_trial
    real_recount, init = reduction._recount, Graph.__init__

    def copying(g):
        calls["copy"] += 1
        boards.append(real_copy(g))
        return boards[-1]

    def trial(adj, board, e):
        failed, gone, log = real_trial(adj, board, e)
        calls["trial"] += 1
        winners[gone == e[0]] += failed is None
        return failed, gone, log

    def recounting(cand, adj, border, edges):
        real_recount(cand, adj, border, edges)
        graph = _step_graph(adj)
        calls["graph"] -= 1  # the test's own build
        assert boards[-1].keys() == graph.vertices
        assert_board_of(boards[-1], graph)
        steps.append(graph)

    def building(self, *args, **kw):
        calls["graph"] += 1
        init(self, *args, **kw)

    monkeypatch.setattr(reduction, "_copy_board", copying)
    monkeypatch.setattr(sparsity, "_contraction_trial", trial)
    monkeypatch.setattr(reduction, "_recount", recounting)
    monkeypatch.setattr(reduction, "_contract_in_place",
                        _counting(calls, "contract", reduction._contract_in_place))
    monkeypatch.setattr(Graph, "__init__", building)
    reduced = 0
    for hole in list(tight_corpus)[:40] + [build_H(i) for i in range(1, 18)]:
        g = hole.graph
        assert check_3_6(g).is_tight
        before, neighbours = board_state(g._board), dict(g._adj)
        calls.clear()
        steps.clear()
        leaf, moves = reduction._reduce(hole)
        assert calls["copy"] == calls["graph"] == 1, calls
        assert calls["contract"] == len(moves) and calls["trial"] >= len(moves)
        assert len(steps) == len(moves) + 1 and steps[0] == g and steps[-1] == leaf
        assert board_state(g._board) == before
        assert g._adj == neighbours and all(g._adj[v] is ns for v, ns in neighbours.items())
        assert leaf._board is None and not holds(leaf, g)
        reduced += bool(moves)
    assert reduced > 40 and min(winners.values()) > 50, (reduced, winners)


def test_fission_plays_one_game_for_g2_and_none_for_g1(monkeypatch, tight_corpus):
    # fission plays no pebble game for its G1 and one whole game for its
    # G2, which places every edge of G2 in sorted order and leaves G's
    # board as it was
    games, placed = record_pebble_games(monkeypatch)
    cycles = 0
    for hole in list(tight_corpus) + [build_H(i) for i in range(1, 18)]:
        g = hole.graph
        for e in contractible_edges(hole):
            cycle = find_critical_cycle_through(hole, e)
            if cycle is None:
                continue
            before = board_state(g._board)
            games.clear()
            placed.clear()
            g1, g2 = fission(hole, cycle)
            assert list(games) == [id(g2.graph)]
            assert placed == games[id(g2.graph)][1] == g2.graph.sorted_edges()
            assert g1.graph._board is None
            assert board_state(g._board) == before
            cycles += 1
    assert cycles > 300


def test_fission_decides_its_child_as_a_fresh_graph(monkeypatch, tight_corpus):
    # on every fission of the tight corpus, H1-H17 and repro A, fission
    # copies no board and checks G, through is_critical, then G2, which
    # keeps the board of its own game.  Its verdict is that of a fresh G2
    # built from scratch, G2's vertices are among G's, and G's board is as
    # it was
    copies, checked = [], []
    real_copy, real_check = sparsity._copy_board, sparsity.check_3_6

    def copying(g):
        copies.append(g)
        return real_copy(g)

    def checking(g):
        checked.append(g)
        return real_check(g)

    monkeypatch.setattr(sparsity, "_copy_board", copying)
    monkeypatch.setattr(reduction, "_copy_board", copying)
    monkeypatch.setattr(sparsity, "check_3_6", checking)
    monkeypatch.setattr(reduction, "check_3_6", checking)
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)]
    holes.append(load_hole(DATA / "keylemma_repro_a.json"))
    fissions = 0
    for hole in holes:
        g = hole.graph
        for e in contractible_edges(hole):
            cycle = find_critical_cycle_through(hole, e)
            if cycle is None:
                continue
            before = board_state(g._board)
            copies.clear()
            checked.clear()
            g2 = fission(hole, cycle)[1].graph
            assert not copies and [id(x) for x in checked] == [id(g), id(g2)]
            assert_board_of(g2._board, g2)
            assert real_check(Graph(g2.vertices, g2.edges)) == real_check(g2)
            assert g2.vertices <= g.vertices
            assert board_state(g._board) == before
            fissions += 1
    assert fissions > 300


def test_an_interrupted_contraction_trial_leaves_the_hole_board(monkeypatch, tight_corpus):
    # a contraction trial stopped by an exception at any fetch of a pebble
    # is undone before the exception leaves the key-lemma search: G's
    # board is as it was, and a rerun gives the same cycle, or None.  The
    # search is stopped at its n-th fetch for n = 1, 2, ... until a run
    # makes fewer than n fetches
    real = sparsity.fetch_pebble
    calls = [0, None]

    class Stop(Exception):
        pass

    def fetch(*args):
        calls[0] += 1
        if calls[0] == calls[1]:
            raise Stop
        return real(*args)

    def named(cycle):
        return None if cycle is None else (cycle.disc.faces, cycle.walk.vertices)

    monkeypatch.setattr(sparsity, "fetch_pebble", fetch)
    holes = list(tight_corpus)[:20] + [build_H(i) for i in range(1, 18)]
    holes.append(load_hole(DATA / "keylemma_repro_a.json"))
    stops, outcomes = 0, collections.Counter()
    for hole in holes:
        g = hole.graph
        assert check_3_6(g).is_tight
        before = board_state(g._board)
        for e in contractible_edges(hole):
            calls[:] = [0, None]
            want = named(find_critical_cycle_through(hole, e))
            for n in itertools.count(1):
                calls[:] = [0, n]
                try:
                    got = find_critical_cycle_through(hole, e)
                except Stop:
                    assert board_state(g._board) == before, (e, n)
                    stops += 1
                    continue
                assert named(got) == want, (e, n)
                break
            calls[:] = [0, None]
            assert board_state(g._board) == before
            outcomes[want is None] += 1
    assert stops > 1000 and min(outcomes.values()) > 20, (stops, outcomes)


def _tight_outer_subgraph(hole, cycle):
    """Whether the cycle's outer part G1 is a subgraph of G, in vertices and
    in edges, and is tight by a whole pebble game on a fresh graph."""
    g1, g = cycle.outer.graph, hole.graph
    return g1.vertices <= g.vertices and g1.edges <= g.edges and \
        check_3_6(Graph(g1.vertices, g1.edges)).is_tight


def test_exhaustive_critical_cycles_are_tight_subgraphs():
    # the exhaustive oracle reaches criticality only through the count in
    # _region_criticals; a fresh game confirms every cycle it returns
    holes = [build_H(i) for i in range(1, 18)]
    holes.append(load_hole(DATA / "keylemma_repro_a.json"))
    cycles = 0
    for hole in holes:
        for e in _breaking_edges(hole):
            for cycle in exhaustive_critical_cycles_through(hole, e):
                assert _tight_outer_subgraph(hole, cycle), (e, cycle.walk)
                cycles += 1
    assert cycles >= 5


def test_search_candidates_are_tight_subgraphs(monkeypatch, tight_corpus):
    # every candidate the search collects, not only the least it returns
    candidates = []
    real_region_criticals = reduction._region_criticals

    def collecting(hole, region, e):
        found = real_region_criticals(hole, region, e)
        candidates.extend((hole, c) for c in found)
        return found

    monkeypatch.setattr(reduction, "_region_criticals", collecting)
    for hole in tight_corpus:
        for e in contractible_edges(hole):
            find_critical_cycle_through(hole, e)
    assert len(candidates) > 300
    for hole, cycle in candidates:
        assert _tight_outer_subgraph(hole, cycle), cycle.walk


def test_criticality_count_matches_the_outer_game():
    # over every enclosing disc structure of walk length 9 to 12 on H1-H17
    seen = collections.Counter()
    for i in range(1, 18):
        hole = build_H(i)
        for region in connected_regions(hole.torus, hole.single_disc.faces):
            for length in range(9, 13):
                for disc in disc_structures(hole.torus, region,
                                            forbid_keep=hole.deleted_edges,
                                            boundary_length=length):
                    cycle = SeparatingCycle(disc)
                    tight = check_3_6(cycle.outer.graph).is_tight
                    assert is_critical(hole, cycle) == tight, (i, disc)
                    seen[length, tight] += 1
    assert seen[9, True] > 0 and seen[9, False] == 0
    assert all(seen[length, False] > 0 for length in range(10, 13))


@pytest.mark.parametrize("hole, faces", [
    # record 1 of `torusrig gen --seed 3 --count 40 --grids 3x4 4x4`
    (record_to_hole(corpus_records(CorpusSpec(seed=3, count=2,
                                              grids=((3, 4), (4, 4))))[1]),
     [1, 16, 17, 23, 24, 25, 26]),
    (build_H(1), [4, 5, 8, 9, 10, 11, 16]),
], ids=["gen_seed3_record1", "H1"])
def test_a_cycle_that_misses_the_hole_is_invalid(hole, faces):
    # nine-walk discs on the hole's torus that do not hold the hole's faces
    cycle = SeparatingCycle(DiscMap(hole.torus, faces))
    assert check_3_6(hole.graph).is_tight and len(cycle.walk) == 9
    assert not hole.hole_faces <= set(cycle.disc.faces)
    for move in (divide, is_critical, fission):
        with pytest.raises(errors.InvalidCycle, match="does not enclose the hole"):
            move(hole, cycle)


def test_a_cycle_on_another_torus_is_invalid():
    # H1's own hole disc, on a copy of its torus: a reloaded record shares
    # the torus of the last load, so the copy comes from the constructor,
    # which builds a new torus every time
    hole = build_H(1)
    record = hole_to_record(hole)
    assert record_to_hole(record).torus is record_to_hole(record).torus
    copy = TorusComplex(list(hole.torus.faces))
    disc = hole.single_disc
    cycle = SeparatingCycle(DiscMap(copy, disc.faces, disc.keep_edges))
    assert cycle.disc.faces == disc.faces and cycle.disc.torus is not hole.torus
    for move in (divide, is_critical, fission):
        with pytest.raises(errors.InvalidCycle, match="does not enclose the hole"):
            move(hole, cycle)


def test_criticality_on_a_hole_that_is_not_tight_carries_its_record():
    hole = cut_hole(rectangular_torus(3, 3), [0])
    cycle = SeparatingCycle(hole.single_disc)
    assert not check_3_6(hole.graph).is_tight
    for move in (is_critical, fission):
        with pytest.raises(errors.NotTight) as info:
            move(hole, cycle)
        _, _, record = str(info.value).partition("; record: ")
        again = record_to_hole(json.loads(record))
        assert again.graph == hole.graph and again.hole_faces == hole.hole_faces


# the a = 0 cases with no critical cycle: repro B, a 14-vertex v9 record
# grown from H17 with a collar, and repro C, the first of the 40 such cases
# on the 9-vertex tori, of form e3e4
_REPROS = pytest.mark.parametrize("name, e, form", [
    ("keylemma_repro_b", (3, 17), "v9"),
    ("keylemma_repro_c", (1, 7), "e3e4"),
], ids=["repro_b", "repro_c"])


@_REPROS
def test_repro_is_tight_with_no_critical_cycle(name, e, form):
    # tight, minimally rigid and certified, and no tight vertex set through
    # e carries a critical cycle, so the key lemma's dichotomy fails on it
    # as critical cycles are defined
    hole = load_hole(DATA / f"{name}.json")
    g = hole.graph
    assert check_3_6(g).is_tight
    assert generic_rank(g) == len(g.edges) == 3 * len(g.vertices) - 6
    assert classify(hole).word == form
    assert verify_certificate(certify(hole), g)
    assert not check_3_6(contract(hole, e).graph).is_tight
    assert tight_set_critical_cycles(hole, e) == []


@_REPROS
def test_no_critical_cycle_carries_its_record(name, e, form):
    hole = load_hole(DATA / f"{name}.json")
    with pytest.raises(errors.NoCriticalCycle) as info:
        find_critical_cycle_through(hole, e)
    message = str(info.value)
    assert str(e) in message
    _, _, record = message.partition("; record: ")
    again = record_to_hole(json.loads(record))
    assert again.graph == hole.graph
    with pytest.raises(errors.NoCriticalCycle) as info_again:
        find_critical_cycle_through(again, e)
    assert str(info_again.value) == message


def test_fission_at_detachment_walk_reproduces_catalog():
    h5 = build_H(5)
    sep = separating_cycle(h5, h5.single_disc.faces)
    g1, g2 = fission(h5, sep)
    assert g1.graph == h5.graph
    assert is_isomorphic(g2.graph, h5.graph)


def test_fission_children_tight():
    for i in range(1, 18):
        hole = build_H(i)
        for e in _breaking_edges(hole):
            cycle = find_critical_cycle_through(hole, e)
            g1, g2 = fission(hole, cycle)
            assert check_3_6(g1.graph).is_tight
            assert check_3_6(g2.graph).is_tight
            # children of a proper reducing cycle are smaller
            if len(g1.graph.vertices) < len(hole.graph.vertices):
                assert len(g2.graph.vertices) <= len(hole.graph.vertices)


def test_reduce_greedy_uncontractible_fixed_points():
    for i in (16, 17):
        leaf, moves = reduce_greedy(build_H(i))
        assert moves == []
        assert leaf.graph == build_H(i).graph


def test_reduce_greedy_h1():
    leaf, moves = reduce_greedy(build_H(1))
    assert is_uncontractible(leaf)
    assert _is_h16_or_h17(leaf.graph)
    assert len(moves) == len(build_H(1).graph.vertices) - len(leaf.graph.vertices)


def _reduction_inputs(tight_corpus):
    """tight_corpus, H1-H17, and the tight records of a fixed-seed gen
    sample on the 3x3 to 4x4 grids."""
    spec = CorpusSpec(seed=16, count=60, grids=((3, 3), (3, 4), (4, 4)))
    sample = [record_to_hole(r) for r in corpus_records(spec)
              if r["meta"]["status"] == Status.TIGHT.value]
    assert len(sample) > 20
    return list(tight_corpus) + [build_H(i) for i in range(1, 18)] + sample


def _reduces_as_the_oracle(hole) -> tuple:
    """Assert that the loop over the graph and its ordered retained faces
    takes the moves that carrying the hole through every ``contract`` takes,
    to the same leaf graph and retained faces (the torus stores each face
    from its least corner), and that reduce_greedy's one-refill leaf is the
    oracle's leaf hole, record for record; return what ``_reduce`` returns."""
    leaf, moves = hole_reduce_greedy(hole)
    graph, reduce_moves = reduction._reduce(hole)
    faces = reduction._contract_faces(hole.faces, [m.edge for m in moves])
    assert (graph, [canon_face(f) for f in faces], reduce_moves) == \
        (leaf.graph, list(leaf.faces), moves)
    built, built_moves = reduce_greedy(hole)
    assert built_moves == moves
    assert hole_to_record(built) == hole_to_record(leaf)
    return graph, moves


def test_reduction_on_retained_faces_matches_the_hole_carrying_oracle(
        monkeypatch, tight_corpus):
    # the loop and reduce_greedy's leaf are the oracle's, and certify gives
    # the certificate the oracle's moves give
    holes = _reduction_inputs(tight_corpus)
    oracle, certificates = {}, []
    for hole in holes:
        oracle[id(hole)] = _reduces_as_the_oracle(hole)
        certificates.append(certify(hole).to_json())
    monkeypatch.setattr(reduction, "_reduce", lambda hole: oracle[id(hole)])
    assert [certify(hole).to_json() for hole in holes] == certificates


def test_reduce_greedy_builds_one_torus(monkeypatch):
    # the leaf, and the hole of a StuckButContractible record, are one
    # refill after the loop, not a rebuilt torus per move
    built = []
    init = TorusComplex.__init__
    monkeypatch.setattr(TorusComplex, "__init__",
                        lambda self, faces: built.append(len(faces)) or init(self, faces))
    h1 = build_H(1)
    leaf, moves = reduce_greedy(h1)
    assert len(moves) > 2 and built == [len(leaf.torus.faces)]
    built.clear()
    _loosen_contractions_below(monkeypatch, len(h1.graph.vertices) - 2)
    with pytest.raises(errors.StuckButContractible):
        reduce_greedy(h1)
    assert len(built) == 1


K7_FACES = [f for i in range(7) for f in ((i, (i + 1) % 7, (i + 3) % 7),
                                          (i, (i + 2) % 7, (i + 3) % 7))]


def _exposed_edge_holes():
    """Holes whose disc keeps edges exposed: on K7, every connected region
    of up to nine faces through face 0 whose disc keeps one, and the
    wrap-around strip of the 3x3 grid."""
    k7 = TorusComplex(K7_FACES)
    holes = []
    for region in connected_regions(k7, [0]):
        if len(region) > 9:
            break
        try:
            hole = cut_hole(k7, region)
        except errors.TorusRigError:
            continue
        if hole.single_disc.keep_edges:
            holes.append(hole)
    grid = rectangular_torus(3, 3)
    holes.append(cut_hole(grid, [i for i, f in enumerate(grid.faces)
                                 if all(v % 3 in (0, 1) for v in f)]))
    return holes


def _steps_match_the_face_map(monkeypatch, holes) -> int:
    """Reduce each hole, asserting at every step that the candidates the
    loop gives from the graph and its walk are those of the face map of the
    retained faces renamed so far (``face_candidates``), that each move's
    apexes come in that map's order, and that the faces at the end are the
    step-by-step renaming's; return the number of moves whose ends both lie
    on the walk, which the move pinches at the merged vertex."""
    steps = []
    recount = reduction._recount

    def recording(cand, adj, border, edges):
        recount(cand, adj, border, edges)
        steps.append((_step_graph(adj), frozenset(border), sorted(cand)))

    pinched = 0
    for hole in holes:
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(reduction, "_recount", recording)
            _graph, moves = reduction._reduce(hole)
        assert len(steps) == len(moves) + 1
        renamed = list(hole.faces)
        for (graph, border, cand), m in zip(steps, moves + [None]):
            apexes, want = face_candidates(graph, renamed)
            assert cand == want, (hole, m)
            if m is None:
                break
            assert m.apexes == tuple(apexes[m.edge]), (hole, m)
            pinched += set(m.edge) <= {x for e in border for x in e}
            renamed = contract_faces_stepwise(renamed, [m.edge])
        assert reduction._contract_faces(hole.faces, [m.edge for m in moves]) == renamed
    return pinched


def test_walk_rule_matches_the_face_map_at_every_step(monkeypatch, tight_corpus):
    # the loop keeps no face map: it decides each step from the graph and
    # the walk renamed move by move, and orders apexes by face position.
    # Both agree with the face map at every step, on the reduction inputs
    # and on the tight holes whose disc keeps an edge exposed, where many
    # moves merge two walk vertices and leave the renamed walk pinched
    exposed = [h for h in _exposed_edge_holes() if check_3_6(h.graph).is_tight]
    assert len(exposed) > 100
    for holes in (_reduction_inputs(tight_corpus), exposed):
        assert _steps_match_the_face_map(monkeypatch, holes) > 100


def _census_holes() -> list:
    """Tight single holes on the tori with 8 and 9 vertices: on each torus,
    two discs grown at random (``grow_hole_oracle``) for each walk length
    from 6 to 13, kept when the hole is tight."""
    rng = random.Random(47)
    holes = []
    for n in (8, 9):
        for faces in torus_census(n).values():
            torus = TorusComplex(faces)
            for length in range(6, 14):
                for _ in range(2):
                    disc = grow_hole_oracle(torus, rng, length)
                    if disc is not None:
                        hole = TorusWithHole(torus, [disc])
                        if check_3_6(hole.graph).is_tight:
                            holes.append(hole)
    return holes


def test_kept_candidates_match_a_full_scan_at_every_step(monkeypatch, tight_corpus):
    # the candidate set the loop keeps, recounted only at the edges a move
    # can change, is at every step the scan of every edge off the walk
    # (``candidate_scan``); each step's graph, contracted in place, is the
    # reference contraction of the one before, and the moves are those of
    # the reduction that carries the hole through every step.  On the
    # tight corpus, H1-H17, tight holes on the census tori and repros A-C
    census = _census_holes()
    assert len(census) > 40
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)] + census
    holes += [load_hole(DATA / f"keylemma_repro_{x}.json") for x in "abc"]
    recount, steps = reduction._recount, []

    def recording(cand, adj, border, edges):
        recount(cand, adj, border, edges)
        graph = _step_graph(adj)
        assert sorted(cand) == candidate_scan(graph, border)
        steps.append(graph)

    monkeypatch.setattr(reduction, "_recount", recording)
    checked = 0
    for hole in holes:
        steps.clear()
        leaf, moves = reduction._reduce(hole)
        assert moves == hole_reduce_greedy(hole)[1]
        assert steps[0] == hole.graph and steps[-1] == leaf
        assert len(steps) == len(moves) + 1
        for g, m, h in zip(steps, moves, steps[1:]):
            assert h == contract_edge(g, *m.edge), m
        checked += len(steps)
    assert checked > 1500, checked


def test_reduce_renames_faces_once(monkeypatch):
    # the retained faces are renamed once per hole built, after the loop or
    # where it is stuck, as fission refills once, never once per move; the
    # loop alone, all that certify runs, renames none
    calls, renamed = [], []
    rename = reduction._contract_faces

    def counted(faces, edges):
        calls.append(len(edges))
        renamed.append(rename(faces, edges))
        return renamed[-1]

    monkeypatch.setattr(reduction, "_contract_faces", counted)
    h1 = build_H(1)
    _, moves = reduction._reduce(h1)
    certify(h1)
    assert len(moves) > 2 and calls == []
    assert reduce_greedy(h1)[1] == moves and calls == [len(moves)]
    assert renamed == [contract_faces_stepwise(h1.faces, [m.edge for m in moves])]
    calls.clear()
    _loosen_contractions_below(monkeypatch, len(h1.graph.vertices) - 2)
    with pytest.raises(errors.StuckButContractible):
        reduction._reduce(h1)
    assert calls == [2]


def test_classify_edge_matches_the_rule_oracle(tight_corpus):
    # the one rule, fed from the hole, classifies every graph edge as the
    # oracle's scans of the torus faces and the graph do; an FF edge's
    # apexes come in the order of its retained faces, as _reduce lists them,
    # and a kept edge, with no retained face, is BOUNDARY_INCIDENT_FACE
    exposed = _exposed_edge_holes()
    assert len(exposed) > 300
    kinds = collections.Counter()
    for hole in _reduction_inputs(tight_corpus) + exposed:
        for e in hole.graph.sorted_edges():
            kind, apexes = edge_rule_oracle(hole, e)
            assert classify_edge(hole, e) is kind, (hole, e)
            if kind is not EdgeClass.BOUNDARY_INCIDENT_FACE:
                assert tuple(reduction._apex_faces(hole.torus, e)) == apexes
            kinds[kind] += 1
    assert all(kinds[kind] > 100 for kind in EdgeClass), kinds
    for hole in exposed:
        for e in hole.single_disc.keep_edges:
            assert classify_edge(hole, e) is EdgeClass.BOUNDARY_INCIDENT_FACE


def test_contractible_edges_match_classify_edge(tight_corpus):
    # two ways to the contractible edges: the edges off the boundary walk
    # that greedy reduction starts from, and the FF test and the rule edge
    # by edge
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)] + [
        load_hole(DATA / f"{name}.json") for name in (
            "excluded_v3v2w3w1", "keylemma_repro_a", "keylemma_repro_b",
            "keylemma_repro_c", "two_octahedra")]
    found = 0
    for hole in holes:
        want = [e for e in hole.graph.sorted_edges()
                if classify_edge(hole, e) is EdgeClass.FF_CONTRACTIBLE]
        assert contractible_edges(hole) == want, hole
        found += len(want)
    assert found > 1000


def test_region_flood_matches_the_two_scans(monkeypatch, tight_corpus):
    # every region the key-lemma search grows is the one that scanning all
    # faces for the spanned ones, then every edge for the start's class,
    # gives; repro B's search through (3, 17) fails after growing its regions
    flooded = []
    flood = reduction._unspanned_region

    def recording(hole, start, k_set):
        region = flood(hole, start, k_set)
        flooded.append((hole, start, k_set, region))
        return region

    monkeypatch.setattr(reduction, "_unspanned_region", recording)
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)] + [
        load_hole(DATA / "keylemma_repro_a.json"),
        load_hole(DATA / "keylemma_repro_b.json")]
    for hole in holes:
        for e in contractible_edges(hole):
            try:
                find_critical_cycle_through(hole, e)
            except errors.NoCriticalCycle:
                assert hole is holes[-1] and e == (3, 17)
    assert len(flooded) > 300
    for hole, start, k_set, region in flooded:
        assert region == _grow_region(hole.torus, start,
                                      _blocked_faces(hole, k_set))


_EDGE_CALLS = {
    "classify_edge": classify_edge,
    "contract": contract,
    "find_critical_cycle_through": find_critical_cycle_through,
    "crossover_class": crossover_class,
    "is_ff_edge": lambda hole, e: hole.is_ff_edge(e),
}


@pytest.mark.parametrize("call", sorted(_EDGE_CALLS))
@pytest.mark.parametrize("e, error", [
    ((0,), errors.BadArgument),
    ((0, 1, 2), errors.BadArgument),
    (None, errors.BadArgument),
    ((0, 1.5), errors.BadArgument),
    ((0, True), errors.BadArgument),
    ((3, 3), errors.LoopEdge),
    ((0, 99), errors.UnknownEdge),
], ids=["one-vertex", "three-vertices", "none", "float", "bool", "loop",
        "not-an-edge"])
def test_malformed_edges_raise_typed_errors(call, e, error):
    # every call that takes an edge of a hole's graph checks it with the one
    # validator that DiscMap's keep edges use
    with pytest.raises(error):
        _EDGE_CALLS[call](build_H(1), e)


_SPLIT_STEPS = st.lists(
    st.tuples(st.integers(0, 999), st.integers(0, 999), st.integers(0, 999),
              st.booleans()), min_size=1, max_size=3)


def _grow_by_split(hole, vertex, anchor, other, side):
    """The split vertex and the facial split of it at two of its graph
    neighbours that moves the graph edges of one arc of its link between
    them; None where ``facial_split`` refuses."""
    v1 = sorted(hole.graph.vertices)[vertex % len(hole.graph.vertices)]
    cyc = link_cycle(hole.torus, v1)
    nbrs = [t for t in cyc if edge_key(v1, t) in hole.graph.edges]
    v2 = nbrs[anchor % len(nbrs)]
    v3 = nbrs[(anchor + 1 + other % (len(nbrs) - 1)) % len(nbrs)]
    i, j = sorted((cyc.index(v2), cyc.index(v3)))
    arc = cyc[i + 1:j] if side else cyc[j + 1:] + cyc[:i]
    try:
        return v1, facial_split(hole, v1, v2, v3,
                                [(v1, t) for t in arc if t in nbrs])
    except errors.TorusRigError:
        return None


@given(st.integers(1, 17), _SPLIT_STEPS)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_split_grown_catalog_graphs_reduce_as_the_oracle(index, steps):
    # vertex splits grow H1-H17 into graphs of hole forms that gen graphs
    # never reach.  A split keeps the freedom number, and keeps the form
    # unless the walk then visits both halves of the split vertex (two of
    # its visits separated).  On the tight ones with a named form, greedy
    # reduction takes the oracle's moves and its certificate verifies
    hole = build_H(index)
    for vertex, anchor, other, side in steps:
        grown = _grow_by_split(hole, vertex, anchor, other, side)
        if grown is None:
            return
        v1, child = grown
        assert freedom(child.graph) == freedom(hole.graph)
        if not check_3_6(child.graph).is_tight:
            return
        form = classify(child).word
        if form is None:
            return
        v0, = child.graph.vertices - hole.graph.vertices
        separated = {v0, v1} <= set(child.detachment_walk().vertices)
        assert (form == classify(hole).word) is not separated
        _reduces_as_the_oracle(child)
        assert verify_certificate(certify(child), child.graph)
        hole = child


def test_degree3_boundary_rule(tight_corpus):
    # a degree-3 boundary vertex incident to an FF edge: contracting that FF
    # edge stays tight
    checked = 0
    for hole in tight_corpus:
        boundary_vertices = {v for e in hole.boundary_edges for v in e}
        for v in sorted(boundary_vertices):
            if hole.graph.degree(v) != 3:
                continue
            ff = [e for e in hole.graph.sorted_edges()
                  if v in e and classify_edge(hole, e) in
                  (EdgeClass.FF_CONTRACTIBLE, EdgeClass.FF_BLOCKED)]
            if len(ff) != 1:
                continue
            e = ff[0]
            if classify_edge(hole, e) is not EdgeClass.FF_CONTRACTIBLE:
                continue
            assert check_3_6(contract(hole, e).graph).is_tight
            checked += 1
        if checked >= 12:
            break
    assert checked >= 3


def _tree_nodes(hole):
    """The nodes ``torusrig tree -`` prints for a hole."""
    code, out, _ = run_main(["tree", "-"], hole_to_record(hole))
    assert code == 0
    return json.loads(out)["nodes"]


def test_two_octahedra_tight_but_flexible():
    # the single-hole hypothesis is needed: two octahedra glued at the
    # antipodal pair {0, 1} form a tight two-hole torus graph that is not rigid
    hole = load_hole(DATA / "two_octahedra.json")
    g = hole.graph
    assert len(hole.discs) == 2
    assert check_3_6(g).is_tight
    assert generic_rank(g) == 23 < 3 * len(g.vertices) - 6 == 24
    assert not is_connected(induced(g, g.vertices - {0, 1}))
    with pytest.raises(errors.SingleHoleRequired, match="2 holes"):
        reduce_greedy(hole)


def test_key_lemma_search_refuses_two_holes():
    # the lemma is about one hole: every contractible edge of the two-hole
    # record is refused before the search, which would otherwise return None
    # on some and raise the violation signal NoCriticalCycle on others
    hole = load_hole(DATA / "two_octahedra.json")
    edges = contractible_edges(hole)
    assert len(edges) == 12
    for e in edges:
        with pytest.raises(errors.SingleHoleRequired, match="2 holes"):
            find_critical_cycle_through(hole, e)


def test_reduction_tree_h17_single_node():
    h17 = build_H(17)
    assert _tree_nodes(h17) == [
        {"id": 0, "parent": None, "move": None,
         "vertices": len(h17.graph.vertices), "edges": len(h17.graph.edges)}]


def test_reduction_tree_is_the_greedy_chain(tight_corpus):
    # one node per greedy contraction, each the child of the one before;
    # node i counts the graph after replaying the first i moves
    for hole in list(tight_corpus) + [build_H(i) for i in range(1, 18)]:
        nodes = _tree_nodes(hole)
        _, moves = reduce_greedy(hole)
        assert [n["id"] for n in nodes] == list(range(len(moves) + 1))
        assert [n["parent"] for n in nodes] == [None, *range(len(moves))]
        assert [n["move"] for n in nodes] == [None, *(m.to_json() for m in moves)]
        current = hole
        for i, node in enumerate(nodes):
            if i:
                current = contract(current, moves[i - 1].edge)
            assert (node["vertices"], node["edges"]) == \
                (len(current.graph.vertices), len(current.graph.edges))
            assert freedom(current.graph) == 6
        assert is_uncontractible(current)
        assert _is_h16_or_h17(current.graph)


def _loosen_contractions_below(monkeypatch, n_vertices):
    """Judge every graph of fewer than ``n_vertices`` vertices not tight
    where greedy reduction checks tightness: ``reduction``'s checks of
    whole graphs and the contraction trials of ``sparsity._contract_board``,
    which a contraction to that size fails without playing.  Greedy
    reduction checks only its input and the contractions it tries, so it
    sticks at that size."""
    real, real_trial = reduction.check_3_6, sparsity._contraction_trial

    def check(graph):
        if len(graph.vertices) < n_vertices:
            return SparsityVerdict(Status.SPARSE_NOT_TIGHT)
        return real(graph)

    def trial(adj, board, e):
        if len(adj) - 1 < n_vertices:
            return e, e[1], {}
        return real_trial(adj, board, e)
    monkeypatch.setattr(reduction, "check_3_6", check)
    monkeypatch.setattr(sparsity, "_contraction_trial", trial)


def test_no_tight_contraction_raises_stuck(monkeypatch):
    # a contractible graph whose contractions all fail breaks the
    # greedy-contraction ruling; reduce_greedy and the tree command say so
    # with the same signal
    h1 = build_H(1)
    _loosen_contractions_below(monkeypatch, len(h1.graph.vertices) - 2)
    with pytest.raises(errors.StuckButContractible) as stuck:
        reduce_greedy(h1)
    code, out, err = run_main(["tree", "-"], hole_to_record(h1))
    assert (code, out) == (1, "")
    assert err == f"error: {stuck.value}\n"
    assert "no tightness-preserving contraction" in err


def test_stuck_and_failed_contraction_carry_their_record(monkeypatch):
    # the record at the end of the message is the hole greedy reduction is
    # stuck at, two contractions in, and reproduces the failure when it is
    # piped into the CLI
    h1 = build_H(1)
    _, moves = reduce_greedy(h1)
    stuck_at = contract(contract(h1, moves[0].edge), moves[1].edge)
    _loosen_contractions_below(monkeypatch, len(h1.graph.vertices) - 2)
    with pytest.raises(errors.StuckButContractible) as stuck:
        reduce_greedy(h1)
    message = str(stuck.value)
    _, _, record = message.partition("; record: ")
    assert json.loads(record) == hole_to_record(stuck_at)
    code, out, err = run_main(["tree", "-"], json.loads(record))
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == f"error: {message}"
    monkeypatch.undo()

    def fail(retained, walks):
        raise errors.NotADisc("refill refused")

    def link_fails(h, e):
        # e's ends have a common torus neighbour besides its apexes, through
        # the hole's deleted edges, so renamed hole faces would be no torus;
        # contract refills every hole, so a refused refill fails it
        nbrs = Graph(h.torus.vertices, h.torus.edges).neighbors
        return nbrs(e[0]) & nbrs(e[1]) != set(edge_rule_oracle(h, e)[1])

    monkeypatch.setattr(reduction, "retriangulate_holes", fail)
    hole, e = next((h, e) for h in map(build_H, range(1, 18))
                   for e in contractible_edges(h) if link_fails(h, e))
    with pytest.raises(errors.NotContractible) as failed:
        contract(hole, e)
    _, _, record = str(failed.value).partition("; record: ")
    assert record_to_hole(json.loads(record)).graph == hole.graph


def test_certify_h17_chain_length_one():
    cert = certify(build_H(17))
    assert len(cert.splits) == 1
    assert verify_certificate(cert, build_H(17).graph)


def test_certify_h16_chain_length_two():
    cert = certify(build_H(16))
    assert len(cert.splits) == 2
    assert verify_certificate(cert, build_H(16).graph)


def test_certify_chain_length_bookkeeping():
    h1 = build_H(1)
    cert = certify(h1)
    leaf, moves = reduce_greedy(h1)
    base_len = 1 if is_isomorphic(leaf.graph, complete_graph(4)) else 2
    assert len(cert.splits) == base_len + len(moves)


def test_certificate_replay_rank_steps():
    cert = certify(build_H(5))
    graphs = replay_chain(cert)
    ranks = [generic_rank(g, seed=3) for g in graphs]
    assert ranks[0] == 3
    assert all(b - a == 3 for a, b in zip(ranks, ranks[1:]))


@pytest.mark.parametrize("missing", [None, *itertools.combinations((2, 5, 9, 14, 30), 2)])
def test_leaf_chain_builds_a_relabelled_leaf(missing):
    # the leaf is named by its counts alone: K4 on any four labels, and K5
    # minus any one edge on any five
    vs = (2, 5, 9, 14, 30) if missing else (3, 8, 11, 20)
    leaf = Graph(vs, set(itertools.combinations(vs, 2)) - {missing})
    base, splits = reduction._leaf_chain(leaf)
    assert Certificate(base, tuple(splits)).target == leaf


@pytest.mark.parametrize("leaf", [
    complete_graph(3), Graph(range(4), complete_graph(4).edges - {(0, 1)}),
    complete_graph(5), Graph(range(5), complete_graph(5).edges - {(0, 1), (2, 3)}),
    Graph(range(6), complete_graph(6).edges - {(0, 1), (2, 3), (4, 5)})])
def test_leaf_chain_refuses_any_other_size(leaf):
    with pytest.raises(errors.ReplayMismatch):
        reduction._leaf_chain(leaf)


def test_certificate_replay_mismatch_detected():
    cert = certify(build_H(17))
    wrong = complete_graph(5)
    with pytest.raises(errors.ReplayMismatch):
        verify_certificate(cert, wrong, check_rank=False)


def _two_switch(g: Graph) -> Graph:
    """g with edges ab, cd swapped for ac, bd: the same degrees, another
    edge set."""
    for a, b in g.sorted_edges():
        for c, d in g.sorted_edges():
            if len({a, b, c, d}) == 4 and (a, c) not in g and (b, d) not in g:
                return Graph(g.vertices, g.edges - {(a, b), (c, d)}
                             | {edge_key(a, c), edge_key(b, d)})
    raise AssertionError("no 2-switch")


def test_verify_refuses_any_other_target_at_once():
    # the replay must reproduce the target exactly: a relabelled copy or a
    # degree-preserving 2-switch of a tight 8x8 graph is refused without an
    # isomorphism search, which takes tens of seconds on either
    rec = next(r for r in corpus_records(CorpusSpec(seed=1, count=2, grids=((8, 8),)))
               if r["meta"]["status"] == "Tight")
    hole = record_to_hole(rec)
    cert = certify(hole)
    g = hole.graph
    label = dict(zip(sorted(g.vertices), sorted(g.vertices)[1:] + [min(g.vertices)]))
    relabelled = Graph(label.values(), [(label[u], label[v]) for u, v in g.edges])
    for target in (relabelled, _two_switch(g)):
        assert target != g
        t0 = time.perf_counter()
        with pytest.raises(errors.ReplayMismatch):
            verify_certificate(cert, target)
        assert time.perf_counter() - t0 < 1.0
    assert verify_certificate(cert, g, check_rank=False)


def test_verify_refuses_a_split_at_a_missing_vertex_or_of_a_non_vertex():
    # a split at a vertex K3 lacks, and a moved neighbour that is not a
    # vertex id, raise typed errors during the replay, as does every other
    # refusal of the split; so do a base that is not three vertices, and a
    # split whose anchors are not two or whose moved neighbours are no
    # collection, which the replay refuses before it splits
    move = reduction.SplitMove
    for split, error in (
            (move(9, (1, 2), frozenset(), 3), errors.InvalidAnchors),
            (move(0, (1, 2), frozenset({(1, 2)}), 3), errors.NotAnEdge),
            (move(0, (1, 2), frozenset(), 3.0), errors.BadArgument),
            (move(0, (1, 1), frozenset(), 3), errors.InvalidAnchors),
            (move(0, (1, 2), frozenset({1}), 3), errors.InvalidAnchors),
            (move(0, (1, 2), frozenset({0}), 3), errors.LoopEdge),
            (move(0, (1, 2), frozenset(), 2), errors.NonSimple),
            (move(0, (1,), frozenset(), 3), errors.BadArgument),
            (move(0, (1, 2, 0), frozenset(), 3), errors.BadArgument),
            (move(0, None, frozenset(), 3), errors.BadArgument),
            (move(0, (1, 2), None, 3), errors.BadArgument)):
        with pytest.raises(error):
            verify_certificate(Certificate((0, 1, 2), (split,)), complete_graph(3))
    # a moved neighbour equal to a vertex of the graph but not an int: the
    # second split would put 3.0, or True for the vertex 1, into the new
    # vertex's neighbour set
    for moved, anchors in ((3.0, (1, 2)), (True, (2, 3))):
        first = move(0, (1, 2), frozenset(), 3)
        cert = Certificate((0, 1, 2), (first, move(0, anchors, frozenset({moved}), 4)))
        with pytest.raises(errors.BadArgument, match=f"vertex {moved} is not an integer"):
            verify_certificate(cert, complete_graph(3))
    for base in ((0, 1), (0, 1, 2, 3), None):
        with pytest.raises(errors.BadArgument, match="is not three vertices"):
            Certificate(base, ()).target


def test_verify_ranks_the_target_once(monkeypatch):
    # one exact rank per certificate, of the target itself, at the caller's
    # seed read mod the word prime; the valid split chain stands for the
    # steps before it, and the full rank there leaves the 62-bit point out
    hole = build_H(5)
    cert = certify(hole)
    ranks = record_ranks(monkeypatch)
    assert verify_certificate(cert, hole.graph, check_rank=True, seed=7)
    (g, placement), = ranks
    assert g is hole.graph and placement.modulus == rigidity.WORD_PRIME
    assert placement.coords == rigidity.random_placement(g, 7).coords


def test_verify_without_rank_checks_tightness_once_per_call(monkeypatch):
    hole = build_H(5)
    cert = certify(hole)
    real_check = reduction.check_3_6
    calls = []

    def counted(g):
        calls.append(g)
        return real_check(g)

    monkeypatch.setattr(reduction, "check_3_6", counted)
    for n in (1, 2):
        assert verify_certificate(cert, hole.graph, check_rank=False)
        assert len(calls) == n and calls[-1] is hole.graph


def _corrupt_last_split(cert: Certificate, **changes) -> Certificate:
    last = dataclasses.replace(cert.splits[-1], **changes)
    return dataclasses.replace(cert, splits=cert.splits[:-1] + (last,))


@pytest.mark.parametrize("check_rank", [True, False])
def test_corrupted_splits_raise_replay_mismatch(check_rank):
    hole = build_H(3)
    cert = certify(hole)
    s = cert.splits[-1]
    # a neighbour of the split vertex that the split neither anchors nor moves
    t = min(replay_chain(cert)[-2].neighbors(s.vertex) - set(s.anchors) - s.moved)
    extra_moved = _corrupt_last_split(cert, moved=s.moved | {t})
    wrong_anchors = _corrupt_last_split(cert, anchors=(s.anchors[0], t))
    for bad in (extra_moved, wrong_anchors):
        assert bad.target != hole.graph
        with pytest.raises(errors.ReplayMismatch):
            verify_certificate(bad, hole.graph, check_rank=check_rank)


def test_rank_shortfall_on_the_target_raises(monkeypatch):
    # a rank shortfall on the target alone, at the word point and again at
    # the 62-bit point, must be caught and name the 62-bit rank, which is
    # taken once
    hole = build_H(5)
    cert = certify(hole)
    ranks = record_ranks(monkeypatch, lambda g, placement: g == hole.graph)
    full = 3 * len(hole.graph.vertices) - 6
    with pytest.raises(errors.ReplayMismatch, match=f"has rank {full - 1},"):
        verify_certificate(cert, hole.graph)
    assert [p.modulus for _g, p in ranks] == [
        rigidity.WORD_PRIME, rigidity.FIELD_PRIME]


def test_verify_ranks_once_at_the_word_prime(monkeypatch, tight_corpus):
    # the word point reaches the full rank on every certificate target of
    # the tight corpus, H1-H17 and the tight census holes: one rank each,
    # so the 62-bit fallback never runs
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)] + _census_holes()
    certs = [(certify(hole), hole.graph) for hole in holes]
    ranks = record_ranks(monkeypatch)
    for cert, g in certs:
        ranks.clear()
        assert verify_certificate(cert, g, check_rank=True)
        assert [(h, p.modulus) for h, p in ranks] == [(g, rigidity.WORD_PRIME)]


def test_rank_replay_agrees_with_tightness_replay(tight_corpus):
    # the per-step claim that verify_certificate leaves to Whiteley's lemma,
    # checked as an oracle: every replayed graph of a valid split chain is
    # tight and has rank |E| = 3|V| - 6
    holes = [build_H(i) for i in (1, 5, 9, 16)] + tight_corpus[:60]
    for hole in holes:
        cert = certify(hole)
        assert verify_certificate(cert, hole.graph, check_rank=True)
        assert verify_certificate(cert, hole.graph, check_rank=False)
        for g in replay_chain(cert):
            rank = generic_rank(g)
            assert check_3_6(g).is_tight
            assert rank == len(g.edges) == 3 * len(g.vertices) - 6


def test_fission_over_pinched_hole():
    # the critical cycle's e3e4 catalog graph H4 would collide with the
    # hole's own interior triangulation under both consistent walk
    # alignments; G2's hole is refilled, so the first alignment builds it
    hole = cut_hole(rectangular_torus(3, 3), [0, 1, 2, 3, 9, 14, 15])
    cycle = find_critical_cycle_through(hole, (3, 7))
    assert cycle.walk.vertices == (0, 1, 7, 8, 2, 5, 8, 7, 3)
    g1, g2 = fission(hole, cycle)
    assert classify(g1).word == "e3e4"
    assert check_3_6(g1.graph).is_tight
    assert check_3_6(g2.graph).is_tight
    assert len(g2.detachment_walk()) == 9
    _, ann = divide(hole, cycle)
    h4 = build_H(4)
    mapped = [{edge_key(m[a], m[b]) for a, b in h4.graph.edges} for m in
              walk_alignments(h4.detachment_walk().vertices,
                              cycle.walk.vertices)]
    assert len(mapped) == 2
    assert g2.graph.edges == mapped[0] | ann.edges


def test_substitute_error_names_cycle_and_carries_record(monkeypatch):
    # a refill that closes no torus fails the fission once, with no other
    # alignment tried
    def no_refill(*args):
        raise errors.NotADisc("refill disabled")

    hole = cut_hole(rectangular_torus(3, 3), [0, 1, 2, 3, 9, 14, 15])
    cycle = find_critical_cycle_through(hole, (3, 7))
    monkeypatch.setattr(reduction, "retriangulate_holes", no_refill)
    with pytest.raises(errors.NoMatchingCatalogGraph) as info:
        fission(hole, cycle)
    message = str(info.value)
    assert "at the cycle [0, 1, 7, 8, 2, 5, 8, 7, 3]" in message
    assert message.count("refill disabled") == 1
    # the message ends with the hole's record, which reloads to the hole
    record = json.loads(message.split("; record: ", 1)[1])
    assert record == hole_to_record(hole)
    assert record_to_hole(record).graph == hole.graph


def _named_cycle(message):
    """The hole and the cycle that a fission error names, rebuilt from the
    message alone: the record at its end, and the disc faces and kept edges
    it names, positions and edges of the record's torus."""
    why, _, record = message.partition("; record: ")
    hole = record_to_hole(json.loads(record))
    faces, keep = re.search(
        r"\(disc faces (\[[\d, ]*\]), keep (\[[\[\]\d, ]*\])\)", why).groups()
    disc = DiscMap(hole.torus, json.loads(faces), map(tuple, json.loads(keep)))
    return hole, SeparatingCycle(disc)


@pytest.mark.parametrize("child", ["no torus", "not tight"])
def test_fission_failure_reruns_from_its_message(monkeypatch, child):
    # both NoMatchingCatalogGraph messages, a refill that closes no torus and
    # a child that is not tight, name the cycle's disc; the cycle rebuilt
    # from the message fails fission again with the same message
    def refill(*args):
        if child == "no torus":
            raise errors.NotADisc("refill disabled")
        return cut_hole(rectangular_torus(3, 3), [0])  # a 3-walk: f = 0

    hole = cut_hole(rectangular_torus(3, 3), [0, 1, 2, 3, 9, 14, 15])
    cycle = find_critical_cycle_through(hole, (3, 7))
    assert cycle.disc.keep_edges == {(7, 8)}
    monkeypatch.setattr(reduction, "retriangulate_holes", refill)
    with pytest.raises(errors.NoMatchingCatalogGraph) as info:
        fission(hole, cycle)
    message = str(info.value)
    again, rebuilt = _named_cycle(message)
    assert (rebuilt.disc.faces, rebuilt.walk.vertices) == \
        (cycle.disc.faces, cycle.walk.vertices)
    with pytest.raises(errors.NoMatchingCatalogGraph) as rerun:
        fission(again, rebuilt)
    assert str(rerun.value) == message


def _key_lemma_outcome(hole, e):
    """The search's cycle through e, by its walk and disc faces, with the
    edges of fission's child G2; None; or the type of the error that the
    search or fission raises."""
    try:
        cycle = find_critical_cycle_through(hole, e)
        if cycle is None:
            return None
        g2 = fission(hole, cycle)[1]
        return cycle.walk.vertices, cycle.disc.faces, g2.graph.sorted_edges()
    except errors.TorusRigError as exc:
        return type(exc).__name__


def test_search_outcomes_match_the_flow_scan_violator(monkeypatch, tight_corpus):
    # the violator read off the failing placement, and the one the search
    # read before it, the flow scan of the edges at the merged vertex of a
    # built G/e, give the same cycle and fission, None or error on every
    # contractible edge of the tight corpus, H1-H17, repros A-C and the
    # keylemma benchmark's seed-1 inputs.  Only repros B and C raise
    # NoCriticalCycle, and no other error is raised
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)]
    holes += [load_hole(DATA / f"keylemma_repro_{x}.json") for x in "abc"]
    holes += [record_to_hole(r) for r in keylemma_records(1, 4)]
    cases = [(hole, e) for hole in holes for e in contractible_edges(hole)]
    board = [_key_lemma_outcome(hole, e) for hole, e in cases]
    monkeypatch.setattr(reduction, "_contraction_violator", scan_violator)
    assert [_key_lemma_outcome(hole, e) for hole, e in cases] == board
    failing = [(hole, e) for (hole, e), got in zip(cases, board) if isinstance(got, str)]
    assert [(len(hole.graph.vertices), e) for hole, e in failing] == [(14, (3, 17)), (9, (1, 7))]
    assert {board[cases.index(case)] for case in failing} == {"NoCriticalCycle"}
    assert sum(got is not None for got in board) > 300


def test_keylemma_refills_match_the_two_pass_oracles():
    # a fixed sample of the keylemma benchmark's seed-1 fissions: each
    # input, its outer part G1 and its refilled child G2 against the
    # two-pass region and the generic graph build
    fissions = 0
    for record in keylemma_records(1, 2):
        hole = record_to_hole(record)
        assert one_pass_mismatches(hole) == []
        for e in contractible_edges(hole):
            cycle = find_critical_cycle_through(hole, e)
            if cycle is not None:
                g1, g2 = fission(hole, cycle)
                assert one_pass_mismatches(g1) == one_pass_mismatches(g2) == []
                fissions += 1
    assert fissions > 20


def _catalog_alignments(hole, cycle):
    """The catalog graph fission substitutes at the cycle, and its walk
    alignments onto the cycle, in ``walk_alignments`` order."""
    pattern = catalog.canonical_pattern(cycle.outer.detachment_walk().vertices)
    _, h_rep = catalog.catalog_graph_for_class(pattern)
    return h_rep, list(walk_alignments(
        h_rep.detachment_walk().vertices, cycle.walk.vertices))


@pytest.fixture(scope="module")
def first_fissions(tight_corpus):
    """H1-H17, each at its own walk, and the first critical cycle through a
    contractible edge of each tight corpus hole that has one."""
    pairs = [(h, separating_cycle(h, h.single_disc.faces))
             for h in map(build_H, range(1, 18))]
    for hole in tight_corpus:
        cycles = (find_critical_cycle_through(hole, e) for e in contractible_edges(hole))
        cycle = next((c for c in cycles if c is not None), None)
        if cycle is not None:
            pairs.append((hole, cycle))
    return pairs


def test_fission_refills_the_hole_at_the_first_alignment(first_fissions):
    # G2's hole is a fresh fill over the input hole's walk, one apex per run
    # of distinct walk vertices, and its graph is the catalog graph at the
    # first consistent alignment plus the annulus
    assert len(first_fissions) > 60
    for hole, cycle in first_fissions:
        _, g2 = fission(hole, cycle)
        walk = hole.single_disc.boundary_walk
        assert g2.single_disc.boundary_walk.vertices == walk.vertices
        assert len(g2.single_disc.faces) == len(walk) + 2 * walk_runs(walk.vertices) - 2
        h_rep, alignments = _catalog_alignments(hole, cycle)
        first = alignments[0]
        _, ann = divide(hole, cycle)
        assert g2.graph.edges == ann.edges | {
            edge_key(first[a], first[b]) for a, b in h_rep.graph.edges}


def test_every_consistent_alignment_refills_a_tight_child(first_fissions):
    # fission keeps the first alignment; every other one would do as well,
    # on all 17 forms at their own walks and on the corpus
    forms = set()
    for hole, cycle in first_fissions:
        h_rep, alignments = _catalog_alignments(hole, cycle)
        forms.add(classify(cycle.outer).word)
        annulus = [hole.torus.faces[i] for i in cycle.disc.faces
                   if i not in hole.hole_faces]
        walks = [d.boundary_walk for d in hole.discs]
        for m in alignments:
            mapped = [tuple(m[x] for x in f) for f in h_rep.faces]
            g2 = retriangulate_holes(mapped + annulus, walks)
            assert check_3_6(g2.graph).is_tight
    assert forms == set(catalog.THE_17_WORDS)


def test_fission_refills_once(first_fissions, monkeypatch):
    # one substitution per fission: one refill, never a retry
    calls = []

    def counted(*args):
        calls.append(args)
        return retriangulate_holes(*args)

    monkeypatch.setattr(reduction, "retriangulate_holes", counted)
    for k, (hole, cycle) in enumerate(first_fissions, start=1):
        fission(hole, cycle)
        assert len(calls) == k


def test_critical_outer_part_is_induced(first_fissions):
    # the step of ``_substitute``'s argument that rules out a failed refill:
    # no graph edge off a tight G1 joins two of its vertices, so no annulus
    # edge off the cycle joins two cycle vertices
    for hole, cycle in first_fissions:
        g1 = cycle.outer.graph
        assert induced(hole.graph, g1.vertices) == g1
        _, ann = divide(hole, cycle)
        on_cycle = set(cycle.walk.vertices)
        assert {e for e in ann.edges if set(e) <= on_cycle} <= cycle.walk.edge_set()


def _decided(hole):
    """What a refill decides: the graph, each hole's walk and kept edges
    and the graph's ``check_3_6`` status."""
    return (hole.graph, [(d.boundary_walk.vertices, d.keep_edges) for d in hole.discs],
            check_3_6(hole.graph).status)


def test_fill_matches_the_collar_on_every_refill(monkeypatch, tight_corpus):
    # the fill and the reference collar (``collar_refill``) decide every
    # refill alike: fission's G2s, ``contract`` on every contractible edge
    # and every ``reduce_greedy`` leaf, over the tight corpus, H1-H17, the
    # tight census holes and the keylemma benchmark's seed-1 inputs
    refills = collections.Counter()

    def compared(faces, walks):
        refills[kind] += 1
        hole = retriangulate_holes(faces, walks)
        assert _decided(hole) == _decided(collar_refill(faces, walks))
        return hole

    monkeypatch.setattr(reduction, "retriangulate_holes", compared)
    holes = list(tight_corpus) + [build_H(i) for i in range(1, 18)] + _census_holes()
    holes += [record_to_hole(r) for r in keylemma_records(1, 4)]
    for hole in holes:
        for e in contractible_edges(hole):
            kind = "contract"
            contract(hole, e)
            kind = "fission"
            cycle = find_critical_cycle_through(hole, e)
            if cycle is not None:
                fission(hole, cycle)
        kind = "leaf"
        reduce_greedy(hole)
    assert refills["fission"] > 400 and refills["contract"] > 4000
    assert refills["leaf"] == sum(not is_uncontractible(h) for h in holes)
