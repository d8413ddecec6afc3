"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
corpora are fixed-seed and shared across criteria (see conftest).
"""

import itertools
import pathlib
import time

import pytest

from torusrig.catalog import THE_17_WORDS, build_H, classify, the_17
from torusrig.complexes import rectangular_torus
from torusrig.graphs import Graph, complete_graph, double_banana, freedom, \
    is_isomorphic
from torusrig.homology import crossover_class
from torusrig.reduction import (EdgeClass, certify, classify_edge, contract,
                                contractible_edges,
                                find_critical_cycle_through, fission,
                                is_critical, is_uncontractible, reduce_greedy,
                                verify_certificate)
from torusrig.rigidity import generic_rank, is_min_3_rigid, rigidity_report
from torusrig.sparsity import check_3_6, is_in_T
from torusrig.corpus import CorpusSpec, gen_corpus
from torusrig.fileio import load_hole

from helpers import (brute_force_3_6, exhaustive_critical_cycles_through,
                     induced, is_connected)

DATA = pathlib.Path(__file__).resolve().parent / "data"
K5_MINUS_EDGE = Graph(range(5), complete_graph(5).edges - {(0, 1)})


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_torus_counts():
    t0 = time.time()
    for r in range(3, 7):
        for s in range(3, 7):
            t = rectangular_torus(r, s)
            assert freedom(t) == 0
            assert all(len(fs) == 2 for fs in t.edge_faces.values())
    report(1, time.time() - t0 < 1.0,
           f"16 grid tori: f=0 and closed, {time.time()-t0:.2f}s")


def test_criterion_02_maxwell_iff_9_boundary(corpus_cuts):
    t0 = time.time()
    assert len(corpus_cuts) >= 500
    lengths = set()
    for hole in corpus_cuts:
        b = len(hole.detachment_walk())
        lengths.add(b)
        f = freedom(hole.graph)
        assert f == b - 3
        assert (f == 6) == (b == 9)
    assert lengths == set(range(3, 13))
    dt = time.time() - t0
    report(2, dt < 10, f"{len(corpus_cuts)} cuts, lengths 3..12, "
                       f"f = |bdD|-3 always, f=6 iff |bdD|=9, {dt:.1f}s")


def test_criterion_03_main_theorem_equivalence(corpus9):
    t0 = time.time()
    assert len(corpus9) >= 200
    n_tight = 0
    for hole in corpus9:
        assert len(hole.detachment_walk()) == 9
        tight = is_in_T(hole)
        rigid = is_min_3_rigid(hole.graph, seed=101)
        assert tight == rigid, hole
        n_tight += tight
    dt = time.time() - t0
    report(3, dt < 300,
           f"{len(corpus9)} graphs ({n_tight} tight): is_in_T == is_min_3_rigid, {dt:.1f}s")


def test_criterion_04_catalog():
    t0 = time.time()
    table = the_17()
    assert len({pattern for _, pattern in table}) == 17
    for i, word in enumerate(THE_17_WORDS, start=1):
        h = build_H(i)
        assert check_3_6(h.graph).is_tight
        assert is_min_3_rigid(h.graph, seed=7)
        assert set(h.graph.vertices) == set(h.detachment_walk().vertices)
        assert classify(h).word == word
    dt = time.time() - t0
    report(4, dt < 10, f"17 representatives tight, rigid, V=V(bd), "
                       f"classified; classes pairwise distinct, {dt:.1f}s")


def test_criterion_05_double_banana():
    t0 = time.time()
    db = double_banana()
    verdict = check_3_6(db)
    rep = rigidity_report(db, seed=13)
    ok = (verdict.is_tight and rep.rank == 17 and
          rep.rank < 18 and not rep.minimally_rigid)
    report(5, ok and time.time() - t0 < 1,
           f"double banana: Tight, rank {rep.rank} < 18, not minimally rigid")


def test_criterion_06_oracle_equivalence(corpus9):
    import random
    t0 = time.time()
    n = 0
    for hole in corpus9:
        if len(hole.graph.vertices) <= 12:
            assert check_3_6(hole.graph).status is \
                brute_force_3_6(hole.graph).status
            n += 1
    rng = random.Random(606)
    for _ in range(100):
        nv = rng.randrange(4, 13)
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
        m = rng.randrange(nv - 1, min(len(pairs), 3 * nv - 3))
        g = Graph(range(nv), rng.sample(pairs, m))
        assert check_3_6(g).status is brute_force_3_6(g).status
        n += 1
    dt = time.time() - t0
    report(6, dt < 60, f"fast path == brute force on {n} graphs, {dt:.1f}s")


def test_criterion_07_key_lemma_dichotomy(tight_corpus):
    t0 = time.time()
    n_edges = n_tight = n_cycles = n_oracle = 0
    for hole in tight_corpus:
        small = len(hole.faces) <= 14
        for e in contractible_edges(hole):
            n_edges += 1
            contracted = contract(hole, e)
            if check_3_6(contracted.graph).is_tight:
                n_tight += 1
                continue
            cycle = find_critical_cycle_through(hole, e)
            assert cycle is not None, (hole, e)
            assert len(cycle.walk) == 9
            assert e in {tuple(sorted(x)) for x in cycle.walk.edges()}
            assert is_critical(hole, cycle)
            n_cycles += 1
            if small:
                oracle = exhaustive_critical_cycles_through(hole, e)
                assert oracle, (hole, e)
                assert any(o.walk.canonical() == cycle.walk.canonical()
                           for o in oracle)
                n_oracle += 1
    dt = time.time() - t0
    report(7, dt < 600,
           f"{n_edges} contractible edges on {len(tight_corpus)} tight graphs: "
           f"{n_tight} tight contractions + {n_cycles} verified critical cycles "
           f"({n_oracle} oracle-checked), zero exceptions, {dt:.1f}s")


def test_criterion_08_fission_soundness(tight_corpus):
    t0 = time.time()
    n = 0
    for hole in tight_corpus:
        for e in contractible_edges(hole):
            contracted = contract(hole, e)
            if check_3_6(contracted.graph).is_tight:
                continue
            cycle = find_critical_cycle_through(hole, e)
            g1, g2 = fission(hole, cycle)
            assert check_3_6(g1.graph).is_tight
            assert check_3_6(g2.graph).is_tight
            n += 1
            break  # one fission per graph keeps the budget reasonable
    dt = time.time() - t0
    report(8, dt < 300,
           f"{n} fissions: children simple and tight, zero exceptions, {dt:.1f}s")


def test_criterion_09_reduction_termination(tight_corpus):
    t0 = time.time()
    for hole in tight_corpus:
        leaf, moves = reduce_greedy(hole)
        assert is_uncontractible(leaf)
        walk_vs = set(leaf.detachment_walk().vertices)
        assert set(leaf.graph.vertices) == walk_vs
        assert len(leaf.graph.vertices) <= 9
        assert is_isomorphic(leaf.graph, complete_graph(4)) or \
            is_isomorphic(leaf.graph, K5_MINUS_EDGE)
        assert len(moves) == len(hole.graph.vertices) - len(leaf.graph.vertices)
    dt = time.time() - t0
    report(9, dt < 300,
           f"reduce_greedy on {len(tight_corpus)} tight graphs: every leaf "
           f"uncontractible, V=V(bd), <=9 vertices, iso to H16/H17, {dt:.1f}s")


def test_criterion_10_certificate_replay(tight_corpus):
    t0 = time.time()
    for hole in tight_corpus:
        cert = certify(hole)
        assert verify_certificate(cert, hole.graph, check_rank=True, seed=17)
    dt = time.time() - t0
    report(10, dt < 600,
           f"certify on {len(tight_corpus)} tight graphs: replay from K3 with "
           f"per-step rank 3|V|-6, final isomorphism, {dt:.1f}s")


def test_criterion_11_homology(tight_corpus):
    t0 = time.time()
    h1 = build_H(1)
    nonboundary = sorted(h1.graph.edges - h1.boundary_edges)
    assert len(nonboundary) == 12
    classes = set()
    for e in nonboundary:
        classes |= crossover_class(h1, e)
    assert len(classes) == 3
    n = 0
    for hole in tight_corpus:
        boundary_vs = {v for be in hole.boundary_edges for v in be}
        for e in hole.graph.sorted_edges():
            if e in hole.boundary_edges or not hole.is_ff_edge(e):
                continue
            if e[0] in boundary_vs and e[1] in boundary_vs:
                crossover_class(hole, e)  # raises TrivialClassFound if trivial
                n += 1
    dt = time.time() - t0
    report(11, True, f"H1 crossover edges fall into exactly 3 classes; "
                     f"{n} corpus crossover edges all nontrivial, {dt:.1f}s")


def _has_separating_pair(g: Graph):
    verts = sorted(g.vertices)
    for x, y in itertools.combinations(verts, 2):
        rest = induced(g, g.vertices - {x, y})
        if len(rest.vertices) > 1 and not is_connected(rest):
            return (x, y)
    return None


def _flexible_two_hole(hole):
    """(separating pair, rank, 3|V| - 6) when a two-hole graph is tight, has
    a separating pair and a rank below 3|V| - 6; else None."""
    g = hole.graph
    if len(hole.discs) != 2 or freedom(g) != 6 or not check_3_6(g).is_tight:
        return None
    pair = _has_separating_pair(g)
    if pair is None:
        return None
    target = 3 * len(g.vertices) - 6
    rank = generic_rank(g, seed=23)
    return (pair, rank, target) if rank < target else None


def test_criterion_12_two_hole_negative_control():
    # a tight two-hole torus graph with a separating pair and deficient
    # rank: the committed record two_octahedra.json
    t0 = time.time()
    witness = _flexible_two_hole(load_hole(DATA / "two_octahedra.json"))
    if witness:
        pair, rank, target = witness
        detail = f"tight, separating pair {pair}, rank {rank} < {target}"
    else:
        detail = "not tight, or no separating pair, or full rank"
    report(12, witness is not None,
           f"record two_octahedra.json: {detail}, {time.time()-t0:.1f}s")
