import gc
import json
import random
import weakref

import pytest

from torusrig import errors
from torusrig.catalog import build_H
from torusrig.complexes import (ClosedWalk, TorusComplex, cut_hole, grid_faces,
                                rectangular_torus)
from torusrig.corpus import CorpusSpec, corpus_records
from torusrig.fileio import hole_to_record, record_to_hole
from torusrig.graphs import Graph
from torusrig.homology import canonical_class, crossover_class, walk_homology
from torusrig.reduction import reduce_greedy

K7_FACES = [f for i in range(7) for f in ((i, (i + 1) % 7, (i + 3) % 7),
                                          (i, (i + 2) % 7, (i + 3) % 7))]


class SeamCochain:
    """Test oracle: the seam cochain of the r x s grid torus.

    Vertex (i, j) has id i*s + j.  An edge picks up (1,0) when it crosses
    the seam between rows r-1 and 0 in the positive direction and (0,1)
    across the seam between columns s-1 and 0.
    """

    def __init__(self, r: int, s: int):
        self.r, self.s = r, s

    def value(self, tail: int, head: int) -> tuple[int, int]:
        r, s = self.r, self.s
        i1, j1 = divmod(tail, s)
        i2, j2 = divmod(head, s)
        di = (i2 - i1) % r
        dj = (j2 - j1) % s
        # grid steps move one unit in each coordinate at most (r, s >= 3
        # makes the direction unambiguous)
        assert di in (0, 1, r - 1) and dj in (0, 1, s - 1) and (di, dj) != (0, 0)
        a = -1 if di == r - 1 and i2 == r - 1 else 1 if di == 1 and i1 == r - 1 else 0
        b = -1 if dj == s - 1 and j2 == s - 1 else 1 if dj == 1 and j1 == s - 1 else 0
        return (a, b)


def face_sum(cochain, face) -> tuple[int, int]:
    return walk_homology(cochain, ClosedWalk(face))


def seam_matrix(torus, r, s):
    """The integer matrix M with seam class = M @ cochain class on the
    r x s grid torus, read off the longitude and the meridian through 0."""
    co = torus.cochain
    (a, c) = walk_homology(co, ClosedWalk([i * s for i in range(r)]))
    (b, d) = walk_homology(co, ClosedWalk(range(s)))
    det = a * d - b * c
    assert abs(det) == 1   # the two classes form a basis of Z^2
    # the longitude's seam class is (1,0) and the meridian's (0,1)
    return ((d * det, -b * det), (-c * det, a * det))


def apply(m, vec):
    return (m[0][0] * vec[0] + m[0][1] * vec[1],
            m[1][0] * vec[0] + m[1][1] * vec[1])


def random_closed_walk(graph, rng, steps):
    """A random walk of ``steps`` edges, closed by a shortest path home."""
    start = rng.choice(sorted(graph.vertices))
    walk = [start]
    for _ in range(steps):
        walk.append(rng.choice(sorted(graph.neighbors(walk[-1]))))
    back = {walk[-1]: None}
    queue = [walk[-1]]
    for u in queue:
        for w in sorted(graph.neighbors(u)):
            if w not in back:
                back[w] = u
                queue.append(w)
    path = [start]
    while path[-1] != walk[-1]:
        path.append(back[path[-1]])
    walk.extend(reversed(path[1:-1]))
    if len(walk) > 1 and walk[-1] == walk[0]:
        walk.pop()
    return walk


def _closed_on_every_face(torus):
    co = torus.cochain
    return all(face_sum(co, f) == (0, 0) for f in torus.faces)


def test_face_sums_vanish():
    for r, s in ((3, 3), (3, 4), (4, 5), (6, 6)):
        t = rectangular_torus(r, s)
        assert _closed_on_every_face(t)
        assert all(face_sum(SeamCochain(r, s), f) == (0, 0) for f in t.faces)
    for i in range(1, 18):
        assert _closed_on_every_face(build_H(i).torus), i
    assert _closed_on_every_face(TorusComplex(K7_FACES))
    leaf, moves = reduce_greedy(build_H(1))
    assert moves and _closed_on_every_face(leaf.torus)


@pytest.mark.parametrize("r", range(3, 7))
@pytest.mark.parametrize("s", range(3, 7))
def test_cochain_maps_to_seam_class_in_any_face_order(r, s):
    # one unimodular matrix takes the cochain's class of every closed walk
    # to its seam class, whatever the order and rotation of the grid faces
    faces = grid_faces(r, s)
    random.Random(r * 10 + s).shuffle(faces)
    faces = [(b, c, a) for a, b, c in faces[:5]] + faces[5:]
    torus = TorusComplex(faces)
    assert _closed_on_every_face(torus)
    m = seam_matrix(torus, r, s)
    co, seam = torus.cochain, SeamCochain(r, s)
    rng = random.Random(r * 100 + s)
    skeleton = Graph(torus.vertices, torus.edges)
    for _ in range(300):
        walk = ClosedWalk(random_closed_walk(skeleton, rng, rng.randint(1, 40)))
        assert apply(m, walk_homology(co, walk)) == walk_homology(seam, walk)


def test_cochain_is_cached_and_does_not_pin_the_torus():
    t = rectangular_torus(3, 4)
    co = t.cochain
    assert t.cochain is co
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert co.value(0, 1) == tuple(-x for x in co.value(1, 0))
    with pytest.raises(errors.UnknownEdge):
        co.value(0, 6)


def test_generating_cycles():
    t = rectangular_torus(3, 4)
    longitude = ClosedWalk([0, 4, 8])          # i-direction, ids i*s
    meridian = ClosedWalk([0, 1, 2, 3])        # j-direction
    assert walk_homology(SeamCochain(3, 4), longitude) == (1, 0)
    assert walk_homology(SeamCochain(3, 4), meridian) == (0, 1)
    co = t.cochain
    (a, c), (b, d) = walk_homology(co, longitude), walk_homology(co, meridian)
    assert abs(a * d - b * c) == 1


def test_walk_class_reversal_negates():
    t = rectangular_torus(3, 4)
    m = seam_matrix(t, 3, 4)
    co = t.cochain
    w = ClosedWalk([0, 4, 8])
    back = walk_homology(co, ClosedWalk(w.vertices[::-1]))
    assert back == tuple(-x for x in walk_homology(co, w))
    assert apply(m, back) == (-1, 0)
    assert walk_homology(SeamCochain(3, 4), ClosedWalk(w.vertices[::-1])) == (-1, 0)


def test_detachment_walk_null_homologous():
    t = rectangular_torus(4, 4)
    hole = cut_hole(t, [0, 1, 2])
    co = t.cochain
    assert walk_homology(co, hole.detachment_walk()) == (0, 0)


def test_face_boundary_invariance():
    # two walks differing by a face boundary have the same class
    t = rectangular_torus(3, 4)
    co = t.cochain
    f = t.faces[0]
    tri = walk_homology(co, ClosedWalk(f))
    assert tri == (0, 0)


def test_canonical_class_sign():
    assert canonical_class((-1, 2)) == (1, -2)
    assert canonical_class((0, -3)) == (0, 3)
    assert canonical_class((2, 1)) == (2, 1)


def test_h1_crossover_classes():
    h1 = build_H(1)
    nonboundary = sorted(h1.graph.edges - h1.boundary_edges)
    assert len(nonboundary) == 12
    singles = []
    for e in nonboundary:
        cls = crossover_class(h1, e)
        assert len(cls) == 1  # proper 9-cycle boundary: single class each
        singles.append(next(iter(cls)))
    assert len(set(singles)) == 3


def test_boundary_edge_not_crossover():
    h1 = build_H(1)
    e = next(iter(h1.boundary_edges))
    with pytest.raises(errors.NotACrossover):
        crossover_class(h1, e)
    # an FF edge with one end off the boundary graph is no crossover either
    hole = cut_hole(rectangular_torus(4, 4), [0])
    on_boundary = {v for e in hole.boundary_edges for v in e}
    e = next(e for e in hole.graph.sorted_edges()
             if hole.is_ff_edge(e) and (e[0] in on_boundary) != (e[1] in on_boundary))
    with pytest.raises(errors.NotACrossover, match="not on the boundary graph"):
        crossover_class(hole, e)


def _crossover_edges(hole):
    on_boundary = {v for e in hole.boundary_edges for v in e}
    return [e for e in hole.graph.sorted_edges()
            if hole.is_ff_edge(e)
            and e[0] in on_boundary and e[1] in on_boundary]


def test_pinched_crossover_closes_along_detachment_walk():
    # tight v3v6 hole pinched at vertex 8: a path of the boundary graph
    # 7-8-4-3 cuts across the pinch and skips the lobe 8-2-5-8; with the
    # crossover edge it bounds the two retained faces (3,7,4) and (4,7,8)
    hole = cut_hole(rectangular_torus(3, 3), [0, 1, 2, 3, 9, 14, 15])
    assert hole.detachment_walk().vertices == (0, 1, 7, 8, 2, 5, 8, 4, 3)
    m = seam_matrix(hole.torus, 3, 3)
    assert {canonical_class(apply(m, c))
            for c in crossover_class(hole, (3, 7))} == {(1, 0)}


@pytest.mark.parametrize("index", range(1, 17))   # H17 has no crossover edge
def test_pinched_catalog_crossovers_nontrivial(index):
    h = build_H(index)
    edges = _crossover_edges(h)
    assert edges
    for e in edges:
        classes = crossover_class(h, e)
        assert classes and (0, 0) not in classes, e


def test_trivial_class_error_carries_its_record():
    # the fourth record of ``torusrig gen --seed 7 --count 8`` violates
    # (3,6), and its crossover edge (0, 6) closes a null-homologous cycle
    rec = corpus_records(CorpusSpec(seed=7, count=8))[3]
    assert rec["meta"]["status"] == "Violation"
    hole = record_to_hole(rec)
    with pytest.raises(errors.TrivialClassFound) as info:
        crossover_class(hole, (0, 6))
    record = json.loads(str(info.value).split("; record: ", 1)[1])
    assert record == hole_to_record(hole)
    assert record_to_hole(record).graph == hole.graph
