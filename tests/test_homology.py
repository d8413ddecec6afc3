import pytest

from torusrig import errors
from torusrig.catalog import build_H
from torusrig.complexes import ClosedWalk, cut_hole, rectangular_torus
from torusrig.homology import (canonical_class, crossover_class,
                               standard_cochain, walk_homology)


def test_face_sums_vanish():
    for r, s in ((3, 3), (3, 4), (4, 5)):
        t = rectangular_torus(r, s)
        co = standard_cochain(t)
        for f in t.faces:
            assert co.face_sum(f) == (0, 0)


def test_generating_cycles():
    t = rectangular_torus(3, 4)
    co = standard_cochain(t)
    longitude = ClosedWalk([0, 4, 8])          # i-direction, ids i*s
    meridian = ClosedWalk([0, 1, 2, 3])        # j-direction
    assert walk_homology(co, longitude) == (1, 0)
    assert walk_homology(co, meridian) == (0, 1)


def test_walk_class_reversal_negates():
    t = rectangular_torus(3, 4)
    co = standard_cochain(t)
    w = ClosedWalk([0, 4, 8])
    assert walk_homology(co, ClosedWalk(w.vertices[::-1])) == (-1, 0)


def test_detachment_walk_null_homologous():
    t = rectangular_torus(4, 4)
    hole = cut_hole(t, [0, 1, 2])
    co = standard_cochain(t)
    assert walk_homology(co, hole.detachment_walk()) == (0, 0)


def test_face_boundary_invariance():
    # two walks differing by a face boundary have the same class
    t = rectangular_torus(3, 4)
    co = standard_cochain(t)
    f = t.faces[0]
    tri = walk_homology(co, ClosedWalk(f))
    assert tri == (0, 0)


def test_no_provenance():
    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append((i, (i + 2) % 7, (i + 3) % 7))
    from torusrig.complexes import TorusComplex
    k7 = TorusComplex(faces)
    with pytest.raises(errors.NoProvenance):
        standard_cochain(k7)


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
    assert crossover_class(hole, (3, 7)) == {(1, 0)}


@pytest.mark.parametrize("index", (2, 3, 4, 8, 10))
def test_pinched_catalog_crossovers_nontrivial(index):
    h = build_H(index)
    edges = _crossover_edges(h)
    assert edges
    for e in edges:
        classes = crossover_class(h, e)
        assert classes and (0, 0) not in classes, e
