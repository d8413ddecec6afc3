"""Every triangulated torus on 7, 8 and 9 vertices, found by a search of the
flip graph (``helpers.torus_census``), against the published counts."""

import random

import pytest

from torusrig.complexes import TorusComplex
from torusrig.graphs import Graph
from torusrig.reduction import _recount

from helpers import _rotation_code, face_candidates, torus_census


@pytest.mark.parametrize("n, tori, irreducible", [(7, 1, 1), (8, 7, 4), (9, 112, 15)])
def test_small_torus_census(n, tori, irreducible):
    # Lutz ("Enumeration and random realization of triangulated surfaces",
    # 2008) counts 1, 7 and 112 tori on 7, 8 and 9 vertices, and Lawrencenko
    # (1987) 1, 4 and 15 irreducible ones among them, where no edge
    # contracts: every edge lies on a nonfacial 3-cycle.  With every face
    # retained, no edge is on a boundary walk, and that is a torus that
    # gives greedy reduction no candidate; the rule's common-neighbour count
    # picks the edges that the face map's apexes pick
    census = torus_census(n)
    assert len(census) == tori
    count = 0
    for faces in census.values():
        torus = TorusComplex(faces)
        assert len(torus.vertices) == n
        graph = Graph(torus.vertices, torus.edges)
        cand: set = set()
        _recount(cand, graph._adj, frozenset(), graph.edges)
        assert sorted(cand) == face_candidates(graph, torus.faces)[1]
        count += not cand
    assert count == irreducible


def test_census_key_ignores_labels_and_orientation():
    # a torus relabelled at random, and its mirror image, keep their key, so
    # the census counts tori, not labellings
    rng = random.Random(7)
    for code, faces in torus_census(8).items():
        for _ in range(5):
            label = list(range(8))
            rng.shuffle(label)
            moved = [tuple(label[x] for x in f) for f in faces]
            if rng.random() < 0.5:
                moved = [(a, c, b) for a, b, c in moved]
            rng.shuffle(moved)
            assert _rotation_code(moved) == code
