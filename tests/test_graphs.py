import pytest

from torusrig import errors
from torusrig.graphs import (Graph, complete_graph, contract_edge, double_banana,
                             edge_key, freedom, is_isomorphic)

from helpers import induced, is_connected


def test_freedom_small_graphs():
    assert freedom(complete_graph(3)) == 6
    assert freedom(complete_graph(5)) == 5
    assert freedom(double_banana()) == 6


def test_edge_key_rejects_loops():
    with pytest.raises(errors.LoopEdge):
        edge_key(2, 2)


def test_contract_edge_counts():
    k4 = complete_graph(4)
    g = contract_edge(k4, 0, 1)
    assert len(g.vertices) == 3 and len(g.edges) == 3


def test_split_vertex_k3_to_k4():
    k3 = complete_graph(3)
    g = k3.split_vertex(0, 1, 2, [], new_vertex=3)
    assert len(g.vertices) == 4 and len(g.edges) == 6
    assert g.neighbors(3) == {0, 1, 2}
    assert is_isomorphic(g, complete_graph(4))


def test_split_vertex_k4_to_k5_minus_edge():
    # move one non-anchor edge across: 5 vertices, 9 edges, one missing pair
    k4 = complete_graph(4)
    g = k4.split_vertex(0, 1, 2, [(0, 3)], new_vertex=4)
    assert len(g.vertices) == 5 and len(g.edges) == 9
    k5 = complete_graph(5)
    k5e = Graph(k5.vertices, k5.edges - {(0, 1)})
    assert is_isomorphic(g, k5e)
    assert (0, 3) not in g and (4, 3) in g


def test_split_vertex_anchor_validation():
    k4 = complete_graph(4)
    with pytest.raises(errors.InvalidAnchors):
        k4.split_vertex(0, 1, 1, [], new_vertex=4)
    with pytest.raises(errors.InvalidAnchors):
        k4.split_vertex(0, 1, 2, [(0, 2)], new_vertex=4)
    with pytest.raises(errors.NotAnEdge):
        k4.split_vertex(0, 1, 2, [(1, 2)], new_vertex=4)
    with pytest.raises(errors.NonSimple):
        k4.split_vertex(0, 1, 2, [], new_vertex=3)


def test_is_isomorphic_basics():
    assert is_isomorphic(complete_graph(4), complete_graph(4))
    p4 = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(p4, star)
    relabeled = Graph([5, 7, 9, 11], [(5, 7), (7, 9), (9, 11)])
    assert is_isomorphic(p4, relabeled)


def test_double_banana_shape():
    db = double_banana()
    assert len(db.vertices) == 8 and len(db.edges) == 18
    # hinge pair is nonadjacent and separates
    assert (3, 4) not in db
    rest = induced(db, db.vertices - {3, 4})
    assert not is_connected(rest)
