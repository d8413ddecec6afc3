import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors
from torusrig.graphs import (Graph, _contract_in_place, _split_in_place,
                             complete_graph, double_banana, edge_key, freedom,
                             is_isomorphic)
from torusrig.reduction import certify
from torusrig.sparsity import _contraction_violator, check_3_6

from helpers import (both_moves, contract_edge, induced, is_connected,
                     random_parent, replay_chain, split_vertex)

# each move made by the reference, which builds a new graph, and by the
# package's body, which changes a working adjacency in place: the same graph
# or the same refusal (``both_moves``)
contract = functools.partial(both_moves, contract_edge, _contract_in_place)
split = functools.partial(both_moves, split_vertex, _split_in_place)


def test_freedom_small_graphs():
    assert freedom(complete_graph(3)) == 6
    assert freedom(complete_graph(5)) == 5
    assert freedom(double_banana()) == 6


def test_edge_key_rejects_loops():
    with pytest.raises(errors.LoopEdge):
        edge_key(2, 2)


@pytest.mark.parametrize("vertices, edges, bad", [
    ([0, "a"], [(0, "a")], "'a'"), (["a", "b"], [], "'[ab]'"),
    ([0.5, 2], [], "0.5"), ([True, 2, 3], [(2, 3)], "True")],
    ids=["str-and-int", "str", "float", "bool"])
def test_graph_takes_integer_vertices_only(vertices, edges, bad):
    with pytest.raises(errors.BadArgument, match=f"vertex {bad} is not an integer"):
        Graph(vertices, edges)


@pytest.mark.parametrize("edge", [(0, "a"), (0, 1, 2), (0, 1.0), 7, (True, 1),
                                  ("a", 1), (1.0, 2)],
                         ids=["str", "triple", "float", "int", "bool",
                              "str-first", "float-first"])
def test_graph_takes_integer_pair_edges_only(edge):
    # each is refused as it comes in, not by a bare TypeError or ValueError
    # from the key order or the unpacking, nor kept as an edge; a pair is
    # refused as the ends of a contraction of the path 0-1-2-3 too, where
    # (1.0, 2) would merge into the float 1.0
    with pytest.raises(errors.BadArgument, match="is not a pair of integers"):
        Graph([0, 1], [(0, 1), edge])
    if isinstance(edge, tuple) and len(edge) == 2:
        path = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(errors.BadArgument, match="is not a pair of integers"):
            contract(path, *edge)


@pytest.mark.parametrize("edge, answer", [
    ((0, 1), True), ((1, 0), True), ((0, 3), False), ((1, 1), False),
    (("a", 1), False), ((True, 2), False), ((1.0, 2), False), ((0, 9), False),
    ((0,), errors.BadArgument), ((0, 1, 2), errors.BadArgument),
    (7, errors.BadArgument), (None, errors.BadArgument)],
    ids=["edge", "reversed", "non-edge", "loop", "str", "bool", "float",
         "missing-vertex", "single", "triple", "int", "none"])
def test_graph_membership_is_typed(edge, answer):
    # a pair is answered, loops and non-integer ends alike, with no bare
    # TypeError from the key order and no LoopEdge; a non-pair is refused as
    # the constructor refuses it
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    if answer is errors.BadArgument:
        with pytest.raises(errors.BadArgument, match="is not a pair"):
            edge in g
    else:
        assert (edge in g) is answer


def test_contract_edge_counts():
    k4 = complete_graph(4)
    g = contract(k4, 0, 1)
    assert len(g.vertices) == 3 and len(g.edges) == 3


def test_split_vertex_k3_to_k4():
    k3 = complete_graph(3)
    g = split(k3, 0, 1, 2, [], 3)
    assert len(g.vertices) == 4 and len(g.edges) == 6
    assert g.neighbors(3) == {0, 1, 2}
    assert is_isomorphic(g, complete_graph(4))


def test_split_vertex_k4_to_k5_minus_edge():
    # move one non-anchor edge across: 5 vertices, 9 edges, one missing pair
    k4 = complete_graph(4)
    g = split(k4, 0, 1, 2, [(0, 3)], 4)
    assert len(g.vertices) == 5 and len(g.edges) == 9
    k5 = complete_graph(5)
    k5e = Graph(k5.vertices, k5.edges - {(0, 1)})
    assert is_isomorphic(g, k5e)
    assert (0, 3) not in g and (4, 3) in g


def test_split_vertex_anchor_validation():
    k4 = complete_graph(4)
    with pytest.raises(errors.InvalidAnchors):
        split(k4, 0, 1, 1, [], 4)
    with pytest.raises(errors.InvalidAnchors):
        split(k4, 0, 1, 2, [(0, 2)], 4)
    with pytest.raises(errors.NotAnEdge):
        split(k4, 0, 1, 2, [(1, 2)], 4)
    with pytest.raises(errors.NonSimple):
        split(k4, 0, 1, 2, [], 3)


def test_split_vertex_refuses_a_missing_vertex_and_a_non_pair():
    # typed errors, not the KeyError of a lookup or the TypeError of an unpack
    with pytest.raises(errors.InvalidAnchors):
        split(complete_graph(3), 9, 1, 2, [], 3)
    k4 = complete_graph(4)
    for bad in (3, (0, 3, 1), (0, "x")):
        with pytest.raises(errors.NotAnEdge):
            split(k4, 0, 1, 2, [bad], 4)


@pytest.mark.parametrize("v1, v2, v3, new_vertex, bad", [
    (0, 1, 2, 7.0, "7.0"), (0, 1.0, 2, 5, "1.0"), (0, 1, 2, "a", "'a'"),
    (0, 1, 2, None, "None"), (0, 1, 2, True, "True"), (0.0, 1, 2, 5, "0.0"),
    (0, 1, "2", 5, "'2'")],
    ids=["float-new", "float-anchor", "str-new", "none-new", "bool-new",
         "float-vertex", "str-anchor"])
def test_split_vertex_takes_integer_ids_only(v1, v2, v3, new_vertex, bad):
    # refused before any lookup: no float kept as a vertex or in an edge,
    # no bare TypeError, and True not taken for the vertex 1 already in use
    with pytest.raises(errors.BadArgument, match=f"vertex {bad} is not an integer"):
        split(complete_graph(5), v1, v2, v3, [], new_vertex)


def test_is_isomorphic_basics():
    assert is_isomorphic(complete_graph(4), complete_graph(4))
    p4 = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert not is_isomorphic(p4, star)
    relabeled = Graph([5, 7, 9, 11], [(5, 7), (7, 9), (9, 11)])
    assert is_isomorphic(p4, relabeled)
    # equal degree sequences: the search rejects and undoes partial maps to
    # refute C6 against two triangles and to find a relabelled C6
    c6 = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    triangles = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(c6, triangles)
    relabelled = Graph(range(6), [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    assert is_isomorphic(c6, relabelled)


def test_double_banana_shape():
    db = double_banana()
    assert len(db.vertices) == 8 and len(db.edges) == 18
    # hinge pair is nonadjacent and separates
    assert (3, 4) not in db
    rest = induced(db, db.vertices - {3, 4})
    assert not is_connected(rest)


# -- the two moves against graphs built from scratch ------------------------


def _assert_built_from_scratch(h: Graph):
    """h has the vertices, edges and neighbour sets of the graph that the
    constructor builds from its vertex and edge sets."""
    fresh = Graph(h.vertices, h.edges)
    assert (h.vertices, h.edges) == (fresh.vertices, fresh.edges)
    assert isinstance(h.vertices, frozenset) and isinstance(h.edges, frozenset)
    assert all(u < v for u, v in h.edges)
    assert h._adj.keys() == fresh._adj.keys()
    for v in fresh.vertices:
        assert h.neighbors(v) == fresh.neighbors(v)
        assert isinstance(h.neighbors(v), frozenset)


def _assert_moves_refused(data, g: Graph):
    """Invalid moves raise what they raise, and leave g as it was; a split
    refused only after it has taken every other moved edge changes nothing
    in place either."""
    before = Graph(g.vertices, g.edges)
    vs = sorted(g.vertices)
    non_edges = [(a, b) for a in vs for b in vs if a < b and (a, b) not in g.edges]
    if non_edges:
        with pytest.raises(errors.NotAnEdge):
            contract(g, *data.draw(st.sampled_from(non_edges)))
    with pytest.raises(errors.LoopEdge):
        contract(g, vs[0], vs[0])
    hubs = [v for v in vs if g.degree(v) >= 2]
    if hubs:
        v1 = data.draw(st.sampled_from(hubs))
        v2, v3 = sorted(g.neighbors(v1))[:2]
        new = max(vs) + 1
        with pytest.raises(errors.InvalidAnchors):
            split(g, v1, v2, v2, [], new)
        strangers = sorted(g.vertices - g.neighbors(v1) - {v1})
        if strangers:
            with pytest.raises(errors.InvalidAnchors):
                split(g, v1, v2, strangers[0], [], new)
        with pytest.raises(errors.InvalidAnchors):
            split(g, v1, v2, v3, [(v3, v1)], new)
        valid = [(v1, t) for t in sorted(g.neighbors(v1) - {v2, v3})]
        away = [e for e in g.sorted_edges() if v1 not in e]
        if away:
            with pytest.raises(errors.NotAnEdge):
                split(g, v1, v2, v3, valid + [away[0]], new)
        with pytest.raises(errors.NonSimple):
            split(g, v1, v2, v3, valid, v1)
    assert g == before
    assert all(g.neighbors(v) == before.neighbors(v) for v in vs)


def _draw_move(data, g: Graph) -> Graph | None:
    """A contraction or a vertex split of g, drawn at random; None when g
    has no edge left to move."""
    if not g.edges:
        return None
    if data.draw(st.booleans()):
        u, v = data.draw(st.sampled_from(g.sorted_edges()))
        if data.draw(st.booleans()):
            u, v = v, u
        h = contract(g, u, v)
        # the two edge-set differences are a contraction trial's that keeps
        # u: it cuts every edge at v and places one from u to each
        # neighbour of v that u lacks
        assert g.edges - h.edges == {edge_key(v, w) for w in g.neighbors(v)}
        assert h.edges - g.edges == {
            edge_key(u, w) for w in g.neighbors(v) - g.neighbors(u) - {u}}
        return h
    hubs = sorted(v for v in g.vertices if g.degree(v) >= 2)
    if not hubs:
        return None
    v1 = data.draw(st.sampled_from(hubs))
    v2, v3 = data.draw(st.permutations(sorted(g.neighbors(v1))))[:2]
    rest = sorted(g.neighbors(v1) - {v2, v3})
    moved = data.draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    edges = [(v1, t) if data.draw(st.booleans()) else (t, v1) for t in moved]
    h = split(g, v1, v2, v3, edges, max(g.vertices) + 1)
    assert h.neighbors(max(h.vertices)) == {v1, v2, v3, *moved}
    return h


@pytest.fixture(scope="module")
def certified(tight_corpus):
    """Each graph of the tight corpus with its certificate."""
    return [(hole.graph, certify(hole)) for hole in tight_corpus]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_moves_match_graphs_built_from_scratch(certified, data):
    # chains of contractions and vertex splits from a random tight, sparse or
    # violating graph, or from a certificate step; each child is the graph
    # that the constructor builds from its vertex and edge sets, and the
    # package's in-place moves make the reference moves' graphs and refuse
    # what they refuse, with the same errors (``both_moves``)
    if data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["tight", "sparse", "violating"]))
        g = random_parent(rng, kind, data.draw(st.integers(6, 14)))
    else:
        _target, cert = data.draw(st.sampled_from(certified))
        g = data.draw(st.sampled_from(replay_chain(cert)))
    for _ in range(data.draw(st.integers(1, 4))):
        _assert_moves_refused(data, g)
        h = _draw_move(data, g)
        if h is None:
            break
        _assert_built_from_scratch(h)
        g = h


def test_certify_replays_are_built_from_scratch_and_contract_back(certified):
    # every split of every certificate of the tight corpus gives the graph
    # built from scratch, and contracting the split edge gives its parent,
    # which a contraction trial on the split graph's board finds sparse
    for target, cert in certified:
        graphs = replay_chain(cert)
        assert graphs[-1] == target == cert.target
        for g, s, h in zip(graphs, cert.splits, graphs[1:]):
            _assert_built_from_scratch(h)
            back = contract(h, s.vertex, s.new_vertex)
            assert back == g and back._board is None
            assert all(back.neighbors(v) == g.neighbors(v) for v in g.vertices)
            assert check_3_6(h).is_tight
            assert _contraction_violator(h, (s.vertex, s.new_vertex)) is None
