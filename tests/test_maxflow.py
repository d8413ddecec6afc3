import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors
from torusrig.graphs import Graph, complete_graph
from torusrig.maxflow import densest_extension

from helpers import brute_force_densest_extension


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_densest_extension_matches_subset_oracle(data):
    # value and both optimisers are unique, so any largest cover the
    # out-path search finds must give the oracle's triple
    n = data.draw(st.integers(min_value=1, max_value=11))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = data.draw(st.integers(min_value=0, max_value=len(pairs)))
    g = Graph(range(n), data.draw(st.permutations(pairs))[:m])
    side = data.draw(st.lists(st.sampled_from(["in", "out", "free"]),
                              min_size=n, max_size=n))
    force_in = {v for v in range(n) if side[v] == "in"}
    force_out = {v for v in range(n) if side[v] == "out"}
    assert densest_extension(g, force_in, force_out) == \
        brute_force_densest_extension(g, force_in, force_out)


def test_densest_extension_of_k5_through_an_edge():
    # K5 spans 10 edges on 5 vertices: 10 - 15 = -5, as does the edge alone
    value, s_min, s_max = densest_extension(complete_graph(5), (0, 1))
    assert (value, s_min, s_max) == (-5, frozenset({0, 1}), frozenset(range(5)))


def test_overlapping_forced_sets_raise_bad_argument():
    with pytest.raises(errors.BadArgument, match="overlap"):
        densest_extension(complete_graph(4), {0, 1}, {1})


@pytest.mark.parametrize("force_in, force_out", [({0, 7}, ()), ({0}, {7})],
                         ids=["force_in", "force_out"])
def test_forced_vertex_outside_the_graph_raises_bad_argument(force_in, force_out):
    with pytest.raises(errors.BadArgument, match=r"\[7\]"):
        densest_extension(complete_graph(4), force_in, force_out)
