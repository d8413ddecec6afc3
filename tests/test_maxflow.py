import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors
from torusrig.graphs import Graph, complete_graph
from torusrig.maxflow import densest_extension, fetch_pebble

from helpers import brute_force_densest_extension, fetch_pebble_reference


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


def _random_board(seed: int):
    """A pebble board from ``seed``: an orientation of a random graph with
    out-degree at most three, each out-set filled in a fixed order so that
    two boards from one seed iterate alike, and up to 3 - out-degree free
    pebbles per vertex; with a root and the pinned vertices, the root among
    them or not."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    out = {t: set() for t in range(n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for a, b in rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n))):
        tails = [t for t in rng.sample((a, b), 2) if len(out[t]) < 3]
        if tails:
            out[tails[0]].add(b if tails[0] == a else a)
    pebbles = {t: rng.randint(0, 3 - len(heads)) for t, heads in out.items()}
    root = rng.randrange(n)
    pinned = tuple({root, *rng.sample(range(n), rng.randint(0, 2))}
                   if rng.random() < 0.7 else rng.sample(range(n), rng.randint(0, 2)))
    return pebbles, out, root, pinned


def test_fetch_pebble_moves_the_pebble_of_the_full_search():
    # the one-hop scan takes the pebble that the full search meets first,
    # so both leave the same pebble counts and out-sets: the same pebble
    # moved along the same path.  The boards reach a pebble one edge away,
    # one further away, and none
    seen = Counter()
    for seed in range(500):
        pebbles, out, root, pinned = _random_board(seed)
        ref_pebbles, ref_out, _, _ = _random_board(seed)
        near = any(pebbles[y] and y not in pinned for y in out[root])
        got = fetch_pebble(pebbles, out, root, pinned)
        assert got is fetch_pebble_reference(ref_pebbles, ref_out, root, pinned), seed
        assert pebbles == ref_pebbles and out == ref_out, seed
        seen["near" if near else "far" if got else "none"] += 1
    assert min(seen[k] for k in ("near", "far", "none")) >= 20, seen
