import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors
from torusrig.catalog import build_H
from torusrig.fileio import load_hole
from torusrig.graphs import Graph, complete_graph, double_banana
from torusrig.reduction import certify, verify_certificate
from torusrig.rigidity import (DIM, FIELD_PRIME, WORD_PRIME, Placement,
                               _coordinates, generic_rank, is_min_3_rigid,
                               random_placement, rank_at_placement,
                               rigidity_matrix, rigidity_report)
from torusrig.sparsity import check_3_6

from helpers import (dense_rank_mod_p, induced, rank_rational, record_ranks,
                     replay_chain, run_main)

DATA = pathlib.Path(__file__).resolve().parent / "data"
OCTAHEDRON = Graph(range(6), complete_graph(6).edges - {(0, 1), (2, 3), (4, 5)})


def test_k2_rank_one():
    g = Graph([0, 1], [(0, 1)])
    assert rank_at_placement(g, random_placement(g, seed=1)) == 1


def test_k3_generic_rank():
    assert generic_rank(complete_graph(3)) == 3


def test_collinear_k3_degenerates():
    g = complete_graph(3)
    collinear = Placement({0: (0, 0, 0), 1: (1, 1, 1), 2: (2, 2, 2)},
                          FIELD_PRIME)
    assert rank_at_placement(g, collinear) == 2


def test_k4_independent():
    g = complete_graph(4)
    assert generic_rank(g) == 6 == len(g.edges)


def test_double_banana_rank_17_two_seeds():
    db = double_banana()
    # two independent placements agree on the deficient rank
    r1 = rank_at_placement(db, random_placement(db, seed=11))
    r2 = rank_at_placement(db, random_placement(db, seed=22))
    assert r1 == r2 == 17
    rep = rigidity_report(db)
    assert rep.rank == 17 and not rep.minimally_rigid and rep.dof == 1


def test_h1_rank():
    g = build_H(1).graph
    assert generic_rank(g) == 21 == 3 * len(g.vertices) - 6


def test_h17_minimally_rigid():
    assert is_min_3_rigid(build_H(17).graph)


def test_min_rigid_guards():
    with pytest.raises(errors.TooFewVertices):
        is_min_3_rigid(Graph([0, 1], [(0, 1)]))
    with pytest.raises(errors.MissingCoordinate):
        g = complete_graph(3)
        rigidity_matrix(g, Placement({0: (1, 2, 3)}, FIELD_PRIME))


def test_rank_never_exceeds_trivial_motion_bound():
    for g in (complete_graph(5), complete_graph(6), double_banana()):
        assert generic_rank(g) <= 3 * len(g.vertices) - 6


def test_trivial_motions_annihilate_matrix():
    # translations and rotations are in the kernel over the prime field
    g = complete_graph(5)
    p = random_placement(g, seed=5)
    rows = rigidity_matrix(g, p)
    verts = sorted(g.vertices)
    mod = p.modulus
    motions = []
    for d in range(DIM):
        motions.append([1 if i % DIM == d else 0 for i in range(DIM * len(verts))])
    for axis in range(DIM):
        vec = []
        for v in verts:
            x = p[v]
            cross = [0, 0, 0]
            a, b = (axis + 1) % 3, (axis + 2) % 3
            cross[a] = (-x[b]) % mod
            cross[b] = x[a] % mod
            vec.extend(cross)
        motions.append(vec)
    for m in motions:
        for row in rows:
            assert sum(r * v for r, v in zip(row, m)) % mod == 0


def _signed_integer_placement(g, seed):
    """Integer coordinates below 10^6 and the signed integer rigidity matrix
    they give, blocks in sorted vertex order and no entry reduced."""
    import random
    rng = random.Random(seed)
    coords = {v: tuple(rng.randrange(10 ** 6) for _ in range(DIM))
              for v in sorted(g.vertices)}
    verts = sorted(g.vertices)
    col = {v: DIM * i for i, v in enumerate(verts)}
    rows = []
    for u, v in g.sorted_edges():
        row = [0] * (DIM * len(verts))
        for d in range(DIM):
            diff = coords[u][d] - coords[v][d]
            row[col[u] + d] = diff
            row[col[v] + d] = -diff
        rows.append(row)
    return Placement(coords, FIELD_PRIME), rows


def test_field_rank_matches_rational_rank_small():
    # same integer placement: the kernel's rank over GF(p) and the rank of
    # the signed integer matrix over Q agree
    for seed in (1, 2):
        for g in (complete_graph(4), double_banana(),
                  Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                   (0, 2), (1, 3)])):
            placement, rows = _signed_integer_placement(g, seed)
            assert rank_at_placement(g, placement) == rank_rational(rows)


# every graph that certificates of H1, H5, H9 and H17 replay
REPLAYED = [g for i in (1, 5, 9, 17) for g in replay_chain(certify(build_H(i)))]


@st.composite
def graphs(draw):
    """A random simple graph with isolated vertices, K4, an octahedron, the
    two octahedra of the two-hole record, or a replayed certificate step."""
    kind = draw(st.sampled_from(["random", "random", "K4", "octahedron",
                                 "two octahedra", "replayed"]))
    if kind == "K4":
        return complete_graph(4)
    if kind == "octahedron":
        return OCTAHEDRON
    if kind == "two octahedra":
        return load_hole(DATA / "two_octahedra.json").graph
    if kind == "replayed":
        return draw(st.sampled_from(REPLAYED))
    n = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(range(n + draw(st.integers(0, 2))), edges)


@st.composite
def placements(draw):
    """(graph, placement) over GF(p), p small or the field prime.

    Coordinates are small, negative, at least p or multiples of p, and some
    vertices are moved onto another or onto the line through two others, so
    that small fields give singular pivot blocks and rank-deficient vertex
    blocks."""
    g = draw(graphs())
    p = draw(st.sampled_from([5, 7, 11, 13, FIELD_PRIME]))
    coord = st.one_of(st.integers(-9, 9),
                      st.integers(-3, 3).map(lambda k: k * p),
                      st.integers(-3 * p, 3 * p),
                      st.sampled_from([p - 1, p + 1, 1 - p, -p - 1]))
    verts = sorted(g.vertices)
    coords = {v: draw(st.tuples(coord, coord, coord)) for v in verts}
    for _ in range(draw(st.integers(0, 3)) if len(verts) >= 3 else 0):
        u, v, w = draw(st.permutations(verts))[:3]
        k = draw(st.integers(-2, 2))
        coords[w] = tuple(b + k * (b - a) for a, b in zip(coords[u], coords[v]))
    return g, Placement(coords, p)


@given(placements())
@settings(max_examples=400, deadline=None)
def test_rank_mod_p_matches_dense_reference(case):
    # the kernel's rank over GF(p) is the dense reference's rank of the
    # rigidity matrix, on degenerate placements over small fields too
    g, placement = case
    assert rank_at_placement(g, placement) == dense_rank_mod_p(
        rigidity_matrix(g, placement), placement.modulus)


@pytest.mark.parametrize("rows, p, rank", [
    ([], FIELD_PRIME, 0),
    ([[], []], FIELD_PRIME, 0),
    ([[0, 0, 0], [0, 0, 0]], FIELD_PRIME, 0),
    ([[1, -2, 3, 0, 5, -6, 7]], FIELD_PRIME, 1),
    ([[1], [-2], [3], [0]], FIELD_PRIME, 1),
    ([[FIELD_PRIME, 2 * FIELD_PRIME], [-FIELD_PRIME, 0]], FIELD_PRIME, 0),
    ([[7, 14], [21, -7]], 7, 0),
    ([[7, 1], [0, 7]], 7, 1),
    ([[1, 2], [8, 9]], 7, 1),
    ([[1, 2], [8, 9]], FIELD_PRIME, 2),
    ([[-1, FIELD_PRIME + 1, 0], [1, -1, 0], [0, 0, 3 - FIELD_PRIME]],
     FIELD_PRIME, 2),
])
def test_rank_mod_p_on_named_shapes(rows, p, rank):
    # the dense reference on signed entries, entries at least p and nonzero
    # multiples of p, as the rational cross-check hands it
    assert dense_rank_mod_p(rows, p) == rank


# K5 with vertex 0 eliminated first: its first three blocks p(0) - p(k),
# k = 1, 2, 3, lie in the plane z = 0, and the fourth, k = 4, leaves it
DEPENDENT_FIRST_THREE = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0),
                         3: (1, 1, 0), 4: (0, 0, 1)}


@pytest.mark.parametrize("g, coords, p, rank", [
    (Graph([], []), {}, FIELD_PRIME, 0),
    (Graph(range(3), []), {v: (v, 0, 0) for v in range(3)}, FIELD_PRIME, 0),
    (Graph([0, 1], [(0, 1)]), {0: (1, 2, 3), 1: (1, 2, 3)}, FIELD_PRIME, 0),
    (Graph([0, 1], [(0, 1)]), {0: (0, 0, 0), 1: (7, -14, 21)}, 7, 0),
    (Graph([0, 1], [(0, 1)]), {0: (0, 0, 0), 1: (7, -14, 22)}, 7, 1),
    (Graph(range(3), [(0, 1), (1, 2)]), {0: (0, 0, 5), 1: (1, 1, 1),
                                         2: (1, 1, 1)}, FIELD_PRIME, 1),
    (complete_graph(4), {0: (-1, FIELD_PRIME + 1, 0), 1: (1, -1, 0),
                         2: (0, 0, 3 - FIELD_PRIME), 3: (5, 7, -11)},
     FIELD_PRIME, 6),
    (complete_graph(5), DEPENDENT_FIRST_THREE, FIELD_PRIME, 9),
    (complete_graph(5), DEPENDENT_FIRST_THREE, 7, 9),
], ids=["empty", "isolated", "coincident", "multiple of p", "small field",
        "coincident path", "entries past p", "dependent first three",
        "dependent first three mod 7"])
def test_rank_at_placement_on_named_cases(g, coords, p, rank):
    placement = Placement(coords, p)
    assert rank_at_placement(g, placement) == dense_rank_mod_p(
        rigidity_matrix(g, placement), p) == rank


def test_rank_at_placement_matches_dense_reference_on_replays():
    # every graph that verify_certificate replays for H1-H17, ranked by the
    # kernel and by the dense sorted-order reference
    for i in range(1, 18):
        for g in replay_chain(certify(build_H(i))):
            placement = random_placement(g, seed=0)
            dense = dense_rank_mod_p(rigidity_matrix(g, placement), FIELD_PRIME)
            assert rank_at_placement(g, placement) == dense \
                == 3 * len(g.vertices) - 6


def test_one_placement_is_seed_stable_on_deficient_graphs(corpus9):
    # on rank-deficient graphs one placement is all the rank layer draws, so
    # every seed must give the same rank, the dense reference's at that seed
    deficient = [double_banana(), complete_graph(5)] + [
        h.graph for h in corpus9 if not check_3_6(h.graph).is_tight]
    for g in deficient:
        ranks = [generic_rank(g, seed) for seed in range(5)]
        dense = [dense_rank_mod_p(rigidity_matrix(g, random_placement(g, seed)),
                                  FIELD_PRIME) for seed in range(5)]
        assert ranks == dense == ranks[:1] * 5, g
        assert ranks[0] < len(g.edges)


# -- the word point: the seed's placement read mod WORD_PRIME --------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_word_prime_is_the_largest_prime_below_2_to_the_30():
    # one CPython digit: a reduced entry, and a product of two, stays small
    assert _is_prime(WORD_PRIME) and WORD_PRIME < 2 ** 30
    assert not any(_is_prime(n) for n in range(WORD_PRIME + 1, 2 ** 30))


def _word_rank(g, seed) -> int:
    return rank_at_placement(g, Placement(random_placement(g, seed).coords, WORD_PRIME))


def test_word_point_never_outranks_the_62_bit_point(corpus9):
    # one-sided at either prime: on graphs short of the full rank, flexible
    # and over-braced ones too, the word point never ranks higher, and
    # is_min_3_rigid is the 62-bit answer at every seed
    graphs = [double_banana(), load_hole(DATA / "two_octahedra.json").graph,
              complete_graph(5)] + [
        h.graph for h in corpus9 if not check_3_6(h.graph).is_tight]
    assert len(graphs) == 3 + 112
    for g in graphs:
        full = 3 * len(g.vertices) - 6
        for seed in range(5):
            rank = generic_rank(g, seed)
            assert _word_rank(g, seed) <= rank
            assert is_min_3_rigid(g, seed) == (rank == len(g.edges) == full), g


def test_a_word_point_shortfall_falls_back_to_the_62_bit_point(monkeypatch):
    # a full rank at the word point settles it; an unlucky word point alone
    # costs one 62-bit rank and no verdict; a shortfall at both is "no"
    g = build_H(5).graph
    for short_at, calls, rigid in (
            ((), [WORD_PRIME], True),
            ((WORD_PRIME,), [WORD_PRIME, FIELD_PRIME], True),
            ((WORD_PRIME, FIELD_PRIME), [WORD_PRIME, FIELD_PRIME], False)):
        ranks = record_ranks(monkeypatch, lambda g, p: p.modulus in short_at)
        assert is_min_3_rigid(g, seed=3) is rigid
        assert [p.modulus for _g, p in ranks] == calls


def test_rank_and_report_take_one_62_bit_rank(monkeypatch):
    # generic_rank, rigidity_report and ``torusrig rank`` never pay for a
    # word point: a graph short of the full rank would rank twice
    path = str(DATA / "two_octahedra.json")
    g = load_hole(path).graph
    for call in (lambda: generic_rank(g, 2), lambda: rigidity_report(g, seed=2),
                 lambda: run_main(["rank", path], None)):
        ranks = record_ranks(monkeypatch)
        call()
        assert [p.modulus for _g, p in ranks] == [FIELD_PRIME]


# -- one placement per (seed, vertex) ----------------------------------------

# p(0) at seed 0, the first vertex every certificate's K3 and most graphs hold
SEED_0_VERTEX_0 = (3113947112831643202, 4061443514191644238, 3627766875224000675)


def test_placement_of_a_subgraph_is_the_restriction():
    # every replay step and an induced subgraph see the coordinates that
    # their vertices have in the whole graph
    g = build_H(9).graph
    subs = replay_chain(certify(build_H(9))) + [induced(g, sorted(g.vertices)[::2])]
    for seed in (0, 1, 17):
        whole = random_placement(g, seed)
        for sub in subs:
            part = random_placement(sub, seed)
            assert part.coords.keys() == sub.vertices
            assert all(part[v] == whole[v] for v in sub.vertices)
    assert random_placement(g, 0)[0] != random_placement(g, 1)[0]


def test_placement_is_pinned_and_independent_of_the_hash_seed():
    g = complete_graph(4)
    assert random_placement(g, 0)[0] == SEED_0_VERTEX_0
    assert all(0 <= x < FIELD_PRIME for v in g.vertices
               for x in random_placement(g, 0)[v])
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = ("import json; from torusrig.graphs import complete_graph; "
              "from torusrig.rigidity import random_placement; "
              "p = random_placement(complete_graph(4), 0); "
              "print(json.dumps([p[v] for v in range(4)]))")
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [list(random_placement(g, 0)[v])
                                   for v in range(4)]


@pytest.mark.parametrize("seed", [True, 1.0, "1", [1], None],
                         ids=["bool", "float", "str", "list", "none"])
def test_a_seed_that_is_not_an_integer_is_refused(seed):
    # True and 1.0 equal 1, so the placement cache would hand either the
    # draws of whichever of the three came first, though each draws from
    # another string: the placement would depend on the order of calls.
    # Every rank refuses such a seed, after a draw at 1 and before one
    g = build_H(5).graph
    cert = certify(build_H(5))
    calls = (lambda: random_placement(g, seed), lambda: generic_rank(g, seed),
             lambda: rigidity_report(g, seed=seed),
             lambda: is_min_3_rigid(g, seed=seed),
             lambda: verify_certificate(cert, g, seed=seed))
    for first_at_one in (False, True):
        _coordinates.cache_clear()
        if first_at_one:
            generic_rank(g, 1)
        for call in calls:
            with pytest.raises(errors.BadArgument, match="is not an integer"):
                call()
    assert generic_rank(g, 1) == 3 * len(g.vertices) - 6
