import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors
from torusrig.catalog import build_H
from torusrig.graphs import Graph, complete_graph, double_banana
from torusrig.reduction import certify
from torusrig.rigidity import (DIM, FIELD_PRIME, Placement, generic_rank,
                               is_min_3_rigid, random_placement,
                               rank_at_placement, rank_mod_p, rigidity_matrix,
                               rigidity_report)

from helpers import dense_rank_mod_p, rank_rational


def test_k2_rank_one():
    g = Graph([0, 1], [(0, 1)])
    assert rank_at_placement(g, random_placement(g, seed=1)) == 1


def test_k3_generic_rank():
    assert generic_rank(complete_graph(3)) == 3


def test_collinear_k3_degenerates():
    g = complete_graph(3)
    collinear = Placement({0: (0, 0, 0), 1: (1, 1, 1), 2: (2, 2, 2)},
                          FIELD_PRIME, seed=0)
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
        rigidity_matrix(g, Placement({0: (1, 2, 3)}, FIELD_PRIME, 0))


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


def _signed_integer_matrix(g, seed):
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
    return rows


def test_field_rank_matches_rational_rank_small():
    # same signed integer matrix, ranks over GF(p) and over Q agree
    for seed in (1, 2):
        for g in (complete_graph(4), double_banana(),
                  Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                   (0, 2), (1, 3)])):
            rows = _signed_integer_matrix(g, seed)
            assert rank_mod_p(rows) == rank_rational(rows)


@st.composite
def signed_matrices(draw):
    """(p, rows): a random integer matrix for GF(p), p the field prime or 7.

    Entries are small, beyond +-p, near +-p, or nonzero multiples of p.
    Rows are added that duplicate or combine earlier ones, zero rows are
    inserted, some columns are zeroed, and the rows are shuffled; shapes run
    from empty through wide to tall.
    """
    p = draw(st.sampled_from([FIELD_PRIME, 7]))
    entry = st.one_of(st.integers(-9, 9),
                      st.integers(-3, 3).map(lambda k: k * p),
                      st.integers(-3 * p * p, 3 * p * p),
                      st.sampled_from([p - 1, p + 1, 1 - p, -p - 1]))
    ncols = draw(st.integers(0, 9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=7))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        picks = draw(st.lists(st.sampled_from(range(len(rows))),
                              min_size=1, max_size=3))
        coefs = [draw(entry) for _ in picks]
        rows.append([sum(a * rows[i][j] for a, i in zip(coefs, picks))
                     for j in range(ncols)])
        rows.append(list(rows[draw(st.sampled_from(range(len(rows))))]))
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    zeroed = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    rows = [[0 if j in zeroed else x for j, x in enumerate(r)] for r in rows]
    return p, draw(st.permutations(rows))


@given(signed_matrices())
@settings(max_examples=400, deadline=None)
def test_rank_mod_p_matches_dense_reference(case):
    p, rows = case
    assert rank_mod_p(rows, p) == dense_rank_mod_p(rows, p)


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
    assert rank_mod_p(rows, p) == dense_rank_mod_p(rows, p) == rank


def test_rank_at_placement_matches_dense_reference_on_replays():
    # every graph that verify_certificate replays for H1-H17, ranked in
    # minimum-degree column order and by the dense sorted-order reference
    for i in range(1, 18):
        for g in certify(build_H(i)).replay():
            placement = random_placement(g, seed=0)
            dense = dense_rank_mod_p(rigidity_matrix(g, placement), FIELD_PRIME)
            assert rank_at_placement(g, placement) == dense \
                == 3 * len(g.vertices) - 6


def test_rank_monotone_over_trials():
    db = double_banana()
    best = 0
    for t in range(1, 4):
        r = generic_rank(db, trials=t, seed=9)
        assert r >= best
        best = r


@pytest.mark.parametrize("trials", [0, -2])
def test_fewer_than_one_trial_is_typed_error(trials):
    # K5 fails the edge count, so is_min_3_rigid must check before it returns
    for g in (double_banana(), complete_graph(5)):
        with pytest.raises(errors.BadArgument):
            generic_rank(g, trials=trials)
        with pytest.raises(errors.BadArgument):
            rigidity_report(g, trials=trials)
        with pytest.raises(errors.BadArgument):
            is_min_3_rigid(g, trials=trials)
