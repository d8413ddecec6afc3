import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors
from torusrig.catalog import build_H
from torusrig.complexes import (MAX_KEEP, ClosedWalk, DiscMap,
                                SurfaceComplex, TorusComplex, TorusWithHole,
                                cut_hole, cut_holes, disc_structures,
                                grid_faces, infer_disc, rectangular_torus,
                                retriangulate_holes)
from torusrig.fileio import hole_to_record, load_hole, record_to_hole
from torusrig.graphs import Graph, freedom

from helpers import (NonSimpleQuotient, boundary_edges, connected_regions,
                     corrupt, identify_face_graph, is_connected,
                     one_pass_mismatches, raised, region_mismatches,
                     slot_disc, surface_complex_oracle, torus_census)

DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_single_triangle():
    sc = SurfaceComplex([(0, 1, 2)])
    assert len(sc.vertices) == 3 and len(sc.edges) == 3 and len(sc.faces) == 1


def test_tetrahedron_closed():
    sc = SurfaceComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert all(len(fs) == 2 for fs in sc.edge_faces.values())
    assert not boundary_edges(sc)
    assert sc.euler_characteristic() == 2


def test_build_complex_errors():
    with pytest.raises(errors.EdgeInThreeFaces):
        SurfaceComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(errors.LoopEdge):
        SurfaceComplex([(0, 0, 1)])
    with pytest.raises(errors.DuplicateFace):
        SurfaceComplex([(0, 1, 2), (2, 0, 1)])


def _with_face_2(face):
    """``grid_faces(3, 3)`` with face 2, which is (1, 4, 5), replaced."""
    faces = grid_faces(3, 3)
    faces[2] = face
    return faces


@pytest.mark.parametrize("build, message", [
    (lambda t: SurfaceComplex([(0, 1)]), "not three comparable corners"),
    (lambda t: SurfaceComplex([(0, 1, "a")]), "not three comparable corners"),
    (lambda t: SurfaceComplex([(0, 1, 2.5)]), "not an integer"),
    (lambda t: DiscMap(t, [0.5]), "face index 0.5 is not an integer"),
    (lambda t: DiscMap(t, [True]), "face index True is not an integer"),
    (lambda t: next(disc_structures(t, [0, "1"])), "face index '1' is not an integer"),
    (lambda t: DiscMap(t, [0], keep_edges=[(0, 1, 2)]), "not a pair of integer"),
    (lambda t: DiscMap(t, [0, 1], keep_edges=[(0, True)]), "not a pair of integer"),
    # a corner or an index equal to one already in use: True == 1 == 1.0
    (lambda t: TorusComplex(_with_face_2((True, 4, 5))),
     r"face \(True, 4, 5\) has a corner that is not an integer"),
    (lambda t: TorusComplex(_with_face_2((1.0, 4, 5))),
     r"face \(1.0, 4, 5\) has a corner that is not an integer"),
    (lambda t: DiscMap(t, [0, 1, True]), "face index True is not an integer"),
    (lambda t: DiscMap(t, [0, 1, 1.0]), "face index 1.0 is not an integer"),
    (lambda t: rectangular_torus("3", 3), "grid '3'x3: dimensions must be integers"),
    (lambda t: rectangular_torus(3.0, 3), "grid 3.0x3: dimensions must be integers"),
    (lambda t: rectangular_torus(3, True), "grid 3xTrue: dimensions must be integers"),
], ids=["two-corners", "string-corner", "float-corner", "float-face",
        "bool-face", "string-face-in-search", "three-vertex-keep", "bool-keep",
        "bool-corner-in-use", "float-corner-in-use", "bool-face-in-use",
        "float-face-in-use", "string-grid", "float-grid", "bool-grid"])
def test_bad_arguments_raise_bad_argument(build, message):
    with pytest.raises(errors.BadArgument, match=message):
        build(rectangular_torus(3, 3))


@pytest.fixture(scope="module")
def face_lists():
    return [hole_to_record(build_H(i)) for i in range(1, 18)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_corrupt_face_lists_raise_the_oracle_error(face_lists, data):
    # SurfaceComplex checks each face once, in one pass; the first bad face
    # decides the error, as the face-by-face checks decide it
    faces = corrupt(data, data.draw(st.sampled_from(face_lists)))["faces"]
    assert raised(SurfaceComplex, faces) == raised(surface_complex_oracle, faces)


def test_pinched_wedge_is_not_a_torus():
    # a tetrahedron and two 3x3 grid tori wedged at vertex 3: every edge
    # lies in two faces, the graph is connected, it is orientable and
    # chi = 2 + 0 + 0 - 2 = 0, but the link of vertex 3 is three cycles
    faces = json.loads((DATA / "pinched_wedge.json").read_text())["faces"]
    sc = SurfaceComplex(faces)
    assert not boundary_edges(sc) and sc.euler_characteristic() == 0
    assert is_connected(Graph(sc.vertices, sc.edges))
    with pytest.raises(errors.NotClosedSurface, match="link of vertex 3"):
        TorusComplex(faces)


def test_disjoint_tori_are_not_connected():
    faces = grid_faces(3, 3) + [tuple(9 + x for x in f) for f in grid_faces(3, 3)]
    with pytest.raises(errors.NotClosedSurface, match="not connected"):
        TorusComplex(faces)


# a sphere: two poles 0 and 5 over the equator 1, 2, 3, 4
OCTAHEDRON = [(pole, 1 + k, 1 + (k + 1) % 4) for pole in (0, 5) for k in range(4)]


def _klein_bottle_faces(r, s):
    """``grid_faces(r, s)`` with the side i = r glued back reversed, j -> -j."""
    def vid(i, j):
        if i == r:
            i, j = 0, -j
        return i * s + j % s
    return [f for i in range(r) for j in range(s)
            for f in ((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)),
                      (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))]


@pytest.mark.parametrize("faces, message", [
    (OCTAHEDRON, "Euler characteristic 2 != 0"),
    (_klein_bottle_faces(3, 3), "complex is not orientable"),
], ids=["sphere", "klein-bottle"])
def test_other_closed_surfaces_are_not_tori(faces, message):
    # both are closed surfaces; the sphere fails the Euler count and the
    # Klein bottle, with chi = 0, the orientation
    sc = SurfaceComplex(faces)
    assert not boundary_edges(sc)
    with pytest.raises(errors.NotClosedSurface, match=message):
        TorusComplex(faces)
    record = {"vertices": len(sc.vertices), "faces": [list(f) for f in faces]}
    with pytest.raises(errors.NotClosedSurface, match=message):
        record_to_hole(record)


def test_round_trip_rebuild():
    sc = SurfaceComplex([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    again = SurfaceComplex(sc.faces)
    assert again.faces == sc.faces and again.edges == sc.edges


@pytest.mark.parametrize("r,s", [(3, 3), (3, 4), (4, 4), (5, 3)])
def test_rectangular_torus_counts(r, s):
    t = rectangular_torus(r, s)
    assert len(t.vertices) == r * s
    assert len(t.edges) == 3 * r * s
    assert len(t.faces) == 2 * r * s
    assert freedom(t) == 0
    assert t.euler_characteristic() == 0
    assert all(len(fs) == 2 for fs in t.edge_faces.values())


def test_rectangular_torus_too_small():
    with pytest.raises(errors.TooSmall):
        rectangular_torus(2, 3)
    with pytest.raises(errors.TooSmall):
        rectangular_torus(3, 2)


def _planar_grid_disc(n):
    """(n+1) x (n+1) planar triangulated grid, same diagonal pattern."""
    def vid(i, j):
        return i * (n + 1) + j
    faces = []
    for i in range(n):
        for j in range(n):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return SurfaceComplex(faces)


def test_identify_rectangular_face_graph():
    n = 3
    disc = _planar_grid_disc(n)
    def vid(i, j):
        return i * (n + 1) + j
    matching = {}
    for j in range(n + 1):
        matching[vid(n, j)] = vid(0, j)
    for i in range(n):
        matching[vid(i, n)] = vid(i, 0)
    t = identify_face_graph(disc, matching)
    assert len(t.vertices) == 9 and len(t.edges) == 27 and len(t.faces) == 18
    assert freedom(t) == 0


def test_identify_annular_face_graph():
    # annulus with two 9-cycles, inner a_i, outer b_i; a twisted matching
    faces = []
    for i in range(9):
        a, a1 = i, (i + 1) % 9
        b, b1 = 9 + i, 9 + (i + 1) % 9
        faces.append((a, a1, b))
        faces.append((a1, b, b1))
    ann = SurfaceComplex(faces)
    matching = {9 + i: (i + 3) % 9 for i in range(9)}
    t = identify_face_graph(ann, matching)
    assert len(t.vertices) == 9 and freedom(t) == 0


def test_identify_bad_matching_raises():
    faces = []
    for i in range(9):
        a, a1 = i, (i + 1) % 9
        b, b1 = 9 + i, 9 + (i + 1) % 9
        faces.append((a, a1, b))
        faces.append((a1, b, b1))
    ann = SurfaceComplex(faces)
    with pytest.raises(NonSimpleQuotient):
        identify_face_graph(ann, {9 + i: i for i in range(9)})  # creates loops


def test_torus_keeps_face_positions():
    # faces are addressed by position: reorienting rotates or reverses a
    # face's corners but never moves the face
    faces = grid_faces(4, 5)
    rng = random.Random(11)
    given = []
    for a, b, c in faces:
        given.append(rng.choice([(a, b, c), (b, c, a), (a, c, b), (c, b, a)]))
    torus = TorusComplex(given)
    assert [frozenset(f) for f in torus.faces] == [frozenset(f) for f in given]
    assert torus.faces != tuple(given)


def test_face_index_out_of_range_is_not_a_disc():
    t = rectangular_torus(3, 3)
    with pytest.raises(errors.NotADisc):
        cut_hole(t, [999])
    with pytest.raises(errors.NotADisc):
        next(disc_structures(t, [0, 18]))


def test_cut_single_face_hole():
    t = rectangular_torus(3, 3)
    hole = cut_hole(t, [0])
    assert hole.graph.edges == t.edges
    assert freedom(hole.graph) == 0
    assert len(hole.detachment_walk()) == 3
    assert hole.boundary_edges == frozenset(
        e for e, fs in t.edge_faces.items() if 0 in fs)


def test_cut_hole_freedom_identity(corpus_cuts):
    for hole in corpus_cuts[:40]:
        b = len(hole.detachment_walk())
        assert freedom(hole.graph) == b - 3


def test_detachment_walk_covers_boundary(corpus_cuts):
    for hole in corpus_cuts[:40]:
        walk = hole.detachment_walk()
        edges = walk.edges()
        assert frozenset(edges) == hole.boundary_edges
        for e in set(edges):
            assert edges.count(e) <= 2


def test_not_face_connected():
    t = rectangular_torus(3, 3)
    far = [i for i in range(len(t.faces))
           if not (set(t.faces[i]) & set(t.faces[0]))]
    with pytest.raises(errors.NotFaceConnected):
        DiscMap(t, [0, far[0]])
    with pytest.raises(errors.NotFaceConnected):
        infer_disc(t, [0, far[0]])


def test_infer_disc_empty_region():
    with pytest.raises(errors.NotADisc):
        infer_disc(rectangular_torus(3, 3), [])


def test_wraparound_strip_needs_exposed_edge():
    t = rectangular_torus(3, 3)
    strip = [i for i, f in enumerate(t.faces) if all(v % 3 in (0, 1) for v in f)]
    with pytest.raises(errors.NotADisc):
        DiscMap(t, strip)
    disc = infer_disc(t, strip)
    assert len(disc.keep_edges) == 1
    hole = TorusWithHole(t, [disc])
    walk = hole.detachment_walk()
    assert len(walk) == 8 and freedom(hole.graph) == 5
    doubled = [e for e in set(walk.edges()) if walk.edges().count(e) == 2]
    assert doubled == sorted(disc.keep_edges)


def test_interior_vertex_disc_drops_vertex():
    # the full star of a vertex is a disc whose centre loses all its edges
    t = rectangular_torus(4, 4)
    v = 5
    star = [i for i, f in enumerate(t.faces) if v in f]
    hole = cut_hole(t, star)
    assert v not in hole.graph.vertices
    b = len(hole.detachment_walk())
    assert freedom(hole.graph) == b - 3


def test_multi_hole_cutting():
    t = rectangular_torus(5, 5)
    adj = t.face_adjacency()
    r1 = {0} | adj[0]
    r2 = None
    r1_edges = {e for i in r1 for e in
                (lambda f: [tuple(sorted(p)) for p in
                            [(f[0], f[1]), (f[1], f[2]), (f[0], f[2])]])(t.faces[i])}
    for g in range(len(t.faces)):
        cand = {g} | adj[g]
        if cand & r1:
            continue
        cand_edges = {e for i in cand for e in
                      (lambda f: [tuple(sorted(p)) for p in
                                  [(f[0], f[1]), (f[1], f[2]), (f[0], f[2])]])(t.faces[i])}
        if cand_edges & r1_edges:
            continue
        r2 = cand
        break
    assert r2 is not None
    hole = cut_holes(t, [sorted(r1), sorted(r2)])
    assert len(hole.discs) == 2
    assert freedom(hole.graph) == sum(len(d.boundary_walk) - 3 for d in hole.discs)
    with pytest.raises(errors.SingleHoleRequired):
        hole.detachment_walk()


def test_hole_interaction_rejected():
    t = rectangular_torus(4, 4)
    adj = t.face_adjacency()
    r1 = {0} | adj[0]
    overlap = sorted(r1)[:2]
    with pytest.raises(errors.HoleInteraction):
        cut_holes(t, [sorted(r1), overlap])


def test_retriangulate_holes_roundtrip():
    t = rectangular_torus(3, 3)
    hole = cut_hole(t, [0, 1, 2, 3, 7, 12, 17])
    rebuilt = retriangulate_holes(hole.faces, [hole.detachment_walk()])
    assert rebuilt.graph == hole.graph
    # the fresh disc is the run of faces appended after the retained ones
    n = len(hole.detachment_walk())
    assert rebuilt.single_disc.faces == tuple(range(len(hole.faces),
                                                    len(hole.faces) + 3 * n))
    # the collar is filled from the walk's canonical rotation, which its
    # disc reads back, so any rotation or reversal fills the same collar
    w = hole.detachment_walk().vertices
    assert rebuilt.detachment_walk().vertices == w
    for v in (w[3:] + w[:3], w[::-1]):
        again = retriangulate_holes(hole.faces, [ClosedWalk(v)])
        assert again.torus.faces == rebuilt.torus.faces


def test_swapped_boundary_walk_raises_typed_error():
    t = rectangular_torus(3, 3)
    disc = DiscMap(t, [0])
    disc.boundary_walk = DiscMap(t, [1]).boundary_walk
    with pytest.raises(errors.NotADisc, match="detachment image"):
        TorusWithHole(t, [disc])


def _grow(torus, rng, region, n):
    """The region plus n random faces, each adjacent to the faces before it."""
    adj = torus.face_adjacency()
    region = set(region)
    for _ in range(n):
        region.add(rng.choice(sorted({g for f in region for g in adj[f]} - region)))
    return frozenset(region)


def _brute_force_discs(torus, region, keeps_deleted_of=None, boundary_length=None):
    """Every keep set of at most MAX_KEEP shared edges that DiscMap accepts,
    filtered by boundary length and by still deleting a hole's edges."""
    shared = sorted(e for e, (f1, f2) in torus.edge_faces.items()
                    if f1 in region and f2 in region)
    out = []
    for k in range(MAX_KEEP + 1):
        for keep in itertools.combinations(shared, k):
            try:
                d = DiscMap(torus, region, keep_edges=keep)
            except errors.NotADisc:
                continue
            if boundary_length is not None and len(d.boundary_walk) != boundary_length:
                continue
            if keeps_deleted_of is not None and \
                    not keeps_deleted_of.deleted_edges <= d.interior_edges:
                continue
            out.append(d)
    return out


def _summary(discs):
    return [(d.faces, sorted(d.keep_edges), d.boundary_walk.vertices) for d in discs]


def test_disc_structures_match_brute_force():
    t = rectangular_torus(3, 3)
    rng = random.Random(20261018)
    found = 0
    for _ in range(30):
        region = _grow(t, rng, [rng.randrange(18)], rng.randrange(18))
        want = _brute_force_discs(t, region)
        assert _summary(disc_structures(t, region)) == _summary(want), sorted(region)
        found += len(want)
    assert found > 30


def test_enlargement_disc_structures_match_brute_force():
    # nine-edge enlargements of random holes that never keep a deleted edge
    t = rectangular_torus(3, 3)
    rng = random.Random(20261019)
    holes = found = 0
    while holes < 150:
        hole_faces = _grow(t, rng, [rng.randrange(18)], rng.randrange(2, 7))
        try:
            hole = cut_hole(t, hole_faces)
        except errors.NotADisc:
            continue
        holes += 1
        region = _grow(t, rng, hole_faces, rng.randrange(1, 7))
        want = _brute_force_discs(t, region, keeps_deleted_of=hole, boundary_length=9)
        got = disc_structures(t, region, forbid_keep=hole.deleted_edges,
                              boundary_length=9)
        assert _summary(got) == _summary(want), (sorted(hole_faces), sorted(region))
        found += sum(1 for d in want if d.keep_edges)
    assert found > 10


def test_closed_walk_refuses_an_empty_sequence():
    # an empty walk has no edges, and no canonical form to hash or compare
    with pytest.raises(errors.BadArgument):
        ClosedWalk([])
    assert ClosedWalk([2, 0, 1]).canonical() == (0, 1, 2)


@pytest.mark.parametrize("vertices", [["a", 1, 2], [True, 2, 3], [1.0, 2, 3],
                                      [0, 1, None]])
def test_closed_walk_refuses_a_vertex_that_is_not_an_integer(vertices):
    # as SurfaceComplex and DiscMap refuse such corners: a set would take
    # True or 1.0 for the vertex 1, and a string breaks hashing and refills
    with pytest.raises(errors.BadArgument):
        ClosedWalk(vertices)


def test_refill_refuses_a_walk_with_a_vertex_that_is_not_an_integer():
    with pytest.raises(errors.BadArgument):
        retriangulate_holes([(0, 1, 2)], [ClosedWalk([0, 1, "x"])])


def test_retriangulate_holes_refuses_no_retained_faces():
    # a collar alone closes no torus; the error is typed, not max()'s
    with pytest.raises(errors.NotClosedSurface):
        retriangulate_holes([], [ClosedWalk([0, 1, 2])])


@pytest.mark.parametrize("corner", ["a", 2.5], ids=["str", "float"])
def test_retriangulate_holes_refuses_a_corner_that_is_not_an_integer(corner):
    # fresh ids start above the integer corners, so the face reaches
    # TorusComplex, which refuses it as it refuses it on its own
    with pytest.raises(errors.BadArgument):
        TorusComplex([(0, 1, corner)])
    with pytest.raises(errors.BadArgument):
        retriangulate_holes([(0, 1, corner)], [ClosedWalk([0, 1, 2])])


def _outcome(unfold, *args):
    try:
        return unfold(*args)
    except errors.TorusRigError as exc:
        return type(exc)


#: H1-H17 and the hole records, each with a loader
STORED = [(f"H{i}", lambda i=i: build_H(i)) for i in range(1, 18)] + [
    (name, lambda name=name: load_hole(DATA / f"{name}.json")) for name in (
        "excluded_v3v2w3w1", "keylemma_repro_a", "keylemma_repro_b",
        "keylemma_repro_c", "two_octahedra")]


def _disc_parts(torus, faces, keep):
    d = DiscMap(torus, faces, keep_edges=keep)
    return d.boundary_walk.vertices, d.interior_edges, d.interior_vertices


def test_boundary_walk_matches_slot_oracle():
    # every face set of K7, fully glued and with one random keep set of one
    # to three shared edges, grown 3x3 grid regions with every keep set of
    # at most one edge, and every stored hole (H1-H17 and the records, with
    # wrap-around discs, exposed edges, pinched walks and repros A-C) with
    # its own keep set: same walk, interior edges, interior vertices and
    # error type as the slot-based unfolding
    k7 = TorusComplex([f for i in range(7) for f in (
        (i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))])
    grid = rectangular_torus(3, 3)
    rng = random.Random(20261020)
    cases = []
    for mask in range(1, 1 << 14):
        faces = [i for i in range(14) if mask >> i & 1]
        shared = sorted(e for e, (f1, f2) in k7.edge_faces.items()
                        if mask >> f1 & 1 and mask >> f2 & 1)
        cases.append((k7, faces, ()))
        if shared:
            k = min(len(shared), rng.randint(1, MAX_KEEP))
            cases.append((k7, faces, rng.sample(shared, k)))
    for _ in range(200):
        region = _grow(grid, rng, [rng.randrange(18)], rng.randrange(18))
        shared = sorted(e for e, (f1, f2) in grid.edge_faces.items()
                        if f1 in region and f2 in region)
        cases.extend((grid, region, keep) for keep in [(), *zip(shared)])
    stored = [load() for _, load in STORED]
    cases.extend((h.torus, d.faces, d.keep_edges) for h in stored for d in h.discs)
    discs = 0
    for torus, faces, keep in cases:
        want = _outcome(slot_disc, torus, faces, keep)
        assert _outcome(_disc_parts, torus, faces, keep) == want, (faces, keep)
        discs += isinstance(want, tuple)
    assert discs > 2000


@pytest.mark.parametrize("load", [load for _, load in STORED],
                         ids=[name for name, _ in STORED])
def test_boundary_walk_does_not_depend_on_face_numbering(load):
    # the torus's faces listed in reverse and in one shuffled order, with the
    # holes' face indices mapped to match: each disc reads the same walk, in
    # its least rotation or reversal.  A walk started and directed by face
    # index reads another rotation of H9, H11-H13, H15, H16 or two_octahedra.
    hole = load()
    record = hole_to_record(hole)
    n = len(record["faces"])
    shuffled = list(range(n))
    random.Random(20261019).shuffle(shuffled)
    for order in (list(range(n))[::-1], shuffled):
        position = {old: new for new, old in enumerate(order)}
        holes = []
        for h in record["holes"]:
            pinned = isinstance(h, dict)
            mapped = sorted(position[i] for i in (h["faces"] if pinned else h))
            holes.append({**h, "faces": mapped} if pinned else mapped)
        faces = [record["faces"][i] for i in order]
        rebuilt = record_to_hole({**record, "faces": faces, "holes": holes})
        for d, r in zip(hole.discs, rebuilt.discs, strict=True):
            assert r.boundary_walk.vertices == d.boundary_walk.vertices
            assert r.boundary_walk.vertices == r.boundary_walk.canonical()


@pytest.mark.parametrize("load", [load for _, load in STORED],
                         ids=[name for name, _ in STORED])
def test_stored_holes_match_the_two_pass_oracles(load):
    # each disc's one-pass region and face-derived edges, and the graph
    # built from the torus's key-ordered edges, against the two-pass region
    # and the generic graph build
    assert one_pass_mismatches(load()) == []


@pytest.mark.parametrize("n", [7, 8, 9])
def test_census_discs_match_the_two_pass_oracles(n):
    # on every torus with n vertices: grown regions and a random face set,
    # which may be no disc or not connected, region for region; and the
    # first disc structures of each grown region, cut as holes
    rng = random.Random(20261019 + n)
    census = torus_census(n)
    holes = 0
    for faces in census.values():
        torus = TorusComplex(faces)
        m = len(torus.faces)
        regions = [_grow(torus, rng, [rng.randrange(m)], rng.randrange(m // 2))
                   for _ in range(max(3, 60 // len(census)))]
        scattered = rng.sample(range(m), rng.randint(1, m))
        for region in [*regions, scattered]:
            assert region_mismatches(torus, region) == [], (faces, region)
        for region in regions:
            for disc in itertools.islice(disc_structures(torus, region), 3):
                hole = TorusWithHole(torus, [disc])
                assert one_pass_mismatches(hole) == [], (faces, region)
                holes += 1
    assert holes > 50


def test_hole_graph_edge_leaving_its_vertices_raises_nonsimple():
    # the graph is built from the torus's edges without normalising them,
    # and still refuses an edge that leaves its vertex set: here a disc
    # claims a corner of its one face as interior, which keeps its edges
    t = rectangular_torus(3, 3)
    disc = DiscMap(t, [0])
    disc.interior_vertices = frozenset({t.faces[0][0]})
    with pytest.raises(errors.NonSimple, match="leaves the vertex set"):
        TorusWithHole(t, [disc])


K7 = [f for i in range(7) for f in ((i, (i + 1) % 7, (i + 3) % 7),
                                    (i, (i + 2) % 7, (i + 3) % 7))]


def test_disc_search_matches_independent_unfolding():
    # the search shares one region pass among its keep sets; each keep set of
    # at most MAX_KEEP shared edges must come out as the slot-based unfolding
    # built on its own says: a disc with the same walk, interior edges and
    # interior vertices, or refused.  Every keep set of at most one edge is
    # checked, and six drawn ones of two or three edges per region.
    k7 = TorusComplex(K7)
    grid = rectangular_torus(3, 3)
    rng = random.Random(20261019)
    regions = [(k7, frozenset(rng.sample(range(14), rng.randint(1, 14))))
               for _ in range(40)]
    regions += [(grid, _grow(grid, rng, [rng.randrange(18)], rng.randrange(18)))
                for _ in range(40)]
    discs = keeps = 0
    for torus, region in regions:
        try:
            found = {d.keep_edges: d for d in disc_structures(torus, region)}
        except errors.NotFaceConnected:
            assert raised(slot_disc, torus, region)[0] is errors.NotFaceConnected
            continue
        shared = sorted(e for e, (f1, f2) in torus.edge_faces.items()
                        if f1 in region and f2 in region)
        small = [c for k in (0, 1) for c in itertools.combinations(shared, k)]
        large = [c for k in (2, MAX_KEEP) for c in itertools.combinations(shared, k)]
        tried = {frozenset(c) for c in small + rng.sample(large, min(6, len(large)))}
        for keep in tried | set(found):
            want = _outcome(slot_disc, torus, region, keep)
            d = found.get(keep)
            got = (d.boundary_walk.vertices, d.interior_edges,
                   d.interior_vertices) if d else None
            assert got == (want if isinstance(want, tuple) else None), \
                (sorted(region), sorted(keep))
            keeps += 1
        discs += len(found)
    assert discs > 1000 and keeps > 2000


def test_connected_regions_match_the_subset_enumeration():
    # on K7 around a two-face hole, the regions grown with an exclusion set
    # are the face sets of the 2^12 supersets that are connected across
    # their shared edges, each once
    torus = TorusComplex(K7)
    hole = cut_hole(torus, [0, 1])
    regions = connected_regions(torus, hole.single_disc.faces)
    rest = [f for f in range(14) if f not in (0, 1)]
    want = set()
    for mask in range(1 << len(rest)):
        region = {0, 1} | {f for i, f in enumerate(rest) if mask >> i & 1}
        pairs = [fs for fs in torus.edge_faces.values() if set(fs) <= region]
        if len({min(c) for c in _components(region, pairs)}) == 1:
            want.add(frozenset(region))
    assert len(regions) == len(set(regions)) and set(regions) == want
    assert regions == sorted(regions, key=lambda r: (len(r), sorted(r)))


def _components(elements, pairs):
    """The classes of ``elements`` under the pairs, by repeated merging."""
    comps = [{x} for x in elements]
    for a, b in pairs:
        ca = next(c for c in comps if a in c)
        cb = next(c for c in comps if b in c)
        if ca is not cb:
            comps.remove(cb)
            ca |= cb
    return comps
