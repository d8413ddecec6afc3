"""``record_to_hole`` shares one validated torus among the records that
carry its face list, and builds everything else per record.  A record that
is not one raises the typed error, with the message, that the CLI reports.
"""

import io
import json

import pytest

from torusrig import errors, fileio
from torusrig.catalog import classify
from torusrig.complexes import TorusComplex, grid_faces
from torusrig.corpus import CorpusSpec, corpus_records
from torusrig.fileio import record_to_hole
from torusrig.homology import crossover_class
from torusrig.reduction import (certify, contractible_edges,
                                find_critical_cycle_through, fission)
from torusrig.sparsity import check_3_6


def _grid_record(r, s, hole=(0,), shift=0):
    """A record of the r x s grid torus, vertex ids raised by ``shift``,
    with one hole."""
    faces = [[a + shift, b + shift, c + shift] for a, b, c in grid_faces(r, s)]
    return {"vertices": r * s, "faces": faces, "holes": [list(hole)]}


def test_equal_face_lists_share_one_torus():
    a = record_to_hole(_grid_record(3, 4, (0,)))
    b = record_to_hole(json.loads(json.dumps(_grid_record(3, 4, (5,)))))
    assert a.torus is b.torus
    assert a.discs[0].torus is b.discs[0].torus is a.torus
    other = record_to_hole(_grid_record(3, 4, (0,), shift=1))
    assert other.torus is not a.torus
    assert record_to_hole(_grid_record(4, 3)).torus is not a.torus


def test_a_bad_face_list_is_not_held():
    record = _grid_record(3, 3)
    record["faces"].pop()
    errors_seen = []
    for _ in range(2):
        before = fileio._torus.cache_info()
        with pytest.raises(errors.NotClosedSurface) as info:
            record_to_hole(record)
        errors_seen.append(str(info.value))
        after = fileio._torus.cache_info()
        assert after.currsize == before.currsize
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    assert errors_seen[0] == errors_seen[1]


@pytest.mark.parametrize("corner", [True, 1.0], ids=["true", "float"])
def test_a_corner_that_is_not_an_int_is_refused_before_the_lookup(corner):
    # True == 1 and hash(True) == hash(1), so a key with True in it would
    # find the torus of 1; the record check refuses it first
    record = _grid_record(3, 3)
    record_to_hole(record)
    i, face = next((i, f) for i, f in enumerate(record["faces"]) if 1 in f)
    face[face.index(1)] = corner
    before = fileio._torus.cache_info()
    with pytest.raises(errors.MalformedRecord, match=rf"faces\[{i}\]"):
        record_to_hole(record)
    assert fileio._torus.cache_info() == before


@pytest.mark.parametrize("change, error, message", [
    (lambda r: [r], errors.MalformedRecord,
     "record must be an object with integer vertices"),
    (lambda r: {**r, "vertices": "9"}, errors.MalformedRecord,
     "record must be an object with integer vertices"),
    (lambda r: {**r, "meta": 5}, errors.MalformedRecord, "meta must be an object"),
    (lambda r: {**r, "vertices": 10}, errors.NotClosedSurface,
     "face list spans 9 vertices, record says 10"),
], ids=["not-object", "vertices-not-int", "meta-not-object", "vertex-count"])
def test_a_record_of_the_wrong_shape_raises_the_cli_s_error(change, error, message):
    # the CLI prints "error: " and the message; a record of the wrong shape
    # is refused before the torus lookup, and one whose torus spans another
    # vertex count than it says, after it
    with pytest.raises(error) as info:
        record_to_hole(change(_grid_record(3, 3)))
    assert str(info.value) == message


@pytest.mark.parametrize("content, why", [
    (b"\xff\xfe{}", "text"), (b'{"meta": {"note": "\xff"}}', "text"),
    (b"{", "JSON"), (b"[" * 200_000, "JSON"),
    (b'{"vertices": 1' + b"0" * 5000 + b"}", "JSON")],
    ids=["not-utf8", "not-utf8-in-meta", "not-json", "nested-too-deep",
         "integer-too-long"])
def test_bytes_that_are_no_record_raise_malformed_record(content, why):
    # a file or stdin goes through text_lines, then parse_record, as the
    # CLI reads it (load_hole)
    with pytest.raises(errors.MalformedRecord, match=f"^record is not {why}: "):
        fileio.parse_record("".join(fileio.text_lines(io.BytesIO(content))))


def test_a_record_s_face_list_is_walked_once():
    # the record check builds the torus's key in the pass that checks each
    # face, so loading a record walks its face list once, whether the torus
    # is new or held
    walks = []

    class Faces(list):
        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    for shift in (20_000, 20_000):
        record = _grid_record(3, 3, shift=shift)
        record["faces"] = Faces(record["faces"])
        walks.clear()
        record_to_hole(record)
        assert len(walks) == 1


def test_two_holes_on_one_torus_share_nothing_else():
    a = record_to_hole(_grid_record(4, 4, (0,)))
    b = record_to_hole(_grid_record(4, 4, (9,)))
    assert a.torus is b.torus
    assert a.graph is not b.graph
    assert a.graph._board is None and b.graph._board is None
    check_3_6(a.graph)
    assert a.graph._board is not None and b.graph._board is None
    again = record_to_hole(_grid_record(4, 4, (0,)))
    assert again.graph is not a.graph and again.graph._board is None
    assert again.discs[0] is not a.discs[0]


def test_the_oldest_torus_is_rebuilt_past_the_bound():
    # distinct tori, each a grid with its ids shifted past those of any
    # other test, fill the cache one at a time
    bound = fileio._torus.cache_info().maxsize
    first = _grid_record(3, 3, shift=10_000)
    held = record_to_hole(first).torus
    for k in range(1, bound):
        record_to_hole(_grid_record(3, 3, shift=10_000 + 100 * k))
    assert record_to_hole(first).torus is held  # now the most recent again
    for k in range(bound, 2 * bound):
        record_to_hole(_grid_record(3, 3, shift=10_000 + 100 * k))
    rebuilt = record_to_hole(first).torus
    assert rebuilt is not held
    assert rebuilt.faces == held.faces and rebuilt.edge_faces == held.edge_faces


def test_work_on_holes_of_one_torus_leaves_it_unchanged():
    # classify, crossover classes, the key-lemma search with fission, and
    # certify, on the tight holes of one 4x4 grid torus loaded from records
    records = [r for r in corpus_records(CorpusSpec(seed=11, count=30, grids=((4, 4),)))
               if r["meta"]["status"] == "Tight"]
    holes = [record_to_hole(r) for r in records]
    torus = holes[0].torus
    assert len(holes) >= 3 and all(h.torus is torus for h in holes)
    fissions = crossings = 0
    for hole in holes:
        assert check_3_6(hole.graph).is_tight
        classify(hole)
        on_walk = set(hole.detachment_walk().vertices)
        for e in hole.graph.sorted_edges():
            if e not in hole.boundary_edges and hole.is_ff_edge(e) \
                    and set(e) <= on_walk:
                crossover_class(hole, e)
                crossings += 1
        for e in contractible_edges(hole):
            cycle = find_critical_cycle_through(hole, e)
            if cycle is not None:
                fission(hole, cycle)
                fissions += 1
        certify(hole)
    assert fissions and crossings
    fresh = TorusComplex(records[0]["faces"])
    assert torus.faces == fresh.faces
    assert torus.edge_faces == fresh.edge_faces
    assert torus.edges == fresh.edges
    assert torus.vertices == fresh.vertices
    assert torus.cochain._values == fresh.cochain._values
