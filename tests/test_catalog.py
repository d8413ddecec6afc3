import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from torusrig import errors
from torusrig.catalog import (THE_17_WORDS, build_H, canonical_pattern,
                              classify, expand_word, parse_word, the_17)
from torusrig.complexes import ClosedWalk
from torusrig.fileio import load_hole
from torusrig.sparsity import check_3_6

from helpers import face_index, num_edges, num_vertices

DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_parse_word_examples():
    assert parse_word("v9").tokens == ("v", 9)
    assert parse_word("ef1ge1fg1").tokens == ("e", "f", 1, "g", "e", 1, "f", "g", 1)
    with pytest.raises(errors.SumNot9):
        parse_word("v3v5")
    with pytest.raises(errors.BadToken):
        parse_word("q9")
    with pytest.raises(errors.BadToken):
        parse_word("e9")  # edge letter must occur twice
    for text in ("v²v6", "v\u0663v6"):  # numerals are ASCII 0-9 only
        with pytest.raises(errors.BadToken):
            parse_word(text)
    # a numeral's value, not its length, counts: a long run of significant
    # digits is above 9 without being read, a zero-padded 9 is 9
    for text in ("v" + "9" * 5000, "v10", "v" + "0" * 5000 + "10"):
        with pytest.raises(errors.SumNot9):
            parse_word(text)
    assert parse_word("v" + "0" * 5000 + "9").tokens == ("v", 9)


@pytest.mark.parametrize("index", ["1", 1.0, True, None, [1]],
                         ids=["str", "float", "bool", "none", "list"])
def test_build_h_takes_integers_only(index):
    with pytest.raises(errors.BadArgument, match="not an integer"):
        build_H(index)


def test_parse_round_trip():
    for text in THE_17_WORDS:
        assert str(parse_word(text)) == text


def test_the_17_count_and_sum_rule():
    table = the_17()
    assert len(table) == 17
    for text, _ in table:
        assert parse_word(text).walk_length() == 9


def test_the_17_pairwise_distinct():
    patterns = [pattern for _, pattern in the_17()]
    assert len(set(patterns)) == 17


# vertex and edge counts of each form, straight off the walk structure
FORM_COUNTS = {
    "v9": (9, 9), "v3v6": (8, 9), "v4v5": (8, 9), "e3e4": (7, 8),
    "v1w2v2w4": (7, 9), "v1w2v3w3": (7, 9), "v1w2v4w2": (7, 9),
    "v1w3v2w3": (7, 9), "v2w3v2w2": (7, 9),
    "v1w2x1v2w1x2": (6, 9), "v1w1x1v2w2x2": (6, 9),
    "v3e2v1e1": (6, 8), "v3e1v2e1": (6, 8), "v2e2v2e1": (6, 8),
    "v1e1w2v1e1w1": (5, 8), "e1f2e1f1": (5, 7), "ef1ge1fg1": (4, 6),
}


def test_expansion_counts_match_forms():
    for text, pattern in the_17():
        assert (num_vertices(pattern), num_edges(pattern)) == \
            FORM_COUNTS[text], text


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=12),
       st.integers(min_value=0, max_value=11), st.booleans())
@settings(max_examples=80, deadline=None)
def test_canonical_pattern_invariance(seq, rot, flip):
    rot %= len(seq)
    other = seq[rot:] + seq[:rot]
    if flip:
        other = other[::-1]
    assert canonical_pattern(seq) == canonical_pattern(other)


def test_classify_all_representatives():
    for i, text in enumerate(THE_17_WORDS, start=1):
        result = classify(build_H(i))
        assert result.word == text
        assert not result.excluded


def test_classify_requires_length_9():
    from torusrig.complexes import cut_hole, rectangular_torus
    hole = cut_hole(rectangular_torus(3, 3), [0])
    with pytest.raises(errors.WalkNot9):
        classify(hole)


def test_excluded_control_graph():
    hole = load_hole(DATA / "excluded_v3v2w3w1.json")
    result = classify(hole)
    assert result.excluded
    assert result.excluded_family == "nonalternating-pinch"
    # Maxwell count holds yet the graph is not (3,6)-tight
    from torusrig.graphs import freedom
    assert freedom(hole.graph) == 6
    assert not check_3_6(hole.graph).is_sparse


def test_representatives_all_vertices_on_boundary():
    for i in range(1, 18):
        h = build_H(i)
        assert set(h.graph.vertices) == set(h.detachment_walk().vertices)


def test_walk_class_of_manual_walk():
    w = ClosedWalk((0, 1, 2, 0, 3, 4, 5, 6, 7))
    table = {pattern: text for text, pattern in the_17()}
    assert table[canonical_pattern(w.vertices)] == "v3v6"


def test_triple_pinch_is_tight_and_named():
    from torusrig.complexes import cut_hole, rectangular_torus
    from torusrig.rigidity import generic_rank
    hole = cut_hole(rectangular_torus(3, 3), [1, 6, 7, 9, 10, 11, 12, 13, 17])
    assert hole.detachment_walk().vertices == (0, 4, 1, 7, 4, 3, 5, 4, 8)
    assert check_3_6(hole.graph).is_tight
    assert generic_rank(hole.graph) == 3 * len(hole.graph.vertices) - 6
    result = classify(hole)
    assert not result.excluded
    assert result.word == "v3v3v3"
    assert "v3v3v3" not in THE_17_WORDS


def _k7():
    from torusrig.complexes import TorusComplex
    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append((i, (i + 2) % 7, (i + 3) % 7))
    return TorusComplex(faces)


@pytest.mark.parametrize("word, disc, exposed", [
    ("v3v3v3", ((0, 1, 3), (0, 2, 3), (1, 2, 4), (2, 3, 5), (2, 4, 5),
                (3, 5, 6), (1, 5, 6)), 0),
    ("v2ev3ve2", ((0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5),
                  (2, 4, 5), (0, 4, 5)), 1),
    ("v2evf2ve1f", ((0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5),
                    (2, 4, 5), (3, 4, 6), (3, 5, 6), (0, 4, 5), (1, 5, 6),
                    (0, 1, 5)), 2),
])
def test_triple_visit_on_k7(word, disc, exposed):
    # the 7-vertex torus K7 minus a disc whose boundary walk visits one
    # vertex three times: tight, rank 3|V| - 6
    from torusrig.complexes import cut_hole
    from torusrig.rigidity import generic_rank
    k7 = _k7()
    hole = cut_hole(k7, [face_index(k7, f) for f in disc])
    walk = hole.detachment_walk()
    assert len(walk) == 9
    assert max(walk.vertices.count(v) for v in walk.vertices) == 3
    assert len(hole.single_disc.keep_edges) == exposed
    assert check_3_6(hole.graph).is_tight
    assert generic_rank(hole.graph) == 3 * len(hole.graph.vertices) - 6
    result = classify(hole)
    assert not result.excluded
    assert result.word == word
