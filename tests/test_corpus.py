"""Corpus generation against the hole-growth oracle.

``corpus._grow_hole`` builds a ``DiscMap`` only where the region's count of
open half-edges, 3F - 2S, equals the target.  ``helpers.grow_hole_oracle``
builds one after every added face.  Both make the same draws, so every spec
must give the same holes, record for record.
"""

import pytest

from torusrig import corpus, errors
from torusrig.corpus import CorpusSpec, gen_corpus
from torusrig.fileio import hole_to_record

from helpers import CORPUS9_SPEC, CORPUS_CUTS_SPEC, grow_hole_oracle

# a 12-edge walk on the 18-face 3x3 torus is rare: some attempts reach
# MAX_REGION faces or fill the torus without one
MISSING_SPEC = CorpusSpec(seed=5, count=10, grids=((3, 3),), boundary_lengths=(12,))


def _oracle_corpus(spec, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(corpus, "_grow_hole", lambda torus, adj, rng, target:
                  grow_hole_oracle(torus, rng, target))
        return gen_corpus(spec)


def _records(holes):
    return [hole_to_record(h) for h in holes]


@pytest.mark.parametrize("seed", [0, 1, 7, 1009])
def test_default_spec_matches_the_oracle(seed, monkeypatch):
    spec = CorpusSpec(seed=seed, count=30)
    assert _records(gen_corpus(spec)) == _records(_oracle_corpus(spec, monkeypatch))


def test_fixture_corpora_match_the_oracle(corpus9, corpus_cuts, monkeypatch):
    assert _records(corpus9) == _records(_oracle_corpus(CORPUS9_SPEC, monkeypatch))
    assert _records(corpus_cuts) == _records(
        _oracle_corpus(CORPUS_CUTS_SPEC, monkeypatch))


def test_missed_attempts_match_the_oracle(monkeypatch):
    grow = corpus._grow_hole
    misses = []

    def counted(*args):
        disc = grow(*args)
        misses.append(disc is None)
        return disc

    monkeypatch.setattr(corpus, "_grow_hole", counted)
    holes = gen_corpus(MISSING_SPEC)
    monkeypatch.undo()
    assert sum(misses) >= 10
    assert _records(holes) == _records(_oracle_corpus(MISSING_SPEC, monkeypatch))


@pytest.mark.parametrize("spec", [CorpusSpec(seed=1, count=30), MISSING_SPEC,
                                  CorpusSpec(seed=3, count=60, grids=((4, 4), (5, 5)),
                                             boundary_lengths=tuple(range(3, 13)))],
                         ids=["default", "missing", "lengths-3-12"])
def test_discs_are_built_only_at_the_target_count(spec, monkeypatch):
    disc_map, grow = corpus.DiscMap, corpus._grow_hole
    counts = []     # 3F - 2S of each region that builds a DiscMap
    attempts = []   # (target, index of the attempt's first build)

    def counted_disc_map(torus, faces):
        region = set(faces)
        shared = sum(f1 in region and f2 in region
                     for f1, f2 in torus.edge_faces.values())
        counts.append(3 * len(region) - 2 * shared)
        return disc_map(torus, faces)

    def grow_with_target(torus, adj, rng, target):
        attempts.append((target, len(counts)))
        return grow(torus, adj, rng, target)

    monkeypatch.setattr(corpus, "DiscMap", counted_disc_map)
    monkeypatch.setattr(corpus, "_grow_hole", grow_with_target)
    assert len(gen_corpus(spec)) == spec.count
    ends = [first for _, first in attempts[1:]] + [len(counts)]
    for (target, first), end in zip(attempts, ends):
        assert counts[first:end] == [target] * (end - first)
    assert len(counts) >= spec.count


def test_each_grid_shape_is_built_once(monkeypatch):
    built = []
    torus_of = corpus.rectangular_torus
    monkeypatch.setattr(corpus, "rectangular_torus",
                        lambda r, s: built.append((r, s)) or torus_of(r, s))
    corpus._grid.cache_clear()
    holes = gen_corpus(CorpusSpec(seed=2, count=12, grids=((3, 3), (3, 4), (4, 4))))
    holes += gen_corpus(CorpusSpec(seed=3, count=6, grids=((4, 4), (3, 3))))
    assert built == [(3, 3), (3, 4), (4, 4)]
    assert len({id(h.torus) for h in holes}) == 3


def test_an_impossible_boundary_length_raises_before_any_draw(monkeypatch):
    monkeypatch.setattr(corpus, "_grow_hole", lambda *args: pytest.fail("drew"))
    with pytest.raises(errors.BadArgument, match="boundary length 2 is below 3"):
        gen_corpus(CorpusSpec(seed=0, count=1, boundary_lengths=(9, 2)))


@pytest.mark.parametrize("spec", [
    CorpusSpec(seed=0, count=1, grids=()),
    CorpusSpec(seed=0, count=1, boundary_lengths=()),
    CorpusSpec(seed=0, count=0, grids=(), boundary_lengths=()),
], ids=["no-grids", "no-lengths", "neither-count-0"])
def test_an_empty_spec_raises_before_any_draw(spec, monkeypatch):
    # with no grid or no length to cycle through there is nothing to draw
    monkeypatch.setattr(corpus, "_grow_hole", lambda *args: pytest.fail("drew"))
    with pytest.raises(errors.BadArgument, match="needs a grid and a boundary length"):
        gen_corpus(spec)
