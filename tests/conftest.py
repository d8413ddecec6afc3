import pytest

from torusrig.corpus import gen_corpus
from torusrig.sparsity import check_3_6

from helpers import CORPUS9_SPEC, CORPUS_CUTS_SPEC


@pytest.fixture(scope="session")
def corpus9():
    """200 single-hole graphs with 9-edge boundary walks, grids up to 6x6."""
    return gen_corpus(CORPUS9_SPEC)


@pytest.fixture(scope="session")
def tight_corpus(corpus9):
    return [h for h in corpus9 if check_3_6(h.graph).is_tight]


@pytest.fixture(scope="session")
def corpus_cuts():
    """500 random hole cuts with boundary lengths cycling 3..12."""
    return gen_corpus(CORPUS_CUTS_SPEC)
