"""The 17 detachment forms: cyclic-word grammar and hole classification.

A detachment map of a tight single-hole torus graph traverses a closed
9-walk.  Its combinatorial type is the equality pattern of the 9 vertex
slots, taken up to rotation and reversal; since the graphs are simple, two
walk edges coincide exactly when their endpoint pairs do, so the vertex
pattern determines the edge pattern.  Words use v/w/x for repeated vertices,
e/f/g for repeated edges, and numerals for runs of fresh edges; the numeral
values plus the edge-letter occurrences always sum to 9.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from . import errors
from .complexes import TorusWithHole, _symmetries

VERTEX_LETTERS = "vwx"
EDGE_LETTERS = "efg"

WALK_LENGTH = 9

#: table order: word i belongs to the representative graph H_i (1-based)
THE_17_WORDS = (
    "v9",
    "v3v6",
    "v4v5",
    "e3e4",
    "v1w2v2w4",
    "v1w2v3w3",
    "v1w2v4w2",
    "v1w3v2w3",
    "v2w3v2w2",
    "v1w2x1v2w1x2",
    "v1w1x1v2w2x2",
    "v3e2v1e1",
    "v3e1v2e1",
    "v2e2v2e1",
    "v1e1w2v1e1w1",
    "e1f2e1f1",
    "ef1ge1fg1",
)

#: forms outside the paper's 17 that tight graphs still reach: one boundary
#: vertex visited three times (see ``classify``); no stored representative
TRIPLE_VISIT_WORDS = (
    "v3v3v3",
    "v2ev3ve2",
    "v2evf2ve1f",
)


@dataclass(frozen=True)
class DetachmentWord:
    """A validated token sequence, e.g. ('e', 3, 'e', 4)."""
    tokens: tuple

    def __str__(self):
        return "".join(str(t) for t in self.tokens)

    def walk_length(self) -> int:
        return sum(t for t in self.tokens if isinstance(t, int)) + \
            sum(1 for t in self.tokens if isinstance(t, str) and t in EDGE_LETTERS)


def parse_word(text: str) -> DetachmentWord:
    """Parse a short-form cyclic word and enforce the length-9 sum rule."""
    tokens: list = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in VERTEX_LETTERS or ch in EDGE_LETTERS:
            tokens.append(ch)
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            # a numeral above 9 breaks the sum rule, and a run of two or
            # more significant digits is one; int() never reads such a run
            digits = text[i:j].lstrip("0")
            if len(digits) > 1:
                raise errors.SumNot9(
                    f"a {len(digits)}-digit numeral is above 9: the word cannot sum to 9")
            tokens.append(int(digits or "0"))
            i = j
        else:
            raise errors.BadToken(f"unexpected character {ch!r} in {text!r}")
    if not tokens:
        raise errors.BadToken("empty word")
    for letter in EDGE_LETTERS:
        if tokens.count(letter) not in (0, 2):
            raise errors.BadToken(f"edge letter {letter!r} must occur exactly twice")
    word = DetachmentWord(tuple(tokens))
    if word.walk_length() != WALK_LENGTH:
        raise errors.SumNot9(
            f"{text!r}: numerals plus edge letters sum to {word.walk_length()}, not 9")
    return word


def expand_word(word: DetachmentWord) -> tuple:
    """Expand a word into its length-9 slot-identification pattern.

    Slots 0..8 are the walk vertices.  A vertex letter pins the current slot;
    a numeral advances that many fresh edges; an edge letter traverses the
    named edge, the second occurrence in the reverse direction (the two sides
    of an exposed edge are traversed oppositely on an orientable surface).
    """
    n = word.walk_length()
    glued = []
    pos = 0
    vertex_slot: dict = {}
    edge_slot: dict = {}
    for t in word.tokens:
        if isinstance(t, int):
            pos += t
        elif t in VERTEX_LETTERS:
            slot = pos % n
            if t in vertex_slot:
                glued.append((vertex_slot[t], slot))
            else:
                vertex_slot[t] = slot
        else:  # edge letter: traverse one copy of the edge
            here, there = pos % n, (pos + 1) % n
            if t in edge_slot:
                a, b = edge_slot[t]
                glued += [(here, b), (there, a)]
            else:
                edge_slot[t] = (here, there)
            pos += 1
    if pos != n:
        raise errors.BadToken(f"word {word} does not advance exactly {n} edges")
    cls = _classes(range(n), glued)
    return canonical_pattern([cls[i] for i in range(n)])


def _classes(elements, pairs) -> dict:
    """Map from each of ``elements`` to the least element of its class under
    the equivalence that gluing each pair generates.

    Every element of a pair must be among ``elements``.  The least element
    represents its class, so representatives do not depend on the order of
    the pairs.
    """
    glued_to: dict = {}
    for x, y in pairs:
        glued_to.setdefault(x, []).append(y)
        glued_to.setdefault(y, []).append(x)
    cls: dict = {}
    for least in sorted(elements):
        if least in cls:
            continue
        cls[least] = least
        stack = [least]
        while stack:
            for y in glued_to.get(stack.pop(), ()):
                if y not in cls:
                    cls[y] = least
                    stack.append(y)
    return cls


def canonical_pattern(seq) -> tuple:
    """Canonical form of a cyclic vertex sequence under rotation/reversal.

    The pattern records which slots are equal: each slot is relabelled by the
    first occurrence of its vertex, and the least relabelling over all 2n
    symmetries is returned.  That depends only on the sequence relabelled
    once, so the search over symmetries is memoised on it.
    """
    return _least_relabelling(_relabel(seq))


def _relabel(seq) -> tuple:
    """Each entry replaced by the rank of its first occurrence."""
    ids: dict = {}
    return tuple([ids.setdefault(x, len(ids)) for x in seq])


@functools.lru_cache(maxsize=4096)
def _least_relabelling(labels: tuple) -> tuple:
    return min(_relabel(seq) for seq in _symmetries(labels))


def the_17() -> list[tuple[str, tuple]]:
    """The 17 cyclic words with their expanded canonical patterns."""
    return [(text, expand_word(parse_word(text))) for text in THE_17_WORDS]


#: canonical pattern -> (catalog index, word) for the 17 words, and
#: (None, word) for the triple-visit words, which have no catalog graph
PATTERNS = {pattern: (idx, text)
            for idx, (text, pattern) in enumerate(the_17(), start=1)}
PATTERNS.update((expand_word(parse_word(text)), (None, text))
                for text in TRIPLE_VISIT_WORDS)


def _nonalternating_pinch(pattern) -> bool:
    """Repeated labels whose occurrences do not interleave around the cycle.

    Cyclic words containing disjoint pinches of the same pair (for example
    v3v2w3w1) describe holes that trap a fully triangulated sphere and can
    never be tight.
    """
    n = len(pattern)
    slots: dict = {}
    for i, x in enumerate(pattern):
        slots.setdefault(x, []).append(i)
    repeated = [s for s in slots.values() if len(s) == 2]
    for i in range(len(repeated)):
        for j in range(i + 1, len(repeated)):
            a1, a2 = repeated[i]
            b1, b2 = repeated[j]
            # interleaved iff exactly one of b1, b2 lies in the arc (a1, a2)
            inside = sum(1 for b in (b1, b2) if a1 < b < a2)
            if inside != 1:
                return True
    return False


@dataclass(frozen=True)
class Classification:
    pattern: tuple
    word: str | None
    excluded_family: str | None = None

    @property
    def excluded(self) -> bool:
        return self.word is None

    def to_json(self) -> dict:
        return {"word": self.word, "excluded": self.excluded,
                "excluded_family": self.excluded_family,
                "pattern": list(self.pattern)}


def classify(hole: TorusWithHole) -> Classification:
    """Classify the hole boundary into one of the 17 forms, one of the
    triple-visit forms, or Excluded.

    Excluded forms can never be tight.  The 17 words visit each boundary
    vertex at most twice, but a detachment walk may visit one vertex three
    times on a tight, minimally rigid graph, so the words of
    ``TRIPLE_VISIT_WORDS`` are recognised as well:

    - ``v3v3v3``: the 3x3 grid torus minus faces 1, 6, 7, 9, 10, 11, 12, 13,
      17, walk (0,4,1,7,4,3,5,4,8), 8 vertices, generic rank 18 = 3*8 - 6;
      and the 7-vertex torus K7 (faces (i,i+1,i+3), (i,i+2,i+3) mod 7)
      minus a 7-face disc, rank 15 with every vertex on the walk.
    - ``v2ev3ve2`` and ``v2evf2ve1f``: K7 minus a 7-face and an 11-face disc
      with one and two exposed edges.

    Over every face set of K7 and of the 3x3 grid, under the disc structure
    ``infer_disc`` picks, these are the only tight nine-walk holes whose
    form is not among the 17.  The paper's abstract
    does not say whether its disc may visit a vertex three times, and these
    forms have no catalog graph, so a fission at such a critical cycle
    raises NoMatchingCatalogGraph.
    """
    walk = hole.detachment_walk()
    if len(walk) != WALK_LENGTH:
        raise errors.WalkNot9(f"detachment walk has length {len(walk)}, not 9")
    pattern = canonical_pattern(walk.vertices)
    if pattern in PATTERNS:
        return Classification(pattern, PATTERNS[pattern][1])
    family = "nonalternating-pinch" if _nonalternating_pinch(pattern) else None
    return Classification(pattern, None, excluded_family=family)


# -- stored representatives -------------------------------------------------


def _load_graph_record(name: str) -> dict:
    with resources.files("torusrig.data").joinpath(name).open() as fh:
        return json.load(fh)


def build_H(i: int) -> TorusWithHole:
    """The stored vertex-minimal representative H_i, 1 <= i <= 17;
    BadArgument unless i is an int.

    Representatives are data files (rectangular or annular torus face lists
    plus a hole region); the test suite revalidates tightness, the boundary
    word, and V(H_i) = V(boundary) rather than trusting the data.  The data
    is constant and belongs to the package, and a ``TorusWithHole`` is never
    mutated, so each record is parsed and validated once per process and the
    same object is returned after that (at most 17 are held).
    """
    if type(i) is not int:
        raise errors.BadArgument(f"catalog index {i!r} is not an integer")
    if not 1 <= i <= 17:
        raise errors.NoMatchingCatalogGraph(f"index {i} out of range 1..17")
    return _build_H(i)


@functools.lru_cache(maxsize=None)
def _build_H(i: int) -> TorusWithHole:
    record = _load_graph_record(f"h{i:02d}.json")
    from .fileio import record_to_hole
    return record_to_hole(record)


def catalog_graph_for_class(pattern: tuple) -> tuple[int, TorusWithHole]:
    """Find (index, H_i) whose stored word has the given canonical pattern."""
    idx = PATTERNS.get(pattern, (None, None))[0]
    if idx is None:
        raise errors.NoMatchingCatalogGraph(f"no catalog word matches {pattern}")
    return idx, build_H(idx)
