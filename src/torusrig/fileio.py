"""JSON graph files and DOT export.

Record schema::

    {"vertices": N, "faces": [[a,b,c], ...], "holes": [HOLE, ...]}

where HOLE is either a list of face indices (disc structure inferred) or
``{"faces": [...], "keep": [[u,v], ...]}`` pinning the exposed edges of a
wrap-around disc.  A hole's face indices are positions in the record's
``faces`` list, which the loaded torus keeps.  Text that is not JSON, or a
record of any other shape, raises MalformedRecord (naming the bad field).
A record may also carry a ``"meta"`` object, which loading ignores.

A corpus holds many holes on few tori, so ``record_to_hole`` validates each
distinct face list once (``_torus``) and shares its ``TorusComplex``, as
that class's docstring allows; all else, the discs, the hole and its graph,
is built anew for each record.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import json
import sys

from . import errors
from .complexes import DiscMap, TorusComplex, TorusWithHole, infer_disc


def hole_to_record(hole: TorusWithHole) -> dict:
    holes = []
    for d in hole.discs:
        if d.keep_edges:
            holes.append({"faces": list(d.faces),
                          "keep": sorted([list(e) for e in d.keep_edges])})
        else:
            holes.append(list(d.faces))
    return {
        "vertices": len(hole.torus.vertices),
        "faces": [list(f) for f in hole.torus.faces],
        "holes": holes,
    }


def with_record(error: type[errors.TorusRigError], hole: TorusWithHole,
                why: str) -> errors.TorusRigError:
    """``error`` whose message ends with the hole's sorted-key JSON record.

    The record reruns the failure.  Greedy reduction's ``NotTight`` and
    ``StuckButContractible`` rerun through ``torusrig reduce -``, ``tree -``
    or ``certify -``; so do the ``NotTight`` of the key-lemma search,
    ``is_critical`` and ``fission``, since reduction refuses the same
    non-tight graph.  The ``NotTight`` of ``torusrig homology -`` reruns
    through ``homology -``.  A ``NotContractible`` is a refill that closes
    no torus.  Greedy reduction's reruns through ``torusrig reduce -`` or
    ``tree -``, which build the leaf with one refill; one from ``contract``
    reruns through the API: ``record_to_hole``, then ``contract`` on the
    edge the message names.  No subcommand runs the key-lemma search or
    ``fission``, and ``torusrig homology -`` refuses a non-tight record
    before ``crossover_class`` runs; so a record from ``NoCriticalCycle``
    or from ``TrivialClassFound`` reruns through the API: ``record_to_hole``,
    then ``find_critical_cycle_through`` or ``crossover_class`` on the edge
    that the message names.  So does ``fission``'s
    ``NoMatchingCatalogGraph`` (its one refill closes no torus, or its child
    is not tight): the message names the cycle's disc faces and kept edges,
    positions and edges of the record's torus, so ``SeparatingCycle(DiscMap(
    record_to_hole(record).torus, faces, keep))`` rebuilds the cycle for
    ``fission``."""
    record = json.dumps(hole_to_record(hole), sort_keys=True)
    return error(f"{why}; record: {record}")


def _items(value, field: str, length: int | None = None, ints=False) -> list:
    """``value`` if it is a list (of ``length`` entries, of integers), else
    MalformedRecord naming ``field``."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)) \
            or ints and any(type(x) is not int for x in value):
        want = f"{length or ''} {'integers' if ints else 'entries'}".strip()
        raise errors.MalformedRecord(f"{field} must be a list of {want}, got {value!r}")
    return value


def _check_record(record) -> tuple:
    """The face list as a tuple of integer triples, built in the pass that
    checks each face; MalformedRecord unless the record has the schema's
    shape and every hole face index is a position in its face list."""
    if not isinstance(record, dict) or type(record.get("vertices")) is not int:
        raise errors.MalformedRecord("record must be an object with integer vertices")
    if not isinstance(record.get("meta", {}), dict):
        raise errors.MalformedRecord("meta must be an object")
    faces = _items(record.get("faces"), "faces")
    # every corner is an int, so True or 1.0 never keys 1's torus
    key = tuple([tuple(f) for f in faces
                 if isinstance(f, (list, tuple)) and len(f) == 3 and type(f[0]) is int
                 and type(f[1]) is int and type(f[2]) is int])
    if len(key) != len(faces):
        # walk the faces again, only to name the first bad one
        for i, f in enumerate(faces):
            _items(f, f"faces[{i}]", 3, ints=True)
    for i, h in enumerate(_items(record.get("holes", []), "holes")):
        field = f"holes[{i}]"
        if isinstance(h, dict):
            for k, e in enumerate(_items(h.get("keep", []), f"{field}.keep")):
                _items(e, f"{field}.keep[{k}]", 2, ints=True)
            h, field = h.get("faces"), f"{field}.faces"
        for k, x in enumerate(_items(h, field, ints=True)):
            if not 0 <= x < len(faces):
                raise errors.MalformedRecord(f"{field}[{k}]: {x} is not a face index")
    return key


@functools.lru_cache(maxsize=64)
def _torus(faces: tuple) -> TorusComplex:
    """The torus of a face list given as a tuple of integer triples, held
    while it stays among the last 64 loaded; a list that fails validation
    is not held and raises again."""
    return TorusComplex(faces)


def record_to_hole(record: dict) -> TorusWithHole:
    torus = _torus(_check_record(record))
    if len(torus.vertices) != record["vertices"]:
        raise errors.NotClosedSurface(
            f"face list spans {len(torus.vertices)} vertices, "
            f"record says {record['vertices']}")
    discs = []
    for h in record.get("holes", []):
        if isinstance(h, dict):
            keep = [tuple(e) for e in h.get("keep", [])]
            discs.append(DiscMap(torus, h["faces"], keep_edges=keep))
        else:
            discs.append(infer_disc(torus, h))
    return TorusWithHole(torus, discs)


def text_lines(stream):
    """The lines of a binary stream, decoded as UTF-8 whatever the locale;
    MalformedRecord at one that does not decode."""
    try:
        yield from codecs.iterdecode(stream, "utf-8")
    except UnicodeDecodeError as exc:
        raise errors.MalformedRecord(f"record is not text: {exc}") from None


def parse_record(text: str):
    """A record's JSON value; MalformedRecord when the text is not JSON, has
    an integer too long to convert or nests deeper than the decoder recurses."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise errors.MalformedRecord(f"record is not JSON: {exc}") from None


def load_hole(path) -> TorusWithHole:
    """The hole of the record in the file at ``path``, or on standard input
    when ``path`` is "-"; either is read as bytes (``text_lines``)."""
    with open(path, "rb") if path != "-" else contextlib.nullcontext(sys.stdin.buffer) as fh:
        return record_to_hole(parse_record("".join(text_lines(fh))))


def to_dot(hole: TorusWithHole) -> str:
    """DOT serialisation of the underlying graph ``G``, boundary edges
    styled bold."""
    lines = ["graph G {"]
    for v in sorted(hole.graph.vertices):
        lines.append(f"  {v};")
    for u, v in hole.graph.sorted_edges():
        style = ' [style=bold, color=red]' if (u, v) in hole.boundary_edges else ""
        lines.append(f"  {u} -- {v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
