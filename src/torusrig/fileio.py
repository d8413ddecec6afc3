"""JSON graph files and DOT export.

Record schema::

    {"vertices": N, "faces": [[a,b,c], ...], "holes": [HOLE, ...]}

where HOLE is either a list of face indices (disc structure inferred) or
``{"faces": [...], "keep": [[u,v], ...]}`` pinning the exposed edges of a
wrap-around disc.  A hole's face indices are positions in the record's
``faces`` list, which the loaded torus keeps.  A record of any other shape
raises MalformedRecord naming the bad field.  A record may also carry a
``"meta"`` object, which loading ignores.
"""

from __future__ import annotations

import json

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
    before ``crossover_class`` runs; so a record from ``NoCriticalCycle``,
    from ``fission`` or from ``TrivialClassFound`` reruns through the API:
    ``record_to_hole``, then ``find_critical_cycle_through``, ``fission`` or
    ``crossover_class`` on the edge or cycle that the message names."""
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


def _check_record(record) -> None:
    """Raise MalformedRecord unless the record has the schema's shape and
    every hole face index is a position in its face list."""
    if not isinstance(record, dict) or type(record.get("vertices")) is not int:
        raise errors.MalformedRecord("record must be an object with integer vertices")
    if not isinstance(record.get("meta", {}), dict):
        raise errors.MalformedRecord("meta must be an object")
    faces = _items(record.get("faces"), "faces")
    if not all(isinstance(f, (list, tuple)) and len(f) == 3 and type(f[0]) is int
               and type(f[1]) is int and type(f[2]) is int for f in faces):
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


def record_to_hole(record: dict) -> TorusWithHole:
    _check_record(record)
    torus = TorusComplex(record["faces"])
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


def load_hole(path) -> TorusWithHole:
    with open(path) as fh:
        return record_to_hole(json.load(fh))


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
