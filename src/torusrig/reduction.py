"""The move calculus on tight single-hole torus graphs.

Contraction of a contractible FF edge either keeps the graph tight or the
edge lies on a critical separating cycle (the boundary of an enlargement of
the hole disc whose complementary graph is tight).  A critical cycle supports
a fission move, which substitutes the matching catalog graph for the
complement.  On a tight G, criticality is a count (``is_critical``): an
enlargement holds every hole face and exposes no deleted edge, so its outer
part G1 is a subgraph of G; a subgraph of a sparse G is sparse; G1 is one cut,
so f(G1) = |walk| - 3 and G1 is tight iff its walk has nine edges.

The key-lemma search rests on a freedom count.  Let W be the violator of
G/e and L its lift to G, and let a be the number of apexes of e in L.  Then
f(L) = f(W) + 2 - a with f(W) <= 5.  So a = 2 is impossible on tight input,
a = 1 forces f(L) = 6, and a = 0 allows f(L) in {6, 7}, which fixes the
cores ``find_critical_cycle_through`` tries.  Some tight inputs with a = 0
carry no critical cycle through e: repro B, a 14-vertex v9 record grown
from H17 with a collar, and repro C, the smallest case, with 9 vertices and
form e3e4 (``tests/data/keylemma_repro_b.json`` and
``keylemma_repro_c.json``).  The search raises NoCriticalCycle there, and
whether the lemma needs a further hypothesis or critical cycles a wider
definition is open.

The greedy-contraction ruling: a tight graph with a contractible FF edge
always has one whose contraction stays tight, so greedy contraction alone
reduces every tight graph to one of the two uncontractible graphs.  That
loop is the only reduction driver here.  It runs on the graph and its
boundary walk, which is all a step decides from: which edges are off the
walk, their ends' common neighbours and whether G/e is tight.  The graph
is one working adjacency, contracted in place, and the loop builds one
graph, the leaf.  It returns that uncontractible leaf graph and the
contractions that reach it, and ``certify`` reverses them into a
vertex-splitting construction rooted at K3 (Whiteley 1990), which
``Certificate.target`` replays on one working adjacency too.  Each
contraction removes one vertex and three edges from the graph, since there
a contractible edge has only its two apexes as common neighbours; so a
simple leaf is named by its counts, (4, 6) K4 and (5, 9) K5 minus an edge.
A graph that breaks the ruling raises StuckButContractible.

The contraction rule has one copy, ``_contractible``, where it is shown to
need no face map.  It is asked of FF edges only: ``classify_edge`` asks it
after the one FF test (``TorusWithHole.is_ff_edge``), also for the guard
of ``contract`` and the search, and ``_recount`` runs the same count
inline over edges off a walk, for ``contractible_edges`` and for the loop,
which keeps its candidate set and recounts only the edges a move can
change.

Every child hole, from a contraction, the leaf or a fission, is built one
way (``retriangulate_holes``): its retained faces closed by a fresh collar
over each boundary walk, filled from the walk's canonical rotation, which
the collar's ``DiscMap`` reads back.  A contracted hole is built by
``_contracted``, which renames the retained faces once
(``_contract_faces``) and the walks move by move; renaming commutes with
rotation and reversal, so no step needs to know where a walk starts.  Old
hole faces are never reused.  After a contraction, e's ends can have
further common neighbours through the deleted edges, and those faces would
fold an edge into four; in a fission they can hold an edge that the catalog
graph uses as a chord.  A refill reads only the retained faces and the
walks, so one refill after the loop's last move is the hole that
``contract`` gives one edge at a time; ``reduce_greedy`` builds its leaf
(which ``torusrig reduce`` prints) that way, once.

Fission is a key-lemma move inside the proof, not a reduction step: its
catalog child is not a subgraph of the input, so it yields no vertex split.
Its child G2 is one refill: the catalog graph's faces, mapped onto the cycle
at the one alignment its slot pattern fixes, and the annulus faces, closed
over the hole's own walks (``_substitute``, which shows that it glues).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from . import catalog, errors, fileio
from .complexes import (ClosedWalk, DiscMap, TorusComplex, TorusWithHole,
                        _face_edges, _symmetries, disc_structures,
                        retriangulate_holes)
from .graphs import (Graph, _contract_in_place, _graph_of, _split_in_place,
                     _working, edge_key, is_isomorphic)
from .maxflow import densest_extension
from .rigidity import generic_rank, is_min_3_rigid
from .sparsity import (_contraction_trial, _contraction_violator, _copy_board,
                       _rename_merged, _undo, check_3_6, maximal_tight_subgraph)


class EdgeClass(enum.Enum):
    BOUNDARY_INCIDENT_FACE = "BoundaryIncidentFace"
    FF_CONTRACTIBLE = "FFContractible"
    FF_BLOCKED = "FFBlocked"


def _contractible(graph: Graph, e) -> bool:
    """The contraction rule, asked of an FF edge: its ends have exactly two
    common neighbours, its apexes.

    The rule needs no face map.  A graph edge is FF iff it is off the
    boundary walks: an edge with a hole face is a region edge, and
    ``TorusWithHole`` checks that the walks' edges are the region's graph
    edges (a kept edge lies on its walk twice).  An FF edge's two apexes are
    distinct common neighbours of its ends, so its ends have no other common
    neighbour iff they have exactly two: e lies in no nonfacial triangle
    (Barnette & Edelson 1988)."""
    u, v = e
    return len(graph.neighbors(u) & graph.neighbors(v)) == 2


def _apex_faces(torus: TorusComplex, e) -> dict[int, int]:
    """Each of the two torus faces at e, keyed by its third corner, in the
    torus's order at e; for an FF edge, its retained faces and its apexes."""
    u, v = e
    faces = torus.faces
    # a face's corners are distinct, so the third is its sum less u and v
    return {sum(faces[f]) - u - v: f for f in torus.edge_faces[e]}


def classify_edge(hole: TorusWithHole, e) -> EdgeClass:
    """The class of graph edge e: BOUNDARY_INCIDENT_FACE unless e is FF
    (``TorusWithHole.is_ff_edge``), else contractible or blocked by the
    rule (``_contractible``)."""
    if not hole.is_ff_edge(e):
        return EdgeClass.BOUNDARY_INCIDENT_FACE
    if _contractible(hole.graph, e):
        return EdgeClass.FF_CONTRACTIBLE
    return EdgeClass.FF_BLOCKED


def _contraction_apexes(hole: TorusWithHole, e) -> tuple[tuple[int, int], dict]:
    """Key and ``_apex_faces`` of a contractible FF edge, the guard of
    ``contract`` and the search; NotContractible for another graph edge."""
    cls = classify_edge(hole, e)
    e = edge_key(*e)
    if cls is not EdgeClass.FF_CONTRACTIBLE:
        raise errors.NotContractible(f"{e} is not a contractible FF edge")
    return e, _apex_faces(hole.torus, e)


def _recount(cand: set, adj, border, edges) -> None:
    """Put each of ``edges`` in ``cand`` or take it out, as it is an FF
    edge, off ``border`` (the edges of the boundary walks), that passes the
    rule (``_contractible``'s count, inline) or not."""
    for e in edges:
        if e not in border and len(adj[e[0]] & adj[e[1]]) == 2:
            cand.add(e)
        else:
            cand.discard(e)


def _walk_edges(walk) -> set:
    """The key-ordered edges of a closed walk, given by its vertices."""
    return {(x, y) if x < y else (y, x) for x, y in zip(walk, walk[1:] + walk[:1])}


def contractible_edges(hole: TorusWithHole) -> list[tuple[int, int]]:
    cand: set = set()
    _recount(cand, hole.graph._adj, hole.boundary_edges, hole.graph.edges)
    return sorted(cand)


def is_uncontractible(hole: TorusWithHole) -> bool:
    """True iff every FF edge lies on a nonfacial 3-cycle."""
    return not contractible_edges(hole)


def contract(hole: TorusWithHole, e) -> TorusWithHole:
    """Contract a contractible FF edge; the higher id merges into the lower.

    The edge must pass greedy reduction's rule (``_contraction_apexes``);
    the hole is refilled by ``_contracted``.
    """
    e, _ = _contraction_apexes(hole, e)
    return _contracted(hole, [e])


def _contract_faces(faces, edges) -> list:
    """The retained faces, in order, contracted along ``edges`` in turn:
    each edge's gone end renamed keep, and the faces that so lose a corner,
    the two at each edge, dropped.  One pass over the faces: a vertex's
    final name is read off the edges backwards, as a gone vertex never
    returns."""
    final: dict = {}
    for keep, gone in reversed(edges):
        final[gone] = final.get(keep, keep)
    get = final.get
    out = []
    for f in faces:
        a, b, c = [get(x, x) for x in f]
        if a != b != c != a:
            out.append((a, b, c))
    return out


def _contracted(hole: TorusWithHole, edges) -> TorusWithHole:
    """The hole contracted along ``edges`` in turn: the hole itself without
    edges, else its retained faces so contracted (``_contract_faces``)
    closed by a fresh collar over each boundary walk, renamed edge by edge
    (``retriangulate_holes``); NotContractible, carrying the hole's record,
    when they close no torus.  Renaming commutes with rotation and
    reversal, and a collar is filled from its walk's canonical rotation,
    so contracting the edges one at a time builds the same collars."""
    if not edges:
        return hole
    walks = [d.boundary_walk.vertices for d in hole.discs]
    for keep, gone in edges:
        walks = [tuple(keep if x == gone else x for x in w) for w in walks]
    try:
        return retriangulate_holes(_contract_faces(hole.faces, edges),
                                   [ClosedWalk(w) for w in walks])
    except errors.TorusRigError as exc:
        raise fileio.with_record(
            errors.NotContractible, hole,
            f"contracting {', '.join(map(str, edges))} breaks the hole "
            f"structure: {exc}") from exc


# -- separating cycles and division ----------------------------------------


@dataclass(frozen=True)
class SeparatingCycle:
    """Boundary of an enlargement D1 of the hole disc, held as the disc."""
    disc: DiscMap

    @property
    def walk(self) -> ClosedWalk:
        """The cycle: the boundary walk of D1."""
        return self.disc.boundary_walk

    @functools.cached_property
    def outer(self) -> TorusWithHole:
        """G1: the torus with the enlarged disc as its hole."""
        return TorusWithHole(self.disc.torus, [self.disc])


def _check_encloses(hole: TorusWithHole, cycle: SeparatingCycle) -> None:
    """InvalidCycle unless the cycle's disc, on the hole's torus, holds the
    hole's faces and deleted edges: the guard of ``divide`` and ``is_critical``."""
    disc = cycle.disc
    if disc.torus is not hole.torus or not hole.hole_faces.issubset(disc.faces) \
            or not hole.deleted_edges <= disc.interior_edges:
        raise errors.InvalidCycle(f"the cycle {list(cycle.walk.vertices)} "
                                  "does not enclose the hole")


def divide(hole: TorusWithHole, cycle: SeparatingCycle) -> tuple[TorusWithHole, Graph]:
    """Division move: the outer part (a torus with the enlarged hole) and the
    annulus of graph edges inside the region; InvalidCycle unless the cycle
    encloses the hole (``_check_encloses``)."""
    _check_encloses(hole, cycle)
    g1 = cycle.outer
    ann_edges = (cycle.disc.region_edges & hole.graph.edges) - hole.deleted_edges
    ann_vertices = {v for e in ann_edges for v in e}
    return g1, Graph(ann_vertices, ann_edges)


def is_critical(hole: TorusWithHole, cycle: SeparatingCycle) -> bool:
    """Whether the outer part is tight: whether the walk has nine edges (the
    module docstring's count).  InvalidCycle unless the cycle encloses the
    hole (``_check_encloses``), NotTight with the record unless G is tight."""
    _check_encloses(hole, cycle)
    if not check_3_6(hole.graph).is_tight:
        raise fileio.with_record(errors.NotTight, hole, "criticality needs a tight graph")
    return len(cycle.walk) == catalog.WALK_LENGTH


# -- key lemma: constructive critical-cycle search --------------------------


def _unspanned_region(hole: TorusWithHole, start: int, k_set) -> frozenset:
    """The faces reached from ``start`` across torus edges without entering
    one that G[k_set] spans (corners in k_set, edges in the graph); only the
    region and the spanned faces on its rim are looked at."""
    faces, edge_faces = hole.torus.faces, hole.torus.edge_faces
    edges = hole.graph.edges
    region, stack = {start}, [start]
    while stack:
        i = stack.pop()
        for e in _face_edges(faces[i]):
            j = sum(edge_faces[e]) - i  # the other face at e
            if j not in region and not (k_set.issuperset(faces[j])
                                        and edges.issuperset(_face_edges(faces[j]))):
                region.add(j)
                stack.append(j)
    return frozenset(region)


def _region_criticals(hole, region, e):
    """Critical cycles through e supported by the given region: its nine-walk
    disc structures with e on the walk.  Each encloses the hole (no deleted
    edge is kept), so each is critical on a tight G by ``is_critical``'s count."""
    if not set(hole.single_disc.faces) <= set(region):
        return []
    e = edge_key(*e)
    return [SeparatingCycle(d1) for d1 in disc_structures(
        hole.torus, region, forbid_keep=hole.deleted_edges,
        boundary_length=catalog.WALK_LENGTH) if e in d1.boundary_walk.edge_set()]


def find_critical_cycle_through(hole: TorusWithHole, e) -> SeparatingCycle | None:
    """A critical separating cycle through a contractible edge whose
    contraction breaks tightness; None when the contraction stays tight.

    Follows the constructive route: lift the violator W of G/e to L, extend
    each tight core through L maximally, flood the complementary face region
    from the face of e whose apex it misses (``_unspanned_region``), and
    read the nine-walk disc boundaries through e off the region
    (``_region_criticals``), each critical by count; the least walk wins.
    By the module docstring's freedom count, L is the only core when it
    holds an apex; else the cores are L with either apex, and L alone with
    e exposed (the region then holds both faces of e).

    The lemma is about the graph G/e, so the search decides on the plain
    graph contraction and never builds the contracted hole, an outer part
    or G/e itself.  G is checked first (NotTight carrying the record when it
    is not tight); that verdict stays on the graph, and later searches and
    ``fission`` find G decided.  G/e is tried on G's own board in place,
    which is then undone, so no graph is built and no board copied.

    W is the failing placement's component, read off that trial
    (``_contraction_violator``).
    """
    hole.single_disc  # raises SingleHoleRequired unless there is one hole
    e, apex_face = _contraction_apexes(hole, e)
    if not check_3_6(hole.graph).is_tight:
        raise fileio.with_record(
            errors.NotTight, hole, "the key-lemma search needs a tight "
            "single-hole graph")
    witness = _contraction_violator(hole.graph, e)
    if witness is None:
        return None
    lifted = witness | set(e)
    apexes = set(apex_face)
    if apexes <= lifted:
        raise fileio.with_record(
            errors.NoCriticalCycle, hole, f"violating set contains both faces of {e}; the input "
            "graph cannot have been tight")
    cores = [lifted] if apexes & lifted else \
        [lifted | {a} for a in apex_face] + [lifted]
    candidates: list[SeparatingCycle] = []
    for core in cores:
        k_set = maximal_tight_subgraph(hole.graph, core, apexes - core)
        if k_set is None:
            continue
        start = next(f for a, f in apex_face.items() if a not in k_set)
        region = _unspanned_region(hole, start, k_set)
        candidates.extend(_region_criticals(hole, region, e))
    if not candidates:
        raise fileio.with_record(
            errors.NoCriticalCycle, hole, f"no critical separating cycle through {e}; this violates "
            "the key lemma on tight inputs")
    return min(candidates, key=lambda c: c.walk.vertices)


# -- fission ----------------------------------------------------------------


def fission(hole: TorusWithHole, cycle: SeparatingCycle
            ) -> tuple[TorusWithHole, TorusWithHole]:
    """Fission move at a critical cycle: (G1, G2) with the catalog graph
    substituted for G1; both children must come out simple and tight.

    Criticality is ``is_critical``'s count, so G1 plays no pebble game; it
    raises what that raises, and InvalidCycle when G1 is not tight.  G2 is
    one refill (``_substitute``), decided by ``check_3_6``.  A G2 that is
    not tight raises NoMatchingCatalogGraph with the record, the
    theorem-violation signal.
    """
    if not is_critical(hole, cycle):
        raise errors.InvalidCycle(f"cycle is not critical: its walk has "
                                  f"{len(cycle.walk)} edges, not {catalog.WALK_LENGTH}")
    g2 = _substitute(hole, cycle)
    if not check_3_6(g2.graph).is_tight:
        raise fileio.with_record(
            errors.NoMatchingCatalogGraph, hole,
            f"substitution produced a non-tight graph at {_cycle_named(cycle)}; "
            "fission lemma violated")
    return cycle.outer, g2


def _cycle_named(cycle: SeparatingCycle) -> str:
    """The cycle as fission's errors name it: its walk, and its disc's face
    positions and kept edges, from which ``DiscMap`` on the record's torus
    rebuilds it."""
    disc = cycle.disc
    return (f"the cycle {list(cycle.walk.vertices)} (disc faces "
            f"{list(disc.faces)}, keep {sorted(map(list, disc.keep_edges))})")


def _substitute(hole: TorusWithHole, cycle: SeparatingCycle) -> TorusWithHole:
    """G2: the retained faces of the catalog graph H with the cycle's
    pattern, mapped onto the cycle, and the annulus faces, closed by a fresh
    collar over each of the hole's walks (``retriangulate_holes``, as a
    contracted hole is built).

    The map sends H's walk onto the cycle slot by slot, at its first
    rotation or reversal whose slots repeat as the cycle's do
    (``catalog._relabel``); one exists, as the two walks have one canonical
    pattern.  Every vertex of H lies on its walk, so the mapped faces meet
    the disc of annulus and collar faces at cycle vertices only, as H's
    faces meet its hole.  They close a torus unless an edge of
    that disc off the cycle joins two cycle vertices.  A collar edge has a
    fresh end, so that would be an annulus edge: a graph edge outside G1
    between two vertices of G1.  G1 is tight (the module docstring's count),
    so G1 with that edge breaks G's sparsity.  So on tight G the one refill
    closes a torus.  A pattern with no catalog graph, or a refill that
    closes no torus, raises NoMatchingCatalogGraph, naming the cycle by its
    walk and its disc (``_cycle_named``) and carrying the record.
    """
    w_c = cycle.walk.vertices
    try:
        _idx, h_rep = catalog.catalog_graph_for_class(catalog.canonical_pattern(w_c))
        labels = catalog._relabel(w_c)
        seq = next(s for s in _symmetries(h_rep.detachment_walk().vertices)
                   if catalog._relabel(s) == labels)
        mapping = dict(zip(seq, w_c))
        h_faces = [tuple(mapping[x] for x in f) for f in h_rep.faces]
        annulus_faces = [hole.torus.faces[i] for i in cycle.disc.faces
                         if i not in hole.hole_faces]
        return retriangulate_holes(h_faces + annulus_faces,
                                   [d.boundary_walk for d in hole.discs])
    except errors.TorusRigError as exc:
        raise fileio.with_record(
            errors.NoMatchingCatalogGraph, hole,
            f"no catalog graph glues at {_cycle_named(cycle)}: {exc}") from exc


# -- greedy reduction --------------------------------------------------------


@dataclass(frozen=True)
class Contraction:
    """Record of one edge contraction: the higher endpoint merged into the
    lower; apexes are the collapsed faces' third corners, moved the neighbours
    the merged vertex keeps from the vanished endpoint."""
    edge: tuple[int, int]
    apexes: tuple[int, int]
    moved: frozenset

    def to_json(self) -> dict:
        return {"move": "contract", "edge": list(self.edge),
                "apexes": list(self.apexes), "moved": sorted(self.moved)}


def _reduce(hole: TorusWithHole) -> tuple[Graph, list[Contraction]]:
    """The greedy reduction on the graph and its boundary walk: the
    uncontractible leaf graph and the contractions that reach it.

    The loop runs on one working adjacency, a copy of G's made next to the
    copy of its board, and builds one graph, the leaf, at the end
    (``graphs._graph_of``).  Each step tries the candidates, the edges off
    the walk that pass the one rule, in sorted order, and contracts the
    first whose contraction is tight; by the module docstring's count, G/e
    is tight iff it is sparse.  Each candidate is tried on the board copy
    in place (``_contraction_trial``); a failed trial is undone.  The
    winner is contracted in the adjacency (``graphs._contract_in_place``),
    and the board its trial leaves, renamed where the trial removed the
    lower end (``_rename_merged``), is the next step's.

    The candidate set is kept, not rescanned (``_recount``).  A move of
    e = (keep, gone) with apexes a and b changes the neighbour sets of
    keep, a, b and the moved vertices (gone's other neighbours) only, and
    the walk only where gone sat on it, at edges that now meet keep.  So
    an edge off keep keeps its class unless it is ab, whose ends lose the
    common neighbour gone, or joins a moved vertex to an old neighbour of
    keep other than a and b, whose ends gain keep.  At any other edge from
    a moved vertex, or from a or b, gone as a common neighbour gives way
    to keep; the edges at gone go.

    The walk is renamed move by move, as ``_contracted`` renames it, at
    the moves whose removed end lies on it.  A
    move's apexes are e's two common neighbours, ordered by their faces'
    positions among the retained faces: an index maps each vertex to the
    positions of its live retained faces, e's two faces are those of both
    its ends, and a move changes the entries of the merged vertex and the
    apexes only.  Raises what ``reduce_greedy`` raises; the hole a
    StuckButContractible record needs is built only then (``_contracted``).
    """
    # raises SingleHoleRequired unless there is one hole
    walk = hole.single_disc.boundary_walk.vertices
    graph = hole.graph
    if not check_3_6(graph).is_tight:
        raise fileio.with_record(
            errors.NotTight, hole, "greedy reduction needs a tight "
            "single-hole graph")
    adj, board = _working(graph), _copy_board(graph)
    at: dict = {}
    for i, f in enumerate(hole.faces):
        for x in f:
            at.setdefault(x, set()).add(i)
    moves: list[Contraction] = []
    cand: set = set()
    border, touched = _walk_edges(walk), graph.edges
    while True:
        _recount(cand, adj, border, touched)
        if not cand:
            break
        for e in sorted(cand):
            failed, removed, log = _contraction_trial(adj, board, e)
            if failed is None:
                break
            _undo(board, log)
        else:
            stuck = _contracted(hole, [m.edge for m in moves])
            raise fileio.with_record(
                errors.StuckButContractible, stuck,
                f"no tightness-preserving contraction among {len(cand)} "
                "contractible edges")
        keep, gone = e
        at_e = at[keep] & at[gone]
        a, b = adj[keep] & adj[gone]
        if min(at_e) not in at[a]:
            a, b = b, a
        at[a] -= at_e
        at[b] -= at_e
        at[keep] = (at[keep] | at.pop(gone)) - at_e
        near = adj[keep] - {gone, a, b}
        moved = adj[gone] - {keep, a, b}
        moves.append(Contraction(e, (a, b), frozenset(moved)))
        cand.difference_update([(gone, w) if gone < w else (w, gone)
                                for w in adj[gone]])
        _contract_in_place(adj, keep, gone)
        _rename_merged(board, adj, e, removed)
        if gone in walk:
            walk = tuple(keep if x == gone else x for x in walk)
            border = _walk_edges(walk)
        touched = {(keep, w) if keep < w else (w, keep) for w in adj[keep]}
        if b in adj[a]:
            touched.add(edge_key(a, b))
        touched.update([(m, y) if m < y else (y, m)
                        for m in moved for y in adj[m] & near])
    return _graph_of(adj), moves


def reduce_greedy(hole: TorusWithHole) -> tuple[TorusWithHole, list[Contraction]]:
    """The uncontractible leaf hole of the greedy contraction sequence, and
    the contractions that reach it, in order.

    Each step contracts the first contractible FF edge whose contraction
    stays tight, decided on the graph and its walk (``_reduce``); the leaf
    hole is then built once (``_contracted``); without moves the input is
    its own leaf.
    ``certify`` needs only the contractions and builds no hole.  Raises
    NotTight, carrying the record, when the input is not tight, and
    StuckButContractible, carrying the record of the graph it is stuck at,
    at a contractible graph with no tight contraction.  A graph with more
    than one hole raises SingleHoleRequired first: it can be tight without
    being rigid.
    """
    _, moves = _reduce(hole)
    return _contracted(hole, [m.edge for m in moves]), moves


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class SplitMove:
    vertex: int
    anchors: tuple[int, int]
    moved: frozenset
    new_vertex: int

    def to_json(self) -> dict:
        return {"vertex": self.vertex, "anchors": list(self.anchors),
                "moved": sorted(self.moved), "new_vertex": self.new_vertex}


@dataclass(frozen=True)
class Certificate:
    """Vertex-splitting construction from K3: replaying the splits from the
    base triangle reproduces the target graph exactly."""
    base_vertices: tuple[int, int, int]
    splits: tuple[SplitMove, ...]

    def to_json(self) -> dict:
        return {"base": list(self.base_vertices),
                "splits": [s.to_json() for s in self.splits]}

    @functools.cached_property
    def target(self) -> Graph:
        """The graph the splits build from the base triangle.  The replay
        checks the triangle through the constructor, runs every split on
        one working adjacency of it (``graphs._split_in_place``) and builds
        one graph, at the end; an invalid split raises as that move refuses
        it, and a base that is not three vertices, or a split whose anchors
        are not two or whose moved neighbours are not a collection, raises
        BadArgument.  The certificate is frozen, so the replay runs once,
        on the first read."""
        try:
            a, b, c = self.base_vertices
        except (TypeError, ValueError):
            raise errors.BadArgument(
                f"base {self.base_vertices!r} is not three vertices") from None
        adj = _working(Graph([a, b, c], [(a, b), (a, c), (b, c)]))
        for s in self.splits:
            try:
                v2, v3 = s.anchors
                moved = [(s.vertex, t) for t in s.moved]
            except (TypeError, ValueError):
                raise errors.BadArgument(f"split {s!r} needs two anchors and "
                                         "a collection of moved neighbours") from None
            _split_in_place(adj, s.vertex, v2, v3, moved, s.new_vertex)
        return _graph_of(adj)


def _leaf_chain(leaf_graph: Graph) -> tuple[tuple[int, int, int], list[SplitMove]]:
    """Split chain from K3 to an uncontractible leaf, named by its vertex and
    edge counts: K4 gets its last vertex, K5 minus an edge the missing
    edge's ends, each split off the least other vertex."""
    vs = sorted(leaf_graph.vertices)
    counts = len(vs), len(leaf_graph.edges)
    if counts not in ((4, 6), (5, 9)):
        raise errors.ReplayMismatch(f"a leaf with counts {counts} is not K4 or K5 minus an edge")
    new = [v for v in vs if leaf_graph.degree(v) < len(vs) - 1] or vs[3:]
    x, y, z = (v for v in vs if v not in new)
    return (x, y, z), [SplitMove(x, (y, z), frozenset(), v) for v in new]


def certify(hole: TorusWithHole) -> Certificate:
    """Construction certificate: greedy-contract to an uncontractible leaf,
    seed with the stored K3 chain for that leaf, append the reversed
    contraction sequence as splits, and replay-check the result."""
    leaf, moves = _reduce(hole)
    base, splits = _leaf_chain(leaf)
    for m in reversed(moves):
        keep, gone = m.edge
        splits.append(SplitMove(keep, m.apexes, m.moved, gone))
    cert = Certificate(base, tuple(splits))
    if cert.target != hole.graph:
        raise errors.ReplayMismatch("replayed graph differs from the input")
    return cert


def verify_certificate(cert: Certificate, target: Graph,
                       check_rank: bool = True, seed: int = 0) -> bool:
    """Check that the certificate is a valid vertex-split chain from K3 to
    the target, and that the target has rank |E| = 3|V| - 6.

    The chain proves the target generically minimally rigid: K3 is, and
    ``graphs._split_in_place`` admits only a 3D vertex split (one new
    vertex joined to v and to two distinct neighbours of v), which keeps a
    graph generically isostatic (Whiteley, "Vertex splitting in isostatic
    frameworks", 1990).  The replay runs once, on one working adjacency
    (``Certificate.target``); an invalid split raises there, and a chain
    ending at any other graph than the target, a relabelled copy too,
    raises ReplayMismatch.

    The target then gets one check.  With ``check_rank`` it is
    ``is_min_3_rigid`` at ``seed``: |E| = 3|V| - 6 and a rank that reaches
    it, at the word point first and at the 62-bit point only on a
    shortfall; ReplayMismatch when it fails, naming the target's
    ``generic_rank``.  Without it the check is one (3,6) tightness check,
    which a target already decided answers without a pebble game;
    ReplayMismatch when it fails.  Given a valid chain, a rank shortfall
    comes only from an unlucky placement, with chance at most
    3|V| / 2^62 (see ``rigidity``).
    """
    if cert.target != target:
        raise errors.ReplayMismatch("certificate does not reproduce the target")
    if check_rank:
        if not is_min_3_rigid(target, seed=seed):
            rank = generic_rank(target, seed=seed)
            raise errors.ReplayMismatch(
                f"target on {len(target.vertices)} vertices and "
                f"{len(target.edges)} edges has rank {rank}, not 3|V| - 6")
    elif not check_3_6(target).is_tight:
        raise errors.ReplayMismatch("target is not tight")
    return True
