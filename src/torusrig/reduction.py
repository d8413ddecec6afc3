"""The move calculus on tight single-hole torus graphs.

Contraction of a contractible FF edge either keeps the graph tight or the
edge lies on a critical separating cycle (the boundary of an enlargement of
the hole disc whose complementary graph is tight).  A critical cycle supports
a fission move, which substitutes the matching catalog graph for the
complement.  Criticality is decided once per cycle: a ``SeparatingCycle``
builds its outer part and checks its tightness on first use, and the search,
``is_critical`` and ``fission`` share that verdict.  The outer part is a
subgraph of the hole's graph G, and the fission child keeps G's edges off
the catalog graph, so both are linked to G as their origin: their pebble
games start from G's decided orientation, and the outer part's places no
edge at all.

The key-lemma search rests on a freedom count.  Let W be the violator of
G/e and L its lift to G, and let a be the number of apexes of e in L.  Then
f(L) = f(W) + 2 - a with f(W) <= 5.  So a = 2 is impossible on tight input,
a = 1 forces f(L) = 6, and a = 0 allows f(L) in {6, 7}; that is why
``find_critical_cycle_through`` tries the tight cores through L with either
apex and through L alone.  Some tight inputs with a = 0 carry no critical
cycle through e (a 14-vertex v9 record grown from H17 with a collar); the
search raises NoCriticalCycle there, and whether the lemma needs a further
hypothesis or critical cycles a wider definition is open.

The greedy-contraction ruling: a tight graph with a contractible FF edge
always has one whose contraction stays tight, so greedy contraction alone
reduces every tight graph to one of the two uncontractible graphs.  That
loop is the only reduction driver here.  It runs on the graph and its
ordered retained faces, which is all a step reads: which edges lie in two
retained faces, their apexes, their ends' common neighbours and whether
G/e is tight.  It returns the uncontractible leaf graph and the
contractions that reach it, and ``certify`` reverses them into a
vertex-splitting construction rooted at K3 (Whiteley 1990).  Each
contraction removes one vertex and three edges from the graph, since there
a contractible edge has only its two apexes as common neighbours.  A graph
that breaks the ruling raises StuckButContractible.

Only ``contract`` builds a contracted hole, for ``reduce_greedy``'s leaf
(which ``torusrig reduce`` prints) and for the API.  It renames the faces,
drops e's two and revalidates the torus and each hole disc on the rest.
The torus around the graph also holds the hole's deleted edges, and
through them the ends of the edge can have further common neighbours; the
renamed faces then fold an edge into four faces and are no torus, so
``contract`` refills the hole with a fresh collar disc instead.  Both ways
keep the retained faces in order, with gone renamed to keep and e's two
faces dropped, as the loop contracts them; so replaying ``contract`` along
the loop's moves meets every step's faces and apex order.

Fission is a key-lemma move inside the proof, not a reduction step: its
catalog child is not a subgraph of the input, so it yields no vertex split.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from . import catalog, errors, fileio
from .complexes import (ClosedWalk, DiscMap, TorusComplex, TorusWithHole,
                        _classes, _face_edges, disc_structures,
                        retriangulate_holes)
from .graphs import (Graph, complete_graph, contract_edge, edge_key,
                     is_isomorphic)
from .maxflow import densest_extension
from .rigidity import generic_rank
from .sparsity import _flow_scan, check_3_6, maximal_tight_subgraph


class EdgeClass(enum.Enum):
    BOUNDARY_INCIDENT_FACE = "BoundaryIncidentFace"
    FF_CONTRACTIBLE = "FFContractible"
    FF_BLOCKED = "FFBlocked"


def _apexes(hole: TorusWithHole, e) -> tuple[int, int]:
    """Third corners of the two retained faces containing an FF edge."""
    u, v = e
    faces = hole.torus.faces
    # a face's corners are distinct, so the third is its sum less u and v
    return tuple(sum(faces[i]) - u - v for i in hole.edge_retained_faces[e])


def classify_edge(hole: TorusWithHole, e) -> EdgeClass:
    """FF iff the edge lies in two retained faces; blocked iff additionally
    some common neighbour closes a nonfacial 3-cycle."""
    e = edge_key(*e)
    if e not in hole.graph.edges:
        raise errors.UnknownEdge(f"{e} is not an edge of the graph")
    fs = hole.edge_retained_faces[e]
    if len(fs) < 2:
        return EdgeClass.BOUNDARY_INCIDENT_FACE
    u, v = e
    common = hole.graph.neighbors(u) & hole.graph.neighbors(v)
    if common - set(_apexes(hole, e)):
        return EdgeClass.FF_BLOCKED
    return EdgeClass.FF_CONTRACTIBLE


def contractible_edges(hole: TorusWithHole) -> list[tuple[int, int]]:
    return [e for e in hole.graph.sorted_edges()
            if classify_edge(hole, e) is EdgeClass.FF_CONTRACTIBLE]


def is_uncontractible(hole: TorusWithHole) -> bool:
    """True iff every FF edge lies on a nonfacial 3-cycle."""
    return not contractible_edges(hole)


def contract(hole: TorusWithHole, e) -> TorusWithHole:
    """Contract a contractible FF edge; the higher id merges into the lower.

    The torus is rebuilt and revalidated: gone is renamed to keep in every
    face, e's two faces are dropped, a ``TorusComplex`` is built on the
    rest, and on it one ``DiscMap`` per hole over the hole's faces, with
    gone renamed in the exposed edges.  The hole is refilled instead when
    that rebuild fails, as when the hole's deleted edges give e's ends a
    further common torus neighbour (whose edge to keep would lie in four
    faces), or when a disc swallows an apex edge (keep, a) and so would
    delete a graph edge; the latter happens only around an apex of degree
    two, which a tight graph lacks.  The refill replaces the hole discs by
    fresh triangulations over the renamed boundary walks
    (``retriangulate_holes``), which leaves the graph and its retained
    faces untouched; NotContractible, carrying the record, when that fails
    too.
    """
    e = edge_key(*e)
    if classify_edge(hole, e) is not EdgeClass.FF_CONTRACTIBLE:
        raise errors.NotContractible(f"{e} is not a contractible FF edge")
    keep, gone = e
    torus = hole.torus
    collapsed = set(hole.edge_retained_faces[e])
    apex_edges = {edge_key(keep, a) for a in _apexes(hole, e)}

    def rename(x):
        return keep if x == gone else x

    try:
        torus2 = TorusComplex([tuple(rename(x) for x in f)
                               for i, f in enumerate(torus.faces)
                               if i not in collapsed])
        # the collapsed faces are retained ones; a hole face moves down past
        # those before it
        out = TorusWithHole(torus2, [
            DiscMap(torus2, [i - sum(c < i for c in collapsed) for i in d.faces],
                    keep_edges=[(rename(a), rename(b)) for a, b in d.keep_edges])
            for d in hole.discs])
        if not out.deleted_edges & apex_edges:
            return out
    except errors.TorusRigError:
        pass
    retained2 = [tuple(rename(x) for x in torus.faces[i])
                 for i in hole.face_indices if i not in collapsed]
    walks2 = [ClosedWalk(rename(x) for x in d.boundary_walk.vertices)
              for d in hole.discs]
    try:
        return retriangulate_holes(retained2, walks2)
    except errors.TorusRigError as exc:
        raise fileio.with_record(
            errors.NotContractible, hole,
            f"contracting {e} breaks the hole structure: {exc}") from exc


# -- separating cycles and division ----------------------------------------


@dataclass(frozen=True)
class SeparatingCycle:
    """Boundary of an enlargement D1 of the hole disc, held as the disc.

    The outer part and whether it is tight are worked out once per cycle,
    on first use, and shared by ``divide``, ``is_critical`` and ``fission``.
    """
    disc: DiscMap

    @property
    def walk(self) -> ClosedWalk:
        """The cycle: the boundary walk of D1."""
        return self.disc.boundary_walk

    @functools.cached_property
    def outer(self) -> TorusWithHole:
        """G1: the torus with the enlarged disc as its hole."""
        return TorusWithHole(self.disc.torus, [self.disc])

    @functools.cached_property
    def critical(self) -> bool:
        """Whether the outer part G1 is (3,6)-tight."""
        return check_3_6(self.outer.graph).is_tight


def divide(hole: TorusWithHole, cycle: SeparatingCycle) -> tuple[TorusWithHole, Graph]:
    """Division move: the outer part (a torus with the enlarged hole) and the
    annulus of graph edges inside the region."""
    torus = hole.torus
    g1 = cycle.outer
    region_edges = {e for f in cycle.disc.faces
                    for e in _face_edges(torus.faces[f])}
    ann_edges = (region_edges & hole.graph.edges) - hole.deleted_edges
    ann_vertices = {v for e in ann_edges for v in e}
    return g1, Graph(ann_vertices, ann_edges)


def is_critical(hole: TorusWithHole, cycle: SeparatingCycle) -> bool:
    """Whether the cycle's outer part is tight; decided once per cycle."""
    return cycle.critical


# -- key lemma: constructive critical-cycle search --------------------------


def _blocked_faces(hole: TorusWithHole, k_set: frozenset) -> set[int]:
    """Torus faces whose 3-cycles are subgraphs of the induced graph on k_set."""
    torus = hole.torus
    g = hole.graph
    blocked = set()
    for i, f in enumerate(torus.faces):
        if all(v in k_set for v in f) and \
                all(e in g.edges for e in _face_edges(f)):
            blocked.add(i)
    return blocked


def _grow_region(torus: TorusComplex, start: int, blocked) -> frozenset:
    """The class of ``start`` among the unblocked faces, across their edges."""
    faces = {f for f in range(len(torus.faces)) if f not in blocked} | {start}
    cls = _classes(faces, (fs for fs in torus.edge_faces.values()
                           if fs[0] in faces and fs[1] in faces))
    return frozenset(f for f, rep in cls.items() if rep == cls[start])


def _region_criticals(hole, region, e):
    """Critical cycles through e supported by the given region."""
    out = []
    hole_faces = set(hole.single_disc.faces)
    if not hole_faces <= set(region):
        return out
    for d1 in disc_structures(hole.torus, region, forbid_keep=hole.deleted_edges,
                              boundary_length=catalog.WALK_LENGTH):
        if edge_key(*e) not in d1.boundary_walk.edge_set():
            continue
        cycle = SeparatingCycle(d1)
        cycle.outer.graph._origin = hole.graph
        if is_critical(hole, cycle):
            out.append(cycle)
    return out


def find_critical_cycle_through(hole: TorusWithHole, e) -> SeparatingCycle | None:
    """A critical separating cycle through a contractible edge whose
    contraction breaks tightness; None when the contraction stays tight.

    Follows the constructive route: lift the violator W of G/e to L, extend
    each tight core through L maximally, grow the complementary face region
    from the face of e whose apex the extension misses, and read the cycles
    off the region's disc boundaries; the least critical cycle wins.  With a
    apexes in L, f(L) = f(W) + 2 - a and f(W) <= 5: a = 2 cannot occur on
    tight input, and a = 1 forces f(L) = 6, so L is the only core.  With
    a = 0, f(L) is 6 or 7, so the cores are L with either apex, and L alone
    with e exposed (the region then holds both faces of e).

    The lemma is about the graph G/e, so the search decides on the plain
    graph contraction and never builds the contracted hole.  G is checked
    first (NotTight carrying the record when it is not tight); that verdict
    stays on the graph, so G/e is decided from G's pebble game, and every
    later search on the same hole finds G decided.

    W is read off a flow scan of the edges at the merged vertex z alone, in
    order of their other end.  Contraction changes only the subgraphs that
    hold z, so every violating set of G/e holds z (G is tight), and an edge
    at z, or dropping z would leave a denser set.  So that scan finds the
    violator that a scan of every edge, z's first, would find first.
    """
    e = edge_key(*e)
    if classify_edge(hole, e) is not EdgeClass.FF_CONTRACTIBLE:
        raise errors.NotContractible(f"{e} is not a contractible FF edge")
    if not check_3_6(hole.graph).is_tight:
        raise fileio.with_record(
            errors.NotTight, hole, "the key-lemma search needs a tight "
            "single-hole graph")
    z = e[0]
    h = contract_edge(hole.graph, *e)
    if check_3_6(h).is_sparse:
        return None
    witness = _flow_scan(h, [edge_key(z, w) for w in sorted(h.neighbors(z))]).witness
    lifted = frozenset(witness - {z}) | set(e)
    apex_face = dict(zip(_apexes(hole, e), hole.edge_retained_faces[e]))
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
        region = _grow_region(hole.torus, start, _blocked_faces(hole, k_set))
        candidates.extend(_region_criticals(hole, region, e))
    if not candidates:
        raise fileio.with_record(
            errors.NoCriticalCycle, hole, f"no critical separating cycle through {e}; this violates "
            "the key lemma on tight inputs")
    return min(candidates, key=lambda c: c.walk.canonical())


# -- fission ----------------------------------------------------------------


def fission(hole: TorusWithHole, cycle: SeparatingCycle
            ) -> tuple[TorusWithHole, TorusWithHole]:
    """Fission move at a critical cycle: (G1, G2) with the catalog graph
    substituted for G1; both children must come out simple and tight.

    Criticality is decided once per cycle (``SeparatingCycle.critical``), so
    a cycle the search has already found critical is not checked again; a
    hand-built cycle is checked here.  InvalidCycle when G1 is not tight.
    """
    if not cycle.critical:
        raise errors.InvalidCycle("cycle is not critical: outer part not tight")
    g1 = cycle.outer
    pattern = catalog.canonical_pattern(g1.detachment_walk().vertices)
    try:
        _idx, h_rep = catalog.catalog_graph_for_class(pattern)
    except errors.NoMatchingCatalogGraph as exc:
        raise fileio.with_record(
            errors.NoMatchingCatalogGraph, hole,
            f"at the cycle {list(cycle.walk.vertices)}: {exc}") from exc
    g2 = _substitute(hole, cycle, h_rep)
    g2.graph._origin = hole.graph
    if not check_3_6(g2.graph).is_tight:
        raise fileio.with_record(
            errors.NoMatchingCatalogGraph, hole,
            "substitution produced a non-tight graph at the cycle "
            f"{list(cycle.walk.vertices)}; fission lemma violated")
    return g1, g2


def _walk_alignments(w_h, w_c):
    """Vertex maps sending walk w_h onto walk w_c, over every rotation and
    the reversal of w_h, that are consistent and injective."""
    n = len(w_c)
    for seq in (w_h, w_h[::-1]):
        for rot in range(n):
            mapping: dict[int, int] = {}
            if all(mapping.setdefault(seq[(rot + k) % n], w_c[k]) == w_c[k]
                   for k in range(n)) and \
                    len(set(mapping.values())) == len(mapping):
                yield mapping


def _substitute(hole: TorusWithHole, cycle: SeparatingCycle,
                h_rep: TorusWithHole) -> TorusWithHole:
    """Glue the catalog graph's retained faces onto the region of the cycle.

    The region keeps the hole's own faces where that glues into a torus.
    Their interior triangulation is not part of the graph, though, and may
    collide with the catalog faces (a hole edge reused as a catalog chord);
    the fallback then glues onto the annulus alone and refills the hole over
    its unchanged boundary walk with a fresh disc.
    """
    torus = hole.torus
    w_c = cycle.walk.vertices
    w_h = h_rep.detachment_walk().vertices
    if len(w_h) != len(w_c):
        raise errors.NoMatchingCatalogGraph("boundary walks have different lengths")
    alignments = list(_walk_alignments(w_h, w_c))
    region_faces = [torus.faces[i] for i in cycle.disc.faces]
    annulus_faces = [torus.faces[i] for i in cycle.disc.faces
                     if i not in hole.hole_faces]
    walks = [d.boundary_walk for d in hole.discs]

    def glue(h_faces):
        # region face k sits at len(h_faces) + k in the glued torus
        position = {i: len(h_faces) + k for k, i in enumerate(cycle.disc.faces)}
        torus2 = TorusComplex(h_faces + region_faces)
        discs2 = []
        for d in hole.discs:
            faces2 = [position[i] for i in d.faces]
            discs2.append(DiscMap(torus2, faces2, keep_edges=d.keep_edges))
        return TorusWithHole(torus2, discs2)

    def refill(h_faces):
        return retriangulate_holes(h_faces + annulus_faces, walks)

    errors_seen = []
    for attempt in (glue, refill):
        for k, mapping in enumerate(alignments):
            h_faces = [tuple(mapping[x] for x in f) for f in h_rep.faces]
            try:
                return attempt(h_faces)
            except errors.TorusRigError as exc:
                errors_seen.append(f"{attempt.__name__} #{k}: {exc}")
    raise fileio.with_record(
        errors.NoMatchingCatalogGraph, hole,
        f"no walk alignment glues the catalog graph onto the cycle "
        f"{list(w_c)} ({len(alignments)} consistent alignments): "
        + ("; ".join(errors_seen) or "none"))


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
    """The greedy reduction on the graph and its ordered retained faces:
    the uncontractible leaf graph and the contractions that reach it.

    Contracting e drops its two faces and renames gone to keep in the
    others, in order, as ``contract`` does; the next graph is the decided
    ``contract_edge`` one.  Raises what ``reduce_greedy`` raises; the hole
    a StuckButContractible record needs is built only then, by replaying
    ``contract`` from the input.
    """
    hole.single_disc  # raises SingleHoleRequired unless there is one hole
    graph = hole.graph
    if not check_3_6(graph).is_tight:
        raise fileio.with_record(
            errors.NotTight, hole, "greedy reduction needs a tight "
            "single-hole graph")
    faces = hole.faces
    moves: list[Contraction] = []
    while True:
        apexes: dict = {}
        for f in faces:
            for u, v in _face_edges(f):
                apexes.setdefault((u, v), []).append(sum(f) - u - v)
        # FF edges whose ends have no common neighbour but their apexes
        nbrs = graph.neighbors
        cand = sorted(e for e, xs in apexes.items()
                      if len(xs) == 2 and nbrs(e[0]) & nbrs(e[1]) <= set(xs))
        if not cand:
            return graph, moves
        for e in cand:
            h = contract_edge(graph, *e)
            if check_3_6(h).is_tight:
                break
        else:
            raise fileio.with_record(
                errors.StuckButContractible, _replay(hole, moves),
                f"no tightness-preserving contraction among {len(cand)} "
                "contractible edges")
        keep, gone = e
        moved = nbrs(gone) - {keep} - set(apexes[e])
        moves.append(Contraction(e, tuple(apexes[e]), frozenset(moved)))
        faces = [tuple(keep if x == gone else x for x in f) for f in faces
                 if keep not in f or gone not in f]
        graph = h


def _replay(hole: TorusWithHole, moves) -> TorusWithHole:
    """The hole that contracting the moves' edges in turn gives."""
    for m in moves:
        hole = contract(hole, m.edge)
    return hole


def reduce_greedy(hole: TorusWithHole) -> tuple[TorusWithHole, list[Contraction]]:
    """The uncontractible leaf hole of the greedy contraction sequence, and
    the contractions that reach it, in order.

    Each step contracts the first contractible FF edge whose contraction
    stays tight, decided on the graph and its retained faces (``_reduce``);
    the leaf hole is then built by replaying ``contract`` along the
    contractions.  ``certify`` and ``torusrig tree`` need only the
    contractions and build no hole.  Raises NotTight, carrying the record,
    when the input is not tight, and StuckButContractible, carrying the
    record of the graph it is stuck at, at a contractible graph with no
    tight contraction.  A graph with more than one hole raises
    SingleHoleRequired first: it can be tight without being rigid.
    """
    _, moves = _reduce(hole)
    return _replay(hole, moves), moves


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
    def _replayed(self) -> tuple[Graph, ...]:
        a, b, c = self.base_vertices
        g = Graph([a, b, c], [(a, b), (a, c), (b, c)])
        out = [g]
        for s in self.splits:
            g = g.split_vertex(s.vertex, *s.anchors,
                               [(s.vertex, t) for t in s.moved],
                               new_vertex=s.new_vertex)
            out.append(g)
        return tuple(out)

    def replay(self) -> list[Graph]:
        """All intermediate graphs, K3 first.  The certificate is frozen, so
        they are built once, on the first call, and shared by later ones
        (``certify``'s check and ``verify_certificate``)."""
        return list(self._replayed)


def _leaf_chain(leaf_graph: Graph) -> tuple[tuple[int, int, int], list[SplitMove]]:
    """Split chain from K3 to an uncontractible leaf (K4 or K5 minus edge)."""
    vs = sorted(leaf_graph.vertices)
    if is_isomorphic(leaf_graph, complete_graph(4)):
        a, b, c, d = vs
        return (a, b, c), [SplitMove(a, (b, c), frozenset(), d)]
    k5 = complete_graph(5)
    k5e = Graph(k5.vertices, k5.edges - {(0, 1)})
    if is_isomorphic(leaf_graph, k5e):
        nonadj = next((u, v) for u in vs for v in vs
                      if u < v and v not in leaf_graph.neighbors(u))
        p, q = nonadj
        x, y, z = sorted(set(vs) - {p, q})
        return (x, y, z), [SplitMove(x, (y, z), frozenset(), p),
                           SplitMove(x, (y, z), frozenset(), q)]
    raise errors.ReplayMismatch(
        "leaf is not isomorphic to K4 or K5 minus an edge")


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
    final = cert.replay()[-1]
    if final != hole.graph:
        raise errors.ReplayMismatch("replayed graph differs from the input")
    return cert


def verify_certificate(cert: Certificate, target: Graph,
                       check_rank: bool = True, seed: int = 0) -> bool:
    """Replay the certificate from K3 and check every intermediate graph.

    The claim is the same whichever exact elimination ranks a step: with
    ``check_rank`` every step G must reach generic_rank(G) = |E| = 3|V| - 6,
    and that alone proves G tight.  The rank found at any placement is at
    most the generic rank, which is at most |E|; so rank = |E| shows G
    generically independent.  An independent graph is (3,6)-sparse, since
    each subgraph on S has rank at most 3|S| - 6 (Maxwell's count), and with
    3|V| - 6 edges it is tight.  Each split adds one vertex and three edges,
    so the ranks step by +3; that a vertex split keeps independence is
    Whiteley's lemma ("Vertex splitting in isostatic frameworks", 1990).
    Without ``check_rank`` each step runs a (3,6) tightness check instead.

    Every step is ranked at one placement: ``generic_rank`` draws each
    vertex's coordinates from (seed, vertex), so a step's placement is the
    final graph's restricted to the step's vertices, and the chance that
    any step is under-reported is at most 3|V|^2 / p (see ``rigidity``).
    The replay must reproduce the target exactly, vertex ids included, as
    the certificate promises; any other graph, a relabelled copy too,
    raises ReplayMismatch.  A certificate replays once, so one from
    ``certify`` brings the replay that ``certify`` checked.
    """
    graphs = cert.replay()
    if graphs[-1] != target:
        raise errors.ReplayMismatch("certificate does not reproduce the target")
    for g in graphs:
        if check_rank:
            rank = generic_rank(g, seed=seed)
            if not rank == len(g.edges) == 3 * len(g.vertices) - 6:
                raise errors.ReplayMismatch(
                    f"intermediate graph on {len(g.vertices)} vertices and "
                    f"{len(g.edges)} edges has rank {rank}, not 3|V| - 6")
        elif not check_3_6(g).is_tight:
            raise errors.ReplayMismatch("intermediate graph is not tight")
    return True
