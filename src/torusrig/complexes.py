"""Surface complexes, torus complexes, and torus graphs with holes.

A surface complex is a set of triangular faces in which every edge lies in at
most two faces and the 1-skeleton is simple.  A torus complex is a closed,
connected, orientable such complex with Euler characteristic zero.  Cutting a
hole deletes the edges interior to a triangulated disc mapped into the torus;
the disc may wrap around the torus and touch itself along its boundary, which
is why the disc structure is recovered by *unfolding* the chosen face region
rather than by taking an induced subcomplex.

The hole and every critical separating cycle are the boundary of such a
disc, and one search finds them all (``disc_structures``).  Each object a
hole is built from takes one pass over its faces (``SurfaceComplex``,
``TorusComplex``, ``_Region``), and no later step expands them again.

A child hole is its retained faces closed over each walk by a fresh disc of
n + 2m - 2 faces, one apex per run of distinct walk vertices; the fill and
the argument that it fits are stated once, in ``retriangulate_holes``.
"""

from __future__ import annotations

import functools
import itertools

from . import errors
from .graphs import Graph, edge_key


def _face_edges(face):
    """Sorted edges ab, bc, ca of a face whose corners are distinct."""
    a, b, c = face
    return ((a, b) if a < b else (b, a), (b, c) if b < c else (c, b),
            (c, a) if c < a else (a, c))


class SurfaceComplex:
    """A finite simplicial surface complex given by its triangular faces.

    One pass over the faces rotates each to its least corner, checks it and
    files it under its three edges.  The first face that is not three
    comparable corners, repeats a corner or repeats an earlier face's corner
    set decides the error; an edge in three or more faces is reported after
    that pass, naming the first such edge to appear, and the first face
    with a corner that is not an integer after that.  Each face's corners are
    type-checked in that pass, since a set or a dict would take True or 1.0
    for the vertex 1.
    """

    def __init__(self, faces):
        canon = []
        corner_sets = set()
        edge_faces: dict[tuple[int, int], tuple[int, ...]] = {}
        crowded = False
        not_int = None  # the first face with a corner that is not an integer
        for i, face in enumerate(faces):
            try:
                a, b, c = face
                if not (a <= b and a <= c):  # rotate, keeping the cyclic order
                    a, b, c = (b, c, a) if b <= c else (c, a, b)
            except (TypeError, ValueError):
                raise errors.BadArgument(
                    f"face {face!r} is not three comparable corners") from None
            f = (a, b, c)
            if a == b or a == c or b == c:
                raise errors.LoopEdge(f"face {f} repeats a corner")
            # a is the least corner, so (a, b) and (a, c) are in key order
            key = f if b < c else (a, c, b)
            if key in corner_sets:
                raise errors.DuplicateFace(f"face {f} occurs twice")
            corner_sets.add(key)
            if not_int is None and not (type(a) is type(b) is type(c) is int):
                not_int = f
            canon.append(f)
            for e in ((a, b), (b, c) if b < c else (c, b), (a, c)):
                fs = edge_faces.get(e)
                if fs is None:
                    edge_faces[e] = (i,)
                else:
                    crowded = crowded or len(fs) == 2
                    edge_faces[e] = fs + (i,)
        if crowded:
            e, fs = next((e, fs) for e, fs in edge_faces.items() if len(fs) > 2)
            raise errors.EdgeInThreeFaces(f"edge {e} lies in {len(fs)} faces")
        if not_int is not None:
            raise errors.BadArgument(f"face {not_int} has a corner that is not an integer")
        self.faces = tuple(canon)
        self.edge_faces = edge_faces
        self.edges = frozenset(edge_faces)
        self.vertices = frozenset().union(*canon)

    def __repr__(self):
        return (f"{type(self).__name__}(|V|={len(self.vertices)}, "
                f"|E|={len(self.edges)}, |F|={len(self.faces)})")

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def face_adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.faces))}
        for fs in self.edge_faces.values():
            if len(fs) == 2:
                adj[fs[0]].add(fs[1])
                adj[fs[1]].add(fs[0])
        return adj


def _orient_coherently(faces, edge_faces, vertices):
    """Flip faces so adjacent faces traverse shared edges oppositely.

    One walk over the faces, across shared edges, fixes each face's
    orientation (the first face of each component keeps its own) and enters
    the face in the links: face (a, b, c) steps the link of a from b to c.
    Returns the reoriented face list, every vertex's link as a map from
    neighbour to next neighbour, and the number of components of the faces
    under shared-edge adjacency; raises NotClosedSurface if the complex is
    not orientable.  Assumes every edge lies in exactly two faces and every
    face starts at its least corner, as it still does when reversed.
    """
    oriented = list(faces)
    flipped: list = [None] * len(faces)
    link: dict[int, dict[int, int]] = {v: {} for v in vertices}
    components = 0
    stack: list = []
    push, pop = stack.append, stack.pop
    for seed in range(len(faces)):
        if flipped[seed] is not None:
            continue
        components += 1
        flipped[seed] = False
        push(seed)
        while stack:
            i = pop()
            a, b, c = faces[i]
            if flipped[i]:
                b, c = c, b
                oriented[i] = (a, b, c)
            link[a][b] = c
            link[b][c] = a
            link[c][a] = b
            for u, v in ((a, b), (b, c), (c, a)):
                f1, f2 = edge_faces[(u, v) if u < v else (v, u)]
                j = f2 if f1 == i else f1
                # i now traverses u -> v; j must be flipped iff it does too,
                # that is iff v follows u in j
                x, y, z = faces[j]
                if x == u:
                    same = y == v
                else:
                    same = z == v if y == u else x == v
                was = flipped[j]
                if was is None:
                    flipped[j] = same
                    push(j)
                elif was != same:
                    raise errors.NotClosedSurface("complex is not orientable")
    return oriented, link, components


class TorusComplex(SurfaceComplex):
    """A closed, connected, orientable surface complex of genus one.

    Faces are stored coherently oriented, so each edge is traversed once in
    each direction by its two incident faces.  Reorienting may rotate or
    reverse a face's corners but never moves it: face i has the corner set
    of the i-th input face, and callers address faces by that position.

    A validated torus is never changed: nothing writes its ``faces``,
    ``edge_faces``, ``edges`` or ``vertices`` after the constructor, and
    its one cache, ``cochain``, reads only those.  So one torus may be
    shared by every hole cut from it, and a new one is built only by
    calling the constructor.
    """

    def __init__(self, faces):
        super().__init__(faces)
        if not self.faces:
            raise errors.NotClosedSurface("torus has no faces")
        # every edge lies in one or two faces, and in two iff 2E = 3F
        if 2 * len(self.edges) != 3 * len(self.faces):
            e, fs = next((e, fs) for e, fs in self.edge_faces.items()
                         if len(fs) != 2)
            raise errors.NotClosedSurface(f"edge {e} lies in {len(fs)} faces")
        if self.euler_characteristic() != 0:
            raise errors.NotClosedSurface(
                f"Euler characteristic {self.euler_characteristic()} != 0")
        # each edge lies in two faces, so 3F = 2E and freedom 3V - E = 3 chi = 0
        reoriented, link, components = _orient_coherently(
            self.faces, self.edge_faces, self.vertices)
        self.faces = tuple(reoriented)
        _check_vertex_links(link)
        # with every link one cycle, the faces around a vertex are connected,
        # so the faces are connected iff the graph is
        if components != 1:
            raise errors.NotClosedSurface("complex is not connected")

    @functools.cached_property
    def cochain(self):
        """The homology cochain of ``homology.EdgeCochain``, built once."""
        from .homology import EdgeCochain
        return EdgeCochain(self)


def _check_vertex_links(link) -> None:
    """NotClosedSurface unless every vertex link is a single cycle.

    With the faces coherently oriented, each link is a permutation of the
    vertex's neighbours (see ``_orient_coherently``), and it is one cycle
    iff the walk from one neighbour visits them all.  Without this check a
    sphere and two tori wedged at one vertex pass as a torus: every edge
    lies in two faces, the graph is connected and chi = 0.
    """
    for v, step in link.items():
        start = x = next(iter(step))
        length = 0
        while True:
            x = step[x]
            length += 1
            if x == start:
                break
        if length != len(step):
            raise errors.NotClosedSurface(
                f"the link of vertex {v} is not one cycle: the surface is "
                "pinched there")


def grid_faces(r: int, s: int) -> list[tuple[int, int, int]]:
    """Faces of the r x s grid torus, two per cell; vertex (i, j) is i*s + j."""
    def vid(i, j):
        return (i % r) * s + (j % s)
    faces = []
    for i in range(r):
        for j in range(s):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return faces


def rectangular_torus(r: int, s: int) -> TorusComplex:
    """The r x s grid torus: one diagonal per cell, opposite sides identified.

    Vertex (i, j) gets id i*s + j; the faces are ``grid_faces(r, s)`` in
    order.  Needs r, s >= 3; smaller grids produce loops or parallel edges
    under the identification.  BadArgument unless both are ints.
    """
    if type(r) is not int or type(s) is not int:
        raise errors.BadArgument(f"grid {r!r}x{s!r}: dimensions must be integers")
    if r < 3 or s < 3:
        raise errors.TooSmall(f"grid {r}x{s}: both dimensions must be >= 3")
    return TorusComplex(grid_faces(r, s))


def _symmetries(seq):
    """The symmetries of a cyclic sequence: seq[k:] + seq[:k] for k = 0, 1,
    ..., then the same rotations of its reversal."""
    for s in (seq, seq[::-1]):
        for k in range(len(s)):
            yield s[k:] + s[:k]


class ClosedWalk:
    """A closed walk given by its cyclic vertex sequence.

    ``vertices[i] -- vertices[i+1 mod n]`` are the traversed edges; the walk
    has as many edges as integer vertex entries, and at least one.
    """

    def __init__(self, vertices):
        vertices = tuple(vertices)
        n = len(vertices)
        if not n or any(type(v) is not int for v in vertices):
            raise errors.BadArgument(f"a closed walk needs one or more integer vertices, not {vertices!r}")
        for i in range(n):
            if vertices[i] == vertices[(i + 1) % n]:
                raise errors.LoopEdge("consecutive walk entries coincide")
        self.vertices = vertices

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, ClosedWalk) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return f"ClosedWalk{self.vertices}"

    def edges(self) -> list[tuple[int, int]]:
        n = len(self.vertices)
        return [edge_key(self.vertices[i], self.vertices[(i + 1) % n])
                for i in range(n)]

    def directed_edges(self) -> list[tuple[int, int]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def edge_set(self) -> frozenset:
        return frozenset(self.edges())

    def canonical(self) -> tuple:
        """Least vertex tuple over all rotations and the reversal."""
        return min(_symmetries(self.vertices))


class DiscMap:
    """A triangulated disc mapped into a torus, injectively on faces.

    The disc is recovered by unfolding the face region: faces sharing an edge
    are glued along it unless the edge is listed in ``keep_edges`` (such edges
    stay in the graph and are covered twice by the boundary walk).

    Connectivity across the glued edges and Euler characteristic one decide
    that the unfolding is a disc.  Gluing an edge joins a face's corner at
    each of its ends to at most one other corner (two faces sharing two
    edges at v would be one face), so the faces at each vertex form fans,
    paths or cycles around it, and the unfolding is a surface with
    boundary.  Its faces keep the torus's coherent orientation, so the
    surface is oriented, and a connected oriented surface with
    chi = 2 - 2g - b = 1 has g = 0 and b = 1: a disc with one boundary cycle.

    The walk is read by turning, as in a doubly connected edge list (Muller
    and Preparata 1978).  After an unglued half-edge a -> b of a face, that
    face's next half-edge leaves b; while it is glued, cross to the other
    face, whose next half-edge again leaves b.  The first unglued one is the
    walk's next half-edge.  The turns from any unglued half-edge go once
    around the boundary, and the walk is kept in its least rotation or
    reversal (``ClosedWalk.canonical``), so it depends on the disc alone,
    not on the face numbering.  The region's vertices off the walk are
    interior.

    What does not depend on the keep set comes from one pass over the
    region (``_Region``), whose edges the disc keeps as ``region_edges``;
    ``disc_structures`` makes that pass once for every keep set it tries
    and hands it in through the private ``_region``.
    """

    def __init__(self, torus: TorusComplex, face_indices, keep_edges=(),
                 _region=None):
        region = _Region(torus, face_indices) if _region is None else _region
        if not region.faces:
            raise errors.NotADisc("empty face set")
        self.torus = torus
        self.faces = region.faces
        self.region_edges = region.edges
        self.keep_edges = keep = frozenset(_edge_arg(e) for e in keep_edges)
        bad = keep - region.shared
        if bad:
            raise errors.NotADisc(f"keep edges {sorted(bad)} are not interior to the region")
        if not region.connected:
            raise errors.NotFaceConnected("hole face set is not adjacency-connected")
        if keep and not region.connected_without(keep):
            raise errors.NotADisc("unfolded complex is disconnected")
        chi = region.chi_without(keep)
        if chi != 1:
            raise errors.NotADisc(f"unfolded Euler characteristic {chi} != 1")

        # from any unglued half-edge, turn around its head to the next one
        glued = region.halves
        start = h = next(itertools.chain(region.open_halves, *(glued[e] for e in keep)))
        walk = []
        while not walk or h != start:
            f, a, b = h
            walk.append(a)
            while True:
                c = sum(torus.faces[f]) - a - b
                e = (b, c) if b < c else (c, b)
                if e not in glued or e in keep:
                    break
                h1, h2 = glued[e]
                f, a, _ = h2 if h1[0] == f else h1
            h = (f, b, c)

        self.interior_edges = region.shared - keep
        self.interior_vertices = frozenset(region.paths).difference(walk)
        self.boundary_walk = ClosedWalk(min(_symmetries(tuple(walk))))

    def __repr__(self):
        return (f"DiscMap(faces={len(self.faces)}, "
                f"boundary={len(self.boundary_walk)}, keep={sorted(self.keep_edges)})")


#: most exposed edges a disc structure keeps unglued; the wrap-around
#: detachment forms need one to three
MAX_KEEP = 3


def _face_tuple(torus: TorusComplex, face_indices) -> tuple:
    """The distinct face indices, ascending; BadArgument unless each is an
    integer, NotADisc unless each is a position in the torus's face list.
    Each index is type-checked before a set sees it, which would take True
    or 1.0 for the index 1."""
    try:
        faces = tuple(face_indices)
    except TypeError:
        raise errors.BadArgument(
            f"face indices {face_indices!r} are not integers") from None
    bad = [repr(i) for i in faces if type(i) is not int]
    if bad:
        raise errors.BadArgument(f"face index {min(bad)} is not an integer")
    faces = tuple(sorted(set(faces)))
    for i in faces:
        if not 0 <= i < len(torus.faces):
            raise errors.NotADisc(f"face index {i} out of range")
    return faces


def _edge_arg(e) -> tuple[int, int]:
    """``edge_key`` of any edge the API takes: BadArgument unless it is two
    integers, LoopEdge when they are equal."""
    if not (isinstance(e, (list, tuple)) and len(e) == 2
            and type(e[0]) is int and type(e[1]) is int):
        raise errors.BadArgument(f"edge {e!r} is not a pair of integer vertices")
    return edge_key(*e)


class _Region:
    """What every disc structure on one face region shares, from one pass
    over the region's faces.

    - ``faces``: the face indices, ascending;
    - ``shared``: the edges whose two faces both lie in the region, read off
      the region's own faces;
    - ``edges``: every edge of the region's faces, the shared ones and those
      of the open half-edges;
    - ``halves``: each shared edge's two half-edges (face, tail, head) along
      the face orientations, the lesser face's first, and ``open_halves``:
      every other half-edge of the region's faces, on the boundary whatever
      the keep set;
    - ``paths``: each vertex's open half-edges by tail, which is its
      corners (its faces in the region) less its shared edges;
    - ``connected``: whether the faces are connected across shared edges;
    - ``chi0``: the Euler characteristic of the fully glued unfolding.

    The pass classifies each half-edge once, by whether the face across it
    lies in the region, and files it in the same loop: a shared one under
    its edge (the faces ascend, so the lesser face meets the edge first) and
    under its face with the face across (``_across``), an open one among
    ``open_halves`` with its edge, counted at its tail.  Counting open
    half-edges by tail gives ``paths``: each face has one half-edge leaving
    each of its corners, and the torus's faces are coherently oriented, so
    the two faces at a shared edge traverse it oppositely and each of its
    ends is a tail exactly once.

    Around a vertex v, the faces glued across shared edges form fans, each
    a copy of v in the unfolding: paths, or one cycle when the region holds
    the whole star of v, whose link is one cycle.  v is then *closed*, which
    is when ``paths[v]`` is 0.  So v has paths[v] copies, plus one if
    closed, and chi0 = V - E + F
    = (3F - 2|shared| + closed) - (3F - |shared|) + F = F - |shared| + closed.
    Ungluing an edge changes the fans at its two ends only (``chi_without``).
    """

    def __init__(self, torus: TorusComplex, face_indices):
        self.faces = faces = _face_tuple(torus, face_indices)
        region = set(faces)
        edge_faces, torus_faces = torus.edge_faces, torus.faces
        self.halves = halves = {}
        self._across = across = {}
        self.open_halves = open_halves = []
        self.paths = paths = {}
        open_edges = []
        for f in faces:
            a, b, c = torus_faces[f]
            across[f] = here = []
            for u, v in ((a, b), (b, c), (c, a)):
                e = (u, v) if u < v else (v, u)
                f1, f2 = edge_faces[e]
                g = f2 if f1 == f else f1
                if g in region:
                    if f < g:
                        halves[e] = [(f, u, v)]
                    else:
                        halves[e].append((f, u, v))
                    here.append((e, g))
                    if u not in paths:
                        paths[u] = 0
                else:
                    open_halves.append((f, u, v))
                    open_edges.append(e)
                    paths[u] = paths.get(u, 0) + 1
        self.shared = frozenset(halves)
        self.edges = self.shared.union(open_edges)
        self._closed = frozenset(v for v, n in paths.items() if n == 0)
        self.chi0 = len(faces) - len(halves) + len(self._closed)
        self.connected = self.connected_without(())

    def connected_without(self, keep) -> bool:
        """Whether the faces are connected across the shared edges not in
        ``keep``; an empty region counts as connected."""
        if not self.faces:
            return True
        seen = {self.faces[0]}
        stack = [self.faces[0]]
        while stack:
            for e, g in self._across[stack.pop()]:
                if g not in seen and e not in keep:
                    seen.add(g)
                    stack.append(g)
        return len(seen) == len(self.faces)

    def chi_without(self, keep) -> int:
        """Euler characteristic of the unfolding that glues every shared
        edge but the kept ones, which must be shared and distinct.

        Ungluing an edge cuts the fans at its two ends: a path falls in
        two, while a closed vertex's cycle opens into a path the first time
        it is cut and falls in two after that.  A kept edge glues one edge
        fewer and adds two vertex copies, so chi = chi0 + |keep| - (the
        closed vertices at the ends of the kept edges).
        """
        return self.chi0 + len(keep) - len(self._closed.intersection(
            x for e in keep for x in e))


def disc_structures(torus: TorusComplex, face_indices, forbid_keep=(),
                    boundary_length=None):
    """Every disc structure on a face region, as DiscMaps in a fixed order.

    A disc structure glues the region's faces along every shared edge except
    a keep set of at most ``MAX_KEEP`` edges.  Keep sets are tried by size,
    then lexicographically over the sorted shared edges, skipping any that
    contains an edge of ``forbid_keep``.  Two bounds prune the search: each
    kept edge raises the fully glued characteristic chi0 by at most one, so
    a size k needs chi0 + k >= 1; and a boundary of length L has
    3|F| - 2|shared| + 2k edges, so a given ``boundary_length`` fixes k.

    The region pass (``_Region``) runs once, for every keep set.  A keep set
    reads its chi off the ends of its edges, at most six vertices; only one
    with chi = 1 builds a ``DiscMap``, which checks connectivity and turns
    along the walk.  When the generator is first advanced, raises
    BadArgument for a face index that is not an integer, NotADisc for one
    out of range and NotFaceConnected if the region is not connected across
    shared edges.
    """
    region = _Region(torus, face_indices)
    if not region.connected:
        raise errors.NotFaceConnected("face set is not adjacency-connected")
    if boundary_length is None:
        sizes = range(MAX_KEEP + 1)
    else:
        twice_k = boundary_length - 3 * len(region.faces) + 2 * len(region.shared)
        fits = twice_k % 2 == 0 and 0 <= twice_k <= 2 * MAX_KEEP
        sizes = [twice_k // 2] if fits else []
    forbid = {edge_key(*e) for e in forbid_keep}
    allowed = sorted(e for e in region.shared if e not in forbid)
    for k in sizes:
        if region.chi0 + k < 1:
            continue
        for keep in itertools.combinations(allowed, k):
            if region.chi_without(keep) != 1:
                continue
            try:
                disc = DiscMap(torus, region.faces, keep, _region=region)
            except errors.NotADisc:
                continue
            yield disc


def infer_disc(torus: TorusComplex, face_indices) -> DiscMap:
    """The first disc structure on a face region, as ``disc_structures``
    orders them: fully glued if that is a disc, else the lexicographically
    first keep set of the least size up to ``MAX_KEEP``.

    Raises NotFaceConnected for a region that is not face-connected and
    NotADisc when no keep set yields a disc.
    """
    faces = _face_tuple(torus, face_indices)
    disc = next(disc_structures(torus, faces), None)
    if disc is None:
        raise errors.NotADisc(
            f"face set of size {len(faces)} carries no disc "
            f"structure (up to {MAX_KEEP} exposed edges)")
    return disc


def retriangulate_holes(retained_faces, walks) -> "TorusWithHole":
    """Close a retained facial complex into a torus by fresh hole discs.

    Each boundary walk b_0 ... b_{n-1}, taken in its canonical rotation, is
    filled as follows.  Its n positions are split greedily, from position 0,
    into m runs whose spanned walk vertices b_s, ..., b_{e+1} are distinct
    (indices mod n; a simple walk is one run, whose ends b_0 = b_n are one
    position).  Each run cones its walk edges to one fresh apex; consecutive
    apexes, the last and the first too, are joined by one face at the walk
    vertex the two runs share; and the polygon of the m apexes is fanned from
    the first.  That is n + 2m - 2 faces, a plain cone of n faces when
    m = 1.  It is a disc: every apex is interior, and its boundary reads
    the walk.

    It maps into the torus.  An interior edge of the fill has a fresh end,
    an apex, so it cannot collide with a retained edge, and the only edges
    between walk vertices are the walk edges, one fill face per visit.  At
    a visit of a walk vertex v the fill is a fan from the walk edge behind
    to the walk edge ahead through the apexes of the runs spanning that
    position: one apex inside a run, two where runs meet.  Two visits of v
    never share an apex, since a run spans v at most once.  So each apex
    edge lies in two fill faces, the fans at v are disjoint, and v's link is
    the retained faces' paths joined by these fans, as in the hole's own
    disc.  The fill's ``DiscMap`` keeps the walk edges the walk runs along
    twice and reads the canonical rotation back, so a walk in any rotation
    or reversal fills the same disc.

    Every child hole is built so, and no old hole face is reused: after a
    contraction (``reduction._contracted``) e's ends may have common
    neighbours through the deleted edges, whose renamed faces would fold an
    edge into four, and a fission's catalog faces may reuse a hole edge as
    a chord.
    Fresh ids start above the integer corners; ``TorusComplex`` refuses any
    other corner.  BadArgument, before any face is built, unless ``walks``
    is a list or tuple of ``ClosedWalk``s.
    """
    if not (isinstance(walks, (list, tuple))
            and all(isinstance(w, ClosedWalk) for w in walks)):
        raise errors.BadArgument(f"walks {walks!r} are not a list of ClosedWalks")
    faces = [tuple(f) for f in retained_faces]
    next_id = max(itertools.chain((v for f in faces for v in f if type(v) is int),
                                  *(w.vertices for w in walks)), default=0) + 1
    regions = []
    for w in walks:
        b = w.canonical()
        n = len(b)
        start = len(faces)
        first = apex = next_id
        run = {b[0]}
        for t in range(n):
            u, v = b[t], b[(t + 1) % n]
            # a new run, unless b_n = b_0 closes a simple walk's one run
            if v in run and (t < n - 1 or apex > first):
                apex += 1
                faces.append((apex - 1, u, apex))
                run = {u}
            run.add(v)
            faces.append((u, v, apex))
        if apex > first:
            faces.append((apex, b[0], first))
            faces.extend((first, a, a + 1) for a in range(first + 1, apex))
        next_id = apex + 1
        regions.append((range(start, len(faces)), w))
    torus = TorusComplex(faces)
    discs = []
    for idxs, w in regions:
        edges = w.edges()
        keeps = {e for e in edges if edges.count(e) > 1}
        discs.append(DiscMap(torus, idxs, keep_edges=keeps))
    return TorusWithHole(torus, discs)


class TorusWithHole:
    """A torus graph with one or more holes: the triple (T, D, i) per hole.

    The graph keeps every torus vertex that retains an edge; vertices interior
    to a hole disc lose all their edges and are dropped with them, so the
    freedom-number identity f(G) = |bd D| - 3 holds for every single cut.
    Vertex ids are never renumbered.  Each disc hands in its region's edges
    (``DiscMap.region_edges``), and the graph takes the torus's edges,
    already in key order, less the deleted ones.
    """

    def __init__(self, torus: TorusComplex, discs):
        self.torus = torus
        self.discs = tuple(discs)
        if not self.discs:
            raise errors.NotADisc("a torus with hole needs at least one disc")
        used_faces: set[int] = set()
        region_edges: set = set()
        for d in self.discs:
            if d.torus is not torus:
                raise errors.HoleInteraction("disc belongs to a different torus")
            if not used_faces.isdisjoint(d.faces):
                raise errors.HoleInteraction("hole regions share a face")
            if not region_edges.isdisjoint(d.region_edges):
                raise errors.HoleInteraction("hole regions share an edge")
            used_faces.update(d.faces)
            region_edges |= d.region_edges
        self.hole_faces = frozenset(used_faces)
        self.deleted_edges = frozenset().union(*(d.interior_edges for d in self.discs))
        self.deleted_vertices = frozenset().union(
            *(d.interior_vertices for d in self.discs))
        self.faces = tuple([f for i, f in enumerate(torus.faces)
                            if i not in self.hole_faces])
        # the torus's edges are in key order, so only the adjacency is built
        self.graph = Graph(torus.vertices - self.deleted_vertices,
                           torus.edges - self.deleted_edges, _keyed=True)
        self.boundary_edges = frozenset(region_edges - self.deleted_edges)
        walk_edges = frozenset(e for d in self.discs for e in d.boundary_walk.edge_set())
        if walk_edges != self.boundary_edges:
            raise errors.NotADisc("boundary graph != detachment image")

    def __repr__(self):
        return (f"TorusWithHole(|V|={len(self.graph.vertices)}, "
                f"|E|={len(self.graph.edges)}, holes={len(self.discs)})")

    @property
    def single_disc(self) -> DiscMap:
        if len(self.discs) != 1:
            raise errors.SingleHoleRequired(
                f"graph has {len(self.discs)} holes")
        return self.discs[0]

    def detachment_walk(self) -> ClosedWalk:
        """The closed walk i(bd D) around the (single) hole."""
        return self.single_disc.boundary_walk

    def is_ff_edge(self, e) -> bool:
        """Whether a graph edge lies in two retained faces, which is when it
        is off the boundary walks.  A graph edge has a hole face exactly
        when it is a region edge that is not deleted, and those are the
        walks' edges, as the constructor checks (a kept edge lies on its
        walk twice)."""
        e = _edge_arg(e)
        if e not in self.graph.edges:
            raise errors.UnknownEdge(f"{e} is not an edge of the graph")
        return e not in self.boundary_edges


def cut_hole(torus: TorusComplex, disc_faces) -> TorusWithHole:
    """Cut a single hole given by a face-connected disc region.

    The disc structure is inferred: exposed edges are searched for when the
    fully glued region is not a disc.  ``DiscMap(torus, faces, keep_edges=)``
    pins them instead.
    """
    return TorusWithHole(torus, [infer_disc(torus, disc_faces)])


def cut_holes(torus: TorusComplex, hole_specs) -> TorusWithHole:
    """Cut several pairwise non-adjacent holes, each given by face indices."""
    discs = [infer_disc(torus, faces) for faces in hole_specs]
    return TorusWithHole(torus, discs)
