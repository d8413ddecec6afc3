"""Surface complexes, torus complexes, and torus graphs with holes.

A surface complex is a set of triangular faces in which every edge lies in at
most two faces and the 1-skeleton is simple.  A torus complex is a closed,
connected, orientable such complex with Euler characteristic zero.  Cutting a
hole deletes the edges interior to a triangulated disc mapped into the torus;
the disc may wrap around the torus and touch itself along its boundary, which
is why the disc structure is recovered by *unfolding* the chosen face region
rather than by taking an induced subcomplex.

The hole and every critical separating cycle are the same kind of object,
the boundary of such a disc.  One search, ``disc_structures``, finds them
all: it unfolds a region with up to ``MAX_KEEP`` shared edges kept unglued
(exposed), in a fixed order.  ``infer_disc`` takes its first result for a
hole; the reduction takes enlargements of a hole from it.  An unfolding is
a disc iff it is connected with Euler characteristic one (see ``DiscMap``).
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


def _directed_edges(face):
    a, b, c = face
    return ((a, b), (b, c), (c, a))


def canon_face(face):
    """Rotate a corner triple so the smallest corner comes first.

    Cyclic order (orientation) is preserved; only the starting point changes.
    """
    a, b, c = face
    if a <= b and a <= c:
        return face
    return (b, c, a) if b <= c else (c, a, b)


class SurfaceComplex:
    """A finite simplicial surface complex given by its triangular faces."""

    def __init__(self, faces):
        faces = tuple(canon_face(tuple(f)) for f in faces)
        seen_corner_sets = set()
        for f in faces:
            if len(set(f)) != 3:
                raise errors.LoopEdge(f"face {f} repeats a corner")
            cs = frozenset(f)
            if cs in seen_corner_sets:
                raise errors.DuplicateFace(f"face {f} occurs twice")
            seen_corner_sets.add(cs)
        edge_faces: dict[tuple[int, int], list[int]] = {}
        for idx, f in enumerate(faces):
            for e in _face_edges(f):
                edge_faces.setdefault(e, []).append(idx)
        for e, fs in edge_faces.items():
            if len(fs) > 2:
                raise errors.EdgeInThreeFaces(f"edge {e} lies in {len(fs)} faces")
        self.faces = faces
        self.edge_faces = {e: tuple(fs) for e, fs in edge_faces.items()}
        self.edges = frozenset(edge_faces)
        self.vertices = frozenset(v for f in faces for v in f)
        self.graph = Graph(self.vertices, self.edges)

    def __repr__(self):
        return (f"{type(self).__name__}(|V|={len(self.vertices)}, "
                f"|E|={len(self.edges)}, |F|={len(self.faces)})")

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    def boundary_edges(self) -> frozenset:
        """Edges lying in fewer than two faces."""
        return frozenset(e for e, fs in self.edge_faces.items() if len(fs) < 2)

    def face_adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.faces))}
        for fs in self.edge_faces.values():
            if len(fs) == 2:
                adj[fs[0]].add(fs[1])
                adj[fs[1]].add(fs[0])
        return adj


def _orient_coherently(faces, edge_faces):
    """Flip faces so adjacent faces traverse shared edges oppositely.

    Returns the reoriented face list and the number of components of the
    faces under shared-edge adjacency; raises NotClosedSurface if the
    complex is not orientable.  Assumes every edge lies in exactly two faces.
    """
    faces = list(faces)
    oriented = [False] * len(faces)
    components = 0
    for seed in range(len(faces)):
        if oriented[seed]:
            continue
        components += 1
        oriented[seed] = True
        stack = [seed]
        while stack:
            i = stack.pop()
            for u, v in _directed_edges(faces[i]):
                f1, f2 = edge_faces[(u, v) if u < v else (v, u)]
                j = f2 if f1 == i else f1
                # i traverses the edge u -> v; j must traverse it v -> u
                a, b, c = faces[j]
                agrees = (v, u) in ((a, b), (b, c), (c, a))
                if not oriented[j]:
                    if not agrees:
                        faces[j] = (a, c, b)
                    oriented[j] = True
                    stack.append(j)
                elif not agrees:
                    raise errors.NotClosedSurface("complex is not orientable")
    return [canon_face(f) for f in faces], components


class TorusComplex(SurfaceComplex):
    """A closed, connected, orientable surface complex of genus one.

    Faces are stored coherently oriented, so each edge is traversed once in
    each direction by its two incident faces.  Reorienting may rotate or
    reverse a face's corners but never moves it: face i has the corner set
    of the i-th input face, and callers address faces by that position.
    """

    def __init__(self, faces):
        super().__init__(faces)
        if not self.faces:
            raise errors.NotClosedSurface("torus has no faces")
        for e, fs in self.edge_faces.items():
            if len(fs) != 2:
                raise errors.NotClosedSurface(f"edge {e} lies in {len(fs)} faces")
        if self.euler_characteristic() != 0:
            raise errors.NotClosedSurface(
                f"Euler characteristic {self.euler_characteristic()} != 0")
        # each edge lies in two faces, so 3F = 2E and freedom 3V - E = 3 chi = 0
        reoriented, components = _orient_coherently(self.faces, self.edge_faces)
        self.faces = tuple(reoriented)
        _check_vertex_links(self)
        # with every link one cycle, the faces around a vertex are connected,
        # so the faces are connected iff the graph is
        if components != 1:
            raise errors.NotClosedSurface("complex is not connected")

    @functools.cached_property
    def cochain(self):
        """The homology cochain of ``homology.EdgeCochain``, built once."""
        from .homology import EdgeCochain
        return EdgeCochain(self)


def _check_vertex_links(torus: TorusComplex) -> None:
    """NotClosedSurface unless every vertex link is a single cycle.

    With the faces coherently oriented, face (a, b, c) steps the link of a
    from b to c, so one pass over the faces builds every link as a
    permutation of the vertex's neighbours, and a link is one cycle iff the
    walk from one neighbour visits them all.  Without this check a sphere
    and two tori wedged at one vertex pass as a torus: every edge lies in
    two faces, the graph is connected and chi = 0.
    """
    step: dict[int, dict[int, int]] = {v: {} for v in torus.vertices}
    for a, b, c in torus.faces:
        step[a][b] = c
        step[b][c] = a
        step[c][a] = b
    for v, link in step.items():
        start = x = next(iter(link))
        length = 0
        while True:
            x = link[x]
            length += 1
            if x == start:
                break
        if length != len(link):
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
    under the identification.
    """
    if r < 3 or s < 3:
        raise errors.TooSmall(f"grid {r}x{s}: both dimensions must be >= 3")
    return TorusComplex(grid_faces(r, s))


class ClosedWalk:
    """A closed walk given by its cyclic vertex sequence.

    ``vertices[i] -- vertices[i+1 mod n]`` are the traversed edges; the walk
    has as many edges as vertex entries.
    """

    def __init__(self, vertices):
        vertices = tuple(vertices)
        n = len(vertices)
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
        n = len(self.vertices)
        best = None
        for seq in (self.vertices, self.vertices[::-1]):
            for k in range(n):
                cand = seq[k:] + seq[:k]
                if best is None or cand < best:
                    best = cand
        return best


class DiscMap:
    """A triangulated disc mapped into a torus, injectively on faces.

    The disc is recovered by unfolding the face region: faces sharing an edge
    are glued along it unless the edge is listed in ``keep_edges`` (such edges
    stay in the graph and are covered twice by the boundary walk).

    Connectivity across the glued edges and Euler characteristic one decide
    that the unfolding is a disc.  A corner is a (face, vertex) pair with two
    edges at its vertex; gluing an edge pairs a corner with at most one other
    corner (two faces sharing two edges at v would be one face), so each
    corner class is a path or a cycle of corners around its vertex and the
    unfolding is a surface with boundary.  Its faces keep the torus's
    coherent orientation, so the surface is oriented, and a connected
    oriented surface with chi = 2 - 2g - b = 1 has g = 0 and b = 1: a disc
    with one boundary cycle.  Each boundary class then has one unglued edge
    leaving it and one entering it along the face orientation.  The walk
    starts at the boundary class least by (image vertex, representative)
    and follows whichever of those two edges is least by (edge, face).
    """

    def __init__(self, torus: TorusComplex, face_indices, keep_edges=()):
        self.torus = torus
        self.faces = tuple(sorted(set(face_indices)))
        if not self.faces:
            raise errors.NotADisc("empty face set")
        _check_face_indices(torus, self.faces)
        self.keep_edges = frozenset(edge_key(*e) for e in keep_edges)
        self._unfold()

    def _unfold(self):
        torus = self.torus
        region = set(self.faces)
        shared = _shared_edges(torus, region)
        bad = self.keep_edges.difference(shared)
        if bad:
            raise errors.NotADisc(f"keep edges {sorted(bad)} are not interior to the region")
        glued = set(shared) - self.keep_edges
        if not _face_connected(torus, region, glued):
            if not _face_connected(torus, region, shared):
                raise errors.NotFaceConnected("hole face set is not adjacency-connected")
            raise errors.NotADisc("unfolded complex is disconnected")
        corner_class, chi = _unfolding(torus, self.faces, glued)
        if chi != 1:
            raise errors.NotADisc(f"unfolded Euler characteristic {chi} != 1")

        # the unglued half-edges around the one boundary cycle, both ways;
        # a class representative is a (face, vertex) corner
        step, back = {}, {}
        for f in self.faces:
            for a, b in _directed_edges(torus.faces[f]):
                if ((a, b) if a < b else (b, a)) not in glued:
                    ca, cb = corner_class[f, a], corner_class[f, b]
                    step[ca] = (cb, f)
                    back[cb] = (ca, f)
        start = min(step, key=lambda cls: (cls[1], cls))
        (nxt, f_out), (prev, f_in) = step[start], back[start]
        v = start[1]
        if (edge_key(v, nxt[1]), f_out) > (edge_key(prev[1], v), f_in):
            step = back
        walk, cls = [v], step[start][0]
        while cls != start:
            walk.append(cls[1])
            cls = step[cls][0]

        self.interior_edges = frozenset(glued)
        self.interior_vertices = frozenset(
            {x for f in self.faces for x in torus.faces[f]}
            - {cls[1] for cls in step})
        self.boundary_walk = ClosedWalk(walk)

    def __repr__(self):
        return (f"DiscMap(faces={len(self.faces)}, "
                f"boundary={len(self.boundary_walk)}, keep={sorted(self.keep_edges)})")

    def boundary_length(self) -> int:
        return len(self.boundary_walk)


#: most exposed edges a disc structure keeps unglued; the wrap-around
#: detachment forms need one to three
MAX_KEEP = 3


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


def _check_face_indices(torus: TorusComplex, face_indices) -> None:
    for i in face_indices:
        if not 0 <= i < len(torus.faces):
            raise errors.NotADisc(f"face index {i} out of range")


def _shared_edges(torus: TorusComplex, region) -> list:
    """Sorted torus edges whose two faces both lie in the region."""
    return sorted(e for e, (f1, f2) in torus.edge_faces.items()
                  if f1 in region and f2 in region)


def _face_connected(torus: TorusComplex, region, edges) -> bool:
    """Whether the region's faces are connected across the given edges; an
    empty region counts as connected, and ``DiscMap`` rejects it as no disc."""
    cls = _classes(region, (torus.edge_faces[e] for e in edges))
    return len(set(cls.values())) <= 1


def _unfolding(torus: TorusComplex, faces, glued):
    """Corner classes and Euler characteristic of the faces glued along ``glued``.

    A corner is a (face, vertex) pair; gluing an edge merges the corners of
    its two faces at each endpoint, and a class representative is the least
    corner of its class.  The classes come as a map from every corner to
    its representative.
    """
    pairs = []
    for e in glued:
        f1, f2 = torus.edge_faces[e]
        pairs.extend(((f1, v), (f2, v)) for v in e)
    corner_class = _classes(((f, v) for f in faces for v in torus.faces[f]),
                            pairs)
    n_classes = len(set(corner_class.values()))
    return corner_class, n_classes - (3 * len(faces) - len(glued)) + len(faces)


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
    When the generator is first advanced, raises NotADisc for a face index
    out of range and NotFaceConnected if the region is not connected across
    shared edges.
    """
    region = set(face_indices)
    _check_face_indices(torus, region)
    shared = _shared_edges(torus, region)
    if not _face_connected(torus, region, shared):
        raise errors.NotFaceConnected("face set is not adjacency-connected")
    _, chi0 = _unfolding(torus, region, shared)
    if boundary_length is None:
        sizes = range(MAX_KEEP + 1)
    else:
        twice_k = boundary_length - 3 * len(region) + 2 * len(shared)
        fits = twice_k % 2 == 0 and 0 <= twice_k <= 2 * MAX_KEEP
        sizes = [twice_k // 2] if fits else []
    forbid = {edge_key(*e) for e in forbid_keep}
    allowed = [e for e in shared if e not in forbid]
    for k in sizes:
        if chi0 + k < 1:
            continue
        for keep in itertools.combinations(allowed, k):
            try:
                disc = DiscMap(torus, region, keep_edges=keep)
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
    disc = next(disc_structures(torus, face_indices), None)
    if disc is None:
        raise errors.NotADisc(
            f"face set of size {len(set(face_indices))} carries no disc "
            f"structure (up to {MAX_KEEP} exposed edges)")
    return disc


def retriangulate_holes(retained_faces, walks) -> "TorusWithHole":
    """Close a retained facial complex into a torus by fresh hole discs.

    Each boundary walk is filled with a collar of fresh vertices plus a coned
    centre, so every interior edge of the new disc has a fresh endpoint and
    cannot collide with a retained edge.  Used when the graph is sound but
    the old hole triangulation no longer fits: an edge contraction whose
    renamed faces are no torus (e's ends have a further common neighbour
    through deleted edges) or whose renamed disc would delete an apex edge,
    and a fission whose catalog faces collide with the hole's interior
    faces.
    """
    faces = [tuple(f) for f in retained_faces]
    next_id = max(v for f in faces for v in f) + 1
    for w in walks:
        next_id = max(next_id, max(w.vertices) + 1)
    regions = []
    for w in walks:
        b = w.vertices
        n = len(b)
        ring = list(range(next_id, next_id + n))
        centre = next_id + n
        next_id += n + 1
        regions.append((range(len(faces), len(faces) + 3 * n), w))
        for t in range(n):
            faces.append((b[t], b[(t + 1) % n], ring[t]))
            faces.append((b[(t + 1) % n], ring[t], ring[(t + 1) % n]))
            faces.append((ring[t], ring[(t + 1) % n], centre))
    torus = TorusComplex(faces)
    discs = []
    for idxs, w in regions:
        cover: dict = {}
        for e in w.edges():
            cover[e] = cover.get(e, 0) + 1
        keeps = [e for e, k in cover.items() if k >= 2]
        discs.append(DiscMap(torus, idxs, keep_edges=keeps))
    return TorusWithHole(torus, discs)


class TorusWithHole:
    """A torus graph with one or more holes: the triple (T, D, i) per hole.

    The graph keeps every torus vertex that retains an edge; vertices interior
    to a hole disc lose all their edges and are dropped with them, so the
    freedom-number identity f(G) = |bd D| - 3 holds for every single cut.
    Vertex ids are never renumbered.
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
            fset = set(d.faces)
            if used_faces & fset:
                raise errors.HoleInteraction("hole regions share a face")
            this_edges = {e for f in fset for e in _face_edges(torus.faces[f])}
            if region_edges & this_edges:
                raise errors.HoleInteraction("hole regions share an edge")
            used_faces |= fset
            region_edges |= this_edges
        self.hole_faces = frozenset(used_faces)
        self.deleted_edges = frozenset(e for d in self.discs for e in d.interior_edges)
        self.deleted_vertices = frozenset(v for d in self.discs for v in d.interior_vertices)
        self.face_indices = tuple(i for i in range(len(torus.faces))
                                  if i not in self.hole_faces)
        self.faces = tuple(torus.faces[i] for i in self.face_indices)
        self.graph = Graph(torus.vertices - self.deleted_vertices,
                           torus.edges - self.deleted_edges)
        edge_retained: dict = {e: [] for e in self.graph.edges}
        for i in self.face_indices:
            for e in _face_edges(torus.faces[i]):
                edge_retained[e].append(i)
        self.edge_retained_faces = {e: tuple(fs) for e, fs in edge_retained.items()}
        self.boundary_edges = frozenset(
            e for e, fs in self.edge_retained_faces.items() if len(fs) < 2)
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
        e = edge_key(*e)
        fs = self.edge_retained_faces.get(e)
        if fs is None:
            raise errors.UnknownEdge(f"{e} is not an edge of the graph")
        return len(fs) == 2


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
