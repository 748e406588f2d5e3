"""Plane graphs as combinatorial rotation systems.

A simple graph plus a counter-clockwise cyclic neighbor order at every
vertex determines an embedding on an orientable surface.  Construction
accepts only genus-zero systems (checked through Euler's formula), so a
PlaneGraph is always an honest plane graph with explicit faces.

Faces are orbits of darts (directed edges): the walk continues from
(u, v) with (v, w) where w follows u in the rotation at v.  Under this
convention every bounded face is traced clockwise and the unbounded
face counter-clockwise.  The outer face is explicit state, never
re-inferred behind the caller's back.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

Dart = tuple[int, int]


class EmbeddingError(ValueError):
    """Raised when input data does not describe a valid plane embedding."""


def _echo(value) -> str:
    """repr(value) for an error message, or past 40 characters its first 40 and length."""
    text = value if isinstance(value, str) else repr(value)
    return repr(value) if len(text) <= 40 else f"{text[:40] + '…'!r} ({len(text)} characters)"


class InvariantBreach(RuntimeError):
    """A structural property that should be a theorem failed on an instance.

    This is deliberately not a ValueError: seeing it means either the
    library has a bug or the instance violates a documented guarantee,
    and the failure should be preserved for replay, not swallowed.
    """


class Category(str, Enum):
    PLANAR_TRIANGULATION = "planar_triangulation"
    NEAR_TRIANGULATION = "near_triangulation"
    CONNECTED_PLANE = "connected_plane"
    INVALID = "invalid"


NEAR_OR_PLANAR = (Category.NEAR_TRIANGULATION, Category.PLANAR_TRIANGULATION)


@dataclass(frozen=True)
class GraphClass:
    category: Category
    min_degree: int
    is_two_connected: bool
    all_degrees_even: bool
    all_degrees_odd: bool


@dataclass(frozen=True)
class FacesInequalityReport:
    """f_4 + 2*sum(f_i, i>=6) against |V|-2, plus the strengthened form."""

    lhs: int
    rhs: int
    strengthened_rhs: Fraction
    holds: bool
    strengthened_holds: bool


def _cyclic_canon(seq: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically smallest rotation of a cyclic sequence."""
    t = tuple(seq)
    return min((t[i:] + t[:i] for i in range(len(t))), default=t)


def _canonical(rot: Sequence[int]) -> Sequence[int]:
    """A copy of the rotation starting at its smallest neighbor."""
    i = rot.index(min(rot)) if rot else 0
    return rot[i:] + rot[:i]


def _count_components(adj: Sequence[Iterable[int]]) -> int:
    seen = [False] * len(adj)
    count = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    return count


class PlaneGraph:
    """Immutable plane graph: canonical rotations, faces, explicit outer face.

    Vertices are 0..n-1.  A face is its vertex walk, one entry per dart;
    its id is its index in `faces` and its degree the walk's length.  Do
    not mutate the returned tuples; all derived structure is computed once
    at construction.  Faces and the dart map hold only tuples of ints, so
    the cyclic garbage collector stops tracking them.
    """

    __slots__ = (
        "n",
        "rotations",
        "edge_count",
        "faces",
        "outer_face_id",
        "component_count",
        "_adj",
        "_dart_face",
        "_class",
    )

    def __init__(
        self,
        rotations: Sequence[Sequence[int]],
        outer_dart: Dart | None = None,
    ):
        n = len(rotations)
        if n == 0:
            raise EmbeddingError("a plane graph needs at least one vertex")
        adj = tuple(map(frozenset, rotations))
        for v, (rot, nbrs) in enumerate(zip(rotations, adj)):
            for u in rot:
                if not (0 <= u < n):
                    raise EmbeddingError(f"vertex {v} lists unknown neighbor {_echo(u)}")
            if v in nbrs:
                raise EmbeddingError(f"loop at vertex {v}")
            if len(nbrs) != len(rot):
                raise EmbeddingError(f"parallel edge in rotation of vertex {v}")

        self.n = n
        self.rotations = tuple(_canonical(tuple(rot)) for rot in rotations)
        self._adj = adj
        self.edge_count = sum(map(len, adj)) // 2

        self.component_count = _count_components(adj)
        # Faces are the orbits of the dart successor (u, v) -> (v, succ_v(u)),
        # walked by rotation position.  Starting an orbit at each unlabelled
        # dart in sorted order numbers faces by their smallest dart; the
        # labels double as the seen set.  A one-sided dart fails index[v][u].
        rots = self.rotations
        index = [{w: i for i, w in enumerate(r)} for r in rots]
        labels = [[-1] * len(r) for r in rots]
        faces = []
        try:
            for s, rot in enumerate(rots):
                for t in sorted(rot):
                    i = index[s][t]
                    if labels[s][i] >= 0:
                        continue
                    fid = len(faces)
                    walk = []
                    u = s
                    while labels[u][i] < 0:
                        walk.append(u)
                        labels[u][i] = fid
                        v = rots[u][i]
                        i = index[v][u] + 1
                        if i == len(rots[v]):
                            i = 0
                        u = v
                    faces.append(tuple(walk))
        except KeyError:
            raise EmbeddingError(f"asymmetric adjacency between {u} and {v}") from None
        # One face per single-vertex component is implicit (no darts).
        euler = n - self.edge_count + len(faces) + rots.count(())
        if euler != 2 * self.component_count:
            raise EmbeddingError(
                "rotation system is not planar: V-E+F = "
                f"{self.n}-{self.edge_count}+{len(faces)} with "
                f"{self.component_count} component(s)"
            )
        # A map without darts still has its one (empty-walk) face.
        self.faces: tuple[tuple[int, ...], ...] = tuple(faces) or ((),)
        # _dart_face[u][i] is the face of dart (u, rotations[u][i])
        self._dart_face = tuple(map(tuple, labels))
        self._class: GraphClass | None = None
        try:  # no hint: of the longest walks, the one with the smallest id
            self.outer_face_id = (
                self.faces.index(max(self.faces, key=len))
                if outer_dart is None
                else self.face_of_dart(*outer_dart)
            )
        except (TypeError, ValueError):
            raise EmbeddingError(f"dart {_echo(outer_dart)} not present") from None

    # -- accessors ---------------------------------------------------------

    @property
    def is_connected(self) -> bool:
        return self.component_count == 1

    @property
    def outer_face(self) -> tuple[int, ...]:
        return self.faces[self.outer_face_id]

    def vertices(self) -> range:
        return range(self.n)

    def rotation(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self.rotations[v]

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def face_of_dart(self, u: int, v: int) -> int:
        if not (0 <= u < self.n) or v not in self._adj[u]:
            raise ValueError(f"no dart ({u}, {v}) in this graph")
        return self._dart_face[u][self.rotations[u].index(v)]

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self._adj)

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v), u < v, by u and then in the iteration order of
        u's neighbor set.  The flip walk draws edges by index in this order."""
        return [(u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if u < v]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"unknown vertex {v}")

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneGraph):
            return NotImplemented
        # Equal rotations trace the same faces under the same ids.
        return (self.rotations, self.outer_face_id) == (other.rotations, other.outer_face_id)

    def __hash__(self) -> int:
        return hash((self.rotations, self.outer_face_id))

    def __repr__(self) -> str:
        return f"PlaneGraph(n={self.n}, m={self.edge_count}, outer={self.outer_face})"


def closed_neighborhood(g: PlaneGraph, s: Iterable[int]) -> frozenset[int]:
    """N[S]: S together with everything adjacent to it.  N[{}] = {}."""
    out = set()
    for v in s:
        out.add(v)
        out |= g.neighbors(v)
    return frozenset(out)


def face_degree_histogram(g: PlaneGraph) -> dict[int, int]:
    return dict(Counter(map(len, g.faces)))


def classify(g: PlaneGraph) -> GraphClass:
    """Strongest applicable class plus degree/connectivity flags, computed
    once per graph (the map is immutable)."""
    if g._class is None:
        g._class = _classify(g)
    return g._class


def _classify(g: PlaneGraph) -> GraphClass:
    degs = g.degrees()
    min_deg = min(degs)
    # A connected plane graph on >= 3 vertices is 2-connected exactly
    # when every face is bounded by a cycle (Diestel, Prop. 4.2.6).
    two_conn = (
        g.n >= 3
        and g.is_connected
        # A face walk of length <= 3 in a simple graph repeats no vertex.
        and all(len(w) <= 3 or len(set(w)) == len(w) for w in g.faces)
    )
    all_even = all(d % 2 == 0 for d in degs)
    all_odd = all(d % 2 == 1 for d in degs)
    if not g.is_connected:
        cat = Category.INVALID
    elif all(len(w) == 3 for w in g.faces):
        cat = Category.PLANAR_TRIANGULATION
    elif two_conn and all(
        len(w) == 3 for f, w in enumerate(g.faces) if f != g.outer_face_id
    ):
        cat = Category.NEAR_TRIANGULATION
    else:
        cat = Category.CONNECTED_PLANE
    return GraphClass(cat, min_deg, two_conn, all_even, all_odd)


# -- deletion ---------------------------------------------------------------


def delete_vertices(
    g: PlaneGraph, s: Iterable[int]
) -> tuple[PlaneGraph, dict[int, int]]:
    """Induced sub-embedding after removing `s`, plus old-id -> new-id map.

    Rotations of survivors are filtered once and faces recomputed, so
    face identity is not preserved.  The outer face of the result is the
    face whose region absorbed the old outer region; for a disconnected
    result it is one of that region's boundary orbits.  A disconnected
    result is permitted; callers should consult `.is_connected`.
    """
    s = frozenset(s)
    for v in s:
        g._check_vertex(v)
    if not s:
        return g, {v: v for v in range(g.n)}
    if len(s) == g.n:
        raise ValueError("cannot delete every vertex")

    survivors = [v for v in range(g.n) if v not in s]
    relabel = {old: new for new, old in enumerate(survivors)}
    rot = [[relabel[w] for w in g.rotations[v] if w not in s] for v in survivors]
    # Deleting a vertex merges every face around it, so the old outer
    # region grows through each deleted vertex it reaches.  Any dart of
    # the merged faces that avoids S bounds the region that absorbed it.
    region = [g.outer_face_id]
    seen = set(region)
    for fid in region:
        for v in g.faces[fid]:
            if v in s:
                for f in g._dart_face[v]:
                    if f not in seen:
                        seen.add(f)
                        region.append(f)
    for fid in region:
        walk = g.faces[fid]
        for a, b in zip(walk, walk[1:] + walk[:1]):
            if a not in s and b not in s:
                return PlaneGraph(rot, outer_dart=(relabel[a], relabel[b])), relabel
    return PlaneGraph(rot), relabel


def deleted_vertex_region_dart(g: PlaneGraph, v: int) -> Dart:
    """A dart of g that bounds the region where v used to be after v
    (or any independent set containing it) is deleted.

    For the first neighbor u whose dart (v, u) is not on the outer face,
    this is the next dart (u, w) of that face: w follows v in the
    rotation at u.  On a near triangulation the face is a triangle, so
    w is a neighbor of v too and both ends survive the deletion of an
    independent set.
    """
    for u, f in zip(g.rotation(v), g._dart_face[v]):
        if f != g.outer_face_id:
            return (u, _after(g.rotations, v, u))
    raise InvariantBreach(f"vertex {v} has no inner face")


def _after(rot: Sequence[Sequence[int]], v: int, u: int) -> int:
    """The neighbor that follows v in the rotation at u."""
    r = rot[u]
    return r[(r.index(v) + 1) % len(r)]


# -- neighborhood structure --------------------------------------------------


def neighborhood_structure(g: PlaneGraph, v: int) -> str:
    """"cycle" or "path": whether G[N(v)] of a near triangulation has a
    spanning cycle or only a spanning path, read off the rotation of v.

    Every face at v except the outer one is a triangle, so consecutive
    rotation neighbours are adjacent except across a gap of the outer
    face.  A closed link (no gap, degree >= 3) is a cycle.  Otherwise v
    must lie on a non-triangle outer face and have at most one gap, where
    the rotation opens into the path.  Anything else breaches the
    dichotomy.
    """
    nbrs = g.rotation(v)
    adj = g._adj
    gaps = sum(b not in adj[a] for a, b in zip(nbrs, nbrs[1:] + nbrs[:1]))
    if not gaps and len(nbrs) >= 3:
        return "cycle"
    if v not in g.outer_face or len(g.outer_face) == 3:
        raise InvariantBreach(
            f"vertex {v}: link is not a cycle although it is interior or the "
            "outer face is a triangle"
        )
    if gaps > 1:
        raise InvariantBreach(f"vertex {v}: link has {gaps} gaps, not a path")
    return "path"


# -- faces inequality ---------------------------------------------------------


def check_faces_inequality(h: PlaneGraph) -> FacesInequalityReport:
    """f_4 + 2*sum(f_i for i >= 6) <= |V| - 2 on a connected plane graph
    with |V| >= 2, and the strengthened right side |V| - 2 - (f_3 + 3*f_5)/2.
    |V| - 2 sums (deg f - 2)/2 over the faces; K1's one face has degree 0.
    """
    if not h.is_connected or h.n < 2:
        raise ValueError("faces inequality is stated for connected plane graphs, n >= 2")
    hist = face_degree_histogram(h)
    lhs = hist.get(4, 0) + 2 * sum(c for d, c in hist.items() if d >= 6)
    rhs = h.n - 2
    strengthened = Fraction(rhs) - Fraction(hist.get(3, 0) + 3 * hist.get(5, 0), 2)
    return FacesInequalityReport(
        lhs=lhs,
        rhs=rhs,
        strengthened_rhs=strengthened,
        holds=lhs <= rhs,
        strengthened_holds=Fraction(lhs) <= strengthened,
    )


# -- edge flip ---------------------------------------------------------------


def flip_edge(rot: list[list[int]], u: int, v: int) -> tuple[int, int]:
    """Flip edge uv of the triangles (u, v, x) and (v, u, y) to xy in the
    rotation lists and return (x, y), refusing x == y and an existing edge
    xy before any list changes.  A missing edge uv raises ValueError."""
    ru, rv = rot[u], rot[v]
    i, j = rv.index(u), ru.index(v)
    x = rv[i + 1] if i + 1 < len(rv) else rv[0]  # follows u at v
    y = ru[j + 1] if j + 1 < len(ru) else ru[0]  # follows v at u
    if x == y:
        raise EmbeddingError(f"flip of ({u}, {v}) is degenerate (same apex twice)")
    rx = rot[x]
    if y in rx:
        raise EmbeddingError(f"flip of ({u}, {v}) would create parallel edge ({x}, {y})")
    del ru[j], rv[i]
    # In the face walk (u, v, x) the dart into x comes from v, so at x
    # the edge to y goes right after v in rotation order; symmetrically
    # at y it goes right after u.
    rx.insert(rx.index(v) + 1, y)
    ry = rot[y]
    ry.insert(ry.index(u) + 1, x)
    return x, y


def _insert_span(rot: list[list[int]], v: int, after: int, new: list[int]) -> None:
    """Splice `new` into the rotation of v right after neighbor `after`."""
    i = rot[v].index(after)
    rot[v][i + 1 : i + 1] = new


# -- PGR v1 text format -------------------------------------------------------
#
#   pgr 1 <n> <outer-face-vertex-list>
#   <vertex-id>: <ccw neighbor list>      (one line per vertex, 0-based)
#
# '#' starts a comment line.  Serialization is canonical (rotations start
# at the smallest neighbor, outer walk at its lexicographically smallest
# rotation), so parse(serialize(g)) == g and serialize is a fixed point.


def to_pgr(g: PlaneGraph) -> str:
    lines = ["pgr 1 {} {}".format(g.n, " ".join(map(str, g.outer_face)))]
    for v in range(g.n):
        lines.append("{}: {}".format(v, " ".join(map(str, g.rotations[v]))))
    return "\n".join(lines) + "\n"


def parse_pgr(text: str) -> PlaneGraph:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise EmbeddingError("empty pgr document")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "pgr":
        raise EmbeddingError(f"bad pgr header: {_echo(lines[0])}")
    if head[1] != "1":
        raise EmbeddingError(f"unsupported pgr version {_echo(head[1])}")
    try:
        n = int(head[2])
        outer = [int(t) for t in head[3:]]
    except ValueError as e:
        raise EmbeddingError(f"bad pgr header: {_echo(lines[0])}") from e
    if len(lines) - 1 != n:
        raise EmbeddingError(f"expected {_echo(n)} vertex lines, found {len(lines) - 1}")
    rotations: list[list[int] | None] = [None] * n
    for ln in lines[1:]:
        if ":" not in ln:
            raise EmbeddingError(f"bad vertex line: {_echo(ln)}")
        head_v, _, tail = ln.partition(":")
        try:
            v = int(head_v)
            rot = [int(t) for t in tail.split()]
        except ValueError as e:
            raise EmbeddingError(f"bad vertex line: {_echo(ln)}") from e
        if not (0 <= v < n):
            raise EmbeddingError(f"vertex id {_echo(v)} out of range")
        if rotations[v] is not None:
            raise EmbeddingError(f"duplicate vertex line for {v}")
        rotations[v] = rot
    if not outer:
        return PlaneGraph(rotations)
    g = PlaneGraph(rotations, outer_dart=tuple(outer[:2]))
    if g.outer_face != _cyclic_canon(outer):
        raise EmbeddingError(
            f"outer walk {_echo(tuple(outer))} is not the face of its first dart"
        )
    return g


def load_pgr(path) -> PlaneGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pgr(fh.read())
