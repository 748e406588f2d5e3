"""Seeded generators for triangulation families.

Every generator emits a validated PlaneGraph (construction re-checks the
embedding), and the incremental families also return a BuildTrace that
replays to an identical graph.  All randomness flows through explicit
integer seeds; identical arguments give identical graphs.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import asdict, dataclass

from .plane_graph import (
    EmbeddingError,
    PlaneGraph,
    _after,
    _canonical,
    _echo,
    _insert_span,
    deleted_vertex_region_dart,
    flip_edge,
)

_MASK64 = (1 << 64) - 1


def split_seed(seed: int, *indices: int) -> int:
    """Derive an independent child seed from a master seed and indices."""
    x = seed & _MASK64
    for i in indices:
        x = (x + 0x9E3779B97F4A7C15 + (i & _MASK64)) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        x = z ^ (z >> 31)
    return x


# -- traces -------------------------------------------------------------------


def _typed(name: str, value, *types):
    """value, if its type is one of types exactly: a JSON true is not an int."""
    if type(value) not in types:
        raise ValueError(f"{name} {_echo(value)} is not {'/'.join(t.__name__ for t in types)}")
    return value


@dataclass(frozen=True)
class TraceStep:
    kind: str  # "stack" or "triangle"
    face: tuple[int, int, int]  # inner face walk the step subdivided

    def __post_init__(self):
        if self.kind not in _STEPS:
            raise ValueError(f"unknown step kind {_echo(self.kind)}")


@dataclass(frozen=True)
class BuildTrace:
    """Replayable construction recipe starting from the base triangle.

    Each step adds the next unused ids: one for "stack", three (a, b, c)
    for "triangle".  A triangle step pairs a with face[0], b with face[1]
    and c with face[2]; each new vertex is adjacent to the two face
    vertices it is not paired with.
    """

    steps: tuple[TraceStep, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "BuildTrace":
        doc = _typed("trace", json.loads(text), dict)
        steps = []
        for i, s in enumerate(_typed("steps", doc["steps"], list)):
            s = _typed(f"step {i}", s, dict)
            kind = _typed(f"step {i} kind", s["kind"], str)
            steps.append(TraceStep(kind, tuple(_typed(f"step {i} face", s["face"], list))))
        return BuildTrace(tuple(steps))


# -- rotation surgery helpers -------------------------------------------------

_TRIANGLE_ROT = [[1, 2], [2, 0], [0, 1]]  # outer walk (0, 1, 2)
_TRIANGLE_INNER = (0, 2, 1)  # its one inner face
_OUTER_WALKS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # insertions never touch it


def _stack(rot, walk, w):
    """Stack the next vertex w = len(rot) into the inner face with walk
    (x, y, z)."""
    x, y, z = walk
    _insert_span(rot, x, z, [w])
    _insert_span(rot, y, x, [w])
    _insert_span(rot, z, y, [w])
    rot.append([x, z, y])


def _triangle_insert(rot, walk, a, b, c):
    """Insert the next three vertices, triangle (a, b, c), into inner face
    (x, y, z) so that the six vertices induce an octahedron; a is the
    non-neighbor of x, b of y, c of z."""
    x, y, z = walk
    _insert_span(rot, x, z, [b, c])
    _insert_span(rot, y, x, [c, a])
    _insert_span(rot, z, y, [a, b])
    rot += [[c, b, z, y], [c, x, z, a], [x, b, a, y]]


# Each step kind: its insertion and the number of new ids it adds.
_STEPS = {"stack": (_stack, 1), "triangle": (_triangle_insert, 3)}


def _faces_at(rot, vs):
    """Walks of the triangular faces at the vertices vs, each starting at
    its smallest vertex.  The face of dart (v, u) is (v, u, w), where w
    follows v in the rotation at u."""
    faces = set()
    for v in vs:
        for u in rot[v]:
            w = _after(rot, v, u)
            if v < u and v < w:
                faces.add((v, u, w))
            elif u < w:
                faces.add((u, w, v))
            else:
                faces.add((w, v, u))
    return faces


# -- fixed small graphs -------------------------------------------------------


def k4() -> PlaneGraph:
    """Tetrahedron: outer triangle (0, 1, 2) with 3 inside."""
    return replay(BuildTrace((TraceStep("stack", _TRIANGLE_INNER),)))


def octahedron() -> PlaneGraph:
    """Octahedron: outer triangle (0, 1, 2), inner triangle (3, 4, 5),
    antipodal (non-adjacent) pairs (0,3), (1,4), (2,5): one triangle step."""
    rot = [list(r) for r in _TRIANGLE_ROT]
    _triangle_insert(rot, _TRIANGLE_INNER, 3, 4, 5)  # 3, 4, 5 face 0, 2, 1
    swap = (0, 1, 2, 3, 5, 4)
    return PlaneGraph([[swap[w] for w in rot[v]] for v in swap], outer_dart=(0, 1))


def icosahedron() -> PlaneGraph:
    """Icosahedron: the unique 5-regular planar triangulation on 12
    vertices.  Rotations come from a stereographic projection of the
    solid through face (0, 1, 2)."""
    return PlaneGraph(
        [
            (1, 7, 5, 6, 2),
            (0, 2, 8, 3, 7),
            (0, 6, 4, 8, 1),
            (1, 8, 9, 11, 7),
            (2, 6, 10, 9, 8),
            (0, 7, 11, 10, 6),
            (0, 5, 10, 4, 2),
            (0, 1, 3, 11, 5),
            (1, 2, 4, 9, 3),
            (3, 8, 4, 10, 11),
            (4, 6, 5, 11, 9),
            (3, 9, 10, 5, 7),
        ],
        outer_dart=(0, 1),
    )


# -- incremental families -----------------------------------------------------


def _grow(kind, steps, seed, eligible=None):
    """Grow the base triangle by `steps` insertions of one kind, each into
    an inner face drawn uniformly at random from those that
    `eligible(rot, walk)` accepts (all when None).  Returns the rotation
    lists and the walk of each insertion."""
    insert, count = _STEPS[kind]
    rng = random.Random(seed)
    rot = [list(r) for r in _TRIANGLE_ROT]
    # Inner faces as walks from their smallest vertex; sorted, they come
    # in the smallest-dart order in which PlaneGraph traces faces.  `pool`
    # keeps the drawable ones sorted; the base face is always drawable.
    pool = [_TRIANGLE_INNER]
    trace = []
    for _ in range(steps):
        walk = pool.pop(rng.randrange(len(pool)))
        new = tuple(range(len(rot), len(rot) + count))
        insert(rot, walk, *new)
        trace.append(walk)
        if not eligible:
            for f in _faces_at(rot, new):
                bisect.insort(pool, f)
        else:  # only the corners and the new vertices changed degree
            for f in _faces_at(rot, walk + new) - {(0, 1, 2)}:  # the outer walk, never drawn
                i = bisect.bisect_left(pool, f)
                drawable = pool[i : i + 1] == [f]
                if drawable and not eligible(rot, f):
                    del pool[i]
                elif not drawable and eligible(rot, f):
                    pool.insert(i, f)
    return rot, trace


def _stacked(n, seed):
    """The lists and insertion walks of a stacked triangulation on n
    vertices."""
    if n < 3:
        raise ValueError(f"a stacked triangulation needs n >= 3, got {_echo(n)}")
    return _grow("stack", n - 3, seed)


def planar_three_tree(n: int, seed: int) -> tuple[PlaneGraph, BuildTrace]:
    """Stacked triangulation: start from a triangle, repeatedly pick a
    uniformly random inner face and stack a degree-3 vertex into it.

    n = 3 is the bare triangle and n = 4 is K4 regardless of seed.
    """
    rot, walks = _stacked(n, seed)
    trace = BuildTrace(tuple(TraceStep("stack", w) for w in walks))
    return PlaneGraph(rot, outer_dart=(0, 1)), trace


def _eulerian_face(rot, walk):
    """Whether recursive_eulerian may insert into the face `walk`."""
    return all(len(rot[v]) >= 6 for v in walk) or all(len(rot[v]) == 4 for v in walk)


def recursive_eulerian(t: int, seed: int) -> tuple[PlaneGraph, BuildTrace]:
    """All-even-degree triangulation grown by t octahedron-pattern steps.

    Each step picks an inner face (x, y, z) uniformly at random and
    inserts a triangle (a, b, c) inside it with a paired to x, b to y,
    c to z, so the six vertices induce an octahedron.  t = 0 is the
    triangle, t = 1 the octahedron; n = 3 + 3t and every degree stays
    even.

    Once the graph has 6 vertices, only faces whose corners all have
    degree >= 6 or all have degree exactly 4 are eligible.  Picking a
    face with a lone degree-4 corner would strand that corner's two
    triangle mates, and downstream size accounting needs the degree-4
    vertices to always induce vertex-disjoint triangles.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {_echo(t)}")
    rot, walks = _grow("triangle", t, seed, _eulerian_face)
    trace = BuildTrace(tuple(TraceStep("triangle", w) for w in walks))
    return PlaneGraph(rot, outer_dart=(0, 1)), trace


def _inner_face(rot, walk) -> bool:
    """Whether walk is (x, y, z), the face of dart (x, y) in the lists rot
    (z follows x in the rotation at y), and not the outer face."""
    if len(walk) != 3 or any(type(v) is not int or not 0 <= v < len(rot) for v in walk):
        return False
    x, y, z = walk
    return x in rot[y] and _after(rot, x, y) == z and tuple(walk) not in _OUTER_WALKS


def replay(trace: BuildTrace) -> PlaneGraph:
    """Rebuild the plane graph a BuildTrace describes."""
    rot = [list(r) for r in _TRIANGLE_ROT]
    for i, s in enumerate(trace.steps):
        if not _inner_face(rot, s.face):
            raise ValueError(f"step {i} face {list(s.face)} is not an inner face so far")
        insert, count = _STEPS[s.kind]
        insert(rot, s.face, *range(len(rot), len(rot) + count))
    return PlaneGraph(rot, outer_dart=(0, 1))


# -- diamond chain ------------------------------------------------------------


def diamond_chain(k: int) -> PlaneGraph:
    """Ring of k diamond gadgets on 7k vertices; a planar triangulation
    whose minimum independent dominating set has exactly 2 vertices per
    gadget.  k = 1 is rejected (it would need parallel edges).

    Gadget i is the diamond a-b-d-c (edges ab, ac, bc, bd, cd) with a
    triangle t1-t2-t3 inserted into face a-b-c (t1 joined to a and b, t2
    to a and c, t3 to b and c) and a vertex v4 stacked into face b-c-d.
    Its d is the next gadget's a, so the diamonds close into a ring whose
    two 2k-gons, the c's and the b's alternating with the apexes, are
    fanned.  Gadget i's a, b, c, t1, t2, t3, v4 are vertices 7i .. 7i + 6.
    """
    if k < 2:
        raise ValueError(f"diamond chain needs k >= 2, got {_echo(k)}")
    m = 3 * k  # the ring: a_i = 3i, b_i = 3i + 1, c_i = 3i + 2, d_i = a_{i+1}
    rot = []
    for a in range(0, m, 3):
        d = (a + 3) % m
        rot += [[(a - 2) % m, (a - 1) % m, a + 2, a + 1], [a, a + 2, d], [d, a + 1, a]]
    # Walked backwards from a_0, the b's alternate with the apexes in one
    # 2k-gon, the outer face, with dart (a_0, b_{k-1}); the c's do in the other.
    _fan_face(rot, [x for a in range(m, 0, -3) for x in (a % m, a - 2)])
    _fan_face(rot, [x for a in range(0, m, 3) for x in (a + 2, (a + 3) % m)])
    order = []  # old ids by new id
    for a in range(0, m, 3):
        t = len(rot)
        _triangle_insert(rot, (a, a + 1, a + 2), t, t + 1, t + 2)  # t3, t2, t1
        _stack(rot, (a + 1, (a + 3) % m, a + 2), t + 3)  # v4
        order += [a, a + 1, a + 2, t + 2, t + 1, t, t + 3]
    new = {old: i for i, old in enumerate(order)}
    return PlaneGraph([[new[w] for w in rot[v]] for v in order], outer_dart=(0, new[m - 2]))


def diamond_chain_witness(k: int) -> frozenset[int]:
    """The documented independent dominating set: t3 and v4 per gadget."""
    return frozenset(x for i in range(k) for x in (7 * i + 5, 7 * i + 6))


def _fan_face(rot, walk):
    """Triangulate a face by chords from walk[0] to every walk vertex
    not next to it."""
    apex, targets = walk[0], walk[2:-1]
    # At the apex the chords fill the wedge after walk[-1] in reverse walk
    # order; each target splices the apex in after its walk predecessor.
    _insert_span(rot, apex, walk[-1], targets[::-1])
    for prev, w in zip(walk[1:], targets):
        _insert_span(rot, w, prev, [apex])


# -- k4 chain -----------------------------------------------------------------


def k4_chain(k: int) -> tuple[PlaneGraph, frozenset[int]]:
    """Stacked triangulation on 4k vertices holding k vertex-disjoint K4
    copies, each with a private degree-3 vertex, so the domination
    number is exactly k.  Returns the graph and the k private vertices
    (one per copy; together they dominate everything)."""
    if k < 2:
        raise ValueError(f"k4 chain needs k >= 2, got {_echo(k)}")
    faces = [_TRIANGLE_INNER]  # vertex 3 goes in; vertex 0 keeps N[0] = {0,1,2,3}
    p, q, r = 1, 3, 2  # face avoiding vertex 0, in walk order
    for a in range(4, 4 * k, 4):  # stacks a, b, c and u = a + 3
        b, c = a + 1, a + 2
        faces += [
            (p, q, r),  # faces (p,q,a), (p,a,r), (r,a,q)
            (p, q, a),  # faces (p,q,b), (p,b,a), (a,b,q)
            (a, b, q),  # faces (a,b,c), (a,c,q), (q,c,b)
            (a, b, c),  # the new K4 {a,b,c,u}
        ]
        p, q, r = a, c, q
    g = replay(BuildTrace(tuple(TraceStep("stack", f) for f in faces)))
    return g, frozenset([0, *range(7, 4 * k, 4)])  # 0 and each u


# -- randomized families ------------------------------------------------------


def random_triangulation(n: int, seed: int, flips: int | None = None) -> PlaneGraph:
    """Random stacked triangulation mixed by a seeded walk of random edge
    flips (illegal flips are skipped).  flips defaults to 3n."""
    return PlaneGraph(_flip_walk(n, seed, flips), outer_dart=(0, 1))


def _flip_walk(n: int, seed: int, flips: int | None) -> list:
    """The rotation lists of random_triangulation(n, seed, flips) as the
    last accepted flip left them."""
    start, _ = _stacked(n, split_seed(seed, 0))  # first, so that a bad n is named
    if flips is None:
        flips = 3 * n
    if flips < 0:
        raise ValueError(f"flip count must be >= 0, got {_echo(flips)}")
    rng = random.Random(split_seed(seed, 1))
    # Outputs per (n, seed) are fixed (full.cfg's seeds were sampled from
    # them): edge k is the kth (u, v), u < v, by u and then in the order of
    # frozenset(lists[u]) for the lists as the last accepted flip left them.
    # `owners` sorts each edge's lower end; flips edit the canonical `rot`,
    # and `raw` keeps the lists that the last flip (at first, the stacked
    # start) left non-canonical, as they stand.
    raw = dict(enumerate(start))
    rot = [_canonical(r) for r in start]
    owners = [u for u, r in enumerate(start) for w in r if w > u]
    for _ in range(flips):
        k = rng.randrange(len(owners))
        u = owners[k]
        i = bisect.bisect_left(owners, u)
        v = [w for w in frozenset(raw.get(u) or rot[u]) if w > u][k - i]
        if v < 3:  # an edge of the outer triangle (0, 1, 2)
            continue
        try:
            x, y = flip_edge(rot, u, v)
        except EmbeddingError:
            continue
        del owners[i]
        bisect.insort(owners, min(x, y))
        raw = {}
        for w in (u, v, x, y):
            r = rot[w]
            if r[0] != min(r):
                raw[w] = r
                rot[w] = _canonical(r)
    return [raw.get(w) or r for w, r in enumerate(rot)]


def random_connected_plane(n: int, seed: int) -> PlaneGraph:
    """Random connected plane graph: a random triangulation thinned by a
    seeded pass of edge deletions that keep the graph connected.  An edge
    is a bridge iff one face lies on both its sides, and deleting any other
    merges its two faces, so a union-find over the faces decides each one."""
    lists = _flip_walk(n, split_seed(seed, 4), None)
    g = PlaneGraph(lists, outer_dart=(0, 1))
    rng = random.Random(split_seed(seed, 5))
    edges = [(u, v) for u, r in enumerate(lists) for v in frozenset(r) if u < v]
    rng.shuffle(edges)
    drop_target = rng.randrange(0, len(edges) - (n - 1) + 1)
    root = list(range(len(g.faces)))
    dropped = set()
    for u, v in edges:
        if len(dropped) == 2 * drop_target:
            break
        a = _find(root, g.face_of_dart(u, v))
        b = _find(root, g.face_of_dart(v, u))
        if a != b:
            root[a] = b
            dropped |= {(u, v), (v, u)}
    return PlaneGraph(
        [[u for u in g.rotation(v) if (v, u) not in dropped] for v in g.vertices()]
    )


def _find(root, x):
    """The root of x in a union-find forest, halving the path to it."""
    while root[x] != x:
        root[x] = x = root[root[x]]
    return x


def near_triangulation_from(g: PlaneGraph, v: int) -> tuple[PlaneGraph, dict[int, int]]:
    """Delete one vertex of a triangulation and re-root so the hole it
    leaves (the cycle formerly N(v)) becomes the outer face."""
    if g.n < 4:  # deleting a vertex of the triangle leaves an edge
        raise ValueError(f"a near triangulation needs a base with n >= 4, got {g.n}")
    if any(len(w) != 3 for w in g.faces):
        raise ValueError("near_triangulation_from expects a triangulation")
    a, b = deleted_vertex_region_dart(g, v)
    relabel = {old: new for new, old in enumerate(u for u in g.vertices() if u != v)}
    rot = [[relabel[w] for w in g.rotations[u] if w != v] for u in relabel]
    return PlaneGraph(rot, outer_dart=(relabel[a], relabel[b])), relabel


def min_degree5_sample(n: int) -> PlaneGraph | None:
    """The icosahedron at n = 12, else None: no triangulation has minimum
    degree 5 below 12 vertices or at 13, and none is built at n >= 14,
    where they exist (Batagelj 1983)."""
    return icosahedron() if n == 12 else None
