import gc
import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domtri import plane_graph
from domtri.generators import (
    diamond_chain,
    diamond_chain_witness,
    icosahedron,
    k4,
    k4_chain,
    near_triangulation_from,
    octahedron,
    planar_three_tree,
    random_connected_plane,
    random_triangulation,
    recursive_eulerian,
)
from domtri.harness import FAMILIES
from domtri.plane_graph import (
    Category,
    EmbeddingError,
    InvariantBreach,
    PlaneGraph,
    check_faces_inequality,
    classify,
    closed_neighborhood,
    delete_vertices,
    deleted_vertex_region_dart,
    face_degree_histogram,
    flip_edge,
    neighborhood_structure,
    parse_pgr,
    to_pgr,
)

K4_ROT = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]]

# Fan over a path: hub 0 joined to 1..5, path edges 1-2-3-4-5.  Outer
# walk is the hexagon 0,1,2,3,4,5; inner faces are four triangles.
HEX_DISK_ROT = [
    [1, 2, 3, 4, 5],
    [2, 0],
    [1, 3, 0],
    [0, 2, 4],
    [5, 0, 3],
    [0, 4],
]

FOUR_CYCLE_ROT = [[1, 3], [0, 2], [1, 3], [0, 2]]


def hex_disk() -> PlaneGraph:
    return PlaneGraph(HEX_DISK_ROT, outer_dart=(0, 1))


def test_k4_structure():
    g = PlaneGraph(K4_ROT, outer_dart=(0, 1))
    assert g.n == 4
    assert g.edge_count == 6
    assert len(g.faces) == 4
    assert all(len(w) == 3 for w in g.faces)
    assert g.degrees() == (3, 3, 3, 3)
    assert g.outer_face in {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_classify_computes_once_per_graph(monkeypatch):
    calls = []
    real = plane_graph._classify
    monkeypatch.setattr(plane_graph, "_classify", lambda g: calls.append(g) or real(g))
    g = PlaneGraph(K4_ROT)
    assert classify(g) is classify(g)
    assert calls == [g]


def test_k4_classification():
    cls = classify(k4())
    assert cls.category is Category.PLANAR_TRIANGULATION
    assert cls.min_degree == 3
    assert cls.is_two_connected
    assert cls.all_degrees_odd
    assert not cls.all_degrees_even


def test_rotations_are_canonicalized():
    g = PlaneGraph([[3, 2, 1], [2, 3, 0], [3, 1, 0], [1, 2, 0]])
    assert all(rot[0] == min(rot) for rot in g.rotations)


def test_nonplanar_rotation_rejected():
    # K5: no rotation system of it is planar, Euler's formula cannot close.
    rot = [[u for u in range(5) if u != v] for v in range(5)]
    with pytest.raises(EmbeddingError, match="not planar"):
        PlaneGraph(rot)


def test_malformed_rotations_rejected():
    with pytest.raises(EmbeddingError, match="loop"):
        PlaneGraph([[0, 1], [0]])
    with pytest.raises(EmbeddingError, match="parallel"):
        PlaneGraph([[1, 1], [0]])
    with pytest.raises(EmbeddingError, match="asymmetric"):
        PlaneGraph([[1], []])
    with pytest.raises(EmbeddingError, match="unknown neighbor"):
        PlaneGraph([[7]])


def _k4_without(v: int, u: int) -> list[list[int]]:
    """K4's rotations with u struck from v's list, so dart (u, v) is one-sided."""
    rot = [list(r) for r in K4_ROT]
    rot[v].remove(u)
    return rot


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PlaneGraph([]), "a plane graph needs at least one vertex"),
        (lambda: PlaneGraph([[1, 7], [0]]), "vertex 0 lists unknown neighbor 7"),
        (lambda: PlaneGraph([[1], [1, 0]]), "loop at vertex 1"),
        (lambda: PlaneGraph([[1], [0, 0]]), "parallel edge in rotation of vertex 1"),
        (lambda: PlaneGraph(_k4_without(2, 0)), "asymmetric adjacency between 0 and 2"),
        (lambda: PlaneGraph(_k4_without(0, 3)), "asymmetric adjacency between 3 and 0"),
        (lambda: PlaneGraph(K4_ROT, outer_dart=(0, 1, 2)), "dart (0, 1, 2) not present"),
        (lambda: parse_pgr("pgr 1 x\n"), "bad pgr header: 'pgr 1 x'"),
        (lambda: parse_pgr("pgr 1 2\n0 1\n1: 0\n"), "bad vertex line: '0 1'"),
        (lambda: parse_pgr("pgr 1 2\na: 1\n1: 0\n"), "bad vertex line: 'a: 1'"),
        (lambda: parse_pgr("pgr 1 2\n0: 1\n2: 0\n"), "vertex id 2 out of range"),
    ],
    ids=[
        "no-vertex",
        "unknown-neighbor",
        "loop",
        "parallel",
        "one-sided-from-0",
        "one-sided-from-last",
        "outer-triple",
        "pgr-header-token",
        "pgr-line-no-colon",
        "pgr-line-token",
        "pgr-vertex-range",
    ],
)
def test_construction_errors_name_the_fault(build, message):
    with pytest.raises(EmbeddingError) as e:
        build()
    assert str(e.value) == message


def test_outer_hints():
    g = PlaneGraph(K4_ROT, outer_dart=(1, 2))
    assert set(g.outer_face) == {0, 1, 2}
    assert g.outer_face_id == g.face_of_dart(1, 2)
    with pytest.raises(EmbeddingError, match="not present"):
        PlaneGraph(K4_ROT, outer_dart=(0, 0))
    # A PGR outer walk must be the face its first dart names; the reversed
    # hexagon starts with dart (5, 4), which lies on a triangle.
    text = to_pgr(hex_disk())
    assert text.startswith("pgr 1 6 0 1 2 3 4 5\n")
    with pytest.raises(EmbeddingError, match="outer walk"):
        parse_pgr(text.replace("0 1 2 3 4 5", "5 4 3 2 1 0", 1))


def test_hex_disk_faces():
    g = hex_disk()
    assert face_degree_histogram(g) == {3: 4, 6: 1}
    assert len(g.outer_face) == 6
    cls = classify(g)
    assert cls.category is Category.NEAR_TRIANGULATION
    assert cls.is_two_connected


def test_four_cycle_is_plain_plane_graph():
    g = PlaneGraph(FOUR_CYCLE_ROT)
    assert face_degree_histogram(g) == {4: 2}
    assert classify(g).category is Category.CONNECTED_PLANE


def _brute_two_connected(g):
    """Connected, at least 3 vertices, and no single removal disconnects."""

    def connected_without(gone):
        verts = [v for v in g.vertices() if v != gone]
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u != gone and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(verts)

    return (
        g.n >= 3
        and connected_without(None)
        and all(connected_without(v) for v in g.vertices())
    )


def test_two_connectivity_matches_brute_force():
    graphs = [random_connected_plane(n, n) for n in range(5, 31)]
    rng = random.Random(3)
    for base in (octahedron(), icosahedron(), random_triangulation(16, 2)):
        graphs += [delete_vertices(base, {v})[0] for v in base.vertices()]
        for _ in range(12):
            s = rng.sample(range(base.n), rng.randrange(2, base.n // 2))
            graphs.append(delete_vertices(base, s)[0])
    graphs += [
        k4(),
        hex_disk(),
        PlaneGraph(FOUR_CYCLE_ROT),
        PlaneGraph([[1], [0, 2], [1]]),  # path
        PlaneGraph([[1, 2, 3], [0], [0], [0]]),  # star
        PlaneGraph([[1], [0], [3], [2]]),  # two disjoint edges
    ]
    flags = [classify(g).is_two_connected for g in graphs]
    assert flags == [_brute_two_connected(g) for g in graphs]
    assert 0 < sum(flags) < len(flags)


def test_disconnected_is_invalid():
    g = PlaneGraph([[1], [0], [3], [2]])
    assert not g.is_connected
    assert classify(g).category is Category.INVALID


def test_closed_neighborhood():
    g = k4()
    assert closed_neighborhood(g, [0]) == frozenset({0, 1, 2, 3})
    assert closed_neighborhood(g, []) == frozenset()
    disk = hex_disk()
    assert closed_neighborhood(disk, [1]) == frozenset({0, 1, 2})


def test_accessors_validate_vertex_ids():
    g = k4()
    with pytest.raises(ValueError):
        g.degree(9)
    # (-1, 0) must not read vertex 3's darts through a negative index
    for u, v in ((0, 0), (-1, 0), (-4, 1), (4, 0), (9, 1), (0, 9), (0, -1)):
        with pytest.raises(ValueError, match="no dart"):
            g.face_of_dart(u, v)


def test_delete_vertex_from_octahedron_leaves_square_hole():
    g = octahedron()
    h, relabel = delete_vertices(g, {3})
    assert h.n == 5
    assert sorted(relabel) == [0, 1, 2, 4, 5]
    assert sorted(h.degrees()) == [3, 3, 3, 3, 4]
    # the old outer triangle is kept; the hole is an inner 4-face, so
    # under this rooting the result is not a near triangulation
    assert len(h.outer_face) == 3
    assert face_degree_histogram(h) == {3: 4, 4: 1}
    assert classify(h).category is Category.CONNECTED_PLANE


def test_delete_preserves_outer_when_untouched():
    g = octahedron()
    outer_before = set(g.outer_face)
    inner = next(v for v in g.vertices() if v not in outer_before)
    h, relabel = delete_vertices(g, {inner})
    assert {relabel[v] for v in outer_before} == set(h.outer_face)


def test_delete_vertices_outputs_are_pinned():
    # to_pgr plus the relabel map over a fixed (graph, S) grid, keeping the
    # connected residues; the digest was taken when the outer face was
    # tracked one deletion at a time.
    graphs = [
        k4(),
        octahedron(),
        icosahedron(),
        diamond_chain(2),
        k4_chain(3)[0],
        planar_three_tree(15, 1)[0],
        recursive_eulerian(3, 2)[0],
        random_triangulation(14, 3),
        near_triangulation_from(random_triangulation(13, 5), 4)[0],
        random_connected_plane(12, 2),
        PlaneGraph(HEX_DISK_ROT),
    ]
    rng = random.Random(0)
    digest = hashlib.sha256()
    kept = 0
    for g in graphs:
        sets = [{v} for v in g.vertices()]
        sets += [set(rng.sample(range(g.n), k)) for k in (2, 3) for _ in range(5)]
        # two outer vertices take every dart of an outer triangle, so the
        # outer region has to be followed through them
        a, b = g.outer_face[:2]
        sets += [{a, b, v} for v in g.vertices() if v not in (a, b)]
        for s in sets:
            h, relabel = delete_vertices(g, s)
            if not h.is_connected:
                continue
            kept += 1
            digest.update(to_pgr(h).encode())
            digest.update(json.dumps(sorted(relabel.items())).encode())
    assert kept == 307
    assert digest.hexdigest() == (
        "70d1ba72970f982a708e6153c6123117e959478cc8bf7927e010c496c786c29a"
    )


def test_delete_everything_rejected():
    with pytest.raises(ValueError):
        delete_vertices(k4(), {0, 1, 2, 3})


def test_deletion_placement_interior():
    # An interior vertex's hole dart names an inner face of H = G - v,
    # here the icosahedron's pentagonal hole.
    g = icosahedron()
    outer = set(g.outer_face)
    v = next(u for u in g.vertices() if u not in outer)
    a, b = deleted_vertex_region_dart(g, v)
    assert v not in (a, b)
    h, relabel = delete_vertices(g, {v})
    fid = h.face_of_dart(relabel[a], relabel[b])
    assert fid != h.outer_face_id
    assert len(h.faces[fid]) == 5
    assert set(h.faces[fid]) == {relabel[u] for u in g.neighbors(v)}


def test_deletion_placement_boundary():
    # An outer vertex's hole dart names the outer face of H.
    g = k4()
    v = g.outer_face[0]
    a, b = deleted_vertex_region_dart(g, v)
    h, relabel = delete_vertices(g, {v})
    assert h.face_of_dart(relabel[a], relabel[b]) == h.outer_face_id


def test_deletion_placement_needs_an_inner_face():
    # K2's one face is its outer face, so no dart of vertex 0 bounds a hole
    with pytest.raises(InvariantBreach, match="^vertex 0 has no inner face$"):
        deleted_vertex_region_dart(PlaneGraph([[1], [0]]), 0)


def test_edgeless_maps_have_one_empty_face():
    for n in (1, 2):
        g = PlaneGraph([[]] * n)
        assert g.component_count == n
        assert list(g.faces) == [()]
    assert classify(PlaneGraph([[], []])).category is Category.INVALID
    h, _ = delete_vertices(PlaneGraph([[1, 2, 3], [0], [0], [0]]), {0})
    assert (h.n, h.edge_count, h.component_count) == (3, 0, 3)
    assert not h.is_connected


def link_steps(g: PlaneGraph, v: int, kind: str) -> tuple[list[int], list[tuple[int, int]]]:
    """The spanning cycle or path of G[N(v)] that `kind` claims, rebuilt from
    the rotation at v: the rotation closed up, or opened after its one gap."""
    r = list(g.rotation(v))
    gaps = [i for i in range(len(r)) if not g.has_edge(r[i], r[(i + 1) % len(r)])]
    if kind == "cycle":
        assert not gaps and len(r) >= 3
        return r, list(zip(r, r[1:] + r[:1]))
    assert kind == "path" and len(gaps) <= 1
    cut = gaps[0] + 1 if gaps else 0
    vs = r[cut:] + r[:cut]
    return vs, list(zip(vs, vs[1:]))


def test_neighborhood_structure_dichotomy():
    g = icosahedron()
    for v in g.vertices():
        assert neighborhood_structure(g, v) == "cycle"
        vs, steps = link_steps(g, v, "cycle")
        assert sorted(vs) == sorted(g.neighbors(v))
        assert all(g.has_edge(a, b) for a, b in steps)

    disk = hex_disk()
    kind = neighborhood_structure(disk, 3)  # boundary vertex, outer face big
    assert kind in ("cycle", "path")
    vs, steps = link_steps(disk, 3, kind)
    assert sorted(vs) == sorted(disk.neighbors(3))
    assert all(disk.has_edge(a, b) for a, b in steps)


def test_neighborhood_structure_reads_the_rotation():
    # Outer vertices of this near triangulation have chords in their
    # links; a spanning-path search took seconds here.
    g, _ = near_triangulation_from(planar_three_tree(200, 2)[0], 0)
    kinds = set()
    t0 = time.perf_counter()
    for v in g.vertices():
        kinds.add(neighborhood_structure(g, v))
    assert time.perf_counter() - t0 < 0.5
    assert kinds == {"cycle", "path"}
    for v in g.vertices():
        vs, steps = link_steps(g, v, neighborhood_structure(g, v))
        assert sorted(vs) == sorted(g.neighbors(v))
        assert all(g.has_edge(a, b) for a, b in steps)


def test_neighborhood_structure_breach_on_bad_input():
    # A star's hub has an edgeless neighborhood: no cycle, and the outer
    # face is large, so the path case is also impossible for degree >= 2.
    star = PlaneGraph([[1, 2, 3], [0], [0], [0]])
    with pytest.raises(InvariantBreach, match="vertex 0: link has 3 gaps, not a path"):
        neighborhood_structure(star, 0)
    # A hexagon whose centre 6 is joined to rim vertices 0, 2 and 4: the
    # centre is interior, but no two of its neighbours are adjacent.
    rim = [[1, 5], [2, 0], [3, 1], [4, 2], [5, 3], [0, 4]]
    for u in (0, 2, 4):
        rim[u].insert(1, 6)
    g = PlaneGraph(rim + [[0, 2, 4]], outer_dart=(0, 1))
    assert g.outer_face == (0, 1, 2, 3, 4, 5)
    with pytest.raises(
        InvariantBreach,
        match="vertex 6: link is not a cycle although it is interior or the outer face is a triangle",
    ):
        neighborhood_structure(g, 6)


def test_faces_inequality_on_hex_disk():
    rep = check_faces_inequality(hex_disk())
    assert (rep.lhs, rep.rhs) == (2, 4)
    assert rep.strengthened_rhs == Fraction(2)
    assert rep.holds and rep.strengthened_holds


def test_faces_inequality_requires_connected():
    with pytest.raises(ValueError):
        check_faces_inequality(PlaneGraph([[1], [0], [3], [2]]))
    # K1's one face has degree 0, below the 2 the bound's face sum needs
    with pytest.raises(ValueError, match="n >= 2"):
        check_faces_inequality(PlaneGraph([[]]))


def flipped(g: PlaneGraph, u: int, v: int) -> PlaneGraph:
    """g with edge uv flipped by the rotation-list flip of the walk."""
    rot = [list(r) for r in g.rotations]
    flip_edge(rot, u, v)
    ob = g.outer_face
    return PlaneGraph(rot, outer_dart=(ob[0], ob[1]))


def test_k4_has_no_flippable_edge():
    g = k4()
    outer = set(g.outer_face)
    hub = next(v for v in g.vertices() if v not in outer)
    for u in g.neighbors(hub):
        rot = [list(r) for r in g.rotations]
        with pytest.raises(EmbeddingError, match="parallel edge"):
            flip_edge(rot, hub, u)
        assert rot == [list(r) for r in g.rotations]  # refused before any edit


def test_flip_is_an_involution_on_octahedron():
    g = octahedron()
    outer = set(g.outer_face)
    u, v = next(
        (a, b)
        for a, b in g.edges()
        if not (a in outer and b in outer)
        and g.outer_face_id
        not in (g.face_of_dart(a, b), g.face_of_dart(b, a))
    )
    h = flipped(g, u, v)
    assert classify(h).category is Category.PLANAR_TRIANGULATION
    assert not h.has_edge(u, v)
    x = next(w for w in g.faces[g.face_of_dart(u, v)] if w not in (u, v))
    y = next(w for w in g.faces[g.face_of_dart(v, u)] if w not in (u, v))
    assert flipped(h, x, y) == g


def test_flip_rejects_missing_edge_and_non_triangulations():
    g = octahedron()
    non_edge = next(
        (a, b)
        for a in g.vertices()
        for b in g.vertices()
        if a < b and not g.has_edge(a, b)
    )
    rot = [list(r) for r in g.rotations]
    with pytest.raises(ValueError):
        flip_edge(rot, *non_edge)
    assert rot == [list(r) for r in g.rotations]


def test_flip_on_the_bare_triangle_is_degenerate():
    g = random_triangulation(3, 1)
    rot = [list(r) for r in g.rotations]
    with pytest.raises(EmbeddingError) as e:
        flip_edge(rot, 0, 1)
    assert str(e.value) == "flip of (0, 1) is degenerate (same apex twice)"
    assert rot == [[1, 2], [0, 2], [0, 1]]


def test_pgr_round_trip():
    for g in (k4(), octahedron(), icosahedron(), hex_disk()):
        text = to_pgr(g)
        again = parse_pgr(text)
        assert again == g
        assert to_pgr(again) == text  # serialization is a fixed point


def test_pgr_accepts_comments_and_blank_lines():
    text = to_pgr(k4())
    noisy = "# a triangulation\n\n" + text.replace("\n0:", "\n# rotations\n0:")
    assert parse_pgr(noisy) == k4()


def test_pgr_rejects_malformed_documents():
    with pytest.raises(EmbeddingError):
        parse_pgr("")
    with pytest.raises(EmbeddingError, match="header"):
        parse_pgr("graph 1 3 0 1 2\n0: 1 2\n1: 0 2\n2: 0 1\n")
    with pytest.raises(EmbeddingError, match="version"):
        parse_pgr("pgr 2 3 0 1 2\n0: 1 2\n1: 0 2\n2: 0 1\n")
    with pytest.raises(EmbeddingError, match="vertex lines"):
        parse_pgr("pgr 1 3 0 1 2\n0: 1 2\n1: 0 2\n")
    with pytest.raises(EmbeddingError, match="duplicate"):
        parse_pgr("pgr 1 3 0 1 2\n0: 1 2\n0: 1 2\n2: 0 1\n")
    # outer walks that name no dart: out of range, negative, a lone vertex
    text = to_pgr(k4())
    for outer in ("9 1 2", "-1 1 2", "0"):
        with pytest.raises(EmbeddingError, match="not present"):
            parse_pgr(text.replace("pgr 1 4 0 1 2", f"pgr 1 4 {outer}", 1))


def test_graph_equality_and_hash():
    a = PlaneGraph(K4_ROT, outer_dart=(0, 1))
    b = PlaneGraph([list(r) for r in K4_ROT], outer_dart=(1, 2))
    assert a == b
    assert hash(a) == hash(b)
    # rotation lists that start from another neighbour
    turned = PlaneGraph([r[1:] + r[:1] for r in K4_ROT], outer_dart=(2, 0))
    assert turned == a
    assert hash(turned) == hash(a)
    # no dart, next to a dart that is not the first of the same face
    for g in (hex_disk(), random_triangulation(30, 2)):
        plain = PlaneGraph(g.rotations)
        walk = plain.outer_face
        darted = PlaneGraph(g.rotations, outer_dart=(walk[1], walk[2]))
        assert plain == darted
        assert hash(plain) == hash(darted)
    other_face = next(w for f, w in enumerate(a.faces) if f != a.outer_face_id)
    c = PlaneGraph(K4_ROT, outer_dart=other_face[:2])
    assert a != c


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=4, max_value=24), seed=st.integers(0, 2**32 - 1))
def test_random_triangulation_counts(n, seed):
    g = random_triangulation(n, seed)
    assert g.edge_count == 3 * n - 6
    assert len(g.faces) == 2 * n - 4
    assert classify(g).category is Category.PLANAR_TRIANGULATION


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=5, max_value=16), seed=st.integers(0, 2**32 - 1))
def test_pgr_round_trip_random(n, seed):
    g = random_triangulation(n, seed)
    assert parse_pgr(to_pgr(g)) == g


def test_faces_and_dart_map_leave_the_cyclic_gc():
    # tuples of ints are untracked by a collection; a NamedTuple never is
    g = random_triangulation(60, 1)
    gc.collect()
    assert all(type(w) is tuple and not gc.is_tracked(w) for w in g.faces)
    assert all(type(r) is tuple and not gc.is_tracked(r) for r in g._dart_face)


def _parse_retained(text):
    """parse_pgr(text) and the bytes it still holds (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = parse_pgr(text)
        gc.collect()
        return g, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_stored_map_retains_little_memory():
    g, retained = _parse_retained(to_pgr(random_triangulation(200, 5)))
    assert g.n == 200
    # a Face NamedTuple per face and a dart dict per vertex retained 247 KB
    assert retained < 200_000


def test_stored_map_keeps_no_neighbour_sets():
    # With a frozenset of neighbours per vertex beside the rotations, this
    # map retained 1,006 KB and left 1,003 objects to the cyclic GC; the
    # rotations, faces and dart map alone take about 490 KB.
    g, retained = _parse_retained(to_pgr(random_triangulation(1000, 1)))
    assert retained < 640_000
    assert not any(map(gc.is_tracked, g.rotations))
    todo = [getattr(g, name) for name in PlaneGraph.__slots__]
    while todo:
        x = todo.pop()
        assert not isinstance(x, (set, frozenset))
        if isinstance(x, tuple):
            todo.extend(x)


def _no_dart(g, u, v):
    try:
        g.face_of_dart(u, v)
    except ValueError:
        return True
    return False


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    size=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_accessors_agree_with_the_rotations(family, size, seed):
    # neighbors, degree, has_edge, face_of_dart and edges are read off the
    # rotations, for every builder's map and its PGR round trip
    fam = FAMILIES[family]
    try:
        g = fam.build(seed, **({} if fam.size is None else {fam.size: size}))[0]
    except ValueError:  # a size below the family's range
        g = None
    assume(g is not None)
    for h in (g, parse_pgr(to_pgr(g))):
        pairs = [(v, u) for v in h.vertices() for u in sorted(h.rotation(v)) if v < u]
        assert sorted(h.edges()) == pairs and len(pairs) == h.edge_count
        for v in h.vertices():
            rot = h.rotation(v)
            assert h.neighbors(v) == frozenset(rot) and h.degree(v) == len(rot)
            assert _no_dart(h, -1, v) and _no_dart(h, h.n, v)
            for u in h.vertices():
                assert h.has_edge(v, u) == (u in rot) == (not _no_dart(h, v, u))
            for u in rot:
                walk = h.faces[h.face_of_dart(v, u)]
                assert (v, u) in zip(walk, walk[1:] + walk[:1])


# -- face tracing against a reference ----------------------------------------


def reference_face_orbits(rotations):
    """Dart orbits in order of their smallest dart: sort every dart, then
    walk the orbit of each one not yet seen."""
    index = [{u: i for i, u in enumerate(rot)} for rot in rotations]
    darts = sorted((u, v) for u, rot in enumerate(rotations) for v in rot)
    seen = set()
    orbits = []
    for start in darts:
        if start in seen:
            continue
        orbit = []
        d = start
        while True:
            orbit.append(d)
            seen.add(d)
            u, v = d
            rot = rotations[v]
            d = (v, rot[(index[v][u] + 1) % len(rot)])
            if d == start:
                break
        orbits.append(orbit)
    return orbits


def assert_faces_match_reference(g):
    orbits = reference_face_orbits(g.rotations)
    walks = [tuple(u for u, _ in orbit) for orbit in orbits] or [()]
    # each walk starts at its smallest dart, so it is its own smallest rotation
    for w in g.faces:
        assert w == min((w[i:] + w[:i] for i in range(len(w))), default=w)
    assert list(g.faces) == walks
    for i, orbit in enumerate(orbits):
        for u, v in orbit:
            assert g.face_of_dart(u, v) == i
    # with the outer walk's first dart as the hint, as parse_pgr gives it
    assert parse_pgr(to_pgr(g)).outer_face_id == g.outer_face_id
    # without a hint: the largest face, ties to the smallest cyclic walk
    best = max(len(w) for w in walks)
    outer = min((w[i:] + w[:i], fid) for fid, w in enumerate(walks)
                if len(w) == best for i in range(max(best, 1)))[1]
    assert PlaneGraph(g.rotations).outer_face_id == outer


def tracing_grid():
    """One graph per generator family at n of about 10..200, deletions of
    some of them, and connected plane graphs with cut vertices."""
    tri = random_triangulation(60, 3)
    chain = diamond_chain(30)
    grid = [
        k4(), octahedron(), icosahedron(), hex_disk(),
        PlaneGraph(FOUR_CYCLE_ROT), PlaneGraph([[1], [0]]), PlaneGraph([[]]),
        random_triangulation(10, 1), tri, random_triangulation(200, 5),
        planar_three_tree(120, 1)[0], recursive_eulerian(4, 1)[0],
        recursive_eulerian(66, 2)[0], chain, k4_chain(10)[0], k4_chain(50)[0],
        near_triangulation_from(tri, 7)[0], near_triangulation_from(chain, 0)[0],
        delete_vertices(tri, [0, 5, 9])[0], delete_vertices(chain, range(0, 60, 2))[0],
        delete_vertices(icosahedron(), [0, 1])[0],
    ]
    grid += [random_connected_plane(n, s) for n, s in ((12, 1), (30, 2), (80, 3), (150, 4))]
    return grid


def test_face_tracing_matches_reference():
    grid = tracing_grid()
    # the grid reaches faces whose walk repeats a vertex (cut vertices)
    assert any(len(set(w)) < len(w) for g in grid for w in g.faces)
    assert any(not g.is_connected for g in grid)
    for g in grid:
        assert_faces_match_reference(g)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=5, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_face_tracing_matches_reference_random(n, seed):
    assert_faces_match_reference(random_connected_plane(n, seed))
    tri = random_triangulation(n, seed)
    assert_faces_match_reference(near_triangulation_from(tri, seed % n)[0])


def test_large_parse_and_delete_are_pinned_and_fast():
    # n = 1001; both steps take about 20 ms on a 2-vCPU Xeon
    text = to_pgr(diamond_chain(143))
    t0 = time.perf_counter()
    g = parse_pgr(text)
    parse_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    h, _ = delete_vertices(g, diamond_chain_witness(143))
    delete_s = time.perf_counter() - t0
    assert hashlib.sha256(to_pgr(h).encode()).hexdigest() == (
        "2c0124e99c4533095cd161b5b933485cc34772ad17da870cc739399e44d67e17"
    )
    assert parse_s < 0.25 and delete_s < 0.25, (parse_s, delete_s)
