import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domtri import generators
from domtri.coloring import four_coloring
from domtri.domination import is_dominating, is_independent
from domtri.generators import (
    BuildTrace,
    TraceStep,
    diamond_chain,
    diamond_chain_witness,
    icosahedron,
    k4,
    k4_chain,
    min_degree5_sample,
    near_triangulation_from,
    octahedron,
    planar_three_tree,
    random_connected_plane,
    random_triangulation,
    recursive_eulerian,
    replay,
    split_seed,
)
from domtri.plane_graph import Category, PlaneGraph, classify, to_pgr

# all-odd triangulations located by rejection sampling over
# random_triangulation(n, seed); regenerating from (n, seed) is instant
ALL_ODD_SEEDS = {
    8: [5, 100, 123, 159, 225, 297],
    10: [239, 395, 409, 605, 1007, 1261],
    12: [1589, 1982, 2168, 2674, 2762, 3247],
    14: [6635, 7091, 7200, 8494, 11828, 12839],
}


def test_split_seed_is_deterministic_and_spreads():
    assert split_seed(7, 1, 2) == split_seed(7, 1, 2)
    seen = {split_seed(7, i) for i in range(64)}
    assert len(seen) == 64
    assert split_seed(7, 1, 2) != split_seed(7, 2, 1)


def test_fixed_graphs():
    assert k4().degrees() == (3, 3, 3, 3)
    assert octahedron().degrees() == (4,) * 6
    ico = icosahedron()
    assert ico.degrees() == (5,) * 12
    for g in (k4(), octahedron(), ico):
        assert classify(g).category is Category.PLANAR_TRIANGULATION
    assert classify(ico).min_degree == 5


def test_trace_step_validation():
    with pytest.raises(ValueError):
        TraceStep("grow", (0, 1, 2))


def test_trace_json_round_trip():
    _, trace = planar_three_tree(9, seed=4)
    again = BuildTrace.from_json(trace.to_json())
    assert again == trace


def test_replay_rejects_a_face_outside_the_map():
    _, trace = planar_three_tree(9, seed=4)
    steps = list(trace.steps)
    x, y, z = steps[2].face
    # the reversed walk, the outer face, and an id not yet added
    for face in ((x, z, y), (0, 1, 2), (x, y, 8)):
        steps[2] = TraceStep("stack", face)
        with pytest.raises(ValueError, match=r"step 2 face \[.*\] is not an inner face"):
            replay(BuildTrace(tuple(steps)))


def test_three_tree_shape_and_replay():
    for seed in (0, 3, 11):
        g, trace = planar_three_tree(13, seed)
        assert g.n == 13
        assert classify(g).category is Category.PLANAR_TRIANGULATION
        assert all(s.kind == "stack" for s in trace.steps)
        assert replay(trace) == g
    assert planar_three_tree(13, 3)[0] == planar_three_tree(13, 3)[0]
    assert planar_three_tree(4, 0)[0] == k4()
    with pytest.raises(ValueError):
        planar_three_tree(2, 0)


def test_recursive_eulerian_shape():
    for t in range(0, 7):
        g, trace = recursive_eulerian(t, seed=2)
        assert g.n == 3 + 3 * t
        assert all(d % 2 == 0 for d in g.degrees())
        assert replay(trace) == g
    one_step = recursive_eulerian(1, 0)[0]
    assert one_step.degrees() == (4,) * 6  # the octahedron, relabeled
    assert recursive_eulerian(5, 9)[0] == recursive_eulerian(5, 9)[0]


def _legacy_json(trace: BuildTrace, family: str) -> str:
    """The trace as written when a trace also named its family and each
    step listed the ids it adds, the next unused ones."""
    steps, n = [], 3
    for s in trace.steps:
        count = 1 if s.kind == "stack" else 3
        steps.append({"face": list(s.face), "kind": s.kind, "new": list(range(n, n + count))})
        n += count
    return json.dumps({"family": family, "steps": steps}, sort_keys=True)


def test_large_growth_is_pinned_and_fast():
    # Digests of to_pgr plus the trace JSON, taken when both families still
    # rebuilt the whole map after every step (1.7 s and 0.7 s here); the
    # face set read off the rotation must pick the same faces in the same
    # order.  The JSON is the legacy rendering the digests were taken over.
    cases = (
        (planar_three_tree, "three_tree", 400, "252030a6756b04a5fb75db7fb1ec8b80"
         "fde73b95511fe0273b678bed8082799b"),
        (recursive_eulerian, "recursive_eulerian", 133, "416593cb8052a3dae38266dd482411f5"
         "dab603aa074ce48b720c94eed77b302b"),
    )
    for build, family, size, digest in cases:
        t0 = time.perf_counter()
        g, trace = build(size, 2)
        elapsed = time.perf_counter() - t0
        text = to_pgr(g) + _legacy_json(trace, family)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, build.__name__
        assert elapsed < 0.5, (build.__name__, elapsed)


def test_recursive_eulerian_degree4_triangles():
    """Degree-4 vertices of every sampled instance induce disjoint triangles."""
    for t in range(2, 9):
        for seed in range(4):
            g, _ = recursive_eulerian(t, seed)
            v4 = {v for v in g.vertices() if g.degree(v) == 4}
            for v in v4:
                inside = [u for u in g.neighbors(v) if u in v4]
                assert len(inside) == 2, (t, seed, v)
                assert g.has_edge(inside[0], inside[1]), (t, seed, v)


def test_diamond_chain():
    for k in (2, 3):
        g = diamond_chain(k)
        assert g.n == 7 * k
        assert classify(g).category is Category.PLANAR_TRIANGULATION
        wit = diamond_chain_witness(k)
        assert len(wit) == 2 * k
        assert is_independent(g, wit)
        assert is_dominating(g, wit)
    with pytest.raises(ValueError):
        diamond_chain(1)


def test_diamond_chain_is_pinned():
    # Digest of to_pgr taken when each gadget's rotations were written out
    # by hand; the chain grown by insertion steps must give the same maps.
    digest = hashlib.sha256()
    for k in (*range(2, 41), 143):
        digest.update(to_pgr(diamond_chain(k)).encode())
    assert digest.hexdigest() == (
        "f1a49d1d3349b3fed97860c6ef4f94a63407c2427f2fb1e604aa5c7e6c5e7bbd"
    )


def test_k4_chain():
    for k in (2, 4):
        g, anchors = k4_chain(k)
        assert g.n == 4 * k
        assert classify(g).category is Category.PLANAR_TRIANGULATION
        assert len(anchors) == k
        # the anchors are simplicial: each one's neighborhood is a triangle
        for v in anchors:
            nbrs = sorted(g.neighbors(v))
            assert len(nbrs) == 3
            assert all(
                g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]
            )
    with pytest.raises(ValueError):
        k4_chain(1)


def test_k4_and_k4_chain_are_pinned():
    # Digest taken when k4, octahedron and k4_chain wrote their rotations
    # out or stacked them one by one; replaying the step list (one triangle
    # step for the octahedron) must give the same maps, edge orders and
    # private vertices.
    digest = hashlib.sha256()
    fixed = ((k4(), ()), (octahedron(), ()))
    for g, protected in (*fixed, *(k4_chain(k) for k in (*range(2, 60), 250, 1200))):
        text = to_pgr(g) + repr(g.edges()) + repr(sorted(protected))
        digest.update(text.encode())
    assert digest.hexdigest() == (
        "3b44148b524a8afc87b8ccf4bb43724e2b576be8d430e35ea3fa909e156c453c"
    )


def test_random_triangulation_determinism():
    a = random_triangulation(20, 77)
    b = random_triangulation(20, 77)
    assert a == b
    c = random_triangulation(20, 78)
    assert a != c
    assert random_triangulation(20, 77, flips=0) == random_triangulation(
        20, 77, flips=0
    )


def _walk_text(n, seed, flips=None):
    """to_pgr of random_triangulation(n, seed, flips) plus the walk's draw
    order: the edges (u, v), u < v, by u and then in the iteration order of
    frozenset(lists[u]), for the lists as the last accepted flip left them.
    The pins below were taken when maps kept those sets and edges() read
    them, so they hash the order the walk draws in, not today's edges()."""
    lists = generators._flip_walk(n, seed, flips)
    order = [(u, v) for u, r in enumerate(lists) for v in frozenset(r) if u < v]
    return to_pgr(random_triangulation(n, seed, flips)) + repr(order)


def test_flip_walk_is_pinned():
    # Digest of to_pgr plus draw order, taken when the walk rebuilt the
    # whole map after every accepted flip: the walk draws its next edge
    # from that order, so both must survive the rotation-list walk.
    digest = hashlib.sha256()
    walks = [(n, s) for n in (60, 200) for s in (1, 2, 3)]
    for args in (*walks, (60, 1, 0), (4, 1)):
        digest.update(_walk_text(*args).encode())
    assert digest.hexdigest() == (
        "f0a53959fd3c9b3e3ae6a065fdd1f78260dfe4e8c173c952f898e79f7f64bb02"
    )


def test_flip_walk_small_n_is_pinned():
    # Digest of to_pgr plus draw order, taken when every accepted flip
    # re-copied the lists of the last two flips and rebuilt their sets.
    # At small n most draws hit an outer edge or a degenerate flip, and one
    # list is often touched by consecutive flips.
    digest = hashlib.sha256()
    for n in range(3, 41):
        for s in range(1, 6):
            for flips in (0, None, 6 * n):
                digest.update(_walk_text(n, s, flips).encode())
    assert digest.hexdigest() == (
        "fec8860bfdb179ec5a955c72c6759199d4cd0c2d390466cdc778e117b648c131"
    )


def test_flip_walk_long_is_pinned():
    # Digest of to_pgr plus draw order, taken when every accepted flip
    # re-canonicalised all n lists and rebuilt the whole edge list: the
    # 6n-flip walks at n = 14..20, a 1000-vertex walk and the
    # connected family, which shuffles the draw order, must all survive the
    # walk that refreshes only the lists a flip touched.
    digest = hashlib.sha256()
    walks = [(n, s, 6 * n) for n in range(14, 21) for s in (1, 2, 3)]
    for args in (*walks, (1000, 1)):
        digest.update(_walk_text(*args).encode())
    for s in (1, 2, 3):  # edges() once read the set order of the lists built from
        g = random_connected_plane(30, s)
        tri = random_triangulation(30, split_seed(s, 4))
        lists = [[u for u in tri.rotation(v) if g.has_edge(v, u)] for v in g.vertices()]
        order = [(u, v) for u, r in enumerate(lists) for v in frozenset(r) if u < v]
        digest.update((to_pgr(g) + repr(order)).encode())
    assert digest.hexdigest() == (
        "e723b521d1cd2501e45c27f774755e1f4ce5c6c683fb6f312386001faf042588"
    )


def test_generator_steps_are_local():
    # Each flip and growth step edits only what it touches.  At O(n) a step
    # these took about 6 s, 5 s and 15 s.
    for build, args in (
        (random_triangulation, (1000, 1)),
        (planar_three_tree, (3000, 1)),
        (recursive_eulerian, (1300, 1)),
    ):
        t0 = time.perf_counter()
        build(*args)
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, (build.__name__, elapsed)


def test_connected_plane_is_pinned():
    # Digest taken when every candidate deletion counted the components of
    # the whole graph; the face-merging bridge test must keep each decision.
    digest = hashlib.sha256()
    for n in (100, 400):
        for s in (1, 2, 3):
            digest.update(to_pgr(random_connected_plane(n, s)).encode())
    assert digest.hexdigest() == (
        "133464f46ccf6118db6b01b808a225c01bc66d3bc0362e6bf27d84ace78b2dd4"
    )


def test_connected_plane_deletions_are_local():
    # A deletion is two union-find lookups on the faces beside the edge.
    # With a whole-graph component count per candidate this took 1.7-2.5 s
    # on a 2-vCPU box, with a search between the edge's ends about 0.35 s,
    # and with face merging about 0.3 s, mostly the triangulation itself.
    t0 = time.perf_counter()
    random_connected_plane(2000, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.5, elapsed


def test_generated_maps_are_built_once(monkeypatch):
    # The growth loop and the flip walk edit rotation lists and build only
    # their result; the connected family adds its thinned map.  Rebuilding
    # after every flip made 407, 2 and 57 builds, and building the walk's
    # stacked start as a map made 2 and 3.
    builds = []
    init = PlaneGraph.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlaneGraph, "__init__", counting_init)
    for build, args, most in (
        (random_triangulation, (200, 1), 1),
        (planar_three_tree, (40, 3), 1),
        (recursive_eulerian, (12, 3), 1),
        (diamond_chain, (3,), 1),
        (random_connected_plane, (30, 2), 2),
    ):
        builds.clear()
        build(*args)
        assert len(builds) <= most, (build.__name__, len(builds))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=5, max_value=20), seed=st.integers(0, 2**31))
def test_random_connected_plane_stays_connected(n, seed):
    g = random_connected_plane(n, seed)
    assert g.n == n
    assert g.is_connected
    assert classify(g).category is not Category.INVALID


def _joined(adj, u, v):
    """Whether a search from u reaches v; it stops as soon as it does."""
    seen = {u}
    stack = [u]
    while stack:
        for w in adj[stack.pop()]:
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def reference_connected_plane(n, seed):
    """The same thinning decided by search: a candidate edge is dropped
    when its ends stay joined without it."""
    lists = generators._flip_walk(n, split_seed(seed, 4), None)
    g = PlaneGraph(lists, outer_dart=(0, 1))
    rng = random.Random(split_seed(seed, 5))
    adj = [set(g.rotation(v)) for v in g.vertices()]
    edges = [(u, v) for u, r in enumerate(lists) for v in frozenset(r) if u < v]
    rng.shuffle(edges)
    drop_target = rng.randrange(0, len(edges) - (n - 1) + 1)
    dropped = 0
    for u, v in edges:
        if dropped == drop_target:
            break
        adj[u].remove(v)
        adj[v].remove(u)
        if _joined(adj, u, v):
            dropped += 1
        else:
            adj[u].add(v)
            adj[v].add(u)
    return PlaneGraph([[u for u in g.rotation(v) if u in adj[v]] for v in g.vertices()])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=80), seed=st.integers(0, 2**32 - 1))
def test_connected_plane_face_merging_matches_search(n, seed):
    assert to_pgr(random_connected_plane(n, seed)) == to_pgr(
        reference_connected_plane(n, seed)
    )


def test_near_triangulation_from_octahedron():
    g = octahedron()
    h, relabel = near_triangulation_from(g, 3)
    assert h.n == 5
    assert classify(h).category is Category.NEAR_TRIANGULATION
    assert len(h.outer_face) == 4
    assert set(relabel.keys()) == {0, 1, 2, 4, 5}
    with pytest.raises(ValueError):
        near_triangulation_from(h, 0)  # not a triangulation any more


def test_near_triangulation_from_needs_four_vertices():
    # any vertex of the bare triangle leaves an edge, which is no near triangulation
    g = random_triangulation(3, 1)
    for v in g.vertices():
        with pytest.raises(ValueError, match="n >= 4, got 3"):
            near_triangulation_from(g, v)


def test_near_triangulation_from_random_bases():
    for seed in (1, 5, 9):
        g = random_triangulation(15, seed)
        h, _ = near_triangulation_from(g, seed % g.n)
        assert h.n == 14
        assert classify(h).category in (
            Category.NEAR_TRIANGULATION,
            Category.PLANAR_TRIANGULATION,
        )


def test_near_triangulation_from_is_pinned_and_built_once(monkeypatch):
    # Digest of to_pgr plus the relabel map for every v of three
    # triangulations, taken when the residue was rebuilt to re-root it.
    builds = []
    init = PlaneGraph.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    bases = (icosahedron(), random_triangulation(20, 3), planar_three_tree(16, 4)[0])
    monkeypatch.setattr(PlaneGraph, "__init__", counting_init)
    digest = hashlib.sha256()
    for g in bases:
        for v in g.vertices():
            builds.clear()
            h, relabel = near_triangulation_from(g, v)
            assert len(builds) == 1, v
            digest.update(to_pgr(h).encode())
            digest.update(json.dumps(sorted(relabel.items())).encode())
    assert digest.hexdigest() == (
        "fa9535bef0d2766459a942fce78f64ecf319dc775c11ad596a69c1e17eb479dc"
    )


def test_min_degree5_sample(monkeypatch):
    # The icosahedron at n = 12 and None elsewhere: no flip walk runs, and
    # off n = 12 no map is built.
    def forbidden(*args, **kwargs):
        raise AssertionError("min_degree5_sample searched")

    monkeypatch.setattr(generators, "random_triangulation", forbidden)
    assert min_degree5_sample(12) == icosahedron()
    monkeypatch.setattr(PlaneGraph, "__init__", forbidden)
    for n in (*range(3, 12), *range(13, 41)):
        assert min_degree5_sample(n) is None, n


def test_all_odd_seeds_regenerate():
    for n, seeds in ALL_ODD_SEEDS.items():
        for seed in seeds[:2]:
            g = random_triangulation(n, seed)
            assert all(d % 2 == 1 for d in g.degrees()), (n, seed)


def test_all_odd_instances_have_all_classes_dominating():
    g = random_triangulation(8, ALL_ODD_SEEDS[8][0])
    c = four_coloring(g)
    for i in range(4):
        assert is_dominating(g, c.class_members(i))
