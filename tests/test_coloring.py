import hashlib
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domtri import coloring
from domtri.coloring import (
    Coloring,
    class_sizes,
    four_coloring,
    is_acyclic,
    is_proper,
    is_r_dynamic,
    missing_colors,
    rec_eulerian_six_coloring,
)
from domtri.domination import is_dominating
from domtri.generators import (
    BuildTrace,
    diamond_chain,
    icosahedron,
    k4,
    k4_chain,
    near_triangulation_from,
    octahedron,
    planar_three_tree,
    random_triangulation,
    recursive_eulerian,
    replay,
)
from domtri.plane_graph import to_pgr

RAINBOW_K4 = Coloring(4, (0, 1, 2, 3))
# octahedron antipodal pairs under our labeling: 0-3, 1-4, 2-5
OCT_ANTIPODAL = Coloring(3, (0, 1, 2, 0, 1, 2))


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(2, (0, 1, 2))
    c = Coloring(3, (0, 1, 2, 0))
    assert c.n == 4
    assert c[3] == 0
    assert c.class_members(0) == frozenset({0, 3})
    with pytest.raises(IndexError):
        c.class_members(3)


def test_text_round_trip():
    c = Coloring(4, (0, 3, 1, 2, 0))
    assert Coloring.from_text(c.to_text()) == c
    # the header keeps k when the top classes are empty
    c = Coloring(4, (0, 1, 2, 0))
    assert Coloring.from_text(c.to_text()) == c
    # without the header, k is inferred from the largest class
    assert Coloring.from_text("0 0\n1 1\n2 2\n3 0\n").k == 3
    assert Coloring.from_text("# note\n0 1\n\n1 0  # trailing\n").colors == (1, 0)


def test_text_rejects_gaps_and_repeats():
    with pytest.raises(ValueError, match="twice"):
        Coloring.from_text("0 0\n0 1\n")
    with pytest.raises(ValueError, match="cover"):
        Coloring.from_text("0 0\n2 1\n")


def test_text_rejects_class_beyond_vertex_count():
    # n vertices fill at most n classes; the index would otherwise set k
    with pytest.raises(ValueError, match="class index 3000000 is not below"):
        Coloring.from_text("0 0\n1 1\n2 2\n3 3000000\n")
    with pytest.raises(ValueError, match="class index 4 is not below"):
        Coloring.from_text("# coloring k=5\n0 0\n1 4\n2 2\n3 3\n")
    assert Coloring.from_text("0 3\n1 1\n2 2\n3 0\n").k == 4


def test_class_sizes():
    assert class_sizes(RAINBOW_K4) == (1, 1, 1, 1)
    assert class_sizes(Coloring(4, (0, 0, 2, 0))) == (3, 0, 1, 0)


def test_proper_and_size_mismatch():
    g = k4()
    assert is_proper(g, RAINBOW_K4)
    assert not is_proper(g, Coloring(4, (0, 0, 1, 2)))
    with pytest.raises(ValueError, match="covers"):
        is_proper(g, Coloring(4, (0, 1, 2)))


def test_dynamic_and_acyclic_on_k4():
    g = k4()
    assert is_r_dynamic(g, RAINBOW_K4, 3)
    # degrees cap the requirement, so huge r still passes on a rainbow
    assert is_r_dynamic(g, RAINBOW_K4, 99)
    assert is_acyclic(g, RAINBOW_K4)


def test_antipodal_octahedron_coloring():
    g = octahedron()
    assert is_proper(g, OCT_ANTIPODAL)
    # every vertex sees both other classes twice but only 2 classes total
    assert is_r_dynamic(g, OCT_ANTIPODAL, 2)
    assert not is_r_dynamic(g, OCT_ANTIPODAL, 3)
    assert not is_r_dynamic(g, OCT_ANTIPODAL, 5)
    # any two antipodal pairs induce a 4-cycle
    assert not is_acyclic(g, OCT_ANTIPODAL)


def test_acyclic_colorings_are_3_dynamic():
    # hand-built acyclic colorings of small triangulations: one antipodal
    # pair plus singletons on the octahedron, rainbows elsewhere
    cases = [
        (k4(), RAINBOW_K4),
        (octahedron(), Coloring(5, (0, 1, 2, 0, 3, 4))),
        (octahedron(), Coloring(6, tuple(range(6)))),
        (icosahedron(), Coloring(12, tuple(range(12)))),
    ]
    for g, c in cases:
        assert is_acyclic(g, c)
        assert is_r_dynamic(g, c, 3)
    assert is_r_dynamic(octahedron(), Coloring(6, tuple(range(6))), 5)


def test_permute_classes_commutes_with_checkers():
    g = octahedron()
    c = Coloring(5, (0, 1, 2, 0, 3, 4))
    for perm in ([1, 0, 2, 3, 4], [4, 3, 2, 1, 0], [2, 4, 0, 1, 3]):
        p = Coloring(c.k, tuple(perm[x] for x in c.colors))
        assert is_proper(g, p) == is_proper(g, c)
        assert is_acyclic(g, p) == is_acyclic(g, c)
        for r in (2, 3, 5):
            assert is_r_dynamic(g, p, r) == is_r_dynamic(g, c, r)
        for v in g.vertices():
            before = missing_colors(g, c, v)
            after = missing_colors(g, p, v)
            assert len(after) == len(before)
            assert after == frozenset(perm[i] for i in before)


def test_checkers_require_proper():
    g = k4()
    bad = Coloring(4, (0, 0, 1, 2))
    for call in (
        lambda: is_r_dynamic(g, bad, 2),
        lambda: is_acyclic(g, bad),
        lambda: missing_colors(g, bad, 0),
    ):
        with pytest.raises(ValueError, match="not proper"):
            call()


def test_missing_colors_rainbow_octahedron():
    g = octahedron()
    rainbow = Coloring(6, tuple(range(6)))
    for v, antipode in ((0, 3), (1, 4), (2, 5), (3, 0), (4, 1), (5, 2)):
        assert missing_colors(g, rainbow, v) == frozenset({antipode})


def test_four_coloring_fixed_graphs():
    gk = k4()
    ck = four_coloring(gk)
    assert is_proper(gk, ck) and class_sizes(ck) == (1, 1, 1, 1)

    go = octahedron()
    co = four_coloring(go)
    assert is_proper(go, co)
    # the backtracker lands on the antipodal 3-coloring, leaving class 3 empty
    assert class_sizes(co) == (2, 2, 2, 0)

    gi = icosahedron()
    ci = four_coloring(gi)
    assert is_proper(gi, ci) and class_sizes(ci) == (3, 3, 3, 3)


def test_four_coloring_deterministic():
    g = random_triangulation(30, 4242)
    assert four_coloring(g).colors == four_coloring(g).colors


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 10_000))
def test_four_coloring_proper_on_random(n, seed):
    g = random_triangulation(n, seed)
    assert is_proper(g, four_coloring(g))


def test_four_coloring_is_pinned():
    # Digest taken when the search was recursive and rescanned every
    # vertex for the most saturated one; the search must pick in that order.
    graphs = [k4(), octahedron(), icosahedron()]
    for n in range(4, 61):
        for s in (1, 2, 3):
            g = random_triangulation(n, s)
            graphs += [g, near_triangulation_from(g, s % n)[0]]
    graphs += [recursive_eulerian(66, s)[0] for s in (1, 2)]
    graphs += [diamond_chain(29), k4_chain(50)[0], planar_three_tree(200, 2)[0]]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(bytes(four_coloring(g).colors))
    assert digest.hexdigest() == (
        "1784527dddd7f6974ad52d69ca10b44fbefa42d321cf91c7c1ddc2c3568348d4"
    )


def test_search_budget_is_pinned(monkeypatch):
    # random_triangulation(200, 5) exhausts the budget and is colored by the
    # Kempe fallback; seed 7 succeeds after exactly 2,964 vertex choices
    g = random_triangulation(200, 5)
    nbrs = [g.neighbors(v) for v in g.vertices()]
    assert coloring._dsatur(nbrs) is None
    assert four_coloring(g).colors == tuple(coloring._kempe_insertion(nbrs))
    h = random_triangulation(200, 7)
    nbrs = [h.neighbors(v) for v in h.vertices()]
    assert coloring._dsatur(nbrs) is not None
    monkeypatch.setattr(coloring, "_SEARCH_NODES", 2963)
    assert coloring._dsatur(nbrs) is None


def test_four_coloring_scales():
    # The recursive search took 3 s on random_triangulation(200, 3) and hit
    # the recursion limit on the n ~ 1000 chains.
    graphs = [random_triangulation(200, s) for s in range(1, 13)]
    graphs += [k4_chain(250)[0], diamond_chain(143)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for g in graphs:
            t0 = time.perf_counter()
            c = four_coloring(g)
            elapsed = time.perf_counter() - t0
            assert is_proper(g, c)
            assert elapsed < 1.0, (g.n, elapsed)
    finally:
        sys.setrecursionlimit(limit)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 10_000))
def test_kempe_fallback_is_proper(n, seed):
    g = random_triangulation(n, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_SEARCH_NODES", 0)  # every graph falls back
        for h in (g, near_triangulation_from(g, seed % n)[0]):
            assert is_proper(h, four_coloring(h))


def test_kempe_fallback_swaps_chains(monkeypatch):
    swaps = []
    swap = coloring._kempe_swap

    def counting_swap(*args):
        swaps.append(args[2:])
        swap(*args)

    monkeypatch.setattr(coloring, "_SEARCH_NODES", 0)
    monkeypatch.setattr(coloring, "_kempe_swap", counting_swap)
    # smallest-last insertion into this graph finds all four classes
    # around some vertex, so only a Kempe swap can free one
    g = random_triangulation(9, 4)
    assert is_proper(g, four_coloring(g))
    assert swaps


def test_stacked_maps_have_one_four_coloring():
    # Each stacked vertex is forced into the one class its step's face
    # misses, so four_coloring must give that partition up to renaming.
    for n in (4, 5, 13, 25, 40):
        for seed in (1, 2, 3):
            g, trace = planar_three_tree(n, seed)
            forced = [0, 1, 2]
            for s in trace.steps:
                (missing,) = {0, 1, 2, 3} - {forced[v] for v in s.face}
                forced.append(missing)
            colors = four_coloring(g).colors
            rename = dict(zip(forced, colors))
            assert [rename[a] for a in forced] == list(colors), (n, seed)
            assert sorted(rename.values()) == [0, 1, 2, 3], (n, seed)
    g, _ = planar_three_tree(25, 7)
    c = four_coloring(g)
    assert all(is_dominating(g, c.class_members(i)) for i in range(4))
    assert sorted(class_sizes(c)) == [4, 5, 8, 8]


def test_six_coloring_one_insertion():
    g, trace = recursive_eulerian(1, 0)
    c = rec_eulerian_six_coloring(g, trace)
    assert c.colors == (0, 2, 1, 4, 5, 3)
    assert is_proper(g, c)
    assert is_r_dynamic(g, c, 5)


def test_six_coloring_t3():
    g, trace = recursive_eulerian(3, 11)
    c = rec_eulerian_six_coloring(g, trace)
    assert is_proper(g, c)
    assert is_r_dynamic(g, c, 5)
    # degree-4 vertices miss exactly one class, higher degrees miss none,
    # and adjacent degree-4 vertices never miss the same one
    miss = {v: missing_colors(g, c, v) for v in g.vertices()}
    for v in g.vertices():
        assert len(miss[v]) == (1 if g.degree(v) == 4 else 0)
    for u, v in g.edges():
        if g.degree(u) == 4 and g.degree(v) == 4:
            assert miss[u] != miss[v]


@pytest.mark.parametrize("t,seed", [(2, 0), (4, 3), (6, 1), (8, 2)])
def test_six_coloring_depth_sweep(t, seed):
    g, trace = recursive_eulerian(t, seed)
    c = rec_eulerian_six_coloring(g, trace)
    assert is_proper(g, c)
    assert is_r_dynamic(g, c, 5)


def test_six_coloring_is_pinned():
    # Digest of the colors for t = 0..24 and seeds 1..4, taken when the
    # coloring kept its own adjacency lists instead of reading the graph.
    digest = hashlib.sha256()
    for t in range(25):
        for seed in range(1, 5):
            g, trace = recursive_eulerian(t, seed)
            digest.update(repr(rec_eulerian_six_coloring(g, trace).colors).encode())
    assert digest.hexdigest() == (
        "912e831592869741c470ff4a792e0ada0d0ebd2c66fbfe082d4075d8a12a07aa"
    )


def test_six_coloring_rejects_mismatched_trace():
    g, _ = recursive_eulerian(2, 0)
    _, other = recursive_eulerian(2, 1)
    with pytest.raises(ValueError, match="rebuild"):
        rec_eulerian_six_coloring(g, other)
    _, stack_trace = planar_three_tree(12, 0)
    with pytest.raises(ValueError, match="octahedron-pattern"):
        rec_eulerian_six_coloring(g, stack_trace)


# recursive_eulerian(3, 2)'s trace as written when a trace also named its
# family and listed each step's new ids; readers ignore both keys now.
LEGACY_TRACE = (
    '{"family": "recursive_eulerian", "steps": ['
    '{"face": [0, 2, 1], "kind": "triangle", "new": [3, 4, 5]}, '
    '{"face": [0, 2, 5], "kind": "triangle", "new": [6, 7, 8]}, '
    '{"face": [1, 4, 3], "kind": "triangle", "new": [9, 10, 11]}]}'
)


def test_legacy_trace_replays_and_six_colors_the_same():
    trace = BuildTrace.from_json(LEGACY_TRACE)
    g, fresh = recursive_eulerian(3, 2)
    assert trace == fresh
    assert replay(trace) == g
    assert to_pgr(g) == (
        "pgr 1 12 0 1 2\n0: 1 4 5 7 8 2\n1: 0 2 3 10 11 4\n2: 0 8 6 5 3 1\n"
        "3: 1 2 5 4 9 10\n4: 0 1 11 9 3 5\n5: 0 4 3 2 6 7\n6: 2 8 7 5\n"
        "7: 0 5 6 8\n8: 0 7 6 2\n9: 3 4 11 10\n10: 1 3 9 11\n11: 1 10 9 4\n"
    )
    colors = (5, 0, 4, 2, 1, 3, 1, 0, 2, 4, 5, 3)
    assert rec_eulerian_six_coloring(g, trace).colors == colors
