import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domtri import coloring, domination, harness
from domtri.coloring import Coloring, four_coloring, rec_eulerian_six_coloring
from domtri.domination import (
    DominationResult,
    OracleLimit,
    OracleLimitExceeded,
    class_combinator,
    exact_gamma,
    exact_iota,
    greedy_independent,
    is_dominating,
    is_independent,
    undominated_by,
    verify_combinator_accounting,
)
from domtri.generators import (
    diamond_chain,
    icosahedron,
    k4,
    k4_chain,
    near_triangulation_from,
    octahedron,
    random_connected_plane,
    random_triangulation,
    recursive_eulerian,
    split_seed,
)
from domtri.harness import odd_degree_analysis
from domtri.plane_graph import InvariantBreach, PlaneGraph, parse_pgr, to_pgr

HEX_DISK_ROT = [[1, 2, 3, 4, 5], [2, 0], [1, 3, 0], [0, 2, 4], [5, 0, 3], [0, 4]]


def brute_iota(g):
    """Reference value by plain subset enumeration, smallest size first."""
    vs = sorted(g.vertices())
    for size in range(1, g.n + 1):
        for comb in itertools.combinations(vs, size):
            s = frozenset(comb)
            if is_independent(g, s) and is_dominating(g, s):
                return size
    raise AssertionError("graph has no independent dominating set")


def brute_gamma(g):
    vs = sorted(g.vertices())
    for size in range(1, g.n + 1):
        for comb in itertools.combinations(vs, size):
            if is_dominating(g, frozenset(comb)):
                return size
    raise AssertionError("graph has no dominating set")


def relabeled(g, seed):
    """The same plane graph with its ids permuted by a seeded shuffle."""
    perm = list(g.vertices())
    random.Random(seed).shuffle(perm)
    rot = [[] for _ in perm]
    for v in g.vertices():
        rot[perm[v]] = [perm[u] for u in g.rotation(v)]
    a, b = g.outer_face[:2]
    return PlaneGraph(rot, outer_dart=(perm[a], perm[b]))


def small_corpus():
    yield "k4", k4()
    yield "octahedron", octahedron()
    yield "icosahedron", icosahedron()
    yield "hex_disk", PlaneGraph(HEX_DISK_ROT, outer_dart=(0, 1))
    for n, seed in ((8, 1), (10, 2), (12, 3)):
        yield f"tri_{n}_{seed}", random_triangulation(n, seed)
    base = random_triangulation(11, 4)
    yield "near_10", near_triangulation_from(base, 6)[0]
    yield "plane_9", random_connected_plane(9, 5)


def test_domination_predicates():
    g = octahedron()
    assert is_dominating(g, {0, 3})
    assert is_independent(g, {0, 3})
    assert not is_dominating(g, {0})
    assert not is_independent(g, {0, 1})


def test_undominated_by():
    g = octahedron()
    c = Coloring(4, (0, 1, 2, 0, 1, 2))
    assert undominated_by(g, c, 0) == frozenset()
    assert undominated_by(g, c, 3) == frozenset(range(6))
    with pytest.raises(ValueError, match="not proper"):
        undominated_by(g, Coloring(4, (0, 0, 1, 2, 1, 2)), 0)


def test_is_independent_matches_pairwise_definition():
    rng = random.Random(0)
    seen = set()
    for g in (octahedron(), random_triangulation(30, 2), random_connected_plane(20, 3)):
        for _ in range(200):
            s = frozenset(rng.sample(range(g.n), rng.randint(0, 5)))
            pairwise = all(not g.has_edge(u, v) for u in s for v in s if u < v)
            assert is_independent(g, s) == pairwise, sorted(s)
            seen.add(pairwise)
    assert seen == {True, False}


def _combinator_grid():
    for n in (5, 8, 13, 21):
        for seed in (1, 2):
            g = random_triangulation(n, seed)
            yield g, four_coloring(g)
            near = near_triangulation_from(g, seed % n)[0]
            yield near, four_coloring(near)
    for g in (k4(), octahedron(), icosahedron()):
        yield g, four_coloring(g)
    g, trace = recursive_eulerian(2, 3)
    yield g, rec_eulerian_six_coloring(g, trace)


def test_combinator_undominated_matches_undominated_by():
    paths = set()
    for g, c in _combinator_grid():
        r = class_combinator(g, c)
        assert r.undominated == tuple(undominated_by(g, c, i) for i in range(c.k))
        paths.add(r.used_fallback)
    assert paths == {True, False}


@pytest.mark.parametrize(
    "build, fallback",
    [(lambda: random_triangulation(200, 5), False), (octahedron, True)],
    ids=["random200", "octahedron"],
)
def test_check_chain_checks_properness_twice(monkeypatch, build, fallback):
    g = build()
    passes = []

    def counted(*args):
        passes.append(1)
        return original(*args)

    original = coloring.is_proper
    # domination checks through coloring._require_proper
    for module in (coloring, harness):
        monkeypatch.setattr(module, "is_proper", counted)
    classified = []

    def counted_classify(h):
        classified.append(1)
        return real_classify(h)

    real_classify = domination.classify
    for module in (domination, harness):
        monkeypatch.setattr(module, "classify", counted_classify)
    c = four_coloring(g)
    res = class_combinator(g, c)
    verify_combinator_accounting(g, c, res)
    odd_degree_analysis(g, c, combinator_result=res)
    # once in four_coloring, once in class_combinator
    assert len(passes) == 2
    # once in the accounting, once in the odd-degree analysis
    assert len(classified) == 2
    assert res.used_fallback == fallback


def test_greedy_independent_order():
    path = PlaneGraph([[1], [0, 2], [1]])
    assert greedy_independent(path, path.vertices()) == frozenset({0, 2})


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(5, 16), seed=st.integers(0, 10_000), mask=st.integers(0, 2**16 - 1)
)
def test_greedy_independent_is_ascending_maximal(n, seed, mask):
    g = near_triangulation_from(random_triangulation(n, seed), seed % n)[0]
    vs = frozenset(v for v in g.vertices() if mask >> v & 1)
    s = greedy_independent(g, vs)
    assert s <= vs
    assert is_independent(g, s)
    for v in vs - s:  # maximal in G[vs], blocked by an earlier pick
        assert g.neighbors(v) & s
        assert min(g.neighbors(v) & s) < v


def test_exact_iota_fixed_values():
    assert exact_iota(k4()).size == 1
    assert exact_iota(octahedron()).size == 2
    r = exact_iota(icosahedron())
    assert r.size == 2
    assert is_independent(icosahedron(), r.vertices)
    assert is_dominating(icosahedron(), r.vertices)


def test_exact_gamma_fixed_values():
    assert exact_gamma(k4()).size == 1
    assert exact_gamma(octahedron()).size == 2


@pytest.mark.parametrize("name,g", list(small_corpus()))
def test_oracles_match_subset_enumeration(name, g):
    iota = exact_iota(g)
    gamma = exact_gamma(g)
    assert iota.size == brute_iota(g)
    assert gamma.size == brute_gamma(g)
    assert gamma.size <= iota.size
    assert is_independent(g, iota.vertices) and is_dominating(g, iota.vertices)
    assert is_dominating(g, gamma.vertices)


def relabeled_small_graphs():
    for n in (6, 8, 10, 12):
        tri = random_triangulation(n, n)
        near = near_triangulation_from(random_triangulation(n + 1, n), n // 2)[0]
        plane = random_connected_plane(n, n)
        for name, g in (("tri", tri), ("near", near), ("plane", plane)):
            for s in (1, 2, 3):
                yield f"{name}_{n}_perm{s}", relabeled(g, 100 * n + s)


@pytest.mark.parametrize("name,g", list(relabeled_small_graphs()))
def test_oracles_match_subset_enumeration_relabeled(name, g):
    # The packing bound sorts the undominated vertices by their count of
    # available dominators, so which one it packs first no longer follows
    # the ids; it stays sound only while every packed set is disjoint from
    # the others.  Permuted ids exercise other tie orders.
    test_oracles_match_subset_enumeration(name, g)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["tri", "near", "plane"]),
    n=st.integers(6, 12),
    seed=st.integers(0, 10_000),
)
def test_swap_rules_keep_the_optimum(kind, n, seed):
    # The search skips a dominator that an earlier candidate can replace.
    # Without iota's condition that the replacement's available neighbours
    # lie in the skipped vertex's closed neighbourhood, or without the
    # tie-break that keeps the first of equal fresh sets, some of these maps
    # lose their optimum.
    if kind == "tri":
        g = random_triangulation(n, seed)
    elif kind == "near":
        g = near_triangulation_from(random_triangulation(n + 1, seed), seed % (n + 1))[0]
    else:
        g = random_connected_plane(n, seed)
    for s in range(5):
        test_oracles_match_subset_enumeration(kind, relabeled(g, seed + s))


def test_oracle_search_stays_small():
    # Node counts, not time.  Trying the pick's dominators in id order and
    # packing in id order took 109,811 and 90,850 iota nodes on the first
    # two graphs, and up to 40,164 iota and 56,861 gamma nodes on these
    # relabelings of the third.  Without the swap rules the search visits
    # 26,911 nodes over all of them (7,679 iota, 19,232 gamma); with them,
    # 2,720 (2,087 and 633), gamma starting from the greedy independent set.
    base = random_triangulation(71, split_seed(1, 11))
    cases = [(base, (13, 10)), (near_triangulation_from(base, 11)[0], (13, 10))]
    hard = random_triangulation(73, split_seed(1, 13))
    cases += [(relabeled(hard, s), (13, 12)) for s in range(1, 7)]
    total = 0
    for g, sizes in cases:
        limit = OracleLimit(max_vertices=g.n, max_nodes=20_000)
        iota, gamma = exact_iota(g, limit), exact_gamma(g, limit)
        assert (iota.size, gamma.size) == sizes
        assert 0 < iota.nodes <= limit.max_nodes and 0 < gamma.nodes <= limit.max_nodes
        assert is_independent(g, iota.vertices) and is_dominating(g, iota.vertices)
        assert is_dominating(g, gamma.vertices)
        total += iota.nodes + gamma.nodes
    assert total <= 4_000


# (size, sorted vertices, nodes) of exact_iota and exact_gamma; any change
# to the search's branching order, bound or node count moves these.
ORACLE_PINS = [
    (icosahedron, (2, [0, 9], 11), (2, [0, 9], 8)),
    (lambda: diamond_chain(3), (6, [0, 5, 6, 9, 10, 17], 78), (5, [0, 2, 10, 14, 15], 22)),
    (lambda: k4_chain(5)[0], (5, [0, 4, 10, 15, 17], 1), (5, [0, 4, 10, 15, 17], 1)),
    (lambda: random_triangulation(22, 1), (4, [3, 13, 15, 16], 18), (4, [1, 3, 4, 6], 9)),
    (
        lambda: near_triangulation_from(random_triangulation(28, 3), 9)[0],
        (4, [12, 20, 22, 24], 20),
        (4, [12, 18, 22, 24], 14),
    ),
]


@pytest.mark.parametrize("build,iota_pin,gamma_pin", ORACLE_PINS)
def test_oracle_search_is_pinned(build, iota_pin, gamma_pin):
    g = build()
    for oracle, pin in ((exact_iota, iota_pin), (exact_gamma, gamma_pin)):
        r = oracle(g, OracleLimit(max_vertices=g.n))
        assert (r.size, sorted(r.vertices), r.nodes) == pin
        # the budget admits exactly the nodes the search visits
        assert oracle(g, OracleLimit(g.n, max_nodes=r.nodes)).nodes == r.nodes
        with pytest.raises(OracleLimitExceeded, match=f"exceeded {r.nodes - 1} nodes"):
            oracle(g, OracleLimit(g.n, max_nodes=r.nodes - 1))


def test_oracle_vertex_limit():
    g = icosahedron()
    with pytest.raises(OracleLimitExceeded, match="n <= 10"):
        exact_iota(g, OracleLimit(max_vertices=10, max_nodes=1000))
    with pytest.raises(OracleLimitExceeded, match="n <= 10"):
        exact_gamma(g, OracleLimit(max_vertices=10, max_nodes=1000))


def test_oracle_node_budget():
    g = random_triangulation(20, 9)
    with pytest.raises(OracleLimitExceeded, match="nodes"):
        exact_iota(g, OracleLimit(max_vertices=35, max_nodes=0))
    with pytest.raises(OracleLimitExceeded, match="nodes"):
        exact_gamma(g, OracleLimit(max_vertices=35, max_nodes=0))


def test_oracle_search_depth_limit(monkeypatch):
    g = diamond_chain(3)  # iota 6, gamma 5
    assert (exact_iota(g).size, exact_gamma(g).size) == (6, 5)
    monkeypatch.setattr(domination, "_MAX_DEPTH", 3)
    with pytest.raises(OracleLimitExceeded, match="3 chosen vertices"):
        exact_iota(g)
    with pytest.raises(OracleLimitExceeded, match="3 chosen vertices"):
        exact_gamma(g)
    monkeypatch.undo()
    # a search pruned at the root still finishes, however large its answer
    big = k4_chain(1200)[0]
    assert exact_iota(big, OracleLimit(max_vertices=big.n)).size == 1200


def test_combinator_requires_proper():
    with pytest.raises(ValueError, match="not proper"):
        class_combinator(k4(), Coloring(4, (0, 0, 1, 2)))


def test_combinator_rainbow_k4():
    r = class_combinator(k4(), Coloring(4, (0, 1, 2, 3)))
    assert r.size == 1
    assert not r.used_fallback
    assert r.witness_class == 0  # every candidate has size 1; ties go to the lower class


def test_combinator_fallback_on_octahedron():
    g = octahedron()
    c = four_coloring(g)  # one class comes out empty
    r = class_combinator(g, c)
    assert r.used_fallback
    assert r.union_s == frozenset()
    assert r.size == 2
    assert r.vertices == c.class_members(r.witness_class)


def test_combinator_icosahedron():
    g = icosahedron()
    c = four_coloring(g)
    r = class_combinator(g, c)
    assert not r.used_fallback
    assert r.size == 3
    assert [len(c.class_members(i)) for i in range(4)] == [3, 3, 3, 3]
    # every class already dominates, so no S_i vertices are added
    assert r.union_s == frozenset()
    assert is_independent(g, r.vertices) and is_dominating(g, r.vertices)


def _replay_text(exc) -> str:
    """The map of a combinator breach: its lines after the first, up to any
    `coloring=` line."""
    return str(exc.value).split("\n", 1)[1].split("\ncoloring=")[0]


def test_combinator_breach_carries_the_map(monkeypatch):
    g = random_triangulation(20, 2)
    c = four_coloring(g)
    assert undominated_by(g, c, 3)  # so C_3 alone is not dominating
    monkeypatch.setattr(domination, "greedy_independent", lambda g, vs: frozenset())
    with pytest.raises(InvariantBreach, match="class 3 union S_3 is not independent dominating") as exc:
        class_combinator(g, c)
    assert _replay_text(exc) == to_pgr(g)
    assert parse_pgr(_replay_text(exc)) == g


def test_combinator_fallback_breach_carries_the_map(monkeypatch):
    # the path 0-1-2-3-4 colored 0,1,2,0,1 with class 3 empty: no vertex
    # lies in a triangle, so the fallback runs only with _in_triangle patched,
    # and its smallest class {2} misses 0 and 4
    g = PlaneGraph([[1], [0, 2], [1, 3], [2, 4], [3]])
    c = Coloring(4, (0, 1, 2, 0, 1))
    monkeypatch.setattr(domination, "_in_triangle", lambda g, v: True)
    with pytest.raises(InvariantBreach, match="nonempty class 2 does not dominate") as exc:
        class_combinator(g, c)
    assert _replay_text(exc) == to_pgr(g)
    assert parse_pgr(_replay_text(exc)) == g


def test_accounting_icosahedron():
    g = icosahedron()
    c = four_coloring(g)
    acc = verify_combinator_accounting(g, c, class_combinator(g, c))
    assert all(ch.holds for ch in acc)
    rows = {ch.name: ch for ch in acc}
    assert {
        "x_holes_inner",
        "x_holes_distinct",
        "y_holes_outer",
        "x_holes_even_degree",
        "interior_face_budget",
        "weighted_deletion_budget",
        "y_at_most_half_outer",
        "near_bound",
        "combined_size",
        "planar_y",
        "planar_f4_strict",
        "planar_size",
        "planar_bound",
        "min5_f4_zero",
        "min5_bound",
    } <= rows.keys()
    # S is empty and H = G has no quadrilateral faces
    assert rows["three_s"].lhs == 0 and rows["min5_f4_zero"].lhs == 0


def test_accounting_fallback_rows():
    g = octahedron()
    c = four_coloring(g)
    acc = verify_combinator_accounting(g, c, class_combinator(g, c))
    assert all(ch.holds for ch in acc)
    names = {ch.name for ch in acc}
    assert {"fallback_classes_dominating", "fallback_size"} <= names
    # the averaging rows only make sense when all four classes are in play
    assert "combined_size" not in names and "planar_size" not in names


def test_accounting_near_triangulation():
    g, _ = near_triangulation_from(random_triangulation(18, 21), 5)
    c = four_coloring(g)
    acc = verify_combinator_accounting(g, c, class_combinator(g, c))
    assert all(ch.holds for ch in acc)
    names = {ch.name for ch in acc}
    assert "near_bound" in names and "planar_bound" not in names


@pytest.mark.parametrize(
    "n,seed,row",
    [(20, 3, "x_holes_inner"), (20, 2, "x_holes_distinct"), (24, 1, "y_holes_outer")],
)
def test_accounting_catches_misplaced_holes(monkeypatch, n, seed, row):
    # Wrong hole darts must fail the placement row by name: an X hole read
    # on the outer face, two X vertices sharing one hole, a Y hole read on
    # an inner face.
    g = random_triangulation(n, seed)
    c = four_coloring(g)
    r = class_combinator(g, c)
    s = r.union_s
    walk = g.outer_face
    x = sorted(s - set(walk))
    assert x and (row != "x_holes_distinct" or len(x) > 1)
    assert row != "y_holes_outer" or s & set(walk)
    outer_dart = next(
        (a, b) for a, b in zip(walk, walk[1:] + walk[:1]) if a not in s and b not in s
    )
    real = domination.deleted_vertex_region_dart
    inner_dart = real(g, x[0])
    wrong = {
        "x_holes_inner": lambda v: outer_dart if v in x else real(g, v),
        "x_holes_distinct": lambda v: inner_dart,
        "y_holes_outer": lambda v: inner_dart,
    }[row]
    monkeypatch.setattr(domination, "deleted_vertex_region_dart", lambda g, v: wrong(v))
    with pytest.raises(InvariantBreach, match=row):
        verify_combinator_accounting(g, c, r)


def test_accounting_disconnected_h_carries_the_map(monkeypatch):
    g = random_triangulation(20, 2)
    c = four_coloring(g)
    r = class_combinator(g, c)
    two_points = PlaneGraph([[], []])
    monkeypatch.setattr(domination, "delete_vertices", lambda g, s: (two_points, {}))
    with pytest.raises(InvariantBreach, match="^H = G - S is disconnected\n") as exc:
        verify_combinator_accounting(g, c, r)
    text = str(exc.value).split("\n", 1)[1]
    assert text == f"{to_pgr(g)}\nS={sorted(r.union_s)}"
    assert parse_pgr(text.split("\nS=")[0]) == g


def _edge_outside(g, s):
    return next((u, v) for u, v in g.edges() if u not in s and v not in s)


def test_accounting_names_a_dependent_s():
    # the hole darts assume S is independent, so the row fails before
    # they are read instead of ending in a KeyError
    g = random_triangulation(20, 3)
    c = four_coloring(g)
    r = class_combinator(g, c)
    broken = dataclasses.replace(r, union_s=r.union_s | set(_edge_outside(g, r.union_s)))
    with pytest.raises(InvariantBreach, match="s_independent"):
        verify_combinator_accounting(g, c, broken)


def test_accounting_names_meeting_undominated_sets():
    g, _ = near_triangulation_from(random_triangulation(18, 21), 5)
    c = four_coloring(g)
    r = class_combinator(g, c)
    assert not r.used_fallback
    u, v = _edge_outside(g, set().union(*r.undominated))
    broken = dataclasses.replace(
        r, undominated=(r.undominated[0] | {u}, r.undominated[1] | {v}) + r.undominated[2:]
    )
    with pytest.raises(InvariantBreach, match="undominated_sets_apart") as exc:
        verify_combinator_accounting(g, c, broken)
    assert "odd_vertices_dominated" not in str(exc.value)  # a near triangulation


def test_accounting_names_an_undominated_odd_vertex():
    g = icosahedron()  # every U_i is empty and every degree is 5
    c = four_coloring(g)
    r = class_combinator(g, c)
    assert not r.used_fallback and not any(r.undominated)
    broken = dataclasses.replace(r, undominated=(frozenset({0}),) + r.undominated[1:])
    with pytest.raises(InvariantBreach, match="odd_vertices_dominated") as exc:
        verify_combinator_accounting(g, c, broken)
    assert "undominated_sets_apart" not in str(exc.value)


def test_accounting_needs_union_s():
    g = octahedron()
    bare = DominationResult(
        vertices=frozenset({0, 3}), size=2, method="exact_iota"
    )
    with pytest.raises(ValueError, match="union_s"):
        verify_combinator_accounting(g, four_coloring(g), bare)


def test_accounting_rejects_plane_graph():
    rot = [[1, 3], [2, 0], [3, 1], [0, 2]]
    g = PlaneGraph(rot, outer_dart=(0, 1))
    c = Coloring(4, (0, 1, 0, 1))
    r = class_combinator(g, c)
    with pytest.raises(ValueError, match="near triangulations"):
        verify_combinator_accounting(g, c, r)


def test_diamond_chain_iota():
    g = diamond_chain(2)
    assert g.n == 14
    assert exact_iota(g).size == 4


def test_k4_chain_gamma():
    for k in (2, 3):
        g, anchors = k4_chain(k)
        r = exact_gamma(g)
        assert r.size == k
        assert is_dominating(g, anchors)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 14), seed=st.integers(0, 10_000))
def test_combinator_vs_oracle_on_random(n, seed):
    g = random_triangulation(n, seed)
    c = four_coloring(g)
    r = class_combinator(g, c)
    assert is_independent(g, r.vertices) and is_dominating(g, r.vertices)
    assert 8 * r.size < 3 * n
    assert exact_iota(g).size <= r.size
    acc = verify_combinator_accounting(g, c, r)
    assert all(ch.holds for ch in acc)
