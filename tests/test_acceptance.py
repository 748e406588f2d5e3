"""Acceptance suite: one test per shipped criterion, named so that
`pytest -v tests/test_acceptance.py` prints one pass/fail line each.

Every test is runnable standalone.  The random/near corpus and the
plane-graph corpus are module-scoped fixtures shared by the criteria
that quantify over them.  Criterion 9 ends by pinning the icosahedron's
independent domination number at 2 (an antipodal pair), backed by
independence, domination and degree checks that do not go through the
oracle.
"""

import ast
import hashlib
from collections import Counter
import itertools
import time
from pathlib import Path

import pytest

from domtri.coloring import (
    class_sizes,
    four_coloring,
    is_proper,
    is_r_dynamic,
    missing_colors,
    rec_eulerian_six_coloring,
)
from domtri.domination import (
    class_combinator,
    exact_gamma,
    exact_iota,
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
    planar_three_tree,
    random_connected_plane,
    random_triangulation,
    recursive_eulerian,
    split_seed,
)
from domtri.harness import (
    audit_conjectures,
    emit,
    load_reports,
    odd_degree_analysis,
    parse_sweep_config,
    run_sweep,
)
from domtri.plane_graph import (
    Category,
    check_faces_inequality,
    classify,
    closed_neighborhood,
    delete_vertices,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEED = 101

# all-odd triangulations located once by rejection sampling over
# random_triangulation(n, seed); rebuilding from (n, seed) is instant
ALL_ODD_SEEDS = {
    8: (5, 100, 123, 159, 225),
    10: (239, 395, 409, 605, 1007),
    12: (1589, 1982, 2168, 2674, 2762),
    14: (6635, 7091, 7200, 8494, 11828),
}


@pytest.fixture(scope="module")
def corpus():
    """200 random triangulations (4 <= n <= 60), 100 near triangulations
    by vertex deletion, and the icosahedron (minimum degree 5), each
    with its 4-coloring and combinator result."""
    t0 = time.perf_counter()
    raw = []
    for i in range(200):
        n = 4 + (i % 57)
        seed = split_seed(CORPUS_SEED, 0, i)
        raw.append((f"random-{i}", random_triangulation(n, seed)))
    for i in range(100):
        n = 5 + (i % 56)
        seed = split_seed(CORPUS_SEED, 1, i)
        base = random_triangulation(n, seed)
        h, _ = near_triangulation_from(base, seed % n)
        raw.append((f"near-{i}", h))
    min5 = [("icosahedron", icosahedron())]  # min_degree5_sample's one map
    raw.extend(min5)

    instances = []
    for gid, g in raw:
        c = four_coloring(g)
        instances.append((gid, g, c, class_combinator(g, c)))
    return {
        "instances": instances,
        "n_random": 200,
        "n_near": 100,
        "n_min5": len(min5),
        "seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def plane_corpus():
    return [
        (f"plane-{i}", random_connected_plane(5 + (i % 30), split_seed(CORPUS_SEED, 3, i)))
        for i in range(100)
    ]


def brute_iota(g):
    """Independent reference oracle: plain subset enumeration."""
    vs = sorted(g.vertices())
    for size in range(1, g.n + 1):
        for comb in itertools.combinations(vs, size):
            s = frozenset(comb)
            if is_independent(g, s) and is_dominating(g, s):
                return size
    raise AssertionError("graph has no independent dominating set")


def test_criterion_01_diamond_chain_tightness():
    t0 = time.perf_counter()
    for k in (2, 3, 4):
        g = diamond_chain(k)
        assert g.n == 7 * k
        assert exact_iota(g).size == 2 * k
    assert time.perf_counter() - t0 < 60


def test_criterion_02_combinator_bounds(corpus):
    assert corpus["n_random"] >= 200
    assert corpus["n_near"] >= 100
    assert corpus["n_min5"] >= 1  # the icosahedron anchors the delta=5 case
    violations = []
    for gid, g, c, r in corpus["instances"]:
        cls = classify(g)
        n = g.n
        if cls.category is Category.PLANAR_TRIANGULATION:
            if not 8 * r.size < 3 * n:
                violations.append((gid, "3n/8"))
            if cls.min_degree == 5 and not 3 * r.size <= n:
                violations.append((gid, "n/3"))
        else:
            if not 12 * r.size <= 5 * n:
                violations.append((gid, "5n/12"))
    assert violations == []
    assert corpus["seconds"] < 120


def test_criterion_03_deletion_accounting(corpus):
    for gid, g, c, r in corpus["instances"]:
        acct = verify_combinator_accounting(g, c, r)
        rows = {ch.name: ch.holds for ch in acct}
        assert rows["interior_face_budget"], gid
        assert rows["y_at_most_half_outer"], gid
        if classify(g).category is Category.PLANAR_TRIANGULATION:
            assert rows["planar_y"], gid
            assert rows["planar_f4_strict"], gid
        if not r.used_fallback:
            # pairwise disjointness of each class's undominated set from
            # the closed neighborhoods of the others
            u = [undominated_by(g, c, i) for i in range(4)]
            for i in range(4):
                ni = closed_neighborhood(g, u[i])
                for j in range(4):
                    if i != j:
                        assert not ni & u[j], gid


def test_criterion_04_faces_inequality(corpus, plane_corpus):
    for gid, g, c, r in corpus["instances"]:
        h, _ = delete_vertices(g, r.union_s)
        rep = check_faces_inequality(h)
        assert rep.holds and rep.strengthened_holds, gid
    for gid, g in plane_corpus:
        rep = check_faces_inequality(g)
        assert rep.holds and rep.strengthened_holds, gid


def test_criterion_05_even_degree_family():
    for t in range(1, 9):
        for j in range(5):
            g, trace = recursive_eulerian(t, split_seed(CORPUS_SEED, 4, t, j))
            n = g.n
            gid = f"eulerian-t{t}-{j}"
            assert all(d % 2 == 0 for d in g.degrees()), gid
            v4 = {v for v in g.vertices() if g.degree(v) == 4}

            six = rec_eulerian_six_coloring(g, trace)
            assert is_proper(g, six), gid
            assert is_r_dynamic(g, six, 5), gid
            miss = {v: missing_colors(g, six, v) for v in v4}
            for u in v4:
                for w in g.neighbors(u):
                    if w in miss and u < w:
                        assert miss[u] != miss[w], gid

            r = class_combinator(g, six)
            assert 6 * r.size <= n + len(v4), gid
            if n >= 9:
                for v in v4:
                    inside = [u for u in g.neighbors(v) if u in v4]
                    assert len(inside) == 2, gid
                    assert g.has_edge(inside[0], inside[1]), gid
                assert 7 * len(v4) <= 6 * n - 12, gid
                assert 42 * r.size <= 13 * n - 12, gid


def test_criterion_06_stacked_classes():
    for i in range(100):
        n = 4 + (i % 37)
        g, _ = planar_three_tree(n, split_seed(CORPUS_SEED, 5, i))
        c = four_coloring(g)
        assert is_proper(g, c), i
        for k in range(4):
            assert is_dominating(g, c.class_members(k)), i
        assert 4 * min(class_sizes(c)) <= n, i
        if n <= 30:
            assert 4 * exact_iota(g).size <= n, i


def test_criterion_07_k4_chain_gamma():
    for k in (2, 3, 4, 5):
        g, _ = k4_chain(k)
        assert g.n == 4 * k
        assert exact_gamma(g).size == k


def test_criterion_08_oracle_soundness(corpus, plane_corpus):
    fixed = [("k4", k4()), ("octahedron", octahedron()), ("icosahedron", icosahedron())]
    everything = (
        fixed
        + [(gid, g) for gid, g, _, _ in corpus["instances"]]
        + plane_corpus
    )
    for gid, g in everything:
        if g.n <= 12:
            assert exact_iota(g).size == brute_iota(g), gid
        if g.n <= 24:
            gamma = exact_gamma(g).size
            assert gamma <= exact_iota(g).size, gid
            if classify(g).category is Category.NEAR_TRIANGULATION:
                assert 3 * gamma <= g.n, gid


def test_criterion_09_odd_degree_properties():
    instances = [("icosahedron", icosahedron())]
    for n, seeds in sorted(ALL_ODD_SEEDS.items()):
        for s in seeds:
            g = random_triangulation(n, s)
            assert all(d % 2 for d in g.degrees()), (n, s)
            instances.append((f"all_odd-{n}-{s}", g))
    assert len(instances) == 21

    violations = []
    for gid, g in instances:
        c = four_coloring(g)
        for k in range(4):
            assert is_dominating(g, c.class_members(k)), gid
        res = class_combinator(g, c)
        rec = odd_degree_analysis(g, c, combinator_result=res)
        assert rec.alpha == 1, gid
        assert rec.non_dominating_classes == 0, gid
        # the combinator returns an independent dominating set, so the
        # minimum one can be no larger
        iota = exact_iota(g).size
        assert iota <= res.size, gid
        assert iota <= rec.bound, gid
        if res.size > rec.bound:
            violations.append(gid)
    assert violations == []

    # The icosahedron's minimum independent dominating set has size 2.
    # No single vertex dominates: the graph is 5-regular on 12 vertices,
    # so a closed neighborhood covers only 6.  An antipodal pair such as
    # {0, 9} is non-adjacent and its two closed neighborhoods cover all
    # 12 vertices.  The checks below establish both bounds on the
    # returned set without trusting the oracle's own size.
    ico = icosahedron()
    r = exact_iota(ico)
    assert len(r.vertices) == r.size
    assert is_independent(ico, r.vertices)
    assert is_dominating(ico, r.vertices)
    assert max(ico.degrees()) + 1 < ico.n
    assert r.size == 2


@pytest.fixture(scope="module")
def full_sweeps(tmp_path_factory):
    """The report files of two full.cfg sweeps, each in its own directory."""
    cfg = parse_sweep_config((ROOT / "configs" / "full.cfg").read_text())
    tmp = tmp_path_factory.mktemp("full")
    return [emit(run_sweep(cfg), tmp / d / "sweep", include_timings=cfg.timings) for d in "ab"]


def test_criterion_10_deterministic_reports(full_sweeps):
    first, second = full_sweeps
    assert [p.name for p in first] == [p.name for p in second]
    for pa, pb in zip(first, second):
        assert pa.read_bytes() == pb.read_bytes()
    # the seed-1 full.cfg report; perfbench/pins.json pins the same digest
    jsonl = next(p for p in first if p.suffix == ".jsonl")
    assert hashlib.sha256(jsonl.read_bytes()).hexdigest() == (
        "26dfe2ca9d340b0867e31dc5b3b1368bf7ee26633acf439a390a1950ba14f5c2"
    )
    # and the audit of that report, byte for byte
    assert audit_conjectures(load_reports(jsonl))[0] == (
        "reports audited: 233\n"
        "conjecture gamma <= n/4: 87 checked, 4 small-n exceedances "
        "(annotation only; the conjecture is asymptotic)\n"
        "  note octahedron (n=6): gamma=2 > 3/2\n"
        "  note eulerian-t1-0 (n=6): gamma=2 > 3/2\n"
        "  note eulerian-t1-1 (n=6): gamma=2 > 3/2\n"
        "  note eulerian-t1-2 (n=6): gamma=2 > 3/2\n"
        "conjecture iota <= n/3: 124 checked, 0 counterexample candidates\n"
        "gamma = n/4 tight instances: 19\n"
        "iota = 2n/7 tight instances: 2\n"
    )


# Rows per name in the seed-1 full.cfg report: a name may gain instances,
# never lose them, so a change that stops a check from running shows here.
COVERAGE_FLOORS = {
    "all_odd_classes_dominating": 11,
    "alpha_combinator_bound": 170,
    "combinator_accounting": 210,
    "combinator_min5_n3": 2,
    "combinator_near_5n12": 210,
    "combinator_planar_3n8": 170,
    "conjecture_gamma_n4": 87,
    "conjecture_iota_n3": 124,
    "deg4_disjoint_triangles": 21,
    "deg4_seven_bound": 21,
    "degrees_all_even": 24,
    "degrees_all_odd": 4,
    "diamond_iota_2n7": 2,
    "diamond_witness_ids": 2,
    "edge_count_3n_minus_6": 170,
    "eulerian_13n42": 21,
    "eulerian_class_bound": 24,
    "eulerian_iota_13n42": 21,
    "face_count_2n_minus_4": 170,
    "faces_inequality": 233,
    "faces_inequality_strengthened": 233,
    "gamma_le_iota": 115,
    "gamma_near_n3": 101,
    "iota_le_combinator": 147,
    "k4_chain_gamma_n4": 4,
    "min_degree_is_5": 1,
    "six_coloring_5dynamic": 24,
    "six_coloring_distinct_missing": 24,
    "six_coloring_missing_shape": 24,
    "six_coloring_proper": 24,
    "stacked_classes_dominating": 40,
    "stacked_min_class_n4": 40,
    "three_tree_iota_n4": 30,
    "vertex_link_dichotomy": 210,
}

# verify_combinator_accounting's rows: a sweep checks them all but reports
# them as the one `combinator_accounting` row.
ACCOUNTING_ONLY = {
    "combined_size", "f4_plus_outer", "fallback_classes_dominating", "fallback_size",
    "interior_face_budget", "min5_bound", "min5_f4_zero", "min5_s", "near_bound",
    "odd_vertices_dominated", "planar_bound", "planar_f4", "planar_f4_strict",
    "planar_size", "planar_three_s", "planar_y", "s_independent", "three_s",
    "undominated_sets_apart", "weighted_deletion_budget", "x_holes_distinct",
    "x_holes_even_degree", "x_holes_inner", "x_in_even_inner_faces",
    "y_at_most_half_outer", "y_holes_outer",
}


def row_names_in_source() -> set[str]:
    """Every literal row name that src/domtri passes to ctx.rec or BoundRecord."""
    names = set()
    for path in (ROOT / "src" / "domtri").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            f, first = node.func, node.args[0]
            rec = isinstance(f, ast.Attribute) and f.attr == "rec" and ast.unparse(f.value) == "ctx"
            row = isinstance(f, ast.Name) and f.id == "BoundRecord"
            if (rec or row) and isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.add(first.value)
    return names


def test_every_row_name_meets_its_coverage_floor(full_sweeps):
    assert row_names_in_source() == COVERAGE_FLOORS.keys() | ACCOUNTING_ONLY
    jsonl = next(p for p in full_sweeps[0] if p.suffix == ".jsonl")
    counts = Counter(r.name for rep in load_reports(jsonl) for r in rep.records)
    short = {k: (counts[k], floor) for k, floor in COVERAGE_FLOORS.items() if counts[k] < floor}
    assert short == {}
    assert ACCOUNTING_ONLY.isdisjoint(counts)
