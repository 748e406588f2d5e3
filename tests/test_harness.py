import dataclasses
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from domtri import coloring, domination, harness
from domtri.coloring import Coloring, four_coloring
from domtri.domination import BoundRecord, class_combinator, exact_iota
from domtri.generators import (
    icosahedron,
    k4,
    near_triangulation_from,
    octahedron,
    random_triangulation,
    replay,
)
from domtri.harness import (
    BoundReport,
    FAMILIES,
    audit_conjectures,
    emit,
    load_reports,
    odd_degree_analysis,
    parse_sweep_config,
    render_table,
    run_sweep,
)
from domtri.plane_graph import InvariantBreach, to_pgr

ROOT = Path(__file__).resolve().parent.parent

TINY_CONFIG = """\
# desk-scale smoke corpus
seed = 7
families = k4, octahedron, random, eulerian
random.n = 6..10
random.count = 4
eulerian.t = 1,2
eulerian.seeds = 2
"""


def _report(records, errors=(), graph_id="g", n=6):
    return BoundReport(
        graph_id=graph_id,
        family="random",
        n=n,
        seed=0,
        category="planar_triangulation",
        min_degree=3,
        all_degrees_odd=False,
        all_degrees_even=False,
        records=tuple(records),
        errors=tuple(errors),
    )


def test_bound_record_ops():
    assert BoundRecord("a", Fraction(1), Fraction(1)).holds
    assert not BoundRecord("a", Fraction(1), Fraction(1), op="<").holds
    assert BoundRecord("a", Fraction(2, 3), Fraction(2, 3), op="==").holds
    with pytest.raises(ValueError, match="comparison"):
        BoundRecord("a", Fraction(1), Fraction(1), op=">=")
    with pytest.raises(ValueError, match="unknown level 'bounds'"):
        BoundRecord("a", Fraction(1), Fraction(1), level="bounds")


def test_report_holds_ignores_conjecture_rows():
    bad_conj = BoundRecord("conjecture_gamma_n4", Fraction(2), Fraction(3, 2))
    assert not bad_conj.holds
    rep = _report([dataclasses.replace(bad_conj, level="conjecture")])
    assert rep.holds
    rep = _report([dataclasses.replace(bad_conj, level="finding")])
    assert rep.holds
    assert not _report([bad_conj]).holds
    assert not _report([dataclasses.replace(bad_conj, level="invariant")]).holds
    assert not _report([], errors=("build: boom",)).holds


def test_report_json_round_trip():
    rec = BoundRecord("near_bound", Fraction(5), Fraction(25, 2), op="<")
    rep = dataclasses.replace(_report([rec]), runtime_ms=3.25)
    back = BoundReport.from_json(rep.to_json())
    # timings stay out of the serialized form unless asked for
    assert back == dataclasses.replace(rep, runtime_ms=None)
    assert back.records[0].lhs == Fraction(5)
    assert back.records[0].rhs == Fraction(25, 2)
    with_times = BoundReport.from_json(rep.to_json(include_timings=True))
    assert with_times.runtime_ms == 3.25


def test_report_numbers_take_only_the_written_forms():
    line = _report([BoundRecord("a", Fraction(-3, 4), Fraction(2))]).to_json()
    assert '"lhs": "-3/4"' in line
    assert BoundReport.from_json(line).records[0].lhs == Fraction(-3, 4)
    # forms Fraction() would take, one of them costly, and non-strings
    for bad in ('"1e4000000"', '"1.5"', '" 1"', '"+1"', '"1/-2"', '"1_0"', "2", "null"):
        with pytest.raises(ValueError, match="is not of the form p or p/q"):
            BoundReport.from_json(line.replace('"-3/4"', bad))


def test_parse_config_defaults():
    cfg = parse_sweep_config("families = k4\n")
    assert cfg.seed == 1
    assert cfg.families == ("k4",)
    assert cfg.iota_max_n == 35 and cfg.gamma_max_n == 24
    assert not cfg.timings


def test_parse_config_values_and_ranges():
    cfg = parse_sweep_config(TINY_CONFIG)
    assert cfg.seed == 7
    assert cfg.families == ("k4", "octahedron", "random", "eulerian")
    assert cfg.get_ints("random.n", ()) == (6, 7, 8, 9, 10)
    assert cfg.get_ints("eulerian.t", ()) == (1, 2)
    assert cfg.get_int("eulerian.seeds", 5) == 2
    assert cfg.get_ints("mixed", (0,)) == (0,)
    cfg = parse_sweep_config("families = k4\nrandom.n = 1, 3..5\n")
    assert cfg.get_ints("random.n", ()) == (1, 3, 4, 5)


def test_parse_config_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        parse_sweep_config("seed = 1\nseed = 2\n")
    with pytest.raises(ValueError, match="unknown families"):
        parse_sweep_config("families = k4, heptagon\n")
    with pytest.raises(ValueError, match=r"families listed twice: \['random'\]"):
        parse_sweep_config("families = random, k4, random\n")
    with pytest.raises(ValueError, match="unknown key 'checks'"):
        parse_sweep_config("families = k4\nchecks = structure, vibes\n")
    with pytest.raises(ValueError, match="timings"):
        parse_sweep_config("families = k4\ntimings = maybe\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_sweep_config("families\n")
    with pytest.raises(ValueError, match="unknown key 'random.cout'"):
        parse_sweep_config("families = random\nrandom.cout = 3\n")
    with pytest.raises(ValueError, match="unknown key 'x'"):
        parse_sweep_config("families = k4\nx = 1\n")
    with pytest.raises(ValueError, match="unknown key 'k4.n'"):
        parse_sweep_config("families = k4\nk4.n = 5\n")
    with pytest.raises(ValueError, match="random.count"):
        parse_sweep_config("families = random\nrandom.count = abc\n")
    with pytest.raises(ValueError, match="all_odd.instances"):
        parse_sweep_config("families = all_odd\nall_odd.instances = 8\n")
    with pytest.raises(ValueError, match="random.n"):
        parse_sweep_config("families = random\nrandom.n = 9..\n")
    with pytest.raises(ValueError, match="near.n: no integers"):
        parse_sweep_config("families = near\nnear.n = 6..5\n")
    with pytest.raises(ValueError, match="near.n: no integers in range '6..5'"):
        parse_sweep_config("families = near\nnear.n = 4, 6..5\n")
    with pytest.raises(ValueError, match="^seed: 'abc' is not an integer$"):
        parse_sweep_config("seed = abc\nfamilies = k4\n")
    for key in ("random.count", "iota_max_n", "gamma_max_n"):
        with pytest.raises(ValueError, match=f"^{key}: must be >= 0, got -3"):
            parse_sweep_config(f"families = random\n{key} = -3\n")
    with pytest.raises(ValueError, match="^eulerian.seeds: must be >= 0"):
        parse_sweep_config("families = eulerian\neulerian.seeds = -1\n")
    with pytest.raises(ValueError, match="unknown key 'min_degree5.budget'"):
        parse_sweep_config("families = min_degree5\nmin_degree5.budget = -1\n")
    zero = parse_sweep_config("families = random\nrandom.count = 0\n")
    assert zero.get_int("random.count", 200) == 0
    signed = parse_sweep_config("families = random\nrandom.n = +5, 1_0, 6.. 7\n")
    assert signed.get_ints("random.n", ()) == (5, 10, 6, 7)  # as int() reads them


@pytest.mark.parametrize(
    "line,error",
    [
        ("seed = 1.5", "seed: '1.5' is not an integer"),
        ("random.count = x", "random.count: 'x' is not an integer"),
        ("random.n = 4..x", "random.n: 'x' is not an integer"),
        ("all_odd.instances = 5:x", "all_odd.instances: 'x' is not an integer"),
        ("iota_max_n = 1e3", "iota_max_n: '1e3' is not an integer"),
    ],
)
def test_parse_config_names_a_non_integer(line, error):
    # the message names the key and the text, not Python's int() literal
    with pytest.raises(ValueError) as exc:
        parse_sweep_config("families = random, all_odd\n" + line + "\n")
    assert str(exc.value) == error
    assert "invalid literal" not in str(exc.value)


def test_parse_config_names_an_over_long_integer():
    # int() refuses more than sys.get_int_max_str_digits() digits (4,300 by
    # default); the message names the digit count, not the whole text.
    ones = "1" * 5000
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(ones):
        # a Python without the digit limit (before 3.10.7) reads it
        assert parse_sweep_config(f"seed = {ones}\nfamilies = k4\n").seed == int(ones)
        return
    cases = [
        (f"seed = {ones}", "seed: '1111111111…' has 5000 digits, too many to read"),
        (
            f"random.n = 4..-{ones[1:]}_1",
            "random.n: '-111111111…' has 5000 digits, too many to read",
        ),
    ]
    for line, error in cases:
        with pytest.raises(ValueError) as exc:
            parse_sweep_config("families = random\n" + line + "\n")
        assert str(exc.value) == error


def test_parse_config_caps_a_long_non_integer():
    # a malformed value is echoed up to 40 characters, then named by its
    # length; short ones keep their whole text
    head = "1" * 40
    cases = [
        (f"seed = {'1' * 5000}x", f"seed: '{head}…' (5001 characters) is not an integer"),
        (f"random.n = 4..{'1' * 40}x", f"random.n: '{head}…' (41 characters) is not an integer"),
        (f"seed = {'1' * 39}x", f"seed: '{'1' * 39}x' is not an integer"),
    ]
    for line, error in cases:
        with pytest.raises(ValueError) as exc:
            parse_sweep_config("families = random\n" + line + "\n")
        assert str(exc.value) == error


def test_timings_names_every_spelling():
    with pytest.raises(ValueError) as exc:
        parse_sweep_config("families = k4\ntimings = maybe\n")
    assert str(exc.value) == "timings must be on/off/yes/no/true/false, got 'maybe'"
    for word, on in (("on", 1), ("OFF", 0), ("yes", 1), ("no", 0), ("True", 1), ("false", 0)):
        assert parse_sweep_config(f"families = k4\ntimings = {word}\n").timings is bool(on)


@pytest.mark.parametrize(
    "line,error",
    [
        ("diamond.k = 2, 2", r"^diamond.k: sizes listed twice: \[2\]"),
        ("eulerian.t = 1, 1", r"^eulerian.t: sizes listed twice: \[1\]"),
        ("min_degree5.n = 12, 12..14", r"^min_degree5.n: sizes listed twice: \[12\]"),
        ("all_odd.instances = 8:5, 8:5", r"^all_odd.instances: pairs listed twice: \[\(8, 5\)\]"),
    ],
)
def test_parse_config_rejects_repeated_graph_ids(line, error):
    # each of these would give two reports one graph_id
    fams = "families = diamond, eulerian, min_degree5, all_odd, random\n"
    with pytest.raises(ValueError, match=error):
        parse_sweep_config(fams + line + "\n")
    # count families index their graphs, so their sizes may repeat
    cfg = parse_sweep_config(fams + "random.n = 8, 8\nall_odd.instances = 8:5, 8:6\n")
    assert cfg.get_ints("random.n", ()) == (8, 8)


def test_config_serialize_round_trip():
    full = parse_sweep_config((ROOT / "configs" / "full.cfg").read_text())
    # the benchmark's sweep writes full.cfg back out with these two replaced
    full = dataclasses.replace(full, seed=5, timings=True)
    for cfg in (parse_sweep_config(TINY_CONFIG), full):
        again = parse_sweep_config(cfg.serialize())
        assert again == cfg


def test_readme_sweep_config_example_parses():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Sweep configs\n", 1)[1]
    example = section.split("```\n", 2)[1]
    cfg = parse_sweep_config(example)
    assert cfg.families and cfg.out is not None


def test_oracle_caps_switch_every_oracle_row():
    text = (
        "families = octahedron, three_tree, diamond, k4_chain\n"
        "three_tree.n = 8\nthree_tree.count = 1\ndiamond.k = 2\nk4_chain.k = 2\n"
    )
    oracle_rows = {
        "iota_le_combinator", "conjecture_iota_n3", "gamma_le_iota", "gamma_near_n3",
        "conjecture_gamma_n4", "three_tree_iota_n4", "diamond_iota_2n7",
        "k4_chain_gamma_n4",
    }
    for cap, expected in ((0, set()), (14, oracle_rows)):
        caps = f"iota_max_n = {cap}\ngamma_max_n = {cap}\n"
        reports = run_sweep(parse_sweep_config(text + caps))
        assert len(reports) == 4 and all(rep.holds for rep in reports)
        names = {r.name for rep in reports for r in rep.records}
        assert {x for x in names if "iota" in x or "gamma" in x} == expected


def test_run_sweep_deterministic(tmp_path):
    cfg = parse_sweep_config(TINY_CONFIG)
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert len(first) == 1 + 1 + 4 + 4
    assert all(rep.holds for rep in first)
    a = emit(first, tmp_path / "a")
    b = emit(second, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_smallest_stacked_and_eulerian_builds_hold():
    # planar_three_tree(3, s) and recursive_eulerian(0, s) are the bare
    # triangle, outside the n/4 and (n+|V4|)/6 theorems: no such row is kept
    cfg = parse_sweep_config(
        "families = three_tree, eulerian\n"
        "three_tree.n = 3..5\nthree_tree.count = 3\n"
        "eulerian.t = 0..1\neulerian.seeds = 1\n"
    )
    reports = run_sweep(cfg)
    assert [(rep.graph_id, rep.n) for rep in reports] == [
        ("three_tree-0", 3), ("three_tree-1", 4), ("three_tree-2", 5),
        ("eulerian-t0-0", 3), ("eulerian-t1-0", 6),
    ]
    assert all(rep.holds for rep in reports)
    names = {rep.graph_id: {r.name for r in rep.records} for rep in reports}
    stacked = {"stacked_classes_dominating", "three_tree_iota_n4"}
    assert not names["three_tree-0"] & stacked
    assert stacked <= names["three_tree-1"]
    assert "eulerian_class_bound" not in names["eulerian-t0-0"]
    assert "eulerian_class_bound" in names["eulerian-t1-0"]


def test_coloring_limit_is_a_report_error(monkeypatch):
    monkeypatch.setattr(coloring, "_SEARCH_NODES", 0)
    monkeypatch.setattr(coloring, "_kempe_free", lambda *args: None)
    (rep,) = run_sweep(parse_sweep_config("families = octahedron\n"))
    assert not rep.holds
    assert [e.split(" at ")[0] for e in rep.errors] == [
        "combinator: no Kempe swap frees a class"
    ]


@pytest.mark.parametrize(
    "oracle, gone, kept",
    [
        (
            "exact_iota",
            {"iota_le_combinator", "conjecture_iota_n3", "gamma_le_iota"},
            {"gamma_near_n3", "conjecture_gamma_n4"},
        ),
        (
            "exact_gamma",
            {"gamma_le_iota", "gamma_near_n3", "conjecture_gamma_n4"},
            {"iota_le_combinator", "conjecture_iota_n3"},
        ),
    ],
    ids=["iota", "gamma"],
)
def test_oracle_out_of_budget_drops_its_rows(monkeypatch, oracle, gone, kept):
    calls = []

    def out_of_budget(g, limit):
        calls.append(g.n)
        raise domination.OracleLimitExceeded("stub")

    monkeypatch.setattr(harness, oracle, out_of_budget)
    (rep,) = run_sweep(parse_sweep_config("families = octahedron\n"))
    assert calls == [6]
    assert rep.holds and rep.errors == ()
    names = {r.name for r in rep.records}
    assert not names & gone and kept <= names


def test_eulerian_checks_check_properness_a_fixed_number_of_times(monkeypatch):
    passes = []

    def counted(*args):
        passes.append(1)
        return original(*args)

    original = coloring.is_proper
    # domination checks through coloring._require_proper
    for module in (coloring, harness):
        monkeypatch.setattr(module, "is_proper", counted)
    cfg = "families = eulerian\neulerian.t = 100\neulerian.seeds = 1\n"
    (rep,) = run_sweep(parse_sweep_config(cfg))
    assert rep.n == 303 and rep.holds
    # four_coloring and class_combinator on the 4-coloring; the
    # six_coloring_proper row, is_r_dynamic and class_combinator on the
    # 6-coloring.  Checking it per missing-color read made 500.
    assert len(passes) == 5


def test_link_breach_is_a_sweep_error_row(monkeypatch, tmp_path):
    def breach(g, v):
        raise InvariantBreach(f"vertex {v}: broken link\n{to_pgr(g)}")

    monkeypatch.setattr(harness, "neighborhood_structure", breach)
    (rep,) = run_sweep(parse_sweep_config("families = octahedron\n"))
    assert not rep.holds
    assert "vertex_link_dichotomy" not in {r.name for r in rep.records}
    assert rep.errors == (f"vertex-link: vertex 0: broken link\n{to_pgr(octahedron())}",)
    tsv, _ = emit([rep], tmp_path / "r")
    assert "\terror\tvertex-link: vertex 0: broken link\t-\t-\tNO\t-\n" in tsv.read_text()


def test_improper_six_coloring_is_an_evaluate_error(monkeypatch):
    def one_class(g, trace):
        return Coloring(6, (0,) * g.n)

    monkeypatch.setattr(harness, "rec_eulerian_six_coloring", one_class)
    cfg = "families = eulerian\neulerian.t = 3\neulerian.seeds = 1\n"
    (rep,) = run_sweep(parse_sweep_config(cfg))
    assert rep.records[-1].name == "six_coloring_proper"
    assert rep.records[-1].lhs == 1
    assert rep.errors == ("evaluate: coloring is not proper",)


def test_six_coloring_rows_count_the_missing_classes(monkeypatch):
    # A proper 3-coloring of the octahedron (antipodes 0-3, 2-4 and 1-5
    # share a class) leaves every vertex three missing classes: all 6
    # degree-4 vertices have the wrong shape and all 12 edges join equal
    # missing sets.
    def three_classes(g, trace):
        return Coloring(6, (0, 1, 2, 0, 2, 1))

    monkeypatch.setattr(harness, "rec_eulerian_six_coloring", three_classes)
    cfg = "families = eulerian\neulerian.t = 1\neulerian.seeds = 1\n"
    (rep,) = run_sweep(parse_sweep_config(cfg))
    rows = {r.name: r for r in rep.records}
    assert rows["six_coloring_proper"].holds
    for name, lhs in (("six_coloring_distinct_missing", 12), ("six_coloring_missing_shape", 6)):
        assert (rows[name].lhs, rows[name].holds) == (lhs, False), name
    assert not rep.holds and not rep.errors


def test_six_combinator_breach_is_a_sweep_error_row(monkeypatch, tmp_path):
    def breach_on_six(g, c):
        if c.k == 6:
            raise InvariantBreach(f"class 0 union S_0 is not independent dominating\n{to_pgr(g)}")
        return class_combinator(g, c)

    monkeypatch.setattr(harness, "class_combinator", breach_on_six)
    cfg = "families = eulerian\neulerian.t = 2\neulerian.seeds = 1\n"
    (rep,) = run_sweep(parse_sweep_config(cfg))
    assert not rep.holds
    assert "eulerian_class_bound" not in {r.name for r in rep.records}
    assert "combinator_near_5n12" in {r.name for r in rep.records}  # the 4-coloring's
    (err,) = rep.errors
    assert err.startswith("six-combinator: class 0 union S_0 is not independent dominating\n")
    tsv, _ = emit([rep], tmp_path / "r")
    line = "\terror\tsix-combinator: class 0 union S_0 is not independent dominating\t-\t-\tNO\t-\n"
    assert line in tsv.read_text()


def test_build_failure_is_a_report_error():
    (rep,) = run_sweep(parse_sweep_config("families = diamond\ndiamond.k = 1\n"))
    assert (rep.n, rep.category, rep.records) == (0, "invalid", ())
    assert rep.errors == ("build: diamond chain needs k >= 2, got 1",)
    assert not rep.holds


def test_evaluate_failure_keeps_earlier_rows(monkeypatch):
    def boom(*args):
        raise RuntimeError("oracle exploded")

    monkeypatch.setattr(harness, "exact_iota", boom)
    (rep,) = run_sweep(parse_sweep_config("families = k4\n"))
    assert (rep.n, rep.category) == (4, "planar_triangulation")
    assert rep.errors == ("evaluate: oracle exploded",)
    assert not rep.holds
    names = [r.name for r in rep.records]
    assert "combinator_accounting" in names and "iota_le_combinator" not in names


def test_run_sweep_all_odd_instances():
    cfg = parse_sweep_config(
        "families = all_odd\nall_odd.instances = 8:5, 10:239\n"
    )
    reports = run_sweep(cfg)
    assert [rep.n for rep in reports] == [8, 10]
    assert all(rep.all_degrees_odd for rep in reports)
    assert all(rep.holds for rep in reports)
    names = {r.name for r in reports[0].records}
    assert "degrees_all_odd" in names
    assert "all_odd_classes_dominating" in names


def _breaking_combinator(monkeypatch, **fields):
    """Make the sweep's combinator return its real result with `fields`
    replaced, each computed from the graph and that result."""

    def broken(g, c):
        r = class_combinator(g, c)
        return dataclasses.replace(r, **{k: f(g, r) for k, f in fields.items()})

    monkeypatch.setattr(harness, "class_combinator", broken)


def test_accounting_breach_is_a_report_error(monkeypatch):
    _breaking_combinator(monkeypatch, union_s=lambda g, r: frozenset(g.edges()[0]))
    (rep,) = run_sweep(parse_sweep_config("families = k4\n"))
    assert not rep.holds
    (err,) = rep.errors
    assert err.startswith("accounting: accounting failed: [BoundRecord(name='s_independent'")
    assert "combinator_accounting" not in {r.name for r in rep.records}


def test_all_odd_row_fails_a_non_dominating_class(monkeypatch):
    g = random_triangulation(8, 5)
    c = four_coloring(g)
    r = class_combinator(g, c)
    missed = dataclasses.replace(r, undominated=(frozenset({0}),) + r.undominated[1:])
    rec = odd_degree_analysis(g, c, combinator_result=missed)  # measures, does not raise
    assert (rec.alpha, rec.non_dominating_classes) == (1, 1)

    _breaking_combinator(
        monkeypatch, undominated=lambda g, r: (frozenset({0}),) + r.undominated[1:]
    )
    (rep,) = run_sweep(parse_sweep_config("families = all_odd\nall_odd.instances = 8:5\n"))
    assert not rep.holds
    (row,) = [ln for ln in render_table([rep]).splitlines() if "all_odd_classes" in ln]
    assert "\t1\t<=\t0\tNO\t" in row
    # the same U_0 leaves an odd-degree vertex undominated
    assert any("odd_vertices_dominated" in e for e in rep.errors)


def test_emit_and_load(tmp_path):
    reports = run_sweep(parse_sweep_config("families = k4, octahedron\n"))
    tsv, jsonl = emit(reports, tmp_path / "out")
    assert tsv.suffix == ".tsv" and jsonl.suffix == ".jsonl"
    assert load_reports(jsonl) == [
        dataclasses.replace(rep, runtime_ms=None) for rep in reports
    ]
    table = tsv.read_text()
    header, first_row = table.splitlines()[:2]
    assert header.split("\t") == [
        "family", "graph_id", "n", "seed", "bound",
        "lhs", "op", "rhs", "holds", "runtime_ms",
    ]
    assert first_row.endswith("\t-")  # timings off by default
    # the octahedron trips the small-n gamma conjecture; that renders NO
    # in the table but is not a failure
    no_rows = [ln for ln in table.splitlines() if "\tNO\t" in ln]
    assert no_rows and all("conjecture_" in ln for ln in no_rows)


def test_render_table_marks_failures():
    rep = _report([BoundRecord("near_bound", Fraction(9), Fraction(5, 2), op="<")])
    assert "\tNO\t" in render_table([rep])
    err = _report([], errors=("build: boom",))
    assert "error\tbuild: boom" in render_table([err])


def test_odd_degree_analysis_icosahedron():
    g = icosahedron()
    c = four_coloring(g)
    res = class_combinator(g, c)
    rec = odd_degree_analysis(g, c, combinator_result=res)
    assert rec.alpha == 1  # all 12 degrees are odd
    assert rec.bound == Fraction(3)
    assert res.size == 3 <= rec.bound
    assert rec.non_dominating_classes == 0
    iota = exact_iota(g).size
    assert iota == 2 and iota <= rec.bound


def test_odd_degree_analysis_mixed_degrees():
    g = random_triangulation(14, 3)
    c = four_coloring(g)
    rec = odd_degree_analysis(g, c, combinator_result=class_combinator(g, c))
    assert 0 <= rec.alpha < 1
    assert rec.bound == (2 - rec.alpha) * Fraction(g.n, 4)


def test_odd_degree_analysis_input_checks():
    near, _ = near_triangulation_from(random_triangulation(10, 1), 3)
    c = four_coloring(near)
    with pytest.raises(ValueError, match="triangulation and 4 classes"):
        odd_degree_analysis(near, c, combinator_result=class_combinator(near, c))
    c = Coloring(6, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="triangulation and 4 classes"):
        odd_degree_analysis(k4(), c, combinator_result=class_combinator(k4(), c))
    with pytest.raises(ValueError, match="U_i"):
        odd_degree_analysis(k4(), four_coloring(k4()), combinator_result=exact_iota(k4()))


def _audit_fixture():
    gamma_hit = BoundRecord(
        "conjecture_gamma_n4", Fraction(2), Fraction(3, 2), level="conjecture"
    )
    gamma_tight = BoundRecord(
        "conjecture_gamma_n4", Fraction(3), Fraction(3), level="conjecture"
    )
    iota_ok = BoundRecord(
        "conjecture_iota_n3", Fraction(2), Fraction(8, 3), level="conjecture"
    )
    diamond = BoundRecord("diamond_iota_2n7", Fraction(4), Fraction(4), op="==")
    return [
        _report([gamma_hit, iota_ok], graph_id="oct"),
        _report([gamma_tight, diamond], graph_id="d2", n=14),
    ]


def test_audit_annotates_gamma_hits():
    text, clean = audit_conjectures(_audit_fixture())
    assert clean  # gamma exceedances never dirty the audit
    assert text == (
        "reports audited: 2\n"
        "conjecture gamma <= n/4: 2 checked, 1 small-n exceedances "
        "(annotation only; the conjecture is asymptotic)\n"
        "  note oct (n=6): gamma=2 > 3/2\n"
        "conjecture iota <= n/3: 1 checked, 0 counterexample candidates\n"
        "gamma = n/4 tight instances: 1\n"
        "iota = 2n/7 tight instances: 1\n"
    )


def test_audit_counts_tight_rows_by_name():
    k4_chain = BoundRecord("k4_chain_gamma_n4", Fraction(3), Fraction(3), op="==")
    k4_chain_off = BoundRecord("k4_chain_gamma_n4", Fraction(4), Fraction(3), op="==")
    gamma_loose = BoundRecord(
        "conjecture_gamma_n4", Fraction(2), Fraction(3), level="conjecture"
    )
    reports = _audit_fixture() + [_report([k4_chain, gamma_loose]), _report([k4_chain_off])]
    text, clean = audit_conjectures(reports)
    assert clean
    lines = text.splitlines()
    assert lines[1].startswith("conjecture gamma <= n/4: 3 checked, 1 small-n exceedances")
    # the fixture's tight conjecture row plus the one k4_chain row that holds
    assert lines[-2:] == [
        "gamma = n/4 tight instances: 2",
        "iota = 2n/7 tight instances: 1",
    ]


def test_audit_flags_iota_candidates():
    reports = _audit_fixture()
    reports.append(
        _report(
            [
                BoundRecord(
                    "conjecture_iota_n3",
                    Fraction(5),
                    Fraction(13, 3),
                    level="conjecture",
                )
            ],
            graph_id="suspect",
            n=13,
        )
    )
    text, clean = audit_conjectures(reports)
    assert not clean
    assert text == (
        "reports audited: 3\n"
        "conjecture gamma <= n/4: 2 checked, 1 small-n exceedances "
        "(annotation only; the conjecture is asymptotic)\n"
        "  note oct (n=6): gamma=2 > 3/2\n"
        "conjecture iota <= n/3: 2 checked, 1 counterexample candidates\n"
        "  CANDIDATE suspect (n=13): iota=5 > 13/3\n"
        "gamma = n/4 tight instances: 1\n"
        "iota = 2n/7 tight instances: 1\n"
    )


_SEEDS = (1, 2, 7)
# (family, seed, params) over every family with n <= 30
_FAMILY_GRID = (
    [("k4", 0, {}), ("octahedron", 0, {}), ("icosahedron", 0, {})]
    + [("random", s, {"n": n}) for n in (4, 11, 30) for s in _SEEDS]
    + [("near", s, {"n": n}) for n in (5, 12, 30) for s in _SEEDS]
    + [("three_tree", s, {"n": n}) for n in (4, 13, 30) for s in _SEEDS]
    + [("eulerian", s, {"t": t}) for t in (1, 2, 3) for s in _SEEDS]
    + [("diamond", 0, {"k": k}) for k in (2, 3, 4)]
    + [("k4_chain", 0, {"k": k}) for k in (2, 5, 7)]
    + [
        ("min_degree5", s, {"n": n})
        for n, s in ((12, 1), (12, 2), (12, 7), (14, 1))
    ]
    + [("all_odd", s, {"n": n}) for n, s in ((8, 5), (10, 239), (12, 1589))]
    + [("plane", s, {"n": n}) for n in (5, 13, 30) for s in _SEEDS]
)


def test_family_builders_reproduce_generator_outputs():
    # The digest was taken from direct generator calls (random_triangulation,
    # near_triangulation_from(random_triangulation(n, s), s % n), ...) over
    # the same grid; a None graph counts as the line "none".
    assert set(FAMILIES) == {name for name, _, _ in _FAMILY_GRID}
    parts = []
    for name, seed, params in _FAMILY_GRID:
        g, trace = FAMILIES[name].build(seed, **params)
        parts.append("none\n" if g is None else to_pgr(g))
        assert (trace is not None) == (name in ("three_tree", "eulerian"))
        if trace is not None:
            assert replay(trace) == g
    assert parts.count("none\n") == 1
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == (
        "676188484b9fa1786a821d6971303e5e79f33079f7d47fe3331cc33135a95d7a"
    )
