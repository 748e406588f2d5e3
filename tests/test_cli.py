import contextlib
import io
import json
import sys
import time
from types import SimpleNamespace

import pytest

from domtri import cli, coloring, domination, harness
from domtri.cli import main
from domtri.coloring import Coloring, is_proper
from domtri.domination import is_dominating, is_independent
from domtri.generators import BuildTrace, k4_chain, random_triangulation, recursive_eulerian
from domtri.harness import FAMILIES, parse_sweep_config
from domtri.plane_graph import InvariantBreach, load_pgr, parse_pgr, to_pgr

TINY_CONFIG = """\
families = k4, icosahedron
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "k4")
    assert code == 0
    assert parse_pgr(out).n == 4


def test_gen_random_seeded(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    assert main(["gen", "random", "--n", "12", "--seed", "5", "-o", str(p)]) == 0
    capsys.readouterr()
    assert load_pgr(p) == random_triangulation(12, 5)


def test_gen_seed_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DOMTRI_SEED", "9")
    p = tmp_path / "g.pgr"
    assert main(["gen", "random", "--n", "12", "--seed", "5", "-o", str(p)]) == 0
    capsys.readouterr()
    assert load_pgr(p) == random_triangulation(12, 9)
    monkeypatch.setenv("DOMTRI_SEED", "elephant")
    code, _, err = run(capsys, "gen", "random", "--n", "12", "-o", str(p))
    assert code == 2
    assert "DOMTRI_SEED must be an integer" in err


def test_gen_seed_env_over_long_integer(tmp_path, monkeypatch, capsys):
    # int() refuses a string of more than sys.get_int_max_str_digits()
    # digits (4,300 by default); the message then names the digit count
    # rather than echoing the whole string.
    seed = "1" * 5000
    monkeypatch.setenv("DOMTRI_SEED", seed)
    p = tmp_path / "g.pgr"
    code, _, err = run(capsys, "gen", "random", "--n", "8", "-o", str(p))
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(seed):
        # a Python without the digit limit (before 3.10.7) reads it
        assert code == 0 and load_pgr(p) == random_triangulation(8, int(seed))
        return
    assert code == 2
    assert err == (
        "DOMTRI_SEED must be an integer: '1111111111…' has 5000 digits, too many to read\n"
    )


def test_gen_seed_env_caps_a_long_non_integer(monkeypatch, capsys):
    monkeypatch.setenv("DOMTRI_SEED", "1" * 5000 + "x")
    code, out, err = run(capsys, "gen", "random", "--n", "8")
    assert (code, out) == (2, "")
    assert err == (
        f"DOMTRI_SEED must be an integer: '{'1' * 40}…' (5001 characters) is not an integer\n"
    )
    monkeypatch.setenv("DOMTRI_SEED", "abc")
    code, _, err = run(capsys, "gen", "random", "--n", "8")
    assert (code, err) == (2, "DOMTRI_SEED must be an integer: 'abc' is not an integer\n")


def test_gen_seed_only_for_seeded_families(monkeypatch, capsys):
    seedless = [f for f in FAMILIES if not FAMILIES[f].reads_seed]
    assert seedless == ["k4", "octahedron", "icosahedron", "diamond", "k4_chain"]
    for family in seedless:
        fam = FAMILIES[family]
        params = {fam.size: 3} if fam.size else {}
        flags = [arg for k, v in params.items() for arg in (f"--{k}", str(v))]
        monkeypatch.delenv("DOMTRI_SEED", raising=False)
        code, out, err = run(capsys, "gen", family, *flags, "--seed", "5")
        assert (code, out) == (2, ""), family
        assert f"--seed is not read by gen {family}" in err
        # the environment seed is no flag, so it is not refused
        monkeypatch.setenv("DOMTRI_SEED", "5")
        code, out, _ = run(capsys, "gen", family, *flags)
        assert (code, out) == (0, to_pgr(fam.build(0, **params)[0])), family
    # without --seed or DOMTRI_SEED a seeded family builds seed 1
    monkeypatch.delenv("DOMTRI_SEED")
    code, out, _ = run(capsys, "gen", "random", "--n", "12")
    assert (code, out) == (0, to_pgr(random_triangulation(12, 1)))


def test_gen_missing_size_argument(capsys):
    code, out, err = run(capsys, "gen", "random")
    assert (code, out) == (2, "")
    assert "gen random needs --n" in err
    # sizes outside a builder's range are usage errors too, not tracebacks
    code, out, err = run(capsys, "gen", "diamond", "--k", "1")
    assert (code, out) == (2, "")
    assert "diamond chain needs k >= 2" in err
    code, out, err = run(capsys, "gen", "random", "--n", "2")
    assert (code, out) == (2, "")
    assert "needs n >= 3" in err
    code, out, err = run(capsys, "gen", "near", "--n", "3")
    assert (code, out) == (2, "")
    assert "near triangulation needs a base with n >= 4, got 3" in err


def test_gen_negative_flips_is_usage_error(capsys):
    for family in ("random", "near"):
        code, out, err = run(capsys, "gen", family, "--n", "10", "--flips", "-5")
        assert (code, out) == (2, "")
        assert "flip count must be >= 0, got -5" in err


PLAN_CONFIG = f"""\
seed = 3
families = {", ".join(FAMILIES)}
random.n = 9
near.n = 9
three_tree.n = 9
eulerian.t = 2
diamond.k = 2
k4_chain.k = 3
min_degree5.n = 14
all_odd.instances = 8:5
plane.n = 9
"""


def test_gen_builds_the_sweep_graph_for_every_family(monkeypatch, capsys):
    monkeypatch.delenv("DOMTRI_SEED", raising=False)
    cfg = parse_sweep_config(PLAN_CONFIG)
    missing = []
    for fam_idx, family in enumerate(cfg.families):
        _, seed, params = next(harness._plan_family(cfg, fam_idx, family))
        flags = [arg for k, v in params.items() for arg in (f"--{k}", str(v))]
        if FAMILIES[family].reads_seed:
            flags += ["--seed", str(seed)]
        else:
            assert seed == 0, family
        code, out, err = run(capsys, "gen", family, *flags)
        g = FAMILIES[family].build(seed, **params)[0]
        if g is None:
            missing.append(family)
            assert (code, out) == (1, ""), family
        else:
            assert (code, out) == (0, to_pgr(g)), family
    # min_degree5_sample knows no map on 14 vertices; both sides must agree on that
    assert missing == ["min_degree5"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "k4", "--n", "9"], "--n"),
        (["gen", "random", "--n", "9", "--t", "2"], "--t"),
        (["gen", "three_tree", "--n", "9", "--flips", "3"], "--flips"),
        (["gen", "all_odd", "--n", "8", "--flips", "3"], "--flips"),
        (["dominate", "G", "--method", "iota", "--coloring", "G"], "--coloring"),
        (["dominate", "G", "--method", "gamma", "--coloring", "G"], "--coloring"),
        (["dominate", "G", "--limit-n", "9"], "--limit-n"),
        (["color", "G", "--trace", "G"], "--trace"),
    ],
)
def test_unread_flag_is_usage_error(tmp_path, capsys, argv, flag):
    g = tmp_path / "g.pgr"
    g.write_text(to_pgr(random_triangulation(9, 1)))
    code, out, err = run(capsys, *[str(g) if a == "G" else a for a in argv])
    assert (code, out) == (2, "")
    assert f"{flag} is not read" in err


def test_gen_trace_only_for_traced_families(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "k4", "--trace", str(tmp_path / "t.json"))
    assert (code, out) == (2, "")
    assert "family k4 has no build trace" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "dodecahedron"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_ok(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    main(["gen", "icosahedron", "-o", str(p)])
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 0
    assert "category: planar_triangulation" in out
    assert "min_degree=5" in out
    assert "vertex_link_dichotomy: ok" in out


def test_verify_rejects_garbage(tmp_path, capsys):
    p = tmp_path / "bad.pgr"
    p.write_text("pgr 1 2 0 1\n0: 1\n1: 2\n")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 1
    assert out.startswith("invalid:")
    # outer walks that name no dart: out of range, negative, a lone vertex
    for outer, dart in (("9 1 2", "(9, 1)"), ("-1 1 2", "(-1, 1)"), ("0", "(0,)")):
        p.write_text(to_pgr(k4_chain(2)[0]).replace("0 1 2", outer, 1))
        code, out, _ = run(capsys, "verify", str(p))
        assert (code, out) == (1, f"invalid: dart {dart} not present\n"), outer


def test_verify_edgeless_graph(tmp_path, capsys):
    p = tmp_path / "two.pgr"
    p.write_text("pgr 1 2\n0:\n1:\n")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 1
    assert out.startswith("category: invalid\n")
    # K1 is connected, but the faces inequality needs two vertices
    p.write_text("pgr 1 1\n0:\n")
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 0
    assert out.startswith("category: connected_plane\n")
    assert "faces_inequality" not in out


@pytest.mark.parametrize("command", ["verify", "color", "dominate", "audit"])
def test_unreadable_input_file_is_usage_error(tmp_path, capsys, command):
    code, out, err = run(capsys, command, str(tmp_path / "nope"))
    assert (code, out) == (2, "")
    assert "No such file or directory" in err and "nope" in err


def _report_line(lhs: str, level: str = "bound") -> str:
    """A report line whose one record has the raw JSON `lhs` and `level`."""
    record = f'{{"name": "a", "lhs": {lhs}, "rhs": "1", "op": "<=", "level": "{level}"}}'
    return f'{{"graph_id": "g", "records": [{record}]}}\n'


def _full_report_line(**fields) -> str:
    """A well-formed report line without records, with `fields` replaced."""
    doc = {
        "graph_id": "g", "family": "k4", "n": 4, "seed": 0,
        "category": "planar_triangulation", "min_degree": 3,
        "all_degrees_odd": True, "all_degrees_even": False, "records": [], "errors": [],
    }
    return json.dumps(doc | fields) + "\n"


def _face_trace(face, **fields) -> str:
    """A one-step triangle trace into `face`, with the step's `fields`
    replaced."""
    step = {"kind": "triangle", "face": face} | fields
    return json.dumps({"steps": [step]})


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("dominate", "0 0\n1 x\n", "line 2: '1 x' is not of the form `vertex class`"),
        (
            "dominate",
            "# coloring k=x\n0 0\n",
            "line 1: '# coloring k=x' is not of the form `# coloring k=K`",
        ),
        ("dominate", "0 1 2\n", "line 1: '0 1 2' is not of the form `vertex class`"),
        ("dominate", "0 0\n1\n", "line 2: '1' is not of the form `vertex class`"),
        ("dominate", "0 0\n1 1\n2 2\n", "coloring covers 3 vertices, graph has 9"),
        ("dominate", "".join(f"{v} 0\n" for v in range(9)), "coloring is not proper"),
        (
            "dominate",
            "# coloring k=2\n" + "".join(f"{v} {v % 3}\n" for v in range(9)),
            "header k=2 is outside 3..9",
        ),
        (
            "dominate",
            "# coloring k=10\n" + "".join(f"{v} {v % 3}\n" for v in range(9)),
            "header k=10 is outside 3..9",
        ),
        ("color", '{"family": "x"}', "missing field 'steps'"),
        ("color", recursive_eulerian(2, 4)[1].to_json(), "does not rebuild"),
        ("color", _face_trace([99, 0, 2]), "step 0 face [99, 0, 2] is not an inner face"),
        ("color", _face_trace([0, 2]), "step 0 face [0, 2] is not an inner face"),
        ("color", _face_trace([0, 2, 99]), "step 0 face [0, 2, 99] is not an inner face"),
        ("color", _face_trace([0, 1, 2]), "step 0 face [0, 1, 2] is not an inner face"),
        ("color", _face_trace("abc"), "step 0 face 'abc' is not list"),
        ("color", '{"family": "x", "steps": 5}', "steps 5 is not list"),
        ("color", _face_trace(5), "step 0 face 5 is not list"),
        (
            "color",
            _face_trace([0, 2, 1], kind=["triangle"]),
            "step 0 kind ['triangle'] is not str",
        ),
        ("color", '{"family": "x", "steps": [[1]]}', "step 0 [1] is not dict"),
        ("color", "[1, 2]", "trace [1, 2] is not dict"),
        ("audit", "not json\n", "Expecting value"),
        ("audit", '{"graph_id": "g"}\n', "missing field 'records'"),
        ("audit", _report_line('"1/0"'), "number '1/0' is not of the form p or p/q"),
        ("audit", _report_line("Infinity"), "number inf is not of the form p or p/q"),
        ("audit", _report_line('"1e4000000"'), "'1e4000000' is not of the form p or p/q"),
        ("audit", _report_line('"4/2"'), "number '4/2' is not of the form p or p/q"),
        ("audit", _report_line('"3/1"'), "number '3/1' is not of the form p or p/q"),
        ("audit", _report_line('"0/5"'), "number '0/5' is not of the form p or p/q"),
        ("audit", _report_line('"007"'), "number '007' is not of the form p or p/q"),
        ("audit", _report_line('"-0"'), "number '-0' is not of the form p or p/q"),
        ("audit", _report_line('"-0/3"'), "number '-0/3' is not of the form p or p/q"),
        ("audit", _report_line('"1"', level="bogus"), "unknown level 'bogus'"),
        ("audit", _report_line('"1"').replace('"a"', '["a"]'), "name ['a'] is not str"),
        ("audit", _full_report_line(graph_id=[1]), "graph_id [1] is not str"),
        ("audit", _full_report_line(n="abc"), "n 'abc' is not int"),
        ("audit", _full_report_line(n=True), "n True is not int"),
        ("audit", _full_report_line(seed=None), "seed None is not int"),
        ("audit", _full_report_line(all_degrees_odd="yes"), "all_degrees_odd 'yes' is not bool"),
        ("audit", _full_report_line(errors="boom"), "errors 'boom' is not list"),
        ("audit", _full_report_line(errors=[1]), "error 1 is not str"),
        ("audit", _full_report_line(records={}), "records {} is not list"),
        ("audit", _full_report_line(records=5), "records 5 is not list"),
        ("audit", _full_report_line(records=[[1]]), "record [1] is not dict"),
        ("audit", "[1, 2]\n", "report [1, 2] is not dict"),
        ("audit", _full_report_line(runtime_ms="1"), "runtime_ms '1' is not int/float/NoneType"),
    ],
    ids=[
        "coloring-token",
        "coloring-header-token",
        "coloring-three-tokens",
        "coloring-one-token",
        "coloring-length",
        "coloring-improper",
        "coloring-header-k-below-classes",
        "coloring-header-k-above-vertices",
        "trace-no-steps",
        "trace-other-graph",
        "trace-unknown-vertex",
        "trace-two-vertex-face",
        "trace-unknown-third-vertex",
        "trace-outer-face",
        "trace-string-face",
        "trace-number-steps",
        "trace-number-face",
        "trace-list-kind",
        "trace-list-step",
        "trace-list-document",
        "report-not-json",
        "report-no-records",
        "report-zero-denominator",
        "report-infinite-lhs",
        "report-exponent-lhs",
        "report-unreduced-lhs",
        "report-unit-denominator",
        "report-zero-numerator",
        "report-leading-zero",
        "report-negative-zero",
        "report-negative-zero-fraction",
        "report-unknown-level",
        "report-list-name",
        "report-list-graph-id",
        "report-string-n",
        "report-true-n",
        "report-null-seed",
        "report-string-odd",
        "report-string-errors",
        "report-number-error",
        "report-object-records",
        "report-number-records",
        "report-list-record",
        "report-list-document",
        "report-string-runtime",
    ],
)
def test_malformed_input_file_is_usage_error(tmp_path, capsys, command, text, message):
    g = tmp_path / "g.pgr"
    main(["gen", "eulerian", "--t", "2", "--seed", "3", "-o", str(g)])
    f = tmp_path / "input"
    f.write_text(text)
    argv = {
        "dominate": ["dominate", str(g), "--coloring", str(f)],
        "color": ["color", str(g), "--k", "6", "--trace", str(f)],
        "audit": ["audit", str(f)],
    }[command]
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err and str(f) in err
    assert "Traceback" not in err and "unpack" not in err and "invalid literal" not in err
    # Python's own messages for a value of the wrong JSON type
    assert not any(m in err for m in ("not iterable", "unhashable", "indices must be"))


@pytest.mark.parametrize("command", ["color", "audit"])
def test_deeply_nested_input_file_is_usage_error(tmp_path, capsys, command):
    # json.loads raises RecursionError past the interpreter's recursion
    # limit (1,000 frames by default); shallower nesting is a type error.
    g = tmp_path / "g.pgr"
    main(["gen", "eulerian", "--t", "2", "--seed", "3", "-o", str(g)])
    f = tmp_path / "input"
    for depth in (900, 10_000):
        nested = "[" * depth + "]" * depth
        if command == "color":
            f.write_text(f'{{"steps": {nested}}}')
            argv = ["color", str(g), "--k", "6", "--trace", str(f)]
        else:
            f.write_text(nested + "\n")
            argv = ["audit", str(f)]
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), depth
        assert err.startswith(f"{f}: ") and "Traceback" not in err
        assert len(err) < 200


_LONG = "x" * 5000

# every integer flag, each after the command words that reach it
INT_FLAGS = {
    "gen-n": ["gen", "random", "--n"],
    "gen-k": ["gen", "diamond", "--k"],
    "gen-t": ["gen", "eulerian", "--t"],
    "gen-seed": ["gen", "random", "--seed"],
    "gen-flips": ["gen", "random", "--flips"],
    "color-k": ["color", "G", "--k"],
    "dominate-limit-n": ["dominate", "G", "--limit-n"],
}


# command words before a value that parses as an integer but fails the
# command's range check
RANGE_CHECKED = {
    "n": ["gen", "random", "--n"],
    "diamond-k": ["gen", "diamond", "--k"],
    "k4_chain-k": ["gen", "k4_chain", "--k"],
    "t": ["gen", "eulerian", "--t"],
    "flips": ["gen", "random", "--n", "9", "--flips"],
    "limit-n": ["dominate", "G", "--method", "iota", "--limit-n"],
}
_NEGATIVE = "-" + "5" * 4000


def _cli(argv):
    """A parse(text) that runs the CLI on `argv + [text]`, expects exit 2
    and raises the last line of its stderr as a ValueError."""

    def parse(text):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main([*argv, text])
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        assert code == 2
        raise ValueError(err.getvalue().splitlines()[-1])

    return parse


@pytest.mark.parametrize(
    "parse, text, echoed",
    [
        (parse_sweep_config, f"random.n = 1..2..{'3' * 5000}", f"1..2..{'3' * 5000}"),
        (parse_sweep_config, f"random.n = {'4' * 4000}..5", f"{'4' * 4000}..5"),
        (parse_sweep_config, f"random.n = {',' * 5000}", "," * 5000),
        (parse_sweep_config, f"timings = {_LONG}", _LONG),
        (parse_sweep_config, f"all_odd.instances = {_LONG}", _LONG),
        (parse_sweep_config, f"random.{_LONG} = 1", f"random.{_LONG}"),
        (parse_sweep_config, f"families = random, {_LONG}", repr([_LONG])),
        (parse_sweep_config, f"random.count = -{'1' * 4000}", f"-{'1' * 4000}"),
        (BuildTrace.from_json, _face_trace(_LONG), _LONG),
        (BuildTrace.from_json, _face_trace([0, 2, 1], kind=_LONG), _LONG),
        (harness.BoundReport.from_json, _full_report_line(n=_LONG), _LONG),
        (harness.BoundReport.from_json, _report_line(f'"{_LONG}"'), _LONG),
        (harness.BoundReport.from_json, _report_line('"1"', level=_LONG), _LONG),
        (parse_pgr, f"pgr 1 {_LONG}\n", f"pgr 1 {_LONG}"),
        (parse_pgr, f"pgr {_LONG} 1\n", _LONG),
        (parse_pgr, f"pgr 1 1\n0: {_LONG}\n", f"0: {_LONG}"),
        (Coloring.from_text, f"0 {_LONG}\n", f"0 {_LONG}"),
        *((_cli(argv), _LONG, _LONG) for argv in INT_FLAGS.values()),
        *((_cli(argv), _NEGATIVE, _NEGATIVE) for argv in RANGE_CHECKED.values()),
    ],
    ids=[
        "config-range-form", "config-empty-range", "config-no-integers", "config-timings",
        "config-pair", "config-unknown-key", "config-unknown-family", "config-negative-count",
        "trace-face", "trace-kind", "report-field", "report-number", "report-level",
        "pgr-header", "pgr-version", "pgr-vertex-line", "coloring-line",
        *(f"flag-{name}" for name in INT_FLAGS),
        *(f"range-{name}" for name in RANGE_CHECKED),
    ],
)
def test_long_outside_values_are_echoed_capped(parse, text, echoed):
    # A value of a config, report, trace, PGR or coloring file, or of an
    # integer flag (malformed, or read but out of range), is echoed up to
    # 40 characters and then named by its length, never whole.
    if parse is parse_sweep_config and not text.startswith("families"):
        text = f"families = random, all_odd\n{text}\n"
    with pytest.raises(ValueError) as exc:
        parse(text)
    message = str(exc.value)
    assert len(message) < 150, message[:200]
    assert f"{echoed[:40] + '…'!r} ({len(echoed)} characters)" in message


@pytest.mark.parametrize("argv", INT_FLAGS.values(), ids=INT_FLAGS)
def test_integer_flags_name_an_over_long_value(capsys, argv):
    # argparse's type=int echoed all 5,000 digits in an `invalid int value`
    # line; a flag is now read like a config integer, and valid text reads
    # as int() reads it.
    digits = "5" * 5000
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(digits):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, digits])
        err = capsys.readouterr().err
        line = err.splitlines()[-1]
        assert exit_.value.code == 2 and len(err) < 1024 and len(line) < 150
        assert line.endswith(
            f"argument {argv[-1]}: '5555555555…' has 5000 digits, too many to read"
        )
    args = cli.build_parser().parse_args([*argv, " +0_4 "])
    assert getattr(args, argv[-1][2:].replace("-", "_")) == int(" +0_4 ") == 4


@pytest.mark.parametrize("index", [3_000_000, 300_000_000_000])
def test_sparse_coloring_file_is_rejected_at_once(tmp_path, capsys, index):
    # Such an index used to set k, and the combinator looped over every
    # class: 18 s for 3,000,000, exit 0.
    g = tmp_path / "k4.pgr"
    main(["gen", "k4", "-o", str(g)])
    f = tmp_path / "sparse.col"
    f.write_text(f"0 0\n1 1\n2 2\n3 {index}\n")
    capsys.readouterr()
    t0 = time.perf_counter()
    code, out, err = run(capsys, "dominate", str(g), "--coloring", str(f))
    assert time.perf_counter() - t0 < 0.5
    assert (code, out) == (2, "")
    assert f"class index {index} is not below the vertex count" in err
    assert str(f) in err


def test_color_with_checks(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    main(["gen", "three_tree", "--n", "15", "--seed", "2", "-o", str(p)])
    capsys.readouterr()
    code, out, err = run(
        capsys, "color", str(p), "--check", "proper,dynamic:2"
    )
    assert code == 0
    assert "# check proper: ok" in err
    assert out.startswith("# coloring k=4")
    code, out, err = run(capsys, "color", str(p), "--check", "planar")
    assert (code, out) == (2, "")
    assert "unknown check 'planar'" in err
    _, _, err = run(capsys, "color", str(p), "--check", "dynamic:05")
    assert "# check dynamic:5: " in err


def test_unknown_check_is_named_capped(tmp_path, capsys):
    # "²" is a digit to str.isdigit but not to int(); a long name is capped
    p = tmp_path / "g.pgr"
    main(["gen", "k4", "-o", str(p)])
    capsys.readouterr()
    for check, shown in (
        ("dynamic:²", "'dynamic:²'"),
        ("x" * 5000, f"'{'x' * 40}…' (5000 characters)"),
    ):
        code, out, err = run(capsys, "color", str(p), "--check", check)
        assert (code, out) == (2, "")
        assert err == f"unknown check {shown} (proper, dynamic:r, acyclic)\n"


def test_over_long_dynamic_suffix_is_a_usage_error(tmp_path, capsys):
    # int() refused the 5,000-digit suffix with a ValueError traceback; the
    # suffix is now read like a config integer.
    p = tmp_path / "g.pgr"
    main(["gen", "k4", "-o", str(p)])
    capsys.readouterr()
    digits = "5" * 5000
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(digits):
        pytest.skip("this Python reads integers of any length")
    code, out, err = run(capsys, "color", str(p), "--check", f"proper,dynamic:{digits}")
    assert (code, out) == (2, "")
    assert err == "check dynamic:r: '5555555555…' has 5000 digits, too many to read\n"


def test_color_failing_check_exits_1(tmp_path, capsys):
    # the octahedron's coloring uses 3 classes; any two induce a 4-cycle
    p = tmp_path / "g.pgr"
    main(["gen", "octahedron", "-o", str(p)])
    capsys.readouterr()
    code, out, err = run(capsys, "color", str(p), "--check", "proper,acyclic")
    assert code == 1
    assert "# check proper: ok" in err and "# check acyclic: FAIL" in err
    assert out.startswith("# coloring k=4\n")  # the coloring is still written


def test_color_then_dominate_matches_plain_dominate(tmp_path, capsys):
    # class 3 of the octahedron's coloring is empty; the file's header keeps
    # k = 4, so the combinator takes the same fallback path as without a file
    p, col = tmp_path / "g.pgr", tmp_path / "g.col"
    main(["gen", "octahedron", "-o", str(p)])
    main(["color", str(p), "-o", str(col)])
    capsys.readouterr()
    code, via_file, _ = run(capsys, "dominate", str(p), "--coloring", str(col), "--json")
    assert code == 0 and json.loads(via_file)["used_fallback"]
    assert run(capsys, "dominate", str(p), "--json") == (0, via_file, "")


def test_color_six_needs_trace(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    t = tmp_path / "trace.json"
    main(["gen", "eulerian", "--t", "2", "--seed", "3", "-o", str(p), "--trace", str(t)])
    capsys.readouterr()
    code, out, err = run(capsys, "color", str(p), "--k", "6")
    assert (code, out) == (2, "")
    assert "--k 6 needs --trace" in err
    code, out, err = run(
        capsys, "color", str(p), "--k", "6", "--trace", str(t),
        "--check", "proper,dynamic:5",
    )
    assert code == 0
    assert "# check dynamic:5: ok" in err
    assert out.startswith("# coloring k=6")


def test_color_trace_with_far_ids_fails_fast(tmp_path, capsys):
    # A legacy trace's `new` ids once grew a 200,003-vertex map from these
    # far ids; replay now assigns the next unused ids and ignores the key.
    g = tmp_path / "g.pgr"
    main(["gen", "eulerian", "--t", "1", "--seed", "0", "-o", str(g)])
    t = tmp_path / "trace.json"
    t.write_text(
        '{"family": "recursive_eulerian", "steps": [{"kind": "triangle", '
        '"face": [0, 2, 1], "new": [200000, 200001, 200002]}]}'
    )
    capsys.readouterr()
    t0 = time.perf_counter()
    code, out, err = run(capsys, "color", str(g), "--k", "6", "--trace", str(t))
    assert time.perf_counter() - t0 < 0.1
    assert (code, err) == (0, "")
    assert out.startswith("# coloring k=6\n") and len(out.splitlines()) == 7


def test_gen_trace_is_a_step_list(tmp_path, capsys):
    t = tmp_path / "e.json"
    main(["gen", "eulerian", "--t", "3", "--seed", "2", "-o", str(tmp_path / "e.pgr"),
          "--trace", str(t)])
    capsys.readouterr()
    doc = json.loads(t.read_text())
    assert list(doc) == ["steps"]
    assert len(doc["steps"]) == 3
    assert all(sorted(step) == ["face", "kind"] for step in doc["steps"])


def test_color_and_dominate_large_chain(tmp_path, capsys):
    # 1000 vertices: the recursive search ended in a RecursionError here
    p = tmp_path / "chain.pgr"
    p.write_text(to_pgr(k4_chain(250)[0]))
    g = load_pgr(p)
    code, out, err = run(capsys, "color", str(p), "--check", "proper")
    assert code == 0 and "# check proper: ok" in err
    assert is_proper(g, Coloring.from_text(out))
    code, out, err = run(capsys, "dominate", str(p), "--method", "combinator", "--json")
    assert code == 0 and "Traceback" not in err
    chosen = json.loads(out)["vertices"]
    assert is_independent(g, chosen) and is_dominating(g, chosen)


def test_coloring_limit_exits_1(tmp_path, capsys, monkeypatch):
    p = tmp_path / "g.pgr"
    main(["gen", "octahedron", "-o", str(p)])
    capsys.readouterr()
    monkeypatch.setattr(coloring, "_SEARCH_NODES", 0)
    monkeypatch.setattr(coloring, "_kempe_free", lambda *args: None)
    for argv in (["color", str(p)], ["dominate", str(p)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "coloring limit: no Kempe swap" in err


def test_dominate_json(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    main(["gen", "octahedron", "-o", str(p)])
    capsys.readouterr()
    code, out, _ = run(capsys, "dominate", str(p), "--method", "iota", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 2 and doc["method"] == "exact_iota"

    code, out, _ = run(capsys, "dominate", str(p), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["method"] == "combinator" and doc["used_fallback"]


def test_dominate_plain_text(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    main(["gen", "octahedron", "-o", str(p)])
    capsys.readouterr()
    assert run(capsys, "dominate", str(p)) == (0, "combinator size=2 vertices=[0, 3]\n", "")


def test_breach_and_embedding_error_exit_1(tmp_path, capsys, monkeypatch):
    k5 = tmp_path / "k5.pgr"
    k5.write_text(
        "pgr 1 5\n"
        + "".join(f"{v}: {' '.join(str(u) for u in range(5) if u != v)}\n" for v in range(5))
    )
    for command in ("color", "dominate"):
        code, out, err = run(capsys, command, str(k5))
        assert (code, out) == (1, "")
        assert err.startswith("embedding error: rotation system is not planar")

    def breach(g, c):
        raise InvariantBreach("stub")

    p = tmp_path / "g.pgr"
    main(["gen", "octahedron", "-o", str(p)])
    capsys.readouterr()
    monkeypatch.setattr(cli, "class_combinator", breach)
    assert run(capsys, "dominate", str(p)) == (1, "", "invariant breach: stub\n")


def test_verify_reports_a_link_failure(tmp_path, capsys, monkeypatch):
    def breach(g, v):
        raise InvariantBreach(f"link of {v} is broken")

    p = tmp_path / "g.pgr"
    main(["gen", "icosahedron", "-o", str(p)])
    capsys.readouterr()
    monkeypatch.setattr(cli, "neighborhood_structure", breach)
    code, out, _ = run(capsys, "verify", str(p))
    assert code == 1
    assert "vertex_link_dichotomy: FAIL (link of 0 is broken)\n" in out


def test_dominate_json_reports_search_nodes(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    main(["gen", "random", "--n", "20", "--seed", "1", "-o", str(p)])
    capsys.readouterr()
    for method in ("iota", "gamma"):
        code, out, _ = run(capsys, "dominate", str(p), "--method", method, "--json")
        assert code == 0
        assert json.loads(out)["nodes"] >= 1
    code, out, _ = run(capsys, "dominate", str(p), "--json")
    assert code == 0 and "nodes" not in json.loads(out)


def test_dominate_respects_limit(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    main(["gen", "random", "--n", "20", "--seed", "1", "-o", str(p)])
    capsys.readouterr()
    code, _, err = run(
        capsys, "dominate", str(p), "--method", "iota", "--limit-n", "10"
    )
    assert code == 1
    assert "oracle limit" in err


def test_dominate_keeps_each_oracles_default_limit(tmp_path, capsys):
    # iota's default limit is n <= 35 and gamma's n <= 24; --limit-n
    # replaces either one.
    p = tmp_path / "g.pgr"
    main(["gen", "random", "--n", "25", "--seed", "1", "-o", str(p)])
    capsys.readouterr()
    code, out, _ = run(capsys, "dominate", str(p), "--method", "iota")
    assert code == 0 and out.startswith("exact_iota size=")
    code, out, err = run(capsys, "dominate", str(p), "--method", "gamma")
    assert (code, out) == (1, "")
    assert err == "oracle limit: gamma oracle limited to n <= 24, got 25\n"
    code, out, _ = run(capsys, "dominate", str(p), "--method", "gamma", "--limit-n", "25")
    assert code == 0 and out.startswith("exact_gamma size=")


def test_dominate_negative_limit_is_usage_error(tmp_path, capsys):
    p = tmp_path / "g.pgr"
    main(["gen", "icosahedron", "-o", str(p)])
    capsys.readouterr()
    for method in ("iota", "gamma"):
        code, out, err = run(
            capsys, "dominate", str(p), "--method", method, "--limit-n", "-1"
        )
        assert (code, out) == (2, "")
        assert "--limit-n: must be >= 0, got -1" in err


def test_dominate_deep_search_is_oracle_limit(tmp_path, capsys, monkeypatch):
    p = tmp_path / "g.pgr"
    main(["gen", "diamond", "--k", "3", "-o", str(p)])
    capsys.readouterr()
    monkeypatch.setattr(domination, "_MAX_DEPTH", 3)
    for method in ("iota", "gamma"):
        code, out, err = run(capsys, "dominate", str(p), "--method", method)
        assert (code, out) == (1, "")
        assert err.startswith("oracle limit:") and "Traceback" not in err


def test_sweep_and_audit(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_CONFIG)
    stem = tmp_path / "reports" / "run"
    code, out, _ = run(capsys, "sweep", "-c", str(cfg), "-o", str(stem))
    assert code == 0
    assert "2 graphs" in out and "0 with failures" in out
    jsonl = stem.with_suffix(".jsonl")
    assert jsonl.exists() and stem.with_suffix(".tsv").exists()

    code, out, _ = run(capsys, "audit", str(jsonl))
    assert code == 0
    assert "counterexample candidates" in out


def test_audit_exits_1_on_a_candidate(tmp_path, capsys):
    row = {
        "name": "conjecture_iota_n3", "lhs": "2", "rhs": "4/3", "op": "<=", "level": "conjecture",
    }
    f = tmp_path / "r.jsonl"
    f.write_text(_full_report_line(records=[row]))
    code, out, _ = run(capsys, "audit", str(f))
    assert code == 1
    assert "1 checked, 1 counterexample candidates\n  CANDIDATE g (n=4): iota=2 > 4/3\n" in out


def test_sweep_dotted_stems_keep_their_own_files(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_CONFIG)
    for name in ("seed.1", "seed.2"):
        stem = tmp_path / "r" / name
        code, out, _ = run(capsys, "sweep", "-c", str(cfg), "-o", str(stem))
        assert code == 0
        assert out.splitlines()[0].endswith(f"-> {stem}.tsv, {stem}.jsonl")
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
        "seed.1.jsonl", "seed.1.tsv", "seed.2.jsonl", "seed.2.tsv",
    ]


def test_sweep_notes_conjecture_exceedances(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = octahedron\nout = " + str(tmp_path / "r") + "\n")
    code, out, _ = run(capsys, "sweep", "-c", str(cfg))
    assert code == 0  # conjecture rows never fail the sweep
    assert "audited separately" in out


def test_sweep_prints_failed_rows_and_errors(tmp_path, capsys, monkeypatch):
    def no_coloring(g):
        raise coloring.ColoringLimitExceeded("stub")

    def broken_faces(g):
        return SimpleNamespace(lhs=5, rhs=1, strengthened_rhs=1)

    monkeypatch.setattr(harness, "four_coloring", no_coloring)
    monkeypatch.setattr(domination, "check_faces_inequality", broken_faces)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = k4\nout = " + str(tmp_path / "r") + "\n")
    code, out, _ = run(capsys, "sweep", "-c", str(cfg))
    assert code == 1
    assert "1 with failures" in out
    assert "  FAIL k4: faces_inequality 5 <= 1\n" in out
    assert "  ERROR k4: combinator: stub\n" in out


def test_sweep_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = k4, heptagon\n")
    code, _, err = run(capsys, "sweep", "-c", str(cfg))
    assert code == 2
    assert "config error" in err
    code, _, err = run(capsys, "sweep", "-c", str(tmp_path / "missing.cfg"))
    assert code == 2
    for bad, form in (
        ("random.cout = 3", ""),
        ("random.count = abc", ""),
        ("all_odd.instances = 8", "pair '8' is not of the form n:seed"),
        ("random.n = 1..2..3", "range '1..2..3' is not of the form lo..hi"),
        ("seed = abc", ""),
        ("random.count = -3", ""),
    ):
        cfg.write_text(f"families = random, all_odd\n{bad}\n")
        code, out, err = run(capsys, "sweep", "-c", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("config error:") and bad.split()[0] in err
        assert form in err and "unpack" not in err


@pytest.mark.parametrize(
    "value", [f"5..{'4' * 4000}", "1..100000000"], ids=["overflow", "over-cap"]
)
def test_sweep_range_is_sized_before_it_is_built(tmp_path, capsys, value):
    # A range is sized from its ends: `5..` and 4,000 fours raised an
    # OverflowError traceback, and 1..100000000 would build 10**8 ints.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"families = random\nrandom.n = {value}\n")
    code, out, err = run(capsys, "sweep", "-c", str(cfg))
    shown = repr(value) if len(value) <= 40 else f"{value[:40] + '…'!r} ({len(value)} characters)"
    assert (code, out) == (2, "")
    assert err == (
        f"config error: random.n: range {shown} holds over {harness.MAX_RANGE} integers\n"
    )
    assert len(err) < 150
    cap = harness.MAX_RANGE
    assert len(parse_sweep_config(f"random.n = 1..{cap}\n").get_ints("random.n", ())) == cap


def test_negative_step_count_and_empty_size_list_are_usage_errors(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "eulerian", "--t", "-1")
    assert (code, out, err) == (2, "", "step count must be >= 0, got -1\n")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("families = random\nrandom.n = ,\n")
    code, out, err = run(capsys, "sweep", "-c", str(cfg))
    assert (code, out, err) == (2, "", "config error: random.n: no integers in ','\n")


def test_sweep_seed_env_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("seed = 3\nfamilies = random\nrandom.n = 8\nrandom.count = 2\n")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["sweep", "-c", str(cfg), "-o", str(a)]) == 0
    monkeypatch.setenv("DOMTRI_SEED", "3")
    assert main(["sweep", "-c", str(cfg), "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.with_suffix(".jsonl").read_bytes() == b.with_suffix(".jsonl").read_bytes()
    monkeypatch.setenv("DOMTRI_SEED", "4")
    c = tmp_path / "c"
    assert main(["sweep", "-c", str(cfg), "-o", str(c)]) == 0
    capsys.readouterr()
    assert a.with_suffix(".jsonl").read_bytes() != c.with_suffix(".jsonl").read_bytes()
    monkeypatch.setenv("DOMTRI_SEED", "abc")
    code, _, err = run(capsys, "sweep", "-c", str(cfg), "-o", str(tmp_path / "d"))
    assert code == 2
    assert "DOMTRI_SEED must be an integer" in err
