"""Command-line front end.

Exit codes: 0 when every requested check holds, 1 when a bound or
invariant fails (or an oracle/coloring reports a breach), 2 for usage
errors and for coloring, trace or report files that cannot be read, do
not parse or do not fit their graph.  DOMTRI_SEED overrides any seed of
`gen` and `sweep`: the default, an explicit `--seed` or the config's `seed`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .coloring import (
    Coloring,
    ColoringLimitExceeded,
    four_coloring,
    is_acyclic,
    is_proper,
    is_r_dynamic,
    rec_eulerian_six_coloring,
)
from .domination import (
    OracleLimit,
    OracleLimitExceeded,
    class_combinator,
    exact_gamma,
    exact_iota,
    faces_inequality_rows,
)
from .generators import BuildTrace
from .harness import (
    FAMILIES,
    _int,
    audit_conjectures,
    emit,
    load_reports,
    parse_sweep_config,
    run_sweep,
)
from .plane_graph import (
    NEAR_OR_PLANAR,
    EmbeddingError,
    InvariantBreach,
    _echo,
    classify,
    load_pgr,
    neighborhood_structure,
    to_pgr,
)


class UsageError(Exception):
    """Bad command-line, config or environment input: `main` prints the
    message on stderr and returns 2."""


def _env_seed(default: int) -> int:
    raw = os.environ.get("DOMTRI_SEED")
    try:
        return default if raw is None else _int(raw)
    except ValueError as exc:
        raise UsageError(f"DOMTRI_SEED must be an integer: {exc}") from None


@contextlib.contextmanager
def _input_file(path: str):
    """A file that does not parse (nesting too deep included), or does not
    fit the graph it comes with, is a usage error."""
    try:
        yield
    except (ArithmeticError, KeyError, IndexError, RecursionError, TypeError, ValueError) as exc:
        what = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise UsageError(f"{path}: {what}") from None


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# -- gen -----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    fam = FAMILIES[args.family]
    reads = (fam.size, "flips" if fam.flips else None, "seed" if fam.reads_seed else None)
    for flag in ("n", "k", "t", "flips", "seed"):
        if flag not in reads and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} is not read by gen {args.family}")
    seed = _env_seed(1 if args.seed is None else args.seed)
    params = {}
    if fam.size is not None:
        params[fam.size] = getattr(args, fam.size)
        if params[fam.size] is None:
            raise UsageError(f"gen {args.family} needs --{fam.size}")
    if fam.flips:
        params["flips"] = args.flips
    try:
        g, trace = fam.build(seed, **params)
    except EmbeddingError:
        raise
    except ValueError as exc:  # the builders' range checks on the size
        raise UsageError(str(exc)) from None
    if g is None:
        size = params[fam.size]
        print(f"no {args.family} graph found at {fam.size}={size}", file=sys.stderr)
        return 1
    if args.trace and trace is None:
        raise UsageError(f"family {args.family} has no build trace")

    _write_out(to_pgr(g), args.output)
    if args.trace:
        Path(args.trace).write_text(trace.to_json() + "\n")
    return 0


# -- color ---------------------------------------------------------------------


def _parse_checks(raw: str) -> list[tuple[str, Callable[..., bool]]]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if part in ("proper", "acyclic"):
            out.append((part, is_proper if part == "proper" else is_acyclic))
        elif part.startswith("dynamic:") and part[8:].isdecimal():
            try:
                r = _int(part[8:])
            except ValueError as exc:  # more digits than int() reads
                raise UsageError(f"check dynamic:r: {exc}") from None
            out.append((f"dynamic:{r}", lambda g, c, r=r: is_r_dynamic(g, c, r)))
        else:
            raise UsageError(f"unknown check {_echo(part)} (proper, dynamic:r, acyclic)")
    return out


def _cmd_color(args) -> int:
    checks = _parse_checks(args.check or "")
    if args.k == 4 and args.trace is not None:
        raise UsageError("--trace is not read with --k 4")
    g = load_pgr(args.graph)
    if args.k == 4:
        c = four_coloring(g)
    else:
        if not args.trace:
            raise UsageError("--k 6 needs --trace (the construction history)")
        with _input_file(args.trace):
            trace = BuildTrace.from_json(Path(args.trace).read_text())
            c = rec_eulerian_six_coloring(g, trace)

    failed = 0
    for label, check in checks:
        ok = check(g, c)
        print(f"# check {label}: {'ok' if ok else 'FAIL'}", file=sys.stderr)
        failed += not ok

    _write_out(c.to_text(), args.output)
    return 1 if failed else 0


# -- dominate -------------------------------------------------------------------


def _result_doc(res, n: int) -> dict:
    doc = {"method": res.method, "size": res.size, "vertices": sorted(res.vertices), "n": n}
    if res.witness_class is not None:
        doc["witness_class"] = res.witness_class
        doc["used_fallback"] = res.used_fallback
    if res.nodes is not None:
        doc["nodes"] = res.nodes
    return doc


def _cmd_dominate(args) -> int:
    if args.method == "combinator" and args.limit_n is not None:
        raise UsageError("--limit-n is not read with --method combinator")
    if args.method != "combinator" and args.coloring is not None:
        raise UsageError(f"--coloring is not read with --method {args.method}")
    if args.limit_n is not None and args.limit_n < 0:
        raise UsageError(f"--limit-n: must be >= 0, got {_echo(args.limit_n)}")
    g = load_pgr(args.graph)
    if args.method == "combinator":
        if args.coloring:
            with _input_file(args.coloring):
                c = Coloring.from_text(Path(args.coloring).read_text())
                res = class_combinator(g, c)
        else:
            res = class_combinator(g, four_coloring(g))
    else:
        oracle = exact_iota if args.method == "iota" else exact_gamma
        res = oracle(g) if args.limit_n is None else oracle(g, OracleLimit(args.limit_n))

    if args.json:
        print(json.dumps(_result_doc(res, g.n), sort_keys=True))
    else:
        print(f"{res.method} size={res.size} vertices={sorted(res.vertices)}")
    return 0


# -- verify ----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    try:
        g = load_pgr(args.graph)
    except (EmbeddingError, ValueError) as exc:
        print(f"invalid: {exc}")
        return 1
    cls = classify(g)
    print(f"category: {cls.category.value}")
    print(f"n={g.n} edges={g.edge_count} faces={len(g.faces)}")
    print(
        f"min_degree={cls.min_degree}"
        f" two_connected={'yes' if cls.is_two_connected else 'no'}"
        f" degrees_even={'yes' if cls.all_degrees_even else 'no'}"
        f" degrees_odd={'yes' if cls.all_degrees_odd else 'no'}"
    )
    ok = cls.category.value != "invalid"
    if g.is_connected and g.n >= 2:
        row = faces_inequality_rows(g)[0]
        print(f"faces_inequality: {row.lhs} <= {row.rhs} {'ok' if row.holds else 'FAIL'}")
        ok = ok and row.holds
    if cls.category in NEAR_OR_PLANAR and g.n >= 4:
        try:
            for v in g.vertices():
                neighborhood_structure(g, v)
            print("vertex_link_dichotomy: ok")
        except InvariantBreach as exc:
            print(f"vertex_link_dichotomy: FAIL ({exc})")
            ok = False
    return 0 if ok else 1


# -- sweep / audit -----------------------------------------------------------------


def _cmd_sweep(args) -> int:
    try:
        cfg = parse_sweep_config(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"config error: {exc}") from None
    cfg = dataclasses.replace(cfg, seed=_env_seed(cfg.seed))
    reports = run_sweep(cfg)
    stem = args.out or cfg.out or "reports/sweep"
    paths = emit(reports, stem, include_timings=cfg.timings)
    bad = [rep for rep in reports if not rep.holds]
    total_records = sum(len(rep.records) for rep in reports)
    print(
        f"{len(reports)} graphs, {total_records} checks, "
        f"{len(bad)} with failures -> {', '.join(str(p) for p in paths)}"
    )
    for rep in reports:
        for r in rep.records:
            if r.holds:
                continue
            if r.level in ("bound", "invariant"):
                print(f"  FAIL {rep.graph_id}: {r.name} {r.lhs} {r.op} {r.rhs}")
            else:
                print(
                    f"  note {rep.graph_id}: {r.name} {r.lhs} {r.op} {r.rhs}"
                    f" did not hold ({r.level} level, audited separately)"
                )
        for err in rep.errors:
            print(f"  ERROR {rep.graph_id}: {err.splitlines()[0]}")
    return 1 if bad else 0


def _cmd_audit(args) -> int:
    reports = []
    for path in args.reports:
        with _input_file(path):
            reports.extend(load_reports(path))
    text, clean = audit_conjectures(reports)
    sys.stdout.write(text)
    return 0 if clean else 1


# -- entry -------------------------------------------------------------------------


def _flag_int(text: str) -> int:
    """A flag's integer, read as `_int` reads config ones: echoed capped."""
    try:
        return _int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="domtri",
        description="triangulation generators, colorings, and domination bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph and write it as PGR")
    g.add_argument("family", choices=tuple(FAMILIES))
    g.add_argument("--n", type=_flag_int, help="vertex count (size families)")
    g.add_argument("--k", type=_flag_int, help="block/gadget count (chain families)")
    g.add_argument("--t", type=_flag_int, help="insertion rounds (eulerian)")
    g.add_argument("--seed", type=_flag_int, help="build seed (default 1)")
    g.add_argument("--flips", type=_flag_int, help="flip-walk length (random/near)")
    g.add_argument("-o", "--output", default=None, help="PGR path (default stdout)")
    g.add_argument("--trace", help="also write the build trace as JSON")
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("color", help="color a PGR graph and optionally check it")
    c.add_argument("graph")
    c.add_argument("--k", type=_flag_int, choices=(4, 6), default=4)
    c.add_argument("--trace", help="build trace JSON (required for --k 6)")
    c.add_argument("--check", help="comma list: proper,dynamic:r,acyclic")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_color)

    d = sub.add_parser("dominate", help="dominating-set computations on a PGR graph")
    d.add_argument("graph")
    d.add_argument(
        "--method", choices=("combinator", "iota", "gamma"), default="combinator"
    )
    d.add_argument("--coloring", help="coloring file for --method combinator")
    d.add_argument("--limit-n", type=_flag_int, help="oracle vertex-count ceiling")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_dominate)

    v = sub.add_parser("verify", help="validate a PGR file and classify it")
    v.add_argument("graph")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sweep", help="run a configured verification sweep")
    s.add_argument("-c", "--config", required=True)
    s.add_argument("-o", "--out", help="report stem (overrides config)")
    s.set_defaults(func=_cmd_sweep)

    a = sub.add_parser("audit", help="scan report files for conjecture hits")
    a.add_argument("reports", nargs="+", help=".jsonl report files")
    a.set_defaults(func=_cmd_audit)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 1
    except (OracleLimitExceeded, ColoringLimitExceeded) as exc:
        kind = "oracle" if isinstance(exc, OracleLimitExceeded) else "coloring"
        print(f"{kind} limit: {exc}", file=sys.stderr)
        return 1
    except EmbeddingError as exc:
        print(f"embedding error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
