"""The benchmark's three workloads, each a closed loop with one client.

A workload builds its inputs in `setup`, then the runner repeats
`timed_round` (the measured work, through domtri's public functions) and
`judge` (untimed checks of every verdict against its known answer) until
the run's time is used.  A verdict is one checked unit: a graph report of
the sweep, one graph's full check, or one exact-oracle call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from domtri.cli import main as cli_main
from domtri.coloring import four_coloring, is_proper
from domtri.domination import (
    OracleLimit,
    OracleLimitExceeded,
    class_combinator,
    exact_gamma,
    exact_iota,
    is_dominating,
    is_independent,
    verify_combinator_accounting,
)
from domtri.generators import (
    diamond_chain,
    k4_chain,
    near_triangulation_from,
    planar_three_tree,
    random_triangulation,
    recursive_eulerian,
    split_seed,
)
from domtri.harness import load_reports, odd_degree_analysis, parse_sweep_config
from domtri.plane_graph import (
    Category,
    InvariantBreach,
    check_faces_inequality,
    classify,
    neighborhood_structure,
    parse_pgr,
    to_pgr,
)

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    """Known answers pinned from the commit that added the benchmark."""
    return json.loads(PINS_PATH.read_text())


class VerdictTimeout(BaseException):
    """Raised from SIGALRM when a verdict runs past its time limit.

    Not an Exception, so the sweep's own `except Exception` handlers
    cannot turn it into an error row."""


def _on_alarm(signum, frame):
    raise VerdictTimeout()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


@dataclasses.dataclass(frozen=True)
class Verdict:
    latency_s: float | None  # None for an instance that never ran
    failure: str | None = None  # cause, None when a verdict was decided
    wrong: bool = False


def run_limited(fn, limit_s: int):
    """(latency, result, failure cause) of fn() under a SIGALRM limit."""
    t0 = time.perf_counter()
    try:
        signal.alarm(limit_s)
        try:
            result = fn()
        finally:
            signal.alarm(0)
    except VerdictTimeout:
        return time.perf_counter() - t0, None, "time_limit"
    except RecursionError:
        return time.perf_counter() - t0, None, "recursion"
    except InvariantBreach:
        return time.perf_counter() - t0, None, "invariant_breach"
    except OracleLimitExceeded:
        return time.perf_counter() - t0, None, "oracle_limit"
    except Exception as exc:  # any other crash is a failed verdict, not a dead run
        print(f"# verdict raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - t0, None, "exception"
    return time.perf_counter() - t0, result, None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- sweep_full -----------------------------------------------------------------


class SweepFull:
    """`domtri sweep` over configs/full.cfg with seed := --seed and
    timings on, then `domtri audit` on its report."""

    limit_s = 1  # per report, judged from its runtime_ms
    guard_s = 120  # one whole sweep; a hang fails every planned instance

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.cfg_path = work / "sweep.cfg"
        self.stem = work / "sweep"
        self.seed = 0
        self.pins: dict | None = None  # known answers, for seed 1 only
        self.planned = 0
        self.problems: set[str] = set()

    def setup(self, seed: int) -> float:
        self.seed = seed
        self.pins = load_pins()["sweep_full_seed1"] if seed == 1 else None
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._prepare()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def _prepare(self) -> None:
        cfg = parse_sweep_config((self.root / "configs" / "full.cfg").read_text())
        cfg = dataclasses.replace(cfg, seed=self.seed, timings=True)
        self.cfg_path.write_text(cfg.serialize())
        self.planned = planned_instances(cfg)
        warm = dataclasses.replace(cfg, values=_WARM_UP_VALUES)
        warm_cfg = self.work / "warm.cfg"
        warm_cfg.write_text(warm.serialize())
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["sweep", "-c", str(warm_cfg), "-o", str(self.work / "warm")])

    def timed_round(self, tracer=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                signal.alarm(self.guard_s)
                try:
                    cli_main(["sweep", "-c", str(self.cfg_path), "-o", str(self.stem)])
                    cli_main(["audit", str(self.stem.with_suffix(".jsonl"))])
                finally:
                    signal.alarm(0)
            except VerdictTimeout:
                return True, out.getvalue()
        return False, out.getvalue()

    def judge(self, raw):
        timed_out, text = raw
        if timed_out:
            return [Verdict(None, "time_limit")] * self.planned, {}
        reports = load_reports(self.stem.with_suffix(".jsonl"))
        pins = self.pins
        verdicts = []
        for rep in reports:
            latency = rep.runtime_ms / 1e3
            if rep.errors:
                failure = "error_row"
            elif latency > self.limit_s:
                failure = "time_limit"
            else:
                failure = None
            if pins is not None:
                wrong = pins["reports"].get(rep.graph_id) != _sha(rep.to_json())[:16]
            else:
                wrong = any(
                    not r.holds for r in rep.records if r.level in ("bound", "invariant")
                )
            verdicts.append(Verdict(latency, failure, wrong))
        skipped = self.planned - len(reports)
        verdicts.extend([Verdict(None, "skipped")] * skipped)
        if pins is not None:
            digest = _sha("".join(rep.to_json() + "\n" for rep in reports))
            if digest != pins["digest"]:
                self.problems.add(f"seed-1 report digest {digest} != pinned")
        if f"reports audited: {len(reports)}\n" not in text:
            self.problems.add("audit did not count every report")
        counts = {
            "harness.rows": sum(len(rep.records) for rep in reports),
            "harness.skipped": skipped,
            # the untimed JSONL report; the timed files' sizes vary with the
            # digits of each runtime, so they cannot repeat across runs
            "harness.report_bytes": sum(len(rep.to_json()) + 1 for rep in reports),
        }
        return verdicts, counts


# Every family of full.cfg at a few small instances, so the warm-up walks
# each code path the timed sweep takes.
_WARM_UP_VALUES = (
    ("random.n", "4..12"),
    ("random.count", "3"),
    ("near.n", "5..12"),
    ("near.count", "3"),
    ("three_tree.n", "4..12"),
    ("three_tree.count", "3"),
    ("eulerian.t", "1..2"),
    ("eulerian.seeds", "1"),
    ("diamond.k", "2"),
    ("k4_chain.k", "2"),
    ("min_degree5.n", "12"),
    ("all_odd.instances", "8:5"),
    ("plane.n", "5..12"),
    ("plane.count", "3"),
)


def planned_instances(cfg) -> int:
    """Instances the sweep plans for this config; every key full.cfg sets
    is read back, so a planned-but-missing report can be counted."""
    total = 0
    for fam in cfg.families:
        if fam in ("k4", "octahedron", "icosahedron"):
            total += 1
        elif fam in ("random", "near", "three_tree", "plane"):
            total += cfg.get_int(f"{fam}.count", 0)
        elif fam == "eulerian":
            total += len(cfg.get_ints("eulerian.t", ())) * cfg.get_int("eulerian.seeds", 0)
        elif fam in ("diamond", "k4_chain"):
            total += len(cfg.get_ints(f"{fam}.k", ()))
        elif fam == "min_degree5":
            total += len(cfg.get_ints("min_degree5.n", ()))
        elif fam == "all_odd":
            raw = cfg.get("all_odd.instances", "") or ""
            total += sum(1 for part in raw.split(",") if part.strip())
        else:
            raise ValueError(f"benchmark cannot count planned instances of {fam!r}")
    return total


# -- check_large ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Case:
    label: str
    pgr: str
    category: Category


def _near(label: str, g, v: int) -> Case:
    """Triangulation g minus vertex v; removing a degree-3 vertex leaves a
    triangle as the hole, so the result is again a triangulation."""
    if g.degree(v) == 3:
        category = Category.PLANAR_TRIANGULATION
    else:
        category = Category.NEAR_TRIANGULATION
    return Case(f"near({label}, {v})", to_pgr(near_triangulation_from(g, v)[0]), category)


def _tri(label: str, g) -> Case:
    return Case(label, to_pgr(g), Category.PLANAR_TRIANGULATION)


def full_check(text: str):
    """One verdict: the structure, coloring and accounting chain of a sweep
    on one stored graph, from its PGR text."""
    g = parse_pgr(text)
    cls = classify(g)
    faces = check_faces_inequality(g)
    for v in g.vertices():
        neighborhood_structure(g, v)
    c = four_coloring(g)
    res = class_combinator(g, c)
    verify_combinator_accounting(g, c, res)  # raises InvariantBreach on a failed step
    odd = None
    if cls.category is Category.PLANAR_TRIANGULATION:
        odd = odd_degree_analysis(g, c, combinator_result=res)
    return g, cls, faces, c, res, odd


def check_is_wrong(case: Case, result) -> bool:
    """True when a decided verdict breaks a bound or invariant that the
    sweep records for this kind of graph."""
    g, cls, faces, c, res, odd = result
    n = g.n
    tri = cls.category is Category.PLANAR_TRIANGULATION
    ok = (
        cls.category is case.category
        and faces.holds
        and faces.strengthened_holds
        and is_proper(g, c)
        and res.size == len(res.vertices)
        and is_independent(g, res.vertices)
        and is_dominating(g, res.vertices)
        and res.size <= Fraction(5 * n, 12)
    )
    if tri:
        ok = ok and g.edge_count == 3 * n - 6 and len(g.faces) == 2 * n - 4
        ok = ok and res.size < Fraction(3 * n, 8)
        if cls.min_degree == 5:
            ok = ok and res.size <= Fraction(n, 3)
        if odd.alpha == 1:
            ok = ok and odd.non_dominating_classes == 0
    return not ok


class CheckLarge:
    """Full checks of stored large graphs; generators stay idle while timed.

    The seed varies the polynomial-cost body: per batch, one
    recursive_eulerian(66) triangulation and near triangulations derived
    from it, from diamond_chain(29) and from k4_chain(50).  The instances
    that hit the exponential searches are fixed (see README.md), because
    a seeded draw of them made the spread across seeds exceed any usable
    bound."""

    limit_s = 1
    batches = 6
    near_per_base = 6

    def __init__(self, root: Path, work: Path):
        self.cases: list[Case] = []
        self.problems: set[str] = set()

    def setup(self, seed: int) -> float:
        self.cases = []
        t0 = time.perf_counter()
        diamond, chain = diamond_chain(29), k4_chain(50)[0]
        stacked = planar_three_tree(200, 2)[0]
        fixed = [
            _tri("diamond_chain(29)", diamond),
            _tri("k4_chain(50)", chain),
            _tri("planar_three_tree(200, 2)", stacked),
            _tri("random_triangulation(200, 5)", random_triangulation(200, 5)),
            _near("planar_three_tree(200, 2)", stacked, 0),
            _tri("k4_chain(250)", k4_chain(250)[0]),
            _tri("diamond_chain(143)", diamond_chain(143)),
        ]
        fixed_s = time.perf_counter() - t0
        batch_s = []
        for b in range(self.batches):
            t0 = time.perf_counter()
            t = split_seed(seed, b)
            rng = random.Random(t)
            eul = recursive_eulerian(66, t)[0]
            label = f"recursive_eulerian(66, {t})"
            self.cases.append(_tri(label, eul))
            bases = ((label, eul), ("diamond_chain(29)", diamond), ("k4_chain(50)", chain))
            for label, g in bases:
                picks = rng.sample(range(g.n), self.near_per_base)
                self.cases.extend(_near(label, g, v) for v in picks)
            batch_s.append(time.perf_counter() - t0)
        self.cases.extend(fixed)
        t0 = time.perf_counter()
        full_check(self.cases[0].pgr)  # warm-up
        warm_s = time.perf_counter() - t0
        return fixed_s + self.batches * statistics.median(batch_s) + warm_s

    def timed_round(self, tracer=None):
        out = []
        for case in self.cases:
            out.append(run_limited(lambda: full_check(case.pgr), self.limit_s))
            if tracer is not None:
                tracer.reset_stack()
        return out

    def judge(self, raw):
        verdicts = []
        for case, (latency, result, failure) in zip(self.cases, raw):
            wrong = failure is None and check_is_wrong(case, result)
            verdicts.append(Verdict(latency, failure, wrong))
        return verdicts, {}


# -- oracles ------------------------------------------------------------------------


class Oracles:
    """Exact iota and gamma calls on random triangulations at n = 60..76
    and one near triangulation of each.

    Branch-and-bound cost varies by orders of magnitude between instances
    and even between relabelings of one instance, so the graphs are a
    fixed corpus and the seed only orders the calls (see README.md)."""

    limit_s = 10
    bases = 17  # n = 60..76
    corpus_seed = 1

    def __init__(self, root: Path, work: Path):
        self.graphs: list[tuple[str, object, int]] = []  # label, graph, combinator size
        self.calls: list[tuple[int, str]] = []
        self.pins: dict = {}
        self.problems: set[str] = set()

    def setup(self, seed: int) -> float:
        self.graphs = []
        self.pins = load_pins()["oracles"]
        batch_s = []
        for i in range(self.bases):
            t0 = time.perf_counter()
            n = 60 + i
            s = split_seed(self.corpus_seed, i)
            base = random_triangulation(n, s)
            near = near_triangulation_from(base, i)[0]
            base_label = f"random_triangulation({n}, {s})"
            for label, g in ((base_label, base), (f"near({base_label}, {i})", near)):
                self.graphs.append((label, g, class_combinator(g, four_coloring(g)).size))
            batch_s.append(time.perf_counter() - t0)
        self.calls = [(j, kind) for j in range(len(self.graphs)) for kind in ("iota", "gamma")]
        random.Random(seed).shuffle(self.calls)
        return self.bases * statistics.median(batch_s)

    def timed_round(self, tracer=None):
        out = []
        for j, kind in self.calls:
            g = self.graphs[j][1]
            oracle = exact_iota if kind == "iota" else exact_gamma
            limit = OracleLimit(max_vertices=g.n, max_nodes=40_000_000)
            out.append(run_limited(lambda: oracle(g, limit), self.limit_s))
            if tracer is not None:
                tracer.reset_stack()
        return out

    def judge(self, raw):
        found: dict[tuple[int, str], object] = {}
        for (j, kind), (latency, result, failure) in zip(self.calls, raw):
            if failure is None:
                found[(j, kind)] = result
        pins = self.pins
        wrong_keys = set()
        for j, (label, g, comb) in enumerate(self.graphs):
            iota, gamma = found.get((j, "iota")), found.get((j, "gamma"))
            if iota is not None and not (
                iota.size == len(iota.vertices)
                and is_independent(g, iota.vertices)
                and is_dominating(g, iota.vertices)
                and iota.size <= comb
                and iota.size == pins[label]["iota"]
            ):
                wrong_keys.add((j, "iota"))
            if gamma is not None and not (
                gamma.size == len(gamma.vertices)
                and is_dominating(g, gamma.vertices)
                and gamma.size == pins[label]["gamma"]
            ):
                wrong_keys.add((j, "gamma"))
            if iota is not None and gamma is not None and gamma.size > iota.size:
                wrong_keys.update({(j, "iota"), (j, "gamma")})
        verdicts = [
            Verdict(latency, failure, (key in wrong_keys))
            for key, (latency, _, failure) in zip(self.calls, raw)
        ]
        return verdicts, {}


WORKLOADS = {"sweep_full": SweepFull, "check_large": CheckLarge, "oracles": Oracles}
