"""In-memory spans at the layer boundaries of domtri, for the traced run.

While a Tracer is attached it replaces, in each calling module's
namespace, every public domtri function that the module imports from
another domtri module (for example ``domtri.generators.flip_edge`` and
``domtri.harness.four_coloring``), plus a few same-layer entry points
that the per-layer metrics need, and ``PlaneGraph.__init__`` so that map
builds are counted.  Each call then records one span: id, parent id,
name, start, end, the exception class it raised (if any) and whether it
returned a graph.  Detaching restores the originals, so untraced rounds
run the program unchanged.
"""

from __future__ import annotations

import importlib
import statistics
import time
import types
from pathlib import Path

LAYERS = ("cli", "harness", "generators", "plane_graph", "coloring", "domination")

# Same-layer calls that the metrics need as spans of their own: flip-walk
# restarts inside min_degree5_sample, and the odd-degree stage of a sweep.
_SAME_LAYER = {
    "domtri.generators": ("random_triangulation",),
    "domtri.harness": ("odd_degree_analysis",),
}

PER_LAYER = (
    ("generators.busy_s", "s"),
    ("generators.self_s", "s"),
    ("generators.graphs", "count"),
    ("generators.flip_calls", "count"),
    ("generators.flip_rejected", "count"),
    ("generators.flip_accept_ratio", "ratio"),
    ("generators.min5_attempts", "count"),
    ("generators.min5_found", "count"),
    ("plane_graph.builds", "count"),
    ("plane_graph.build_s", "s"),
    ("plane_graph.flip_s", "s"),
    ("plane_graph.classify_calls", "count"),
    ("plane_graph.classify_s", "s"),
    ("plane_graph.delete_s", "s"),
    ("plane_graph.pgr_s", "s"),
    ("plane_graph.link_s", "s"),
    ("plane_graph.link_max_ms", "ms"),
    ("coloring.four_s", "s"),
    ("coloring.four_max_ms", "ms"),
    ("coloring.four_failed", "count"),
    ("coloring.six_s", "s"),
    ("domination.combinator_s", "s"),
    ("domination.accounting_s", "s"),
    ("domination.iota_s", "s"),
    ("domination.gamma_s", "s"),
    ("domination.iota_max_ms", "ms"),
    ("domination.gamma_max_ms", "ms"),
    ("domination.limit_hits", "count"),
    ("harness.self_s", "s"),
    ("harness.odd_s", "s"),
    ("harness.emit_s", "s"),
    ("harness.report_bytes", "bytes"),
    ("harness.audit_s", "s"),
    ("harness.rows", "count"),
    ("harness.skipped", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, callers: list[types.ModuleType]):
        """`callers` are non-domtri modules (the benchmark's own) whose
        domtri imports are spanned as well."""
        self.spans: list[tuple] = []  # (sid, parent, name, t0, t1, err, graph)
        self._stack: list[int] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []
        self._callers = callers

    # -- patching ------------------------------------------------------------

    def attach(self) -> None:
        pg = importlib.import_module("domtri.plane_graph")
        modules = [importlib.import_module(f"domtri.{m}") for m in LAYERS]
        for mod in modules + self._callers:
            extra = _SAME_LAYER.get(mod.__name__, ())
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("domtri."):
                    continue
                cross = home != mod.__name__ and not attr.startswith("_")
                if cross or attr in extra:
                    name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                    self._swap(mod, attr, self._wrap(obj, name))
        init = pg.PlaneGraph.__init__
        self._swap(pg.PlaneGraph, "__init__", self._wrap(init, "plane_graph.PlaneGraph"))

    def detach(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    def reset_stack(self) -> None:
        """Drop frames left open when a time limit interrupted a span
        between its bookkeeping steps."""
        self._stack.clear()

    def _swap(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        tracer = self
        graph_type = importlib.import_module("domtri.plane_graph").PlaneGraph
        want_graph = _layer(name) == "generators"

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            err = None
            made_graph = False
            t0 = time.perf_counter()
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if want_graph:
                    head = result[0] if isinstance(result, tuple) and result else result
                    made_graph = isinstance(head, graph_type)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                if stack and stack[-1] == sid:
                    stack.pop()
                spans.append((sid, parent, name, t0, t1, err, made_graph))

        traced.__wrapped__ = fn
        return traced

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\terror\n")
            for sid, parent, name, t0, t1, err, _ in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{err or '-'}\n")

    def layer_metrics(
        self,
        rounds: int,
        benchmark_counts: dict[str, float],
        traced_walls: list[float],
        untraced_walls: list[float],
    ) -> dict[str, float]:
        """Per-layer metrics per traced round (maxima over all of them).

        `benchmark_counts` holds the sweep's rows, skipped instances and
        report bytes, which the benchmark reads from the report files."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for sid, parent, name, t0, t1, err, _ in self.spans:
            if parent in by_id:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

        busy = dict.fromkeys(LAYERS, 0.0)
        self_time = dict.fromkeys(LAYERS, 0.0)
        total: dict[str, float] = {}
        peak: dict[str, float] = {}
        calls: dict[str, int] = {}
        failed: dict[tuple[str, str], int] = {}
        graphs = min5_attempts = min5_found = 0
        for sid, parent, name, t0, t1, err, made_graph in self.spans:
            dur = t1 - t0
            layer = _layer(name)
            parent_span = by_id.get(parent)
            parent_name = parent_span[2] if parent_span else ""
            outermost = _layer(parent_name) != layer if parent_span else True
            if outermost:
                busy[layer] += dur
                if layer == "generators" and made_graph:
                    graphs += 1
            self_time[layer] += dur - child_time.get(sid, 0.0)
            total[name] = total.get(name, 0.0) + dur
            peak[name] = max(peak.get(name, 0.0), dur)
            calls[name] = calls.get(name, 0) + 1
            if err is not None:
                failed[(name, err)] = failed.get((name, err), 0) + 1
            if (
                name == "generators.random_triangulation"
                and parent_name == "generators.min_degree5_sample"
            ):
                min5_attempts += 1
            if name == "generators.min_degree5_sample" and made_graph:
                min5_found += 1

        def t(*names: str) -> float:
            return sum(total.get(n, 0.0) for n in names)

        def ms(name: str) -> float:
            return peak.get(name, 0.0) * 1e3

        def errs(name: str, kind: str | None = None) -> int:
            return sum(c for (n, e), c in failed.items() if n == name and kind in (None, e))

        rejected = errs("plane_graph.flip_edge", "EmbeddingError")
        flips = calls.get("plane_graph.flip_edge", 0)
        per_round = {
            "generators.busy_s": busy["generators"],
            "generators.self_s": self_time["generators"],
            "generators.graphs": graphs,
            "generators.flip_calls": flips,
            "generators.flip_rejected": rejected,
            "generators.min5_attempts": min5_attempts,
            "generators.min5_found": min5_found,
            "plane_graph.builds": calls.get("plane_graph.PlaneGraph", 0),
            "plane_graph.build_s": t("plane_graph.PlaneGraph"),
            "plane_graph.flip_s": t("plane_graph.flip_edge"),
            "plane_graph.classify_calls": calls.get("plane_graph.classify", 0),
            "plane_graph.classify_s": t("plane_graph.classify"),
            "plane_graph.delete_s": t("plane_graph.delete_vertices"),
            "plane_graph.pgr_s": t(
                "plane_graph.parse_pgr", "plane_graph.to_pgr",
                "plane_graph.load_pgr", "plane_graph.save_pgr",
            ),
            "plane_graph.link_s": t("plane_graph.neighborhood_structure"),
            "coloring.four_s": t("coloring.four_coloring"),
            "coloring.four_failed": errs("coloring.four_coloring"),
            "coloring.six_s": t("coloring.rec_eulerian_six_coloring"),
            "domination.combinator_s": t("domination.class_combinator"),
            "domination.accounting_s": t("domination.verify_combinator_accounting"),
            "domination.iota_s": t("domination.exact_iota"),
            "domination.gamma_s": t("domination.exact_gamma"),
            "domination.limit_hits": errs("domination.exact_iota", "OracleLimitExceeded")
            + errs("domination.exact_gamma", "OracleLimitExceeded"),
            "harness.self_s": self_time["harness"],
            "harness.odd_s": t("harness.odd_degree_analysis"),
            "harness.emit_s": t("harness.emit"),
            "harness.audit_s": t("harness.load_reports", "harness.audit_conjectures"),
            "cli.self_s": self_time["cli"],
        }
        for key in ("harness.rows", "harness.skipped", "harness.report_bytes"):
            per_round[key] = 0
        per_round.update(benchmark_counts)
        out = {k: _per(v, rounds) for k, v in per_round.items()}
        out["generators.flip_accept_ratio"] = (flips - rejected) / flips if flips else 0.0
        out["plane_graph.link_max_ms"] = ms("plane_graph.neighborhood_structure")
        out["coloring.four_max_ms"] = ms("coloring.four_coloring")
        out["domination.iota_max_ms"] = ms("domination.exact_iota")
        out["domination.gamma_max_ms"] = ms("domination.exact_gamma")
        out["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
            untraced_walls
        )
        return {name: out[name] for name, _ in PER_LAYER}


def _per(value: float, rounds: int) -> float:
    """Per-round value; counts stay whole numbers when every round did the
    same work."""
    if isinstance(value, int) and value % rounds == 0:
        return value // rounds
    return value / rounds
