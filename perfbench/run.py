"""domtri benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a domtri checkout.  Builds the workload's inputs
from the seed, repeats its timed round until S seconds have passed (and
at least 100 verdicts have a latency), checks every verdict, and prints
one JSON object as the last line of stdout.  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones.  Exits non-zero
without a result when the checkout has no domtri sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
MIN_LATENCIES = 100  # so that at least ten samples lie beyond the p90


def machine_record() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f'cpu="{cpu}" loadavg={load}'
    )


def import_program():
    """Import domtri from this checkout's src/ and the workloads module;
    returns (workloads module, tracing module, import seconds)."""
    src = ROOT / "src"
    if not (src / "domtri" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no domtri sources under {src}")
    if not (ROOT / "configs" / "full.cfg").is_file():
        raise SystemExit(f"benchmark: no configs/full.cfg under {ROOT}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import workloads
    import tracing

    import_s = time.perf_counter() - t0
    import domtri

    if Path(domtri.__file__).resolve().parent != (src / "domtri").resolve():
        raise SystemExit(f"benchmark: imported domtri from {domtri.__file__}, not {src}")
    return workloads, tracing, import_s


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="domtri benchmark")
    p.add_argument("--workload", required=True, choices=("sweep_full", "check_large", "oracles"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ.pop("DOMTRI_SEED", None)  # the sweep would let it override --seed

    machine = machine_record()
    workloads, tracing, import_s = import_program()
    workloads.install_alarm()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return run(args, workloads, tracing, import_s, machine, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workloads, tracing, import_s, machine, work: Path) -> int:
    w = workloads.WORKLOADS[args.workload](ROOT, work)
    setup_s = import_s + w.setup(args.seed)
    tracer = tracing.Tracer([workloads]) if args.trace else None

    verdicts = []
    walls, traced_walls, untraced_walls = [], [], []
    layer_counts: dict[str, int] = {}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.attach()
        t0 = time.perf_counter()
        try:
            raw = w.timed_round(tracer if traced else None)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.detach()
        round_verdicts, counts = w.judge(raw)
        verdicts.extend(round_verdicts)
        walls.append(wall)
        (traced_walls if traced else untraced_walls).append(wall)
        if traced:
            for k, v in counts.items():
                layer_counts[k] = layer_counts.get(k, 0) + v
        timed = sum(1 for v in verdicts if v.latency_s is not None)
        done = time.perf_counter() - start >= args.seconds and timed >= MIN_LATENCIES
        if done and (tracer is None or traced_walls):
            break

    attempted = len(verdicts)
    failures: dict[str, int] = {}
    for v in verdicts:
        if v.failure is not None:
            failures[v.failure] = failures.get(v.failure, 0) + 1
    failed = sum(failures.values())
    wrong = sum(1 for v in verdicts if v.wrong)
    lat_ms = sorted(v.latency_s * 1e3 for v in verdicts if v.latency_s is not None)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    beyond = sum(1 for x in lat_ms if x > p90)

    print(
        f"# workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"# machine: {machine}")
    print(
        f"# rounds={len(walls)} verdicts attempted={attempted} decided={attempted - failed} "
        f"failed={failed} by cause {json.dumps(failures, sort_keys=True)}"
    )
    print(f"# latency samples={len(lat_ms)}, {beyond} beyond the p90")
    print(f"# wrong_verdicts={wrong}")
    for problem in sorted(w.problems):
        print(f"# problem: {problem}")

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "verdicts_per_s": (attempted - failed) / sum(walls),
            "verdict_p50_ms": statistics.median(lat_ms),
            "verdict_p90_ms": p90,
            "decided_share": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        values = tracer.layer_metrics(
            len(traced_walls), layer_counts, traced_walls, untraced_walls
        )
        units = tracing.PER_LAYER
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        print(f"# spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        print(
            f"# tracing overhead: traced round {statistics.median(traced_walls):.4f} s, "
            f"untraced {statistics.median(untraced_walls):.4f} s"
        )
    result = {
        "correct": wrong == 0 and not w.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
