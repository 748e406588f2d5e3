"""The benchmark's contract with the package: `perfbench/` imports what it
names, judges a sound check as sound, and its tracer records the per-layer
spans that its metrics read."""

import dataclasses
import sys
from pathlib import Path

import pytest

from domtri.generators import icosahedron
from domtri.harness import parse_sweep_config, run_sweep
from domtri.plane_graph import Category, to_pgr

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads, tracing


def test_full_check_of_the_icosahedron_is_not_wrong(bench):
    workloads, _ = bench
    case = workloads.Case("icosahedron", to_pgr(icosahedron()), Category.PLANAR_TRIANGULATION)
    result = workloads.full_check(case.pgr)
    assert not workloads.check_is_wrong(case, result)
    # the judge does look: the same verdict under the wrong category is wrong
    near = dataclasses.replace(case, category=Category.NEAR_TRIANGULATION)
    assert workloads.check_is_wrong(near, result)


def test_tracer_records_the_per_layer_spans(bench):
    workloads, tracing = bench
    tracer = tracing.Tracer([workloads])
    tracer.attach()
    try:
        run_sweep(parse_sweep_config("families = icosahedron\n"))
    finally:
        tracer.detach()
    names = {span[2] for span in tracer.spans}
    assert {
        "harness.odd_degree_analysis",
        "domination.exact_iota",
        "coloring.four_coloring",
    } <= names


def test_tracer_sees_the_flip_walk(bench):
    # The walk's flips are spanned through the public name that
    # generators imports; a private one would read 0 flips per sweep.
    _, tracing = bench
    tracer = tracing.Tracer([])
    tracer.attach()
    try:
        run_sweep(parse_sweep_config("families = random\nrandom.n = 20\nrandom.count = 1\n"))
    finally:
        tracer.detach()
    flips = [span for span in tracer.spans if span[2] == "plane_graph.flip_edge"]
    assert flips
    assert any(span[5] == "EmbeddingError" for span in flips)
