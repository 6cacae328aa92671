"""A traced run changes no result bit, and its accounts add up."""

from __future__ import annotations

import time

import layers
import numpy as np
import pytest
from child import signature
from tracer import LayerTracer

import repro.parallel.run as prun
from repro import MDRunConfig, RunOptions, build_workload
from repro.core.factors import FOCAL_POINT

CASES = [
    ("peptide-tiny", "replicated", 4),  # PME: pfft, collectives, shared cache
    ("water-box", "spatial", 8),  # halo and migration exchanges
]


def _run(workload, strategy, ranks):
    system, positions = build_workload(workload)
    spec = FOCAL_POINT.cluster_spec(ranks, seed=7)
    options = RunOptions(config=MDRunConfig(n_steps=2, velocity_seed=7), strategy=strategy)
    return prun.run_parallel_md(system, positions, spec, options)


def _traced(tracer, *case):
    layers.install(tracer)
    tracer.reset()
    try:
        t0 = time.perf_counter()
        result = _run(*case)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return result, wall


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_traced_run_is_bit_identical_to_untraced(case):
    untraced = signature(_run(*case))
    result, _ = _traced(LayerTracer(), *case)
    for a, b in zip(signature(result), untraced):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_self_times_and_unattributed_sum_to_wall(case):
    _run(*case)  # warm process-level caches
    tracer = LayerTracer()
    _, wall = _traced(tracer, *case)
    metrics = layers.layer_metrics(dict(tracer.self_s), dict(tracer.counts), wall_s=wall, runs=1)
    reported = sum(metrics[m] for m in layers.TIME_BUCKETS) + metrics["unattributed_s"]
    assert reported == pytest.approx(wall, rel=0.01)
    assert 0.0 <= tracer.covered_s <= wall
    assert metrics["unattributed_s"] >= 0.0


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_counts_repeat_exactly(case):
    first, second = LayerTracer(), LayerTracer()
    _traced(first, *case)
    _traced(second, *case)
    assert dict(first.counts) == dict(second.counts)
    assert first.counts["run.steps"] == 2
    assert first.counts["sim.events"] > 0
