"""Tests for the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0, 100, None, None),
        Span("a", 10, 40, 0, None),
        Span("b", 50, 90, 0, None),
        Span("a.inner", 20, 30, 1, None),
    ]
    assert tracing.self_times_ns(spans) == [30, 20, 40, 10]


def test_summary_and_merge_add_calls_and_self_time():
    spans = [
        Span("pipeline.process_scan", 0, 10, None, 0),
        Span("frontend.k_strongest", 2, 6, 0, 0),
        Span("pipeline.process_scan", 20, 25, None, 1),
    ]
    summary = tracing.self_time_summary(spans)
    assert summary == {"pipeline.process_scan": (2, 11), "frontend.k_strongest": (1, 4)}
    merged = tracing.merge_summaries([summary, summary])
    assert merged["pipeline.process_scan"] == (4, 22)
    layers = tracing.layer_self_ms(merged)
    assert layers["pipeline"] == pytest.approx(22e-6)
    assert layers["frontend"] == pytest.approx(8e-6)


@pytest.mark.parametrize(
    "n, expected",
    [(5000, 99.0), (1000, 99.0), (999, 99.0), (636, 98.5), (100, 90.9), (19, 50.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = np.arange(1, n + 1, dtype=float)
    p, value = run.tail_percentile(samples)
    assert p == expected
    if p > 50.0:
        assert np.count_nonzero(samples > value) >= 10
        # the next step up (0.1 percentile) would leave fewer than ten
        if p < 99.0:
            higher = np.percentile(samples, p + 0.1)
            assert np.count_nonzero(samples > higher) < 10


def _attributes():
    """The objects the trace targets currently name, keyed by target."""
    out = {}
    for module, path, _ in tracing.TRACE_TARGETS:
        owner, attr = tracing._resolve(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def _chain_pass(seed: int, workdir: Path, targets):
    workdir.mkdir(parents=True, exist_ok=True)
    chain = workloads.DatasetChain(seed, workdir)
    chain.setup()
    with tracing.Tracer(targets) as tracer:
        result = chain.run_pass(tracer)
    return chain, tracer, result


@pytest.fixture(scope="module")
def traced_chain(tmp_path_factory):
    before = _attributes()
    chain, tracer, result = _chain_pass(4, tmp_path_factory.mktemp("traced"), tracing.TRACE_TARGETS)
    return before, chain, tracer, result


def test_traced_run_restores_every_attribute(traced_chain):
    before, _, tracer, result = traced_chain
    assert not result.failures
    assert len(tracer.spans) > 1000
    after = _attributes()
    assert all(after[key] is original for key, original in before.items())


def test_tracer_restores_attributes_when_the_body_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert _attributes() != before
            raise RuntimeError("boom")
    assert all(_attributes()[key] is original for key, original in before.items())


def test_spans_nest_and_carry_scan_indices(traced_chain):
    _, _, tracer, _ = traced_chain
    spans = tracer.spans
    for span in spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    extraction = [s for s in spans if s.name == "frontend.k_strongest"]
    assert extraction and all(s.scan is not None for s in extraction)
    assert all(spans[s.parent].name == "pipeline.process_scan" for s in extraction)


def test_traced_run_yields_every_per_layer_metric(traced_chain):
    _, _, tracer, _ = traced_chain
    summary = tracing.self_time_summary(tracer.spans)
    metrics = tracing.per_layer_metrics(summary, tracer.counters, 0.0, 0.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in bench["per_layer"]} <= set(metrics)
    assert metrics["frontend.k_strongest.self_ms"] > 0.0
    assert metrics["io.write_dataset.mb"] > 1.0
    assert metrics["attitude.attitudes_at.calls_per_scan"] > 1.0


def test_same_seed_gives_the_same_digest(traced_chain, tmp_path):
    _, _, _, traced = traced_chain
    _, _, again = _chain_pass(4, tmp_path / "again", tracing.LATENCY_TARGETS)
    _, _, other = _chain_pass(5, tmp_path / "other", tracing.LATENCY_TARGETS)
    digest = workloads.trajectory_digest(traced.trajectories)
    assert workloads.trajectory_digest(again.trajectories) == digest
    assert workloads.trajectory_digest(other.trajectories) != digest


def test_accuracy_check_against_the_reference():
    ref = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["quarry_tilt"]["1"]
    rte, miss, digest = ref["rte_median_pct"], ref["miss_rate"], ref["trajectory_sha256"]
    assert run.check_accuracy("quarry_tilt", 1, rte, miss, digest) == ([], True)
    problems, matches = run.check_accuracy("quarry_tilt", 1, 2 * rte, miss + 0.05, "other")
    assert len(problems) == 2 and matches is False
    # a seed without a reference is held to the workload's worst seed
    assert run.check_accuracy("quarry_tilt", 10**6, rte, miss, digest) == ([], None)
    assert len(run.check_accuracy("quarry_tilt", 10**6, 100.0, miss, digest)[0]) == 1


def test_non_finite_pose_is_found():
    csv = b"t_ns,x,y,yaw,roll,pitch\n0,0.0,0.0,0.0,0.0,0.0\n1,nan,0.0,0.0,0.0,0.0\n"
    assert workloads.first_non_finite(csv) == 1
    assert workloads.first_non_finite(csv.rsplit(b"\n", 2)[0] + b"\n") is None
