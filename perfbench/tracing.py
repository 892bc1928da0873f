"""Outside-in spans around tiltro's public functions.

The benchmark never edits tiltro.  It times a layer by replacing the module
or class attribute that callers look up with a wrapper that records a span,
and it puts the original object back when the tracer closes, also on error.
Because the attribute is the caller's, one function can carry different span
names depending on who calls it: voxel compaction of a scan (looked up in
``tiltro.pipeline``) and of a submap merge (looked up in ``tiltro.submaps``).

Spans stay in memory as flat rows and are written out once, when a run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

#: Layers are tiltro's modules; ``geometry`` is called from everywhere and is
#: not timed on its own.
LAYERS = (
    "frontend",
    "attitude",
    "tilt_gate",
    "registration",
    "submaps",
    "pipeline",
    "sim",
    "io",
    "evaluation",
    "cli",
)

#: What a traced run wraps: (module, attribute the caller looks up, span).
#: A function reached through several namespaces is wrapped in each of them.
TRACE_TARGETS = (
    ("tiltro.sim", "simulate", "sim.simulate"),
    ("tiltro.cli", "simulate", "sim.simulate"),
    ("tiltro.sim", "generate_ground_truth", "sim.generate_ground_truth"),
    ("tiltro.sim", "synthesize_imu", "sim.synthesize_imu"),
    ("tiltro.sim", "render_scan", "sim.render_scan"),
    ("tiltro.cli", "write_dataset", "io.write_dataset"),
    ("tiltro.io", "write_polar_scan", "io.write_polar_scan"),
    ("tiltro.io", "write_imu_csv", "io.write_imu_csv"),
    ("tiltro.io", "write_ground_truth_csv", "io.write_ground_truth_csv"),
    ("tiltro.cli", "load_dataset", "io.load_dataset"),
    ("tiltro.io", "read_polar_scan", "io.read_polar_scan"),
    ("tiltro.io", "read_imu_csv", "io.read_imu_csv"),
    ("tiltro.cli", "read_run_config", "io.read_run_config"),
    ("tiltro.cli", "write_trajectory_csv", "io.write_trajectory_csv"),
    ("tiltro.cli", "read_trajectory_csv", "io.read_trajectory_csv"),
    ("tiltro.cli", "ground_truth_trajectory", "io.ground_truth_trajectory"),
    ("tiltro.cli", "write_rte_csv", "io.write_rte_csv"),
    ("tiltro.attitude", "estimate_bias", "attitude.estimate_bias"),
    ("tiltro.cli", "estimate_bias", "attitude.estimate_bias"),
    ("tiltro.attitude", "run_filter", "attitude.run_filter"),
    ("tiltro.cli", "run_filter", "attitude.run_filter"),
    ("tiltro.attitude", "AttitudeTrack.attitudes_at", "attitude.attitudes_at"),
    ("tiltro.pipeline", "run_odometry", "pipeline.run_odometry"),
    ("tiltro.cli", "run_odometry", "pipeline.run_odometry"),
    ("tiltro.pipeline", "process_scan", "pipeline.process_scan"),
    ("tiltro.pipeline", "predict", "pipeline.predict"),
    ("tiltro.pipeline", "k_strongest", "frontend.k_strongest"),
    ("tiltro.pipeline", "deskew", "frontend.deskew"),
    ("tiltro.pipeline", "tilt_filter", "tilt_gate.tilt_filter"),
    ("tiltro.pipeline", "voxel_downsample", "registration.voxel_downsample.scan"),
    ("tiltro.submaps", "voxel_downsample", "registration.voxel_downsample.merge"),
    ("tiltro.pipeline", "icp_point_to_point", "registration.icp_point_to_point"),
    ("tiltro.submaps", "build_nn_index", "registration.build_nn_index"),
    ("tiltro.registration", "build_nn_index", "registration.build_nn_index"),
    ("tiltro.pipeline", "find_submap", "submaps.find_submap"),
    ("tiltro.pipeline", "tilt_lift", "submaps.tilt_lift"),
    ("tiltro.pipeline", "update_atlas", "submaps.update_atlas"),
    ("tiltro.cli", "relative_translation_error", "evaluation.relative_translation_error"),
    ("tiltro.cli", "endpoint_error", "evaluation.endpoint_error"),
)

#: What an untraced run wraps: only the per-scan call, for latency samples.
LATENCY_TARGETS = (("tiltro.pipeline", "process_scan", "pipeline.process_scan"),)


@dataclass(slots=True)
class Span:
    """One timed call.  ``parent`` is the index of the enclosing span in the
    tracer's list; ``scan`` is the index of the scan being processed."""

    name: str
    start: int
    end: int
    parent: int | None
    scan: int | None


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Probes count work at the same boundaries as the spans.  Each is called with
# the arguments before the call and returns the function that sees the result
# (None when the call raised).


def _probe_k_strongest(c, args, kwargs):
    bins = _arg(args, kwargs, 0, "scan").intensity.size

    def after(result):
        c["frontend.k_strongest.bins"] += bins
        c["frontend.k_strongest.points"] += 0 if result is None else len(result)

    return after


def _probe_run_filter(c, args, kwargs):
    samples = len(_arg(args, kwargs, 0, "samples"))

    def after(result):
        c["attitude.run_filter.samples"] += samples

    return after


def _probe_tilt_filter(c, args, kwargs):
    points = len(_arg(args, kwargs, 0, "cloud"))
    tilt = _arg(args, kwargs, 1, "tilt")
    gate = _arg(args, kwargs, 2, "params")
    active = tilt.angle_deg >= gate.theta_tilt

    def after(result):
        c["tilt_gate.tilt_filter.active"] += active
        c["tilt_gate.tilt_filter.points_in"] += points
        c["tilt_gate.tilt_filter.points_out"] += 0 if result is None else len(result)

    return after


def _probe_merge(c, args, kwargs):
    points = len(_arg(args, kwargs, 0, "cloud"))

    def after(result):
        c["registration.voxel_downsample.merge.points_in"] += points

    return after


def _probe_icp(c, args, kwargs):
    def after(result):
        if result is None:
            c["registration.icp_point_to_point.failed"] += 1
        else:
            c["registration.icp_point_to_point.ok"] += 1
            c["registration.icp_point_to_point.iterations"] += result.iterations
            c["registration.icp_point_to_point.matched"] += result.matched_fraction

    return after


def _probe_find_submap(c, args, kwargs):
    candidates = len(_arg(args, kwargs, 0, "atlas"))

    def after(result):
        c["submaps.find_submap.candidates"] += candidates
        c["submaps.find_submap.misses"] += result is None

    return after


def _probe_update_atlas(c, args, kwargs):
    atlas = _arg(args, kwargs, 0, "atlas")
    size = len(atlas)

    def after(result):
        c["submaps.update_atlas.merges"] += len(atlas) == size

    return after


def _probe_process_scan(c, args, kwargs):
    def after(result):
        c["pipeline.process_scan.misses"] += result is None or not result[2].hit

    return after


def _probe_run_odometry(c, args, kwargs):
    def after(result):
        if result is not None and result[1]:
            c["submaps.atlas_size"] += result[1][-1].atlas_size
            c["pipeline.run_odometry.runs"] += 1

    return after


def _probe_write_dataset(c, args, kwargs):
    def after(result):
        if result is not None:
            written = sum(p.stat().st_size for p in result.rglob("*") if p.is_file())
            c["io.write_dataset.bytes"] += written

    return after


PROBES = {
    "frontend.k_strongest": _probe_k_strongest,
    "attitude.run_filter": _probe_run_filter,
    "tilt_gate.tilt_filter": _probe_tilt_filter,
    "registration.voxel_downsample.merge": _probe_merge,
    "registration.icp_point_to_point": _probe_icp,
    "submaps.find_submap": _probe_find_submap,
    "submaps.update_atlas": _probe_update_atlas,
    "pipeline.process_scan": _probe_process_scan,
    "pipeline.run_odometry": _probe_run_odometry,
    "io.write_dataset": _probe_write_dataset,
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around the wrapped attributes while open.

    Use as a context manager: entering installs the wrappers, leaving puts
    every original attribute back, whether the body returned or raised.
    """

    def __init__(self, targets=TRACE_TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, path, name in self.targets:
                owner, attr = _resolve(module, path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str, scan: int | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if scan is None and parent is not None:
            scan = self.spans[parent].scan
        span = Span(name, time.perf_counter_ns(), 0, parent, scan)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own call into a layer."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = probe(counters, args, kwargs) if probe else None
            span = self._open(name, kwargs.get("scan_index"))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if after:
                    after(result)

        return traced

    def durations_ns(self, name: str) -> list[int]:
        return [s.end - s.start for s in self.spans if s.name == name]


def write_spans(path, labelled_tracers, workload: str, seed: int) -> None:
    """All spans of the (label, tracer) pairs as JSON lines, the label as
    ``pass``; ids and parents are unique across the file."""
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        for label, tracer in labelled_tracers:
            for i, s in enumerate(tracer.spans):
                row = {
                    "id": offset + i,
                    "name": s.name,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "parent": None if s.parent is None else offset + s.parent,
                    "workload": workload,
                    "seed": seed,
                    "pass": label,
                    "scan": s.scan,
                }
                fh.write(json.dumps(row) + "\n")
            offset += len(tracer.spans)


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct child spans
    (spans nest: one thread opens and closes them on one stack)."""
    out = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


def self_time_summary(spans: list[Span]) -> dict[str, tuple[int, int]]:
    """Span name -> (calls, total self ns)."""
    summary: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0])
    for span, own in zip(spans, self_times_ns(spans)):
        entry = summary[span.name]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, total) for name, (calls, total) in summary.items()}


def merge_summaries(summaries) -> dict[str, tuple[int, int]]:
    merged: defaultdict[str, tuple[int, int]] = defaultdict(lambda: (0, 0))
    for summary in summaries:
        for name, (calls, total) in summary.items():
            c0, t0 = merged[name]
            merged[name] = (c0 + calls, t0 + total)
    return dict(merged)


def layer_self_ms(summary: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Total self time per layer (ms); bench-made spans count to their layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, (_calls, total_ns) in summary.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += total_ns / 1e6
    return totals


#: Spans whose mean self time per call is a per-layer metric.
SELF_MS_SPANS = (
    "frontend.k_strongest",
    "frontend.deskew",
    "attitude.attitudes_at",
    "attitude.run_filter",
    "tilt_gate.tilt_filter",
    "registration.voxel_downsample.scan",
    "registration.voxel_downsample.merge",
    "registration.icp_point_to_point",
    "registration.build_nn_index",
    "submaps.find_submap",
    "submaps.update_atlas",
    "pipeline.process_scan",
    "pipeline.predict",
    "sim.render_scan",
    "sim.synthesize_imu",
    "sim.generate_ground_truth",
    "io.write_polar_scan",
    "io.read_polar_scan",
    "io.read_imu_csv",
    "io.load_dataset",
    "evaluation.relative_translation_error",
    "cli.simulate",
    "cli.run",
    "cli.eval",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    summary, counters, overhead_pct: float, minor_faults_per_pass: float
) -> dict[str, float]:
    """Every per-layer metric of the benchmark from a traced run's self-time
    summary and counters, its tracing overhead and the median minor page
    faults of its untraced passes.

    ``*.self_ms`` is the mean self time per call; a function the workload
    never calls reads 0.  Ratios with a zero base read 0.
    """

    def calls(name):
        return summary.get(name, (0, 0))[0]

    out = {
        f"{name}.self_ms": _ratio(summary.get(name, (0, 0))[1], calls(name)) / 1e6
        for name in SELF_MS_SPANS
    }
    c = defaultdict(float, counters)
    scans = calls("pipeline.process_scan")
    icp_calls = calls("registration.icp_point_to_point")
    out.update(
        {
            "frontend.k_strongest.keep_ratio": _ratio(
                c["frontend.k_strongest.points"], c["frontend.k_strongest.bins"]
            ),
            "attitude.attitudes_at.calls_per_scan": _ratio(
                calls("attitude.attitudes_at"), scans
            ),
            "attitude.run_filter.samples": _ratio(
                c["attitude.run_filter.samples"], calls("attitude.run_filter")
            ),
            "tilt_gate.active_fraction": _ratio(c["tilt_gate.tilt_filter.active"], scans),
            "tilt_gate.kept_fraction": _ratio(
                c["tilt_gate.tilt_filter.points_out"], c["tilt_gate.tilt_filter.points_in"]
            ),
            "registration.voxel_downsample.merge.points_in": _ratio(
                c["registration.voxel_downsample.merge.points_in"],
                calls("registration.voxel_downsample.merge"),
            ),
            "registration.icp_point_to_point.iterations": _ratio(
                c["registration.icp_point_to_point.iterations"],
                c["registration.icp_point_to_point.ok"],
            ),
            "registration.icp_point_to_point.matched_fraction": _ratio(
                c["registration.icp_point_to_point.matched"],
                c["registration.icp_point_to_point.ok"],
            ),
            "registration.icp_point_to_point.failed_fraction": _ratio(
                c["registration.icp_point_to_point.failed"], icp_calls
            ),
            "registration.build_nn_index.builds_per_icp": _ratio(
                calls("registration.build_nn_index"), icp_calls
            ),
            "submaps.find_submap.candidates": _ratio(
                c["submaps.find_submap.candidates"], calls("submaps.find_submap")
            ),
            "submaps.find_submap.miss_fraction": _ratio(
                c["submaps.find_submap.misses"], calls("submaps.find_submap")
            ),
            "submaps.update_atlas.merge_fraction": _ratio(
                c["submaps.update_atlas.merges"], calls("submaps.update_atlas")
            ),
            "submaps.atlas_size": _ratio(
                c["submaps.atlas_size"], c["pipeline.run_odometry.runs"]
            ),
            "io.write_dataset.mb": _ratio(
                c["io.write_dataset.bytes"], calls("io.write_dataset")
            )
            / 1e6,
            "trace.overhead_pct": overhead_pct,
            "process.minor_faults_per_pass": minor_faults_per_pass,
        }
    )
    return out
