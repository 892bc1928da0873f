"""tiltro benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rect_flat --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, sets up several times, then
repeats the workload's timed pass for ``--seconds`` (at least two passes) and
checks every pass's outputs.  Human-readable lines go to stdout first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A full record of
the run (environment, every metric, digests, spans) is written under
``.perfbench/`` at the checkout root.

Exit codes: 0 all checks passed, 1 a check failed (the JSON line says which
operations failed), 2 the program or the benchmark description is missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: Per-seed digest, median RTE and miss rate of the commit that added the
#: benchmark (``accuracy.py --reference``).
REFERENCE = HERE / "results" / "reference.json"
WORKLOADS = ("rect_flat", "quarry_tilt", "dataset_chain")
#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 3
#: Samples a tail percentile must leave above it.
MIN_TAIL_SAMPLES = 10
#: A run fails when its median RTE (%) exceeds RTE_FACTOR x the reference's
#: plus RTE_SLACK_PCT, or its miss rate the reference's plus MISS_SLACK.
#: On a seed without a reference, the worst reference seed of the workload
#: stands in and the RTE factor is FALLBACK_FACTOR.
RTE_FACTOR, RTE_SLACK_PCT, MISS_SLACK = 1.25, 0.25, 0.02
FALLBACK_FACTOR = 2.0


def tail_percentile(samples):
    """Highest percentile <= 99, in steps of 0.1, whose linearly interpolated
    value leaves at least ``MIN_TAIL_SAMPLES`` samples ranked above it;
    returns (percentile, value).  When even the median would leave fewer,
    the median is returned."""
    n = len(samples)
    # p leaves k samples above it while p / 100 * (n - 1) < n - k.
    tenths = (1000 * (n - MIN_TAIL_SAMPLES) - 1) // (n - 1) if n > 1 else 0
    p = max(50.0, min(99.0, tenths / 10.0))
    return p, float(np.percentile(samples, p))


#: Times ``import tiltro`` (numpy and scipy included) in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import tiltro; print(time.perf_counter() - t)"
)


def import_seconds(src: Path) -> list[float]:
    """The import part of set-up, measured once per set-up repetition in
    its own interpreter, since a process imports a module only once."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return times


def per_scan_median_ms(per_pass_ns):
    """Each scan's median latency (ms) over the passes that timed it.

    Every pass processes the same scans in the same order, so the k-th call
    of each pass is the same work; its median over passes keeps the scans'
    own spread of latencies and drops interference that hit a minority of
    passes.
    """
    n = min((len(d) for d in per_pass_ns), default=0)
    if n == 0:
        return np.empty(0)
    return np.median(np.array([d[:n] for d in per_pass_ns]), axis=0) / 1e6


def check_accuracy(name: str, seed: int, rte: float, miss_rate: float, digest: str):
    """Compare a run's accuracy with the reference; returns (problems,
    whether the trajectory bytes match the reference's, None without one)."""
    seeds = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    ref = seeds.get(str(seed))
    if ref is not None:
        rte_max = RTE_FACTOR * ref["rte_median_pct"] + RTE_SLACK_PCT
        miss_max = ref["miss_rate"] + MISS_SLACK
        matches = digest == ref["trajectory_sha256"]
    else:
        rte_max = FALLBACK_FACTOR * max(r["rte_median_pct"] for r in seeds.values())
        miss_max = max(r["miss_rate"] for r in seeds.values()) + MISS_SLACK
        matches = None
    problems = []
    if not rte <= rte_max:
        problems.append(f"median RTE {rte:.3f} % is above {rte_max:.3f} %")
    if not miss_rate <= miss_max:
        problems.append(f"miss rate {miss_rate:.4f} is above {miss_max:.4f}")
    return problems, matches


def _git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seeds) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seeds": list(seeds),
    }


def measure(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, import_times: list[float]
):
    """Set up, run the timed passes, check them; returns the run record."""
    import tracing
    import workloads

    wl = workloads.make(name, seed, workdir)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    problems: list[str] = []

    setup_tracer = tracing.Tracer(tracing.TRACE_TARGETS if trace else ())
    setup_times, fingerprints = [], set()
    with setup_tracer:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            fingerprints.add(wl.fingerprint())
    if len(fingerprints) != 1:
        problems.append("set-up produced different inputs on repetition")

    # Passes alternate untraced / traced in a traced run, so both see the
    # same machine state; an untraced run wraps only the per-scan call.
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        targets = tracing.TRACE_TARGETS if traced else tracing.LATENCY_TARGETS
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with tracing.Tracer(targets) as tracer:
            result = wl.run_pass(tracer)
        result.minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        passes.append((traced, tracer, result))
        if result.failures:
            break
        if time.perf_counter() - t_start >= seconds and len(passes) >= 2:
            break

    failures = [f for _, _, p in passes for f in p.failures]
    for number, (_, _, p) in enumerate(passes):
        for index, blob in enumerate(p.trajectories):
            row = workloads.first_non_finite(blob)
            if row is not None:
                failures.append(f"pass {number}, trajectory {index}: non-finite pose at scan {row}")
    digests = [workloads.trajectory_digest(p.trajectories) for _, _, p in passes]
    if len(set(digests)) != 1:
        problems.append(f"trajectory digest differs between passes: {digests}")
    attempted = sum(p.attempted for _, _, p in passes)

    untraced = [(t, p) for traced, t, p in passes if not traced]
    latencies_ms = per_scan_median_ms([t.durations_ns("pipeline.process_scan") for t, _ in untraced])
    misses = sum(t.counters["pipeline.process_scan.misses"] for t, _ in untraced)
    scans = sum(p.scans for _, p in untraced)
    rte = wl.rte_median_pct() if not failures else math.nan
    miss_rate = misses / scans if scans else math.nan
    accuracy_problems, matches_reference = check_accuracy(name, seed, rte, miss_rate, digests[0])
    problems += accuracy_problems
    p99, p99_ms = tail_percentile(latencies_ms) if len(latencies_ms) else (99.0, math.nan)
    sim_times = [p.simulate_s for _, p in untraced] if name == "dataset_chain" else setup_times
    metrics = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "scans_per_s": statistics.median(
            p.scans / p.odometry_s if p.odometry_s > 0 else math.nan for _, p in untraced
        ),
        "scan_latency_p50_ms": statistics.median(latencies_ms) if len(latencies_ms) else math.nan,
        "scan_latency_p99_ms": p99_ms,
        "simulate_s": statistics.median(sim_times),
        "chain_s": statistics.median(p.wall_s for _, p in untraced),
        "rte_median_pct": rte,
        "miss_rate": miss_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    record.update(
        {
            "environment": environment(wl.seeds),
            "import_times_s": import_times,
            "setup_times_s": setup_times,
            "pass_wall_s": [p.wall_s for _, _, p in passes],
            "pass_minor_faults": [p.minor_faults for _, _, p in passes],
            "passes_traced": [traced for traced, _, _ in passes],
            "latency_samples": len(latencies_ms),
            "latency_passes": len(untraced),
            "latency_tail_percentile": p99,
            "trajectory_sha256": digests[0],
            "matches_reference": matches_reference,
            "trajectory_sha256_per_file": [
                workloads.trajectory_digest([blob]) for blob in passes[0][2].trajectories
            ],
            "attempted": attempted,
            "failed": len(failures),
            "first_failure": failures[0] if failures else None,
            "problems": problems,
            "end_to_end": metrics,
        }
    )

    if trace:
        traced_runs = [(n, t, p) for n, (traced, t, p) in enumerate(passes) if traced]
        overhead = math.nan
        if traced_runs:
            overhead = (
                statistics.median(p.wall_s for _, _, p in traced_runs)
                / statistics.median(p.wall_s for _, p in untraced)
                - 1.0
            ) * 100.0
        labelled = [("setup", setup_tracer)] + [(n, t) for n, t, _ in traced_runs]
        summary = tracing.merge_summaries(tracing.self_time_summary(t.spans) for _, t in labelled)
        counters = collections.Counter()
        for _, t in labelled:
            counters.update(t.counters)
        faults = statistics.median(p.minor_faults for _, p in untraced)
        record["per_layer"] = tracing.per_layer_metrics(summary, counters, overhead, faults)
        record["layer_self_ms"] = tracing.layer_self_ms(summary)
        spans_path = OUT_DIR / f"{name}-seed{seed}.spans.jsonl"
        tracing.write_spans(spans_path, labelled, name, seed)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


def report(record: dict, bench: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    env = record["environment"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']:g} trace={record['trace']}"
    )
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"set-up: {SETUP_REPEATS} repetitions "
        + " ".join(f"{s:.3f}" for s in record["setup_times_s"])
        + " s; import "
        + " ".join(f"{s:.3f}" for s in record["import_times_s"])
        + " s"
    )
    kinds = ["traced" if t else "untraced" for t in record["passes_traced"]]
    print(
        "passes: "
        + ", ".join(
            f"{w:.3f} s {k} ({f} page faults)"
            for w, k, f in zip(record["pass_wall_s"], kinds, record["pass_minor_faults"])
        )
    )
    print(f"trajectory sha256: {record['trajectory_sha256']}")
    for digest in record["trajectory_sha256_per_file"]:
        print(f"  file sha256: {digest}")
    same = {
        True: "identical to the reference",
        False: "differ from the reference",
        None: "not compared: no reference for this seed",
    }
    print(f"trajectory bytes {same[record['matches_reference']]}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(rte_median_pct="%", miss_rate="ratio")
    for key, value in record["end_to_end"].items():
        note = ""
        if key.startswith("scan_latency"):
            pct = 50.0 if key.endswith("p50_ms") else record["latency_tail_percentile"]
            note = (
                f"  (p{pct:g} of {record['latency_samples']} scans, each the median"
                f" of {record['latency_passes']} passes)"
            )
        print(f"  {key:<24} {value:12.4f} {units[key]}{note}")
    if record["trace"]:
        print("self time by layer (ms, traced passes and set-up):")
        for layer, ms in record["layer_self_ms"].items():
            print(f"  {layer:<14} {ms:12.1f}")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed")
    if record["first_failure"]:
        print(f"first failure: {record['first_failure']}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")

    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]}
    return {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    src = ROOT / "src"
    bench_file = ROOT / "BENCHMARK.json"
    if not (src / "tiltro" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: no tiltro sources under {src} or no {bench_file.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tiltro

    if not Path(tiltro.__file__).resolve().is_relative_to(src):
        print(f"error: imported tiltro from {tiltro.__file__}, not {src}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))

    OUT_DIR.mkdir(exist_ok=True)
    try:
        import_times = import_seconds(src)
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
            record = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp), import_times
            )
    except Exception:
        # A crash inside tiltro is a failed run: say where, print no result.
        traceback.print_exc()
        return 1
    result = report(record, bench)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(record, result=result), indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
