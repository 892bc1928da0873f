"""One-shot accuracy report; not part of the timed runs.

    python3 perfbench/accuracy.py --out perfbench/results/accuracy.json
    python3 perfbench/accuracy.py --reference perfbench/results/reference.json

Prints the quarry 2x2 tilt gate / tilt search ablation over seeds 1-5 (median
RTE % over 100 m segments per seed, and their median) with the gate-cut
scans, misses and final atlas size of seed 1, and the ``rect_flat`` median
RTE of seed 1.  A change that alters trajectory bytes shows its accuracy
effect here.

``--reference`` instead runs one pass of every benchmark workload on each of
``REFERENCE_SEEDS`` and writes its trajectory digest, median RTE and miss
rate: the accuracy every benchmark run is checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tiltro.attitude import estimate_bias, run_filter  # noqa: E402
from tiltro.pipeline import run_odometry  # noqa: E402
from tiltro.sim import quarry_course, rectangle_loop, simulate  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

QUARRY_SEEDS = (1, 2, 3, 4, 5)
REFERENCE_SEEDS = range(0, 21)
CONFIGS = ((True, True), (True, False), (False, True), (False, False))


def _run(sim, gate: bool, search: bool):
    track = run_filter(sim.imu, estimate_bias(sim.imu))
    states, diags = run_odometry(
        sim.scans, track, tilt_gate_enabled=gate, tilt_search_enabled=search
    )
    counts = {
        "gate_cut_scans": sum(d.filtered_points < d.raw_points for d in diags),
        "misses": sum(not d.hit for d in diags),
        "atlas": diags[-1].atlas_size,
    }
    return workloads.rte_median(sim, states, 100.0), counts


def reference() -> dict:
    """workload -> seed -> trajectory digest, median RTE and miss rate of one
    pass, as ``run.py`` computes them."""
    out = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for name in ("rect_flat", "quarry_tilt", "dataset_chain"):
        out[name] = {}
        for seed in REFERENCE_SEEDS:
            with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench", prefix="ref-") as tmp:
                wl = workloads.make(name, seed, Path(tmp))
                wl.setup()
                with tracing.Tracer(tracing.LATENCY_TARGETS) as tracer:
                    result = wl.run_pass(tracer)
                if result.failures:
                    raise SystemExit(f"{name} seed {seed}: {result.failures[0]}")
                entry = {
                    "trajectory_sha256": workloads.trajectory_digest(result.trajectories),
                    "rte_median_pct": wl.rte_median_pct(),
                    "miss_rate": tracer.counters["pipeline.process_scan.misses"] / result.scans,
                }
            out[name][str(seed)] = entry
            print(f"{name} seed {seed}: median RTE {entry['rte_median_pct']:.3f} %, "
                  f"miss rate {entry['miss_rate']:.4f}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the report JSON here")
    parser.add_argument("--reference", default=None, help="write the per-seed reference here")
    args = parser.parse_args(argv)
    if args.reference:
        Path(args.reference).write_text(json.dumps(reference(), indent=1) + "\n", encoding="utf-8")
        return 0

    rows = {cfg: {"per_seed": [], "seed1": None} for cfg in CONFIGS}
    for seed in QUARRY_SEEDS:
        sim = simulate(quarry_course(seed))
        for cfg in CONFIGS:
            rte, counts = _run(sim, *cfg)
            rows[cfg]["per_seed"].append(rte)
            if seed == 1:
                rows[cfg]["seed1"] = counts
        del sim

    print("quarry_course, median RTE % over 100 m segments, seeds " + " ".join(map(str, QUARRY_SEEDS)))
    print("| gate | search | per-seed median RTE % | aggregate | gate-cut scans / misses / atlas (seed 1) |")
    print("| --- | --- | --- | --- | --- |")
    report = {"quarry_seeds": list(QUARRY_SEEDS), "quarry": []}
    for (gate, search), row in rows.items():
        aggregate = statistics.median(row["per_seed"])
        c = row["seed1"]
        on = {True: "on", False: "off"}
        print(
            f"| {on[gate]} | {on[search]} | "
            + " ".join(f"{v:.3f}" for v in row["per_seed"])
            + f" | **{aggregate:.3f}** | {c['gate_cut_scans']} / {c['misses']} / {c['atlas']} |"
        )
        report["quarry"].append(
            {"tilt_gate": gate, "tilt_search": search, "per_seed_median_rte_pct": row["per_seed"],
             "aggregate_rte_pct": aggregate, "seed1": c}
        )

    sim = simulate(rectangle_loop(1))
    rte, counts = _run(sim, True, True)
    print(f"rectangle_loop seed 1: median RTE {rte:.3f} % over 100 m segments, "
          f"{counts['misses']} misses of {len(sim.scans)} scans, atlas {counts['atlas']}")
    report["rect_flat_seed1"] = {"median_rte_pct": rte, "scans": len(sim.scans), **counts}

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
