"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/baseline.json
    python3 perfbench/collect.py --seeds 1-10 --compare perfbench/results/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, each in its
own process, and reports for every metric the median and quartiles of its
values over the seeds.  For each end-to-end metric it shows the spread (the
distance between the quartiles as a share of the median) against the bound
in BENCHMARK.json, and with ``--compare`` how far each median moved from an
earlier summary, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,4,7``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}{proc.stdout}")
    result = json.loads(lines[-1])
    record_file = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_file.read_text(encoding="utf-8"))
    return {"seed": seed, "result": result, "record": record}


def summarise(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    parser.add_argument("--compare", default=None, help="earlier summary JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in bench[section]}
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None

    summary = {"seconds": bench["run_seconds"], "trace": args.trace, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, bench["run_seconds"], args.trace) for s in seeds]
        entry = {
            "environment": runs[0]["record"]["environment"] | {"seeds": seeds},
            "correct": all(r["result"]["correct"] for r in runs),
            "digests": {r["seed"]: r["record"]["trajectory_sha256"] for r in runs},
            "rte_median_pct": {r["seed"]: r["record"]["end_to_end"]["rte_median_pct"] for r in runs},
            "miss_rate": {r["seed"]: r["record"]["end_to_end"]["miss_rate"] for r in runs},
            "metrics": {},
        }
        print(f"{workload}: correct={entry['correct']}", flush=True)
        differ = [r["seed"] for r in runs if r["record"]["matches_reference"] is False]
        if differ:
            print(f"  trajectory bytes differ from the reference on seeds {differ}")
        for name, spec in specs.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = stats
            line = (f"  {name:<48} median {stats['median']:12.4f} {spec['unit']:<6}"
                    f" spread {stats['spread']:7.3f}")
            if "bound" in spec:
                line += f" bound {spec['bound']:.2f}"
                if name != "setup_s" and stats["spread"] > spec["bound"] / 3:
                    line += "  <-- above a third of the bound"
                    ok = False
            if earlier and "bound" in spec:
                old = earlier["workloads"][workload]["metrics"][name]["median"]
                worse = (stats["median"] - old) / old
                if spec["better"] == "higher":
                    worse = -worse
                line += f" worse-by {worse:+.3f}"
                if worse > spec["bound"]:
                    line += "  <-- beyond the bound"
                    ok = False
            print(line, flush=True)
        ok = ok and entry["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
