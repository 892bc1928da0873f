"""Command-line entry point: simulate, run, eval.

The three commands chain into a reproducible experiment: `simulate` renders
a scenario into a dataset directory, `run` produces an odometry trajectory
from it, `eval` scores that trajectory against the recorded ground truth.
`simulate` writes each scan as it is rendered and `run` decodes one scan at a
time, so neither holds all of a recording's scans in memory.
Results go only to the requested output files; human-readable progress and
errors go to stderr.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from pathlib import Path

from .attitude import ImuBias, estimate_bias, run_filter
from .errors import InsufficientData, NotStatic, TiltroError
from .evaluation import Trajectory, endpoint_error, relative_translation_error
from .io import (
    ground_truth_trajectory,
    load_dataset,
    read_run_config,
    read_trajectory_csv,
    states_to_arrays,
    write_dataset,
    write_diagnostics_csv,
    write_rte_csv,
    write_trajectory_csv,
)
from .pipeline import run_odometry
from .sim import Scenario, simulate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tiltro",
        description="Tilt-robust radar-inertial odometry tools.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_sim = sub.add_parser(
        "simulate", help="render a scenario file into a dataset directory"
    )
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="output dataset directory")
    p_sim.add_argument(
        "--duration",
        type=float,
        default=None,
        help="truncate the scenario to this many seconds",
    )

    p_run = sub.add_parser(
        "run", help="run odometry over a dataset directory"
    )
    p_run.add_argument("--dataset", required=True, help="dataset directory")
    p_run.add_argument("--config", required=True, help="key = value config file")
    p_run.add_argument("--out", required=True, help="output trajectory CSV")
    p_run.add_argument(
        "--diagnostics", default=None, help="optional per-scan diagnostics CSV"
    )
    p_run.add_argument(
        "--no-tilt-gate",
        action="store_true",
        help="ablation: disable the tilt-aware point filter",
    )
    p_run.add_argument(
        "--no-tilt-search",
        action="store_true",
        help="ablation: select submaps by distance only",
    )

    p_eval = sub.add_parser(
        "eval", help="score a trajectory against ground truth"
    )
    p_eval.add_argument("--est", required=True, help="estimated trajectory CSV")
    p_eval.add_argument("--gt", required=True, help="ground-truth CSV")
    p_eval.add_argument(
        "--segment", type=float, default=100.0, help="segment length in meters"
    )
    p_eval.add_argument("--out", required=True, help="output segment-error CSV")
    return parser


def _cmd_simulate(args) -> int:
    text = Path(args.scenario).read_text(encoding="utf-8")
    scenario = Scenario.from_json(text)
    result = simulate(scenario, args.duration, stream=True)
    with closing(result.scans):
        write_dataset(
            args.out,
            result.scans,
            result.imu,
            result.gt_t,
            result.gt_pos,
            result.gt_quats,
            scenario_text=scenario.to_json(),
        )
    print(
        f"simulate: wrote {len(result.scans)} scans and "
        f"{len(result.imu)} IMU samples to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_run(args) -> int:
    params = read_run_config(args.config)
    dataset = load_dataset(args.dataset)
    try:
        bias = estimate_bias(dataset.imu, params.static_window_s)
    except (InsufficientData, NotStatic) as err:
        print(f"run: bias calibration skipped ({err})", file=sys.stderr)
        bias = ImuBias.zero()
    track = run_filter(dataset.imu, bias, params.beta)
    states, diags = run_odometry(
        dataset.scans,
        track,
        params,
        tilt_gate_enabled=not args.no_tilt_gate,
        tilt_search_enabled=not args.no_tilt_search,
    )
    write_trajectory_csv(args.out, *states_to_arrays(states))
    if args.diagnostics:
        write_diagnostics_csv(args.diagnostics, diags)
    hits = sum(1 for d in diags if d.hit)
    print(
        f"run: {len(states)} scans, {hits} registered, "
        f"{len(states) - hits} misses -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args) -> int:
    t, x, y, yaw, _, _ = read_trajectory_csv(args.est)
    est = Trajectory(t, x, y, yaw)
    gt = ground_truth_trajectory(args.gt)
    report = relative_translation_error(est, gt, segment_length=args.segment)
    write_rte_csv(args.out, report)
    end_err = endpoint_error(est, gt)
    q1, q3 = report.quartiles
    print(
        f"eval: {report.count} segments of {args.segment:g} m, "
        f"median {report.median:.3f}% (IQR {q1:.3f}-{q3:.3f}), "
        f"endpoint {end_err:.2f} m -> {args.out}",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as err:
        # argparse exits directly for --help; keep its code for success.
        return 0 if not err.code else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (TiltroError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
