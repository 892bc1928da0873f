"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed during set-up and then
repeats one *pass* of timed work.  A pass returns what the run checks and
measures: its wall time, the trajectory CSV bytes it produced, and the
outcome of every operation it attempted.  tiltro functions are looked up on
their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as textio
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tiltro.attitude
import tiltro.cli
import tiltro.evaluation
import tiltro.geometry
import tiltro.io
import tiltro.pipeline
import tiltro.sim

#: Consecutive quarry seeds simulated per run, starting at the workload seed.
QUARRY_SEEDS = 3
#: Segment lengths (m) of the RTE each workload reports.
RTE_SEGMENT_M = {"rect_flat": 100.0, "quarry_tilt": 100.0, "dataset_chain": 25.0}


@dataclass
class PassResult:
    wall_s: float
    scans: int
    #: Wall time of the work that produced the scans (s).
    odometry_s: float
    #: Trajectory CSV bytes, one entry per trajectory the pass wrote.
    trajectories: list[bytes]
    attempted: int
    failures: list[str] = field(default_factory=list)
    simulate_s: float = math.nan
    #: Minor page faults the process took during the pass.
    minor_faults: int = 0


def trajectory_digest(trajectories: list[bytes]) -> str:
    """SHA-256 over the concatenated trajectory CSV bytes of one pass."""
    h = hashlib.sha256()
    for blob in trajectories:
        h.update(blob)
    return h.hexdigest()


def first_non_finite(csv_bytes: bytes) -> int | None:
    """Row index of the first published pose with a non-finite value."""
    lines = csv_bytes.decode("utf-8").splitlines()[1:]
    for row, line in enumerate(lines):
        if not all(math.isfinite(float(v)) for v in line.split(",")[1:]):
            return row
    return None


def _trajectory_bytes(states, path: Path) -> bytes:
    tiltro.io.write_trajectory_csv(path, *tiltro.io.states_to_arrays(states))
    return path.read_bytes()


def rte_median(sim, states, segment_m: float) -> float:
    t, x, y, yaw, _, _ = tiltro.io.states_to_arrays(states)
    est = tiltro.evaluation.Trajectory(t, x, y, yaw)
    _, _, gt_yaw = tiltro.geometry.quat_array_to_rpy(sim.gt_quats)
    gt = tiltro.evaluation.Trajectory(
        sim.gt_t, sim.gt_pos[:, 0], sim.gt_pos[:, 1], gt_yaw
    )
    return tiltro.evaluation.relative_translation_error(est, gt, segment_m).median


class InMemory:
    """``rect_flat`` and ``quarry_tilt``: scenarios simulated in memory during
    set-up; a pass runs estimate_bias -> run_filter -> run_odometry on each."""

    #: workload -> (tiltro.sim course, consecutive seeds per run)
    COURSES = {"rect_flat": ("rectangle_loop", 1), "quarry_tilt": ("quarry_course", QUARRY_SEEDS)}

    def __init__(self, name: str, seed: int, workdir: Path):
        course, count = self.COURSES[name]
        self.name = name
        self.seeds = list(range(seed, seed + count))
        self._course = getattr(tiltro.sim, course)
        self.workdir = workdir
        self.sims = []
        self._states = []

    def setup(self) -> None:
        self.sims = []  # release the previous set-up's scans first
        self.sims = [tiltro.sim.simulate(self._course(s)) for s in self.seeds]

    def fingerprint(self) -> str:
        """Digest of the simulated inputs, to check set-up is deterministic."""
        h = hashlib.sha256()
        for sim in self.sims:
            for scan in sim.scans:
                h.update(scan.intensity)
                h.update(scan.azimuth_timestamps)
            h.update(sim.gt_pos)
        return h.hexdigest()

    def run_pass(self, tracer) -> PassResult:
        runs = []
        t0 = time.perf_counter()
        for sim in self.sims:
            bias = tiltro.attitude.estimate_bias(sim.imu)
            track = tiltro.attitude.run_filter(sim.imu, bias)
            states, _diags = tiltro.pipeline.run_odometry(sim.scans, track)
            runs.append(states)
        wall = time.perf_counter() - t0
        self._states = runs
        scans = sum(len(sim.scans) for sim in self.sims)
        failures = [
            f"seed {seed}: {len(states)} states for {len(sim.scans)} scans"
            for seed, sim, states in zip(self.seeds, self.sims, runs)
            if len(states) != len(sim.scans)
        ]
        trajectories = [
            _trajectory_bytes(states, self.workdir / f"traj-{seed}.csv")
            for seed, states in zip(self.seeds, runs)
        ]
        return PassResult(wall, scans, wall, trajectories, scans, failures)

    def rte_median_pct(self) -> float:
        """Median over seeds of each seed's median RTE, from the last pass."""
        segment = RTE_SEGMENT_M[self.name]
        return float(
            np.median(
                [rte_median(sim, st, segment) for sim, st in zip(self.sims, self._states)]
            )
        )


class DatasetChain:
    """``dataset_chain``: the CLI's simulate -> run -> run -> eval chain on
    ``tilt_step_course(seed)``, in process, inside a work directory."""

    name = "dataset_chain"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [seed]
        self.workdir = workdir
        self._rte_path = workdir / "rte.csv"

    def setup(self) -> None:
        scenario = tiltro.sim.tilt_step_course(self.seeds[0])
        (self.workdir / "scenario.json").write_text(scenario.to_json(), encoding="utf-8")
        (self.workdir / "config.txt").write_text("", encoding="utf-8")

    def fingerprint(self) -> str:
        return hashlib.sha256((self.workdir / "scenario.json").read_bytes()).hexdigest()

    def _commands(self) -> list[list[str]]:
        d = self.workdir
        ds = str(d / "dataset")
        run = ["run", "--dataset", ds, "--config", str(d / "config.txt")]
        return [
            ["simulate", "--scenario", str(d / "scenario.json"), "--out", ds],
            run + ["--out", str(d / "traj.csv")],
            run + ["--out", str(d / "traj-nosearch.csv"), "--no-tilt-search"],
            ["eval", "--est", str(d / "traj.csv"), "--gt", f"{ds}/ground_truth.csv",
             "--segment", str(RTE_SEGMENT_M[self.name]), "--out", str(self._rte_path)],
        ]

    def run_pass(self, tracer) -> PassResult:
        failures = []
        seconds = {"simulate": 0.0, "run": 0.0, "eval": 0.0}
        commands = 0
        # Every chain writes into an empty directory, so each does the same work.
        shutil.rmtree(self.workdir / "dataset", ignore_errors=True)
        t0 = time.perf_counter()
        for argv in self._commands():
            commands += 1
            stderr = textio.StringIO()
            with tracer.span(f"cli.{argv[0]}") as span:
                with contextlib.redirect_stderr(stderr):
                    code = tiltro.cli.main(argv)
            seconds[argv[0]] += (span.end - span.start) / 1e9
            if code != 0:
                failures.append(
                    f"`tiltro {argv[0]}` exited {code}: {stderr.getvalue().strip()}"
                )
                break
        wall = time.perf_counter() - t0
        scans = len(tracer.durations_ns("pipeline.process_scan"))
        trajectories = [] if failures else [
            (self.workdir / name).read_bytes() for name in ("traj.csv", "traj-nosearch.csv")
        ]
        return PassResult(
            wall, scans, seconds["run"], trajectories, scans + commands, failures,
            simulate_s=seconds["simulate"],
        )

    def rte_median_pct(self) -> float:
        *_, median = tiltro.io.read_rte_csv(self._rte_path)
        return float(median)


def make(name: str, seed: int, workdir: Path):
    """The workload called ``name`` (a KeyError names an unknown one)."""
    if name == "dataset_chain":
        return DatasetChain(seed, workdir)
    return InMemory(name, seed, workdir)
