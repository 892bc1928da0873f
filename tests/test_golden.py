"""Golden digests: the dataset, trajectory and diagnostics bytes of a fixed
chain.

Byte identity is the project's equivalence check for refactors and speed-ups.
These tests simulate ``tilt_step_course(1)``, compare the SHA-256 of the
scan files, ``imu.csv``, ``ground_truth.csv`` and scenario echo that
``write_dataset`` writes, in memory and streamed by ``tiltro simulate``,
then run estimate_bias -> run_filter -> run_odometry under the defaults and
under each ablation switch and compare the digests of the written
trajectory and diagnostics CSVs.  The defaults also run once on the scans
that ``load_dataset`` decodes one at a time from the streamed dataset.  One
more chain runs the whole of ``quarry_course(1)`` under the defaults, where
the tilt gate acts with tilt search on.  A change that alters the bytes on
purpose updates the digests and says so.

The gate changes nothing before the first scan it acts on, so the
trajectory rows before it and the point counts of the gated scans are
pinned on their own: a change to the gate alone moves the whole-file
digests but not these.

The float results depend on the BLAS kernels and on numpy's SIMD dispatch,
so a failure names both; a mismatch on another kind of CPU reads as a host
difference, not as a regression.
"""

import ctypes
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from tiltro.attitude import estimate_bias, run_filter
from tiltro.cli import main
from tiltro.io import (
    load_dataset,
    states_to_arrays,
    write_dataset,
    write_diagnostics_csv,
    write_trajectory_csv,
)
from tiltro.pipeline import run_odometry
from tiltro.sim import quarry_course, simulate, tilt_step_course

#: dataset files -> SHA-256 of what ``write_dataset`` writes for the course,
#: over the matching files' bytes in name order; ``scenario.echo`` holds
#: ``Scenario.to_json()``.
GOLDEN_DATASET = {
    "scans/*.frad": "19637de50c60813a1bedecd4d321936d6858b7219b1e6d7cebb10f10201804f9",
    "imu.csv": "e6e020391a1b8c59b6cecf25229b715bc4c4f57f413defc036e62d34c49ad3e5",
    "ground_truth.csv": "60a4dd549b37fba00ced8d19efffdf8a1c18e4e3a36d627595cc2bdb9da06f72",
    "scenario.echo": "b3156f8bb60cacbb11918ec590c36c0643ab42b2ff1f7170f654ecfcb58a4fff",
}

#: mode -> (run_odometry switches, trajectory SHA-256, diagnostics SHA-256).
#: On this course the gate acts on no scan while tilt search is on, so the
#: first two coincide; with search off it acts on scans 101 and 102.
GOLDEN = {
    "defaults": (
        {},
        "e825bb94cfd9f723f0d91bdb8948b486c6b817c4bdf280df448625768a68f209",
        "ed06e0374f2a8ad4bbe8e890ba049bf2ad0984eb1d76d323aa72d0cedb9862fa",
    ),
    "no-tilt-gate": (
        {"tilt_gate_enabled": False},
        "e825bb94cfd9f723f0d91bdb8948b486c6b817c4bdf280df448625768a68f209",
        "ed06e0374f2a8ad4bbe8e890ba049bf2ad0984eb1d76d323aa72d0cedb9862fa",
    ),
    "no-tilt-search": (
        {"tilt_search_enabled": False},
        "288fe0aaee3ba68f2ede21383b605dabd064a7edd6bd1f13df146a1307bc42da",
        "1c3a9b5e9d8854f1c980762c22773988b9fc17495ba1ec193532382fd1d6d5e1",
    ),
}

#: Whole ``quarry_course(1)`` under the defaults (trajectory SHA-256,
#: diagnostics SHA-256).  With tilt search on, the gate acts on scans 267
#: and 333.
GOLDEN_QUARRY = (
    "f39869a7bd20eb284a030e11af172bcaceb0e0250d81ea1199a69d30ca72ae7b",
    "f7af0acb120ef819804baa49876cb8a5556803336f444d8d81941b3ee54a4f53",
)

#: Trajectory rows before the first gated scan: (mode or "quarry", number
#: of rows, SHA-256 of the header and those rows).
GOLDEN_PREFIX = (
    ("no-tilt-search", 101, "8963ee949587d05fa323012c0aaf9b4b07e7412d9681fe470126528561ebf59b"),
    ("quarry", 267, "2ef8b57665fe67105cabb158bdc8d54e2ed83d90a98bcdd858987e52948810f4"),
)

#: (mode or "quarry", scan) -> (raw, filtered, downsampled) points of the
#: scans the gate acts on.
GOLDEN_GATED_COUNTS = {
    ("no-tilt-search", 101): (216, 163, 59),
    ("no-tilt-search", 102): (167, 140, 54),
    ("quarry", 267): (121, 78, 33),
    ("quarry", 333): (118, 99, 46),
}

#: The BLAS core and SIMD targets of the machine the digests were taken on.
REFERENCE_HOST = (
    "OpenBLAS core SkylakeX, numpy 2.4.6, "
    "SIMD dispatch: X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
)


def _openblas_core() -> str:
    """Kernel family numpy's bundled OpenBLAS picked at load time."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_char_p
        return fn().decode()
    return "unknown"


def _simd_features() -> str:
    """numpy's dispatch targets that this CPU supports."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return "unknown"
    found = getattr(umath, "__cpu_features__", {})
    dispatch = getattr(umath, "__cpu_dispatch__", [])
    return " ".join(f for f in dispatch if found.get(f)) or "none"


def _host() -> str:
    return (
        f"OpenBLAS core {_openblas_core()}, numpy {np.__version__}, "
        f"SIMD dispatch: {_simd_features()}"
    )


def _simulated(scenario):
    sim = simulate(scenario)
    track = run_filter(sim.imu, estimate_bias(sim.imu))
    return scenario, sim, track


@pytest.fixture(scope="module")
def tilt_step():
    return _simulated(tilt_step_course(1))


def _sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


@dataclass(frozen=True)
class Run:
    """The trajectory and diagnostics CSV bytes of one run, and its
    diagnostics records."""

    traj: bytes
    diag: bytes
    diags: list

    def digests(self) -> tuple[str, str]:
        return _sha256(self.traj), _sha256(self.diag)


def _run(scans, track, out: Path, **switches) -> Run:
    states, diags = run_odometry(scans, track, **switches)
    write_trajectory_csv(out / "traj.csv", *states_to_arrays(states))
    write_diagnostics_csv(out / "diag.csv", diags)
    return Run((out / "traj.csv").read_bytes(), (out / "diag.csv").read_bytes(), diags)


@pytest.fixture(scope="module")
def golden_run(tilt_step, tmp_path_factory):
    """mode -> the tilt-step chain under that mode's switches, each run at
    most once; "quarry" -> the whole ``quarry_course(1)`` chain."""
    cache = {}

    def run(mode: str) -> Run:
        if mode not in cache:
            out = tmp_path_factory.mktemp(mode)
            if mode == "quarry":
                _, sim, track = _simulated(quarry_course(1))
                cache[mode] = _run(sim.scans, track, out)
            else:
                _, sim, track = tilt_step
                cache[mode] = _run(sim.scans, track, out, **GOLDEN[mode][0])
        return cache[mode]

    return run


@pytest.mark.parametrize("mode", list(GOLDEN))
def test_golden_digests(golden_run, mode):
    _, traj_sha, diag_sha = GOLDEN[mode]
    assert golden_run(mode).digests() == (traj_sha, diag_sha), (
        f"{mode}: trajectory or diagnostics bytes changed. Digests taken on "
        f"{REFERENCE_HOST}; this host: {_host()}"
    )


def test_golden_digests_where_the_gate_acts_with_search_on(golden_run):
    assert golden_run("quarry").digests() == GOLDEN_QUARRY, (
        f"quarry_course(1): trajectory or diagnostics bytes changed. Digests "
        f"taken on {REFERENCE_HOST}; this host: {_host()}"
    )


@pytest.mark.parametrize("mode, rows, sha", GOLDEN_PREFIX, ids=[m for m, _, _ in GOLDEN_PREFIX])
def test_trajectory_before_the_first_gated_scan(golden_run, mode, rows, sha):
    lines = golden_run(mode).traj.splitlines(keepends=True)
    assert _sha256(*lines[: 1 + rows]) == sha, (
        f"{mode}: trajectory rows 0-{rows - 1} changed. Digests taken on "
        f"{REFERENCE_HOST}; this host: {_host()}"
    )


def test_point_counts_of_the_gated_scans(golden_run):
    got = {}
    for mode, scan in GOLDEN_GATED_COUNTS:
        d = golden_run(mode).diags[scan]
        got[mode, scan] = (d.raw_points, d.filtered_points, d.downsampled_points)
    assert got == GOLDEN_GATED_COUNTS


def _dataset_digests(root: Path) -> dict[str, str]:
    return {
        pattern: _sha256(*(p.read_bytes() for p in sorted(root.glob(pattern))))
        for pattern in GOLDEN_DATASET
    }


@pytest.fixture(scope="module")
def streamed_dataset(tmp_path_factory):
    """The dataset ``tiltro simulate`` writes for the course, scan by scan."""
    root = tmp_path_factory.mktemp("cli")
    (root / "scenario.json").write_text(tilt_step_course(1).to_json(), encoding="utf-8")
    argv = ["simulate", "--scenario", str(root / "scenario.json"), "--out", str(root / "ds")]
    assert main(argv) == 0
    return root / "ds"


def test_simulate_digests(tilt_step, tmp_path):
    scenario, sim, _ = tilt_step
    write_dataset(tmp_path, sim.scans, sim.imu, sim.gt_t, sim.gt_pos,
                  sim.gt_quats, scenario_text=scenario.to_json())
    assert _dataset_digests(tmp_path) == GOLDEN_DATASET, (
        f"simulate's dataset bytes changed. Digests taken on "
        f"{REFERENCE_HOST}; this host: {_host()}"
    )


def test_cli_simulate_digests(streamed_dataset):
    assert _dataset_digests(streamed_dataset) == GOLDEN_DATASET, (
        f"`tiltro simulate`'s dataset bytes changed. Digests taken on "
        f"{REFERENCE_HOST}; this host: {_host()}"
    )


def test_golden_digests_from_the_lazily_read_dataset(streamed_dataset, tmp_path):
    switches, traj_sha, diag_sha = GOLDEN["defaults"]
    ds = load_dataset(streamed_dataset)
    track = run_filter(ds.imu, estimate_bias(ds.imu))
    got = _run(ds.scans, track, tmp_path, **switches).digests()
    assert got == (traj_sha, diag_sha), (
        f"defaults over load_dataset's scans: trajectory or diagnostics bytes "
        f"changed. Digests taken on {REFERENCE_HOST}; this host: {_host()}"
    )
