"""Golden digests: the dataset, trajectory and diagnostics bytes of a fixed
chain.

Byte identity is the project's equivalence check for refactors and speed-ups.
These tests simulate ``tilt_step_course(1)``, compare the SHA-256 of the
``imu.csv``, ``ground_truth.csv`` and scenario echo that ``write_dataset``
writes, then run estimate_bias -> run_filter -> run_odometry under the
defaults and under each ablation switch and compare the digests of the
written trajectory and diagnostics CSVs.  One more chain runs the whole of
``quarry_course(1)`` under the defaults, where the tilt gate acts with tilt
search on.  A change that alters the bytes on
purpose updates the digests and says so.

The float results depend on the BLAS kernels and on numpy's SIMD dispatch,
so a failure names both; a mismatch on another kind of CPU reads as a host
difference, not as a regression.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from tiltro.attitude import estimate_bias, run_filter
from tiltro.io import (
    states_to_arrays,
    write_dataset,
    write_diagnostics_csv,
    write_trajectory_csv,
)
from tiltro.pipeline import run_odometry
from tiltro.sim import quarry_course, simulate, tilt_step_course

#: dataset file -> SHA-256 of what ``write_dataset`` writes for the course;
#: ``scenario.echo`` holds ``Scenario.to_json()``.
GOLDEN_DATASET = {
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
        "fc55df0d999f946a495778f19ca45f5573b5d9c7a6e766ba1893aecafa060ab8",
        "3d2e448ce17b8e6c38d8318419a9fe571a83e7f089366062165bb6c6556b6b4b",
    ),
}

#: Whole ``quarry_course(1)`` under the defaults (trajectory SHA-256,
#: diagnostics SHA-256).  With tilt search on, the gate acts on scans 267
#: and 333.
GOLDEN_QUARRY = (
    "831dfbb8662cedc08648489e51f14dd86a8e206965a3fbe4d1729b8ad90305d5",
    "d1ab27879332c19d54856ebce2e127af8c268f6986a7edadcab0c1284986fd65",
)

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_digests(sim, track, out: Path, **switches) -> tuple[str, str]:
    """SHA-256 of the trajectory and diagnostics CSVs of one run."""
    states, diags = run_odometry(sim.scans, track, **switches)
    write_trajectory_csv(out / "traj.csv", *states_to_arrays(states))
    write_diagnostics_csv(out / "diag.csv", diags)
    return _sha256(out / "traj.csv"), _sha256(out / "diag.csv")


@pytest.mark.parametrize("mode", list(GOLDEN))
def test_golden_digests(tilt_step, tmp_path, mode):
    switches, traj_sha, diag_sha = GOLDEN[mode]
    _, sim, track = tilt_step
    got = _run_digests(sim, track, tmp_path, **switches)
    assert got == (traj_sha, diag_sha), (
        f"{mode}: trajectory or diagnostics bytes changed. Digests taken on "
        f"{REFERENCE_HOST}; this host: {_host()}"
    )


def test_golden_digests_where_the_gate_acts_with_search_on(tmp_path):
    _, sim, track = _simulated(quarry_course(1))
    got = _run_digests(sim, track, tmp_path)
    assert got == GOLDEN_QUARRY, (
        f"quarry_course(1): trajectory or diagnostics bytes changed. Digests "
        f"taken on {REFERENCE_HOST}; this host: {_host()}"
    )


def test_simulate_digests(tilt_step, tmp_path):
    scenario, sim, _ = tilt_step
    # No scans: their container has its own round-trip tests, and the
    # digests pin the text formats.
    write_dataset(tmp_path, [], sim.imu, sim.gt_t, sim.gt_pos, sim.gt_quats,
                  scenario_text=scenario.to_json())
    got = {name: _sha256(tmp_path / name) for name in GOLDEN_DATASET}
    assert got == GOLDEN_DATASET, (
        f"simulate's dataset bytes changed. Digests taken on "
        f"{REFERENCE_HOST}; this host: {_host()}"
    )
