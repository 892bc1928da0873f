"""Golden digests: the trajectory and diagnostics bytes of a fixed chain.

Byte identity is the project's equivalence check for refactors and speed-ups.
These tests run ``tilt_step_course(1)`` through estimate_bias -> run_filter
-> run_odometry under the defaults and under each ablation switch, and
compare the SHA-256 of the written CSVs with digests committed here.  A
change that alters the bytes on purpose updates the digests and says so.

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
from tiltro.io import states_to_arrays, write_diagnostics_csv, write_trajectory_csv
from tiltro.pipeline import run_odometry
from tiltro.sim import simulate, tilt_step_course

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


@pytest.fixture(scope="module")
def tilt_step():
    sim = simulate(tilt_step_course(1))
    track = run_filter(sim.imu, estimate_bias(sim.imu))
    return sim.scans, track


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", list(GOLDEN))
def test_golden_digests(tilt_step, tmp_path, mode):
    switches, traj_sha, diag_sha = GOLDEN[mode]
    scans, track = tilt_step
    states, diags = run_odometry(scans, track, **switches)
    write_trajectory_csv(tmp_path / "traj.csv", *states_to_arrays(states))
    write_diagnostics_csv(tmp_path / "diag.csv", diags)
    got = (_sha256(tmp_path / "traj.csv"), _sha256(tmp_path / "diag.csv"))
    assert got == (traj_sha, diag_sha), (
        f"{mode}: trajectory or diagnostics bytes changed. Digests taken on "
        f"{REFERENCE_HOST}; this host: {_host()}"
    )
