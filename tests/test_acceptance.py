"""Acceptance gate: one test per numbered release criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  These tests exercise the public API and the command line the
way a user would: property suites with independent oracles for the core
math, and full simulate -> run -> eval chains for the closed-loop claims.
"""

import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from tiltro.attitude import run_filter
from tiltro.cli import main
from tiltro.evaluation import Trajectory, endpoint_error, relative_translation_error
from tiltro.frontend import PointCloud, k_strongest
from tiltro.geometry import Pose2, RelativeTilt, UnitQuat, quat_array_to_rpy
from tiltro.io import (
    ground_truth_trajectory,
    read_rte_csv,
    read_trajectory_csv,
)
from tiltro.params import Params
from tiltro.registration import build_nn_index, icp_point_to_point
from tiltro.sim import (
    ImuModel,
    PathSegment,
    Scenario,
    generate_ground_truth,
    quarry_course,
    rectangle_loop,
    synthesize_imu,
    tilt_step_course,
)
from tiltro.tilt_gate import tilt_filter, vertical_displacement

from helpers import (
    angle_to,
    brute_force_k_strongest,
    from_axis_angle,
    random_cloud,
    random_scan,
)


# ---------------------------------------------------------------------------
# CLI chain plumbing shared by the closed-loop criteria.


def _simulate(root: Path, scenario: Scenario) -> Path:
    """simulate under ``root``; returns the dataset directory."""
    root.mkdir(parents=True, exist_ok=True)
    scen = root / "scenario.json"
    scen.write_text(scenario.to_json(), encoding="utf-8")
    ds = root / "ds"
    assert main(["simulate", "--scenario", str(scen), "--out", str(ds)]) == 0
    return ds


def _run_eval(root: Path, ds: Path, run_args=(), segment=100.0,
              diagnostics=False):
    """run -> eval on the dataset ``ds`` under ``root``; returns the key
    file paths."""
    root.mkdir(parents=True, exist_ok=True)
    cfg = root / "config.txt"
    cfg.write_text("", encoding="utf-8")  # empty config: stock defaults
    traj = root / "traj.csv"
    rte = root / "rte.csv"
    diag = root / "diag.csv"
    run_cmd = ["run", "--dataset", str(ds), "--config", str(cfg),
               "--out", str(traj)] + list(run_args)
    if diagnostics:
        run_cmd += ["--diagnostics", str(diag)]
    assert main(run_cmd) == 0
    assert main(["eval", "--est", str(traj), "--gt", str(ds / "ground_truth.csv"),
                 "--segment", str(segment), "--out", str(rte)]) == 0
    return {"ds": ds, "traj": traj, "rte": rte, "diag": diag}


def _chain(root: Path, scenario: Scenario, run_args=(), segment=100.0,
           diagnostics=False):
    """simulate -> run -> eval under ``root``; returns the key file paths."""
    return _run_eval(root, _simulate(root, scenario), run_args, segment, diagnostics)


@pytest.fixture(scope="module")
def rectangle_chain(tmp_path_factory):
    """The flat 500 m loop chain, run twice for the determinism criterion."""
    base = tmp_path_factory.mktemp("rect")
    t0 = time.perf_counter()
    first = _chain(base / "one", rectangle_loop())
    seconds = time.perf_counter() - t0
    second = _chain(base / "two", rectangle_loop())
    return {"first": first, "second": second, "seconds": seconds}


# ---------------------------------------------------------------------------


def test_criterion_1_extraction_matches_bruteforce_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for _ in range(1000):
        n_a = int(rng.integers(1, 16))
        n_r = int(rng.integers(4, 48))
        dr = float(rng.uniform(0.1, 1.5))
        scan = random_scan(rng, n_a=n_a, n_r=n_r, dr=dr)
        k = int(rng.integers(1, 13))
        tau = float(rng.integers(0, 200))
        r_min = float(rng.uniform(0.0, n_r * dr * 0.4))
        r_max = float(rng.uniform(r_min + dr, n_r * dr + 1.0))
        cloud = k_strongest(scan, k, r_min, r_max, tau)
        expect = brute_force_k_strongest(scan, k, r_min, r_max, tau)
        assert len(cloud) == len(expect)
        if not expect:
            continue
        rows = np.searchsorted(scan.azimuth_timestamps, cloud.t)
        bins = np.rint(np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]) / dr - 0.5)
        got = list(zip(rows.tolist(), bins.astype(int).tolist()))
        assert got == expect
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_hard_threshold_and_kept_set():
    params = Params()
    assert params.d_max == 1.75
    cutoff = params.d_max

    rng = np.random.default_rng(2002)
    n = 10_000
    xyz = rng.uniform(-100.0, 100.0, size=(n, 3))
    xyz[:, 2] = 0.0
    cloud = PointCloud(xyz, np.arange(n, dtype=np.int64))
    tilt = RelativeTilt(np.array([0.0, 1.0, 0.0]), math.radians(13.0))
    kept = tilt_filter(cloud, tilt, params)
    dd = vertical_displacement(cloud.xyz, tilt)
    expect = np.nonzero(dd <= cutoff)[0]
    assert 0 < len(expect) < n  # the sample straddles the cut
    np.testing.assert_array_equal(kept.t, expect)


def test_criterion_3_icp_recovers_random_perturbations():
    # Bijective matching isolates the transform-recovery property; the
    # default one-to-many matching carries a small neighborhood-centroid
    # pull on sparse uniform clouds and is covered by the closed-loop
    # criteria instead.
    cfg = Params(k_nn=1)
    # The first index build in a process loads scipy.spatial, a one-time
    # cost outside the per-registration budget timed below.
    build_nn_index(np.zeros((1, 3)))
    rng = np.random.default_rng(3003)
    successes = 0
    for _ in range(100):
        n = int(rng.integers(150, 400))
        ref = random_cloud(rng, n, extent=50.0)
        dx, dy = rng.uniform(-1.0, 1.0, size=2)
        dyaw = rng.uniform(-math.radians(5.0), math.radians(5.0))
        pert = Pose2(float(dx), float(dy), float(dyaw))
        src_xyz = ref.xyz.copy()
        src_xyz[:, :2] = pert.transform_xy(ref.xyz[:, :2])
        t0 = time.perf_counter()
        index = build_nn_index(ref.xyz)
        res = icp_point_to_point(src_xyz, index, Pose2.identity(), cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1
        inv = pert.inverse()
        t_err = math.hypot(res.delta.x - inv.x, res.delta.y - inv.y)
        yaw_err = abs(res.delta.yaw - inv.yaw)
        if t_err <= 0.05 and math.degrees(yaw_err) <= 0.2:
            successes += 1
    assert successes >= 98


def _tilt_profile_course():
    """60 s straight course whose attitude sweeps roll and pitch."""
    deg = math.radians
    return Scenario(
        seed=404,
        segments=(PathSegment("straight", speed=2.0, length=120.0),),
        tilt_profile=(
            (0.0, 0.0, 0.0),
            (20.0, deg(12.0), deg(4.0)),
            (40.0, deg(-18.0), deg(-6.0)),
            (60.0, deg(25.0), 0.0),
            (80.0, 0.0, deg(7.0)),
            (100.0, deg(-10.0), 0.0),
            (120.0, 0.0, 0.0),
        ),
        imu=ImuModel(gyro_noise_density=0.0, accel_noise_density=0.0),
    )


def test_criterion_4_attitude_tracks_zero_noise_imu():
    sc = _tilt_profile_course()
    gt = generate_ground_truth(sc)
    imu = synthesize_imu(sc, gt)

    track = run_filter(imu, beta=0.1)
    gt_q = gt.sample(track.timestamps)[1]
    roll_e, pitch_e, _ = quat_array_to_rpy(track.quaternions)
    roll_g, pitch_g, _ = quat_array_to_rpy(gt_q)
    # Post-convergence window: past the 10 s static settle period.
    settled = track.timestamps > track.timestamps[0] + 10_000_000_000
    assert math.degrees(np.abs(roll_e - roll_g)[settled].max()) < 0.5
    assert math.degrees(np.abs(pitch_e - pitch_g)[settled].max()) < 0.5

    # With the gravity correction off the filter must be pure gyro
    # integration: compare stepwise against an exact expmap oracle.
    track0 = run_filter(imu, beta=0.0)
    q = UnitQuat(*track0.quaternions[0])
    dts = np.diff(imu.t) * 1e-9
    for i, (dt, omega) in enumerate(zip(dts, imu.omega[1:]), start=1):
        theta = float(np.linalg.norm(omega)) * dt
        if theta >= 1e-15:
            q = q * from_axis_angle(omega / np.linalg.norm(omega), theta)
        step_q = UnitQuat(*track0.quaternions[i])
        assert angle_to(q, step_q) <= 1e-6 * i


def test_criterion_5_flat_loop_odometry(rectangle_chain):
    assert rectangle_chain["seconds"] < 180.0
    first = rectangle_chain["first"]
    _, _, _, median = read_rte_csv(first["rte"])
    assert median < 1.5
    t, x, y, yaw, _, _ = read_trajectory_csv(first["traj"])
    est = Trajectory(t, x, y, yaw)
    gt = ground_truth_trajectory(first["ds"] / "ground_truth.csv")
    assert endpoint_error(est, gt) < 5.0


def test_criterion_6_tilt_ablation_over_seeds(tmp_path, capsys):
    gated, ungated = [], []
    for seed in (1, 2, 3, 4, 5):
        sc = quarry_course(seed=seed)
        gt = generate_ground_truth(sc)
        roll, pitch, _ = quat_array_to_rpy(gt.quats)
        step = 250  # one 0.25 s scan period at the 1 kHz truth rate
        dpitch = np.degrees(np.abs(pitch[step:] - pitch[:-step]))
        droll = np.degrees(np.abs(roll[step:] - roll[:-step]))
        # Stays inside the envelope while genuinely stressing it.
        assert dpitch.max() <= 13.0 and dpitch.max() >= 8.0
        assert droll.max() <= 4.0 and droll.max() >= 3.0
        assert np.degrees(np.abs(pitch)).max() <= 30.0 + 1e-6
        assert np.degrees(np.abs(pitch)).max() >= 25.0

        # One dataset per seed; the gated and ungated runs both read it.
        root = tmp_path / f"seed{seed}"
        ds = _simulate(root, sc)
        on = _run_eval(root / "gated", ds)
        off = _run_eval(root / "ungated", ds,
                        run_args=["--no-tilt-gate", "--no-tilt-search"])
        gated.append(read_rte_csv(on["rte"])[3])
        ungated.append(read_rte_csv(off["rte"])[3])

    with capsys.disabled():
        print("\ntilt ablation, median RTE% per seed (gated / ungated / delta):")
        for i, (a, b) in enumerate(zip(gated, ungated), start=1):
            print(f"  seed {i}: {a:.3f} / {b:.3f} / {b - a:+.3f}")
        print(f"  aggregate medians: gated {statistics.median(gated):.3f}"
              f"  ungated {statistics.median(ungated):.3f}")
    assert statistics.median(gated) <= statistics.median(ungated)


def test_criterion_7_tilt_step_miss_recovery(tmp_path):
    # The course is ~60 m of arc, so score short segments.
    out = _chain(tmp_path, tilt_step_course(), segment=25.0, diagnostics=True)
    t, x, y, yaw, roll, pitch = read_trajectory_csv(out["traj"])
    for col in (x, y, yaw, roll, pitch):
        assert np.all(np.isfinite(col))

    lines = out["diag"].read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == len(t)  # one diagnostics row per scan
    hit_i = header.index("hit")
    reason_i = header.index("reason")
    atlas_i = header.index("atlas_size")
    scan_i = header.index("scan")
    misses = [r for r in rows if r[hit_i] == "0" and int(r[scan_i]) > 0]
    assert len(misses) >= 1  # the tilt step must orphan the query
    assert all(r[reason_i] == "no-submap" for r in misses)
    # Each miss opens a fresh submap, so the atlas outgrows the cold start.
    assert max(int(r[atlas_i]) for r in rows) >= 2
    # The run keeps registering after the miss.
    last_miss = max(int(r[scan_i]) for r in misses)
    assert any(int(r[scan_i]) > last_miss and r[hit_i] == "1" for r in rows)


def test_criterion_8_chain_is_deterministic(rectangle_chain):
    a, b = rectangle_chain["first"], rectangle_chain["second"]
    assert a["traj"].read_bytes() == b["traj"].read_bytes()
    assert a["rte"].read_bytes() == b["rte"].read_bytes()


def test_criterion_9_metric_sanity(rectangle_chain):
    gt = ground_truth_trajectory(rectangle_chain["first"]["ds"] / "ground_truth.csv")
    rep = relative_translation_error(gt, gt)
    # Zero at double precision: resampling through the wrapped-yaw
    # representation leaves ~1e-14 interpolation dust.
    assert rep.median <= 1e-9
    assert float(rep.errors_pct.max()) <= 1e-6
    assert endpoint_error(gt, gt) == 0.0

    x = np.linspace(0.0, 200.0, 401)
    t = (np.arange(401) * 100_000_000).astype(np.int64)
    truth = Trajectory(t, x, np.zeros_like(x), np.zeros_like(x))
    scaled = Trajectory(t, x * 1.01, np.zeros_like(x), np.zeros_like(x))
    rep = relative_translation_error(scaled, truth)
    assert rep.median == pytest.approx(1.0, abs=0.05)
