"""Tests for the deterministic scenario simulator (truth, radar, IMU)."""

import math
import sys

import numpy as np
import pytest

import tiltro.sim
from tiltro.attitude import run_filter
from tiltro.errors import InvalidScenario
from tiltro.geometry import quat_array_to_rpy
from tiltro.sim import (
    GroundTruth,
    ImuModel,
    PathSegment,
    Pole,
    RadarModel,
    Scenario,
    generate_ground_truth,
    quarry_course,
    rectangle_loop,
    render_scan,
    simulate,
    synthesize_imu,
    tilt_step_course,
)

from helpers import all_pairs_pole_scan

_DEG = math.radians(1.0)


def _quat_angles(a, b):
    """Pairwise rotation angle (rad) between two (N, 4) quaternion arrays."""
    dots = np.abs(np.sum(a * b, axis=1))
    return 2.0 * np.arccos(np.clip(dots, -1.0, 1.0))


def _quiet_radar(**kw):
    return RadarModel(noise_floor_mean=0.0, noise_floor_sigma=0.0, **kw)


def _dwell_scenario(poles=(), tilt=(), radar=None):
    return Scenario(
        seed=5,
        segments=(PathSegment("dwell", duration=2.0),),
        poles=tuple(poles),
        tilt_profile=tuple(tilt),
        radar=radar or _quiet_radar(),
    )


def test_straight_flat_ground_truth():
    sc = Scenario(
        seed=1, segments=(PathSegment("straight", speed=1.0, length=10.0),)
    )
    gt = generate_ground_truth(sc)
    assert (gt.t_end - gt.t_start) * 1e-9 == pytest.approx(10.0, abs=0.01)
    assert gt.pos[0, 0] == pytest.approx(0.0)
    assert gt.pos[-1, 0] == pytest.approx(10.0, abs=1e-6)
    np.testing.assert_allclose(gt.pos[:, 1], 0.0, atol=1e-9)
    roll, pitch, yaw = quat_array_to_rpy(gt.quats)
    np.testing.assert_allclose(roll, 0.0, atol=1e-9)
    np.testing.assert_allclose(pitch, 0.0, atol=1e-9)
    np.testing.assert_allclose(yaw, 0.0, atol=1e-9)


def test_circle_advances_heading_one_turn():
    sc = Scenario(
        seed=1,
        segments=(
            PathSegment("turn", speed=2.0, radius=20.0, angle=2.0 * math.pi),
        ),
    )
    gt = generate_ground_truth(sc)
    _, _, yaw = quat_array_to_rpy(gt.quats)
    unwrapped = np.unwrap(yaw)
    assert unwrapped[-1] - unwrapped[0] == pytest.approx(2.0 * math.pi, abs=1e-3)
    assert np.hypot(*(gt.pos[-1, :2] - gt.pos[0, :2])) < 0.05


def test_ditch_profile_meets_per_scan_pitch_envelope():
    # 0 -> -30 -> +30 -> 0 deg of pitch across 8 m of arc.  At 2 m/s a scan
    # period (0.25 s) covers 0.5 m, and the middle ramp moves 30 deg/m, so
    # consecutive scans see pitch jumps past the 13 deg envelope figure.
    sc = Scenario(
        seed=1,
        segments=(PathSegment("straight", speed=2.0, length=20.0),),
        tilt_profile=(
            (0.0, 0.0, 0.0),
            (3.0, math.radians(-30.0), 0.0),
            (5.0, math.radians(30.0), 0.0),
            (8.0, 0.0, 0.0),
        ),
    )
    gt = generate_ground_truth(sc)
    _, pitch, _ = quat_array_to_rpy(gt.quats)
    step = 250  # 0.25 s at the 1 kHz truth rate
    dpitch = np.abs(pitch[step:] - pitch[:-step])
    assert math.degrees(dpitch.max()) >= 13.0
    assert math.degrees(np.abs(pitch).max()) == pytest.approx(30.0, abs=0.5)


def test_ground_truth_sample_is_independent_of_the_time_origin():
    # At a Unix-epoch offset float64 resolves only 256 ns, so the query must
    # subtract in int64 before it converts.
    offset = 1_760_000_000_000_000_000
    gt = generate_ground_truth(_tilting_course(length=20.0))
    epoch = GroundTruth(gt.t + offset, gt.pos, gt.quats)
    ts = np.random.default_rng(3).integers(gt.t_start, gt.t_end, 2000)
    pos, quats = gt.sample(ts)
    pos_e, quats_e = epoch.sample(ts + offset)
    np.testing.assert_array_equal(pos_e, pos)
    np.testing.assert_array_equal(quats_e, quats)


def test_render_pole_peak_lands_in_true_range_bin():
    gt = generate_ground_truth(_dwell_scenario())
    # 10.0 m sits exactly on the bin 99/100 boundary; 10.05 m is the center
    # of bin 100 and must win it outright.
    sc = _dwell_scenario(poles=[Pole(10.0, 0.0, 0.0, 3.0, 200.0)])
    scan = render_scan(sc, gt, gt.t_start)
    peak = int(np.argmax(scan.intensity[0]))
    assert peak in (99, 100)
    assert scan.intensity[0, peak] > 0

    sc = _dwell_scenario(poles=[Pole(10.05, 0.0, 0.0, 3.0, 200.0)])
    scan = render_scan(sc, gt, gt.t_start)
    assert int(np.argmax(scan.intensity[0])) == 100
    # Only the facing azimuth returns anything.
    assert np.all(scan.intensity[1:] == 0)


def test_render_tilted_beam_passes_over_short_pole():
    # Nose-up pitch lifts the scan plane above a 1 m pole at 30 m; the
    # return disappears even though the pole is well inside range.
    level = _dwell_scenario(poles=[Pole(30.0, 0.0, 0.0, 1.0, 200.0)])
    gt = generate_ground_truth(level)
    assert render_scan(level, gt, gt.t_start).intensity.max() > 0

    pitched = _dwell_scenario(
        poles=[Pole(30.0, 0.0, 0.0, 1.0, 200.0)],
        tilt=((0.0, math.radians(-6.0), 0.0),),
    )
    gt_p = generate_ground_truth(pitched)
    assert render_scan(pitched, gt_p, gt_p.t_start).intensity.max() == 0


def test_render_empty_world_zero_noise_is_all_zero():
    sc = _dwell_scenario()
    gt = generate_ground_truth(sc)
    scan = render_scan(sc, gt, gt.t_start)
    assert scan.intensity.dtype == np.uint8
    assert np.all(scan.intensity == 0)
    assert scan.azimuth_count == 400
    assert scan.t_start == gt.t_start


def test_render_peak_energy_monotone_in_range():
    sc = _dwell_scenario(
        poles=[
            Pole(20.0, 0.0, 0.0, 5.0, 100.0),
            Pole(0.0, 40.0, 0.0, 5.0, 100.0),
            Pole(-80.0, 0.0, 0.0, 5.0, 100.0),
        ]
    )
    gt = generate_ground_truth(sc)
    scan = render_scan(sc, gt, gt.t_start)
    near = scan.intensity[0].max()
    mid = scan.intensity[100].max()
    far = scan.intensity[200].max()
    assert near > mid > far > 0


def test_simulate_is_bit_reproducible():
    sc = Scenario(
        seed=9,
        segments=(
            PathSegment("dwell", duration=1.0),
            PathSegment("straight", speed=2.0, length=8.0),
        ),
        poles=(Pole(10.0, 2.0, 0.0, 4.0, 220.0), Pole(4.0, -6.0, 0.0, 4.0, 180.0)),
    )
    a = simulate(sc)
    b = simulate(sc)
    assert len(a.scans) == len(b.scans) > 0
    for sa, sb in zip(a.scans, b.scans):
        np.testing.assert_array_equal(sa.intensity, sb.intensity)
        np.testing.assert_array_equal(sa.azimuth_timestamps, sb.azimuth_timestamps)
        np.testing.assert_array_equal(sa.azimuths, sb.azimuths)
    assert len(a.imu) == len(b.imu)
    for ia, ib in zip(a.imu, b.imu):
        assert ia.t == ib.t
        np.testing.assert_array_equal(ia.omega, ib.omega)
        np.testing.assert_array_equal(ia.accel, ib.accel)


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_simulate_matches_sequential_render_loop(workers, monkeypatch):
    # Parallel rendering must not change a byte for any worker count, also
    # with more workers than cores and frequent thread switches: the
    # reference is one render_scan call per rotation period, in order, on
    # this thread.
    monkeypatch.setattr(tiltro.sim, "_usable_cpus", lambda: workers)
    sc = Scenario(
        seed=23,
        segments=(
            PathSegment("dwell", duration=0.5),
            PathSegment("straight", speed=2.0, length=8.0),
        ),
        poles=tuple(
            Pole(x, y, 0.0, 3.0, 200.0)
            for x, y in np.random.default_rng(23).uniform(-15.0, 25.0, (40, 2))
        ),
        tilt_profile=(
            (0.0, 0.0, 0.0),
            (4.0, math.radians(10.0), math.radians(4.0)),
            (8.0, math.radians(-6.0), 0.0),
        ),
        radar=RadarModel(ground_reflectivity=16.0),
    )
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = simulate(sc)
    finally:
        sys.setswitchinterval(switch)
    gt = generate_ground_truth(sc)
    period = sc.radar.period_ns
    expected = []
    t0 = gt.t_start
    while t0 + period <= result.imu[-1].t:
        expected.append(render_scan(sc, gt, t0))
        t0 += period
    assert len(result.scans) == len(expected) > 8
    for got, want in zip(result.scans, expected):
        assert got.intensity.tobytes() == want.intensity.tobytes()
        assert got.azimuth_timestamps.tobytes() == want.azimuth_timestamps.tobytes()
        assert got.azimuths.tobytes() == want.azimuths.tobytes()
        assert got.range_resolution == want.range_resolution


def _pole_window_scenario(segment, heading=0.0, tilt=()):
    """Half a second at rest, then a fast pass (8 m/s, so a scan spans 2 m
    of path) through poles on and beside the path, poles straight behind the
    start (bearings at +-pi), and a seeded field around it; noise-free so
    grids compare exactly."""
    c, s = math.cos(heading), math.sin(heading)
    near = [(along, side) for along in np.arange(0.5, 16.0, 0.75)
            for side in (0.0, 0.12, -0.4, 0.9, -1.3)]
    behind = [(-4.0, 1e-3), (-4.0, -1e-3), (-9.0, 0.0)]
    rng = np.random.default_rng(41)
    field = rng.uniform(-30.0, 40.0, (60, 2))
    local = np.array(near + behind + field.tolist())
    heights = rng.uniform(0.5, 8.0, len(local))
    bases = rng.uniform(-1.0, 0.5, len(local))
    poles = tuple(
        Pole(float(c * a - s * b), float(s * a + c * b), float(z), float(h), 180.0)
        for (a, b), z, h in zip(local, bases, heights)
    )
    return Scenario(
        seed=31,
        segments=(PathSegment("dwell", duration=0.5), segment),
        poles=poles,
        tilt_profile=tuple(tilt),
        radar=_quiet_radar(),
        start_heading=heading,
    )


@pytest.mark.parametrize(
    "sc",
    [
        _pole_window_scenario(PathSegment("straight", speed=8.0, length=16.0)),
        _pole_window_scenario(
            PathSegment("straight", speed=8.0, length=16.0),
            heading=math.pi,
            tilt=((0.0, math.radians(15.0), math.radians(-8.0)),
                  (16.0, math.radians(-20.0), math.radians(6.0))),
        ),
        _pole_window_scenario(
            PathSegment("turn", speed=8.0, radius=4.0, angle=2.0 * math.pi),
            heading=3.0,
            tilt=((0.0, math.radians(-12.0), math.radians(10.0)),
                  (25.0, math.radians(18.0), 0.0)),
        ),
    ],
    ids=["level-pass", "tilted-heading-pi", "tilted-turn"],
)
def test_render_pole_window_matches_all_pairs_hit_test(sc):
    gt = generate_ground_truth(sc)
    period = sc.radar.period_ns
    p_xy = np.array([[q.x, q.y] for q in sc.poles])
    passed_within_reach = 0
    for t0 in range(gt.t_start, gt.t_end - period + 1, period):
        want = all_pairs_pole_scan(sc, gt, t0)
        assert np.count_nonzero(want) > 0
        np.testing.assert_array_equal(render_scan(sc, gt, t0).intensity, want)
        # Count scans whose path passes a pole closer than its own spread,
        # where the window has to keep every azimuth.
        pos, _ = gt.sample(t0 + np.arange(400) * (period // 400))
        mean = pos[:, :2].mean(axis=0)
        reach = np.hypot(*(pos[:, :2] - mean).T).max()
        passed_within_reach += np.hypot(*(p_xy - mean).T).min() <= reach
    assert passed_within_reach > 0


def test_static_imu_statistics():
    bias_g = (0.01, -0.02, 0.005)
    bias_a = (0.05, -0.03, 0.02)
    sc = Scenario(
        seed=13,
        segments=(PathSegment("dwell", duration=30.0),),
        imu=ImuModel(gyro_bias=bias_g, accel_bias=bias_a),
    )
    gt = generate_ground_truth(sc)
    imu = synthesize_imu(sc, gt)
    gyro = np.array([s.omega for s in imu])
    accel = np.array([s.accel for s in imu])
    n = len(imu)
    tol_g = 3.0 * 0.0002 * math.sqrt(200.0) / math.sqrt(n)
    tol_a = 3.0 * 0.002 * math.sqrt(200.0) / math.sqrt(n)
    np.testing.assert_allclose(gyro.mean(axis=0), bias_g, atol=tol_g * 1.5)
    np.testing.assert_allclose(
        accel.mean(axis=0), np.array(bias_a) + np.array([0.0, 0.0, 9.81]),
        atol=tol_a * 1.5,
    )


def test_constant_yaw_rate_imu_mean():
    # 2 m/s on a 4 m radius is 0.5 rad/s of yaw.
    sc = Scenario(
        seed=17,
        segments=(PathSegment("turn", speed=2.0, radius=4.0, angle=10.0),),
    )
    gt = generate_ground_truth(sc)
    imu = synthesize_imu(sc, gt)
    wz = np.array([s.omega[2] for s in imu])
    tol = 3.0 * 0.0002 * math.sqrt(200.0) / math.sqrt(len(wz))
    assert wz.mean() == pytest.approx(0.5, abs=tol + 1e-4)


def _tilting_course(length=120.0):
    return Scenario(
        seed=21,
        segments=(PathSegment("straight", speed=2.0, length=length),),
        tilt_profile=(
            (0.0, 0.0, 0.0),
            (20.0, math.radians(12.0), math.radians(4.0)),
            (40.0, math.radians(-18.0), math.radians(-6.0)),
            (60.0, math.radians(25.0), 0.0),
            (80.0, 0.0, math.radians(7.0)),
            (100.0, math.radians(-10.0), 0.0),
            (120.0, 0.0, 0.0),
        ),
        imu=ImuModel(gyro_noise_density=0.0, accel_noise_density=0.0),
    )


def test_zero_noise_gyro_integration_recovers_truth():
    sc = _tilting_course()
    gt = generate_ground_truth(sc)
    imu = synthesize_imu(sc, gt)
    track = run_filter(imu, beta=0.0)
    gt_q = gt.sample(track.timestamps)[1]
    err = _quat_angles(track.quaternions, gt_q)
    assert math.degrees(err.max()) < 0.1  # 60 s round trip


def test_zero_noise_madgwick_tracks_roll_pitch():
    sc = _tilting_course()
    gt = generate_ground_truth(sc)
    imu = synthesize_imu(sc, gt)
    track = run_filter(imu, beta=0.1)
    gt_q = gt.sample(track.timestamps)[1]
    roll_e, pitch_e, _ = quat_array_to_rpy(track.quaternions)
    roll_g, pitch_g, _ = quat_array_to_rpy(gt_q)
    settled = track.timestamps > track.timestamps[0] + 10_000_000_000
    assert math.degrees(np.abs(roll_e - roll_g)[settled].max()) < 0.5
    assert math.degrees(np.abs(pitch_e - pitch_g)[settled].max()) < 0.5


def _per_scan_deltas(scenario):
    gt = generate_ground_truth(scenario)
    roll, pitch, _ = quat_array_to_rpy(gt.quats)
    step = 250  # one 0.25 s rotation at the 1 kHz truth rate
    dp = np.abs(pitch[step:] - pitch[:-step])
    dr = np.abs(roll[step:] - roll[:-step])
    return roll, pitch, dp, dr


def test_quarry_course_stays_inside_published_envelope():
    roll, pitch, dp, dr = _per_scan_deltas(quarry_course())
    assert math.degrees(dp.max()) <= 13.0
    assert math.degrees(dr.max()) <= 4.0
    assert math.degrees(np.abs(pitch).max()) <= 30.0 + 1e-6
    assert math.degrees(np.abs(roll).max()) <= 8.0 + 1e-6
    # The course genuinely exercises the mechanism: scan-to-scan tilt steps
    # past the 3 deg gate threshold and pitch reaching the envelope edge.
    assert math.degrees(dp.max()) > 8.0
    assert math.degrees(np.abs(pitch).max()) > 25.0


def test_tilt_step_course_crosses_gate_threshold():
    _, pitch, dp, _ = _per_scan_deltas(tilt_step_course())
    assert math.degrees(dp.max()) > 3.5
    assert math.degrees(np.abs(pitch).max()) == pytest.approx(8.0, abs=0.5)


def test_scenario_json_round_trip():
    sc = quarry_course()
    text = sc.to_json()
    back = Scenario.from_json(text)
    assert back.to_json() == text
    assert back.seed == sc.seed
    assert back.tilt_profile == sc.tilt_profile
    assert len(back.poles) == len(sc.poles)
    assert back.radar == sc.radar


def test_rectangle_loop_shape():
    sc = rectangle_loop()
    gt = generate_ground_truth(sc)
    arc = np.sum(np.linalg.norm(np.diff(gt.pos[:, :2], axis=0), axis=1))
    assert arc == pytest.approx(491.4, abs=2.0)
    assert np.hypot(*(gt.pos[-1, :2] - gt.pos[0, :2])) < 1.0  # closed loop


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        Scenario(seed=1, segments=())
    with pytest.raises(InvalidScenario):
        PathSegment("dwell", duration=0.0)
    with pytest.raises(InvalidScenario):
        PathSegment("straight", speed=0.0, length=10.0)
    with pytest.raises(InvalidScenario):
        PathSegment("spiral")
    with pytest.raises(InvalidScenario):
        Scenario(
            seed=1,
            segments=(PathSegment("dwell", duration=1.0),),
            tilt_profile=((0.0, 0.0, 0.0), (0.0, 0.1, 0.0)),
        )
    with pytest.raises(InvalidScenario):
        Scenario.from_json("{not json")
    with pytest.raises(InvalidScenario):
        Scenario.from_json("{}")
