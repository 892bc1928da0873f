"""Tests for the trajectory error metrics."""

import math

import numpy as np
import pytest

from tiltro.errors import TrajectoryTooShort
from tiltro.evaluation import (
    Trajectory,
    endpoint_error,
    relative_translation_error,
)


def _traj(x, y=None, yaw=None, dt_ns=100_000_000):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    t = np.arange(n, dtype=np.int64) * dt_ns
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    yaw = np.zeros(n) if yaw is None else np.asarray(yaw, dtype=float)
    return Trajectory(t, x, y, yaw)


def _curvy(n=600, speed=2.0, dt=0.1):
    s = np.arange(n) * speed * dt
    x = s
    y = 10.0 * np.sin(s / 30.0)
    dy = np.gradient(y, s)
    yaw = np.arctan2(dy, 1.0)
    return Trajectory((np.arange(n) * dt * 1e9).astype(np.int64), x, y, yaw)


def test_identical_trajectories_score_zero():
    gt = _curvy()
    rep = relative_translation_error(gt, gt, segment_length=20.0)
    assert rep.count > 400
    np.testing.assert_allclose(rep.errors_pct, 0.0, atol=1e-9)
    np.testing.assert_allclose(rep.rot_errors_deg_per_100m, 0.0, atol=1e-9)
    assert rep.median < 1e-12  # resampling leaves interpolation dust
    assert endpoint_error(gt, gt) == 0.0


def test_hand_worked_straight_segments():
    # 11 samples, 1 m apart.  With 5 m segments the starts are indices 0..5
    # and a 2 % stretched estimate errs by exactly 2 % on each.
    gt = _traj(np.arange(11.0))
    est = _traj(np.arange(11.0) * 1.02)
    rep = relative_translation_error(est, gt, segment_length=5.0)
    assert rep.count == 6
    np.testing.assert_allclose(rep.seg_lengths, 5.0)
    np.testing.assert_allclose(rep.errors_pct, 2.0, atol=1e-12)
    np.testing.assert_allclose(rep.start_t, gt.t[:6])


def test_one_percent_scale_reads_one_percent():
    gt = _traj(np.linspace(0.0, 200.0, 401))
    est = _traj(np.linspace(0.0, 200.0, 401) * 1.01)
    rep = relative_translation_error(est, gt, segment_length=100.0)
    assert rep.median == pytest.approx(1.0, abs=0.05)
    assert rep.mean == pytest.approx(1.0, abs=0.05)


def test_constant_offset_is_invisible_to_rte():
    gt = _curvy()
    est = Trajectory(gt.t, gt.x + 3.0, gt.y - 4.0, gt.yaw)
    rep = relative_translation_error(est, gt, segment_length=20.0)
    np.testing.assert_allclose(rep.errors_pct, 0.0, atol=1e-9)
    assert endpoint_error(est, gt) == pytest.approx(5.0, abs=1e-9)


def test_common_rigid_transform_is_invisible():
    gt = _curvy()
    est = Trajectory(gt.t, gt.x + 0.2 * np.sin(gt.x / 15.0), gt.y, gt.yaw)
    base = relative_translation_error(est, gt, segment_length=20.0)

    a = 0.83
    c, s = math.cos(a), math.sin(a)

    def moved(tr):
        return Trajectory(
            tr.t,
            c * tr.x - s * tr.y + 40.0,
            s * tr.x + c * tr.y - 17.0,
            tr.yaw + a,
        )

    rep = relative_translation_error(moved(est), moved(gt), segment_length=20.0)
    np.testing.assert_allclose(rep.errors_pct, base.errors_pct, atol=1e-9)
    np.testing.assert_allclose(
        rep.rot_errors_deg_per_100m, base.rot_errors_deg_per_100m, atol=1e-9
    )


def test_deformation_scores_positive():
    gt = _curvy()
    est = Trajectory(gt.t, gt.x, gt.y + 0.5 * np.sin(gt.x / 10.0), gt.yaw)
    rep = relative_translation_error(est, gt, segment_length=20.0)
    assert rep.median > 0.1


def test_yaw_drift_shows_in_rotation_column():
    # 0.001 rad of estimated yaw drift per meter: over a 100 m segment the
    # relative yaw disagrees by 0.1 rad, i.e. about 5.73 deg per 100 m.
    x = np.arange(301.0)
    gt = _traj(x)
    est = Trajectory(gt.t, gt.x, gt.y, gt.yaw + 0.001 * x)
    rep = relative_translation_error(est, gt, segment_length=100.0)
    np.testing.assert_allclose(
        rep.rot_errors_deg_per_100m, math.degrees(0.1), rtol=1e-6
    )


def test_report_statistics_match_numpy():
    gt = _curvy()
    rng = np.random.default_rng(3)
    est = Trajectory(
        gt.t,
        gt.x + 0.05 * rng.standard_normal(len(gt)),
        gt.y + 0.05 * rng.standard_normal(len(gt)),
        gt.yaw,
    )
    rep = relative_translation_error(est, gt, segment_length=20.0)
    assert rep.median == float(np.median(rep.errors_pct))
    assert rep.mean == float(np.mean(rep.errors_pct))
    q1, q3 = rep.quartiles
    assert q1 == float(np.percentile(rep.errors_pct, 25))
    assert q3 == float(np.percentile(rep.errors_pct, 75))
    assert rep.count == rep.errors_pct.shape[0]
    assert q1 <= rep.median <= q3


def test_estimate_sampling_density_barely_matters():
    gt = _curvy()
    est = Trajectory(gt.t, gt.x, gt.y + 0.3 * np.sin(gt.x / 12.0), gt.yaw)
    half = Trajectory(est.t[::2], est.x[::2], est.y[::2], est.yaw[::2])
    full_rep = relative_translation_error(est, gt, segment_length=20.0)
    half_rep = relative_translation_error(half, gt, segment_length=20.0)
    assert abs(full_rep.median - half_rep.median) < 0.1


def test_resample_interpolates_and_unwraps():
    tr = Trajectory(
        np.array([0, 1_000_000_000], dtype=np.int64),
        np.array([0.0, 2.0]),
        np.array([0.0, -4.0]),
        np.array([3.1, -3.1]),  # crosses the pi seam
    )
    mid = tr.resample(np.array([250_000_000, 500_000_000], dtype=np.int64))
    assert mid.x[1] == pytest.approx(1.0)
    assert mid.y[1] == pytest.approx(-2.0)
    # Interpolating through the seam must pass near pi, not through zero.
    assert abs(mid.yaw[1]) == pytest.approx(math.pi, abs=1e-9)
    assert abs(mid.yaw[0]) > 3.1


def test_overlap_window_clips_to_common_time():
    gt = _traj(np.arange(101.0))
    # Estimate covers only the middle half of the run.
    sel = slice(25, 76)
    est = Trajectory(gt.t[sel], gt.x[sel] * 1.02, gt.y[sel], gt.yaw[sel])
    rep = relative_translation_error(est, gt, segment_length=10.0)
    assert rep.start_t[0] >= gt.t[25]
    assert rep.start_t[-1] + 0 <= gt.t[75]
    assert rep.count == 41  # 50 m of overlap arc, 10 m segments, stride 1


def test_too_short_and_disjoint_raise():
    short = _traj(np.arange(5.0))
    with pytest.raises(TrajectoryTooShort):
        relative_translation_error(short, short, segment_length=100.0)
    a = _traj(np.arange(20.0))
    b = Trajectory(a.t + 10_000_000_000, a.x, a.y, a.yaw)
    with pytest.raises(TrajectoryTooShort):
        relative_translation_error(a, b, segment_length=5.0)
    with pytest.raises(TrajectoryTooShort):
        endpoint_error(a, b)
    with pytest.raises(TrajectoryTooShort):
        Trajectory(np.array([0]), np.array([0.0]), np.array([0.0]), np.array([0.0]))


def test_trajectory_validation():
    t = np.array([0, 1, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        Trajectory(t, np.zeros(3), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        Trajectory(np.array([0, 1]), np.zeros(3), np.zeros(2), np.zeros(2))
    gt = _traj(np.arange(10.0))
    with pytest.raises(ValueError):
        relative_translation_error(gt, gt, segment_length=0.0)


def test_metrics_are_independent_of_the_time_origin():
    # At a Unix-epoch offset float64 resolves only 256 ns, so interpolation
    # must subtract in int64 before it converts.
    offset = 1_760_000_000_000_000_000
    gt = _curvy()
    wobble = 0.3 * np.sin(gt.x / 12.0)
    est = Trajectory(gt.t[::3] + 33_333_333, gt.x[::3] * 1.01,
                     gt.y[::3] + wobble[::3], gt.yaw[::3])

    def shifted(tr):
        return Trajectory(tr.t + offset, tr.x, tr.y, tr.yaw)

    ts = gt.t[5:-5] + 12_345
    local = est.resample(ts)
    epoch = shifted(est).resample(ts + offset)
    for name in ("x", "y", "yaw"):
        np.testing.assert_array_equal(getattr(epoch, name), getattr(local, name))
    assert endpoint_error(shifted(est), shifted(gt)) == endpoint_error(est, gt)
    rep = relative_translation_error(est, gt, segment_length=20.0)
    rep_epoch = relative_translation_error(shifted(est), shifted(gt),
                                           segment_length=20.0)
    np.testing.assert_array_equal(rep_epoch.start_t, rep.start_t + offset)
    np.testing.assert_array_equal(rep_epoch.errors_pct, rep.errors_pct)
    np.testing.assert_array_equal(rep_epoch.rot_errors_deg_per_100m,
                                  rep.rot_errors_deg_per_100m)
