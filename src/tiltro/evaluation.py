"""Trajectory accuracy metrics.

The headline number is the relative translation error: for every ground-
truth sample, find the later sample a fixed arc length ahead, express both
trajectories' displacement over that stretch in the respective start frames,
and report the planar mismatch as a percentage of the stretch length.
Overlapping (stride-1) segments make the statistic dense and estimator-
friendly; the companion endpoint error measures global closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrajectoryTooShort
from .geometry import wrap_angle_array


@dataclass(frozen=True)
class Trajectory:
    """Planar trajectory: t (ns, strictly increasing), x, y, yaw arrays."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    yaw: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.int64)
        object.__setattr__(self, "t", t)
        for name in ("x", "y", "yaw"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise ValueError(f"{name} must match the timestamp array shape")
            object.__setattr__(self, name, arr)
        if t.ndim != 1 or t.shape[0] < 2:
            raise TrajectoryTooShort("trajectory needs at least two samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("trajectory timestamps must be strictly increasing")

    def __len__(self) -> int:
        return self.t.shape[0]

    def resample(self, ts: np.ndarray) -> "Trajectory":
        """Linear interpolation onto new timestamps (yaw unwrapped first)."""
        ts = np.asarray(ts, dtype=np.int64)
        # Times relative to the first sample, subtracted in int64: float64
        # resolves only 256 ns at epoch scale.
        tf = (self.t - self.t[0]).astype(float)
        qf = (ts - self.t[0]).astype(float)
        x = np.interp(qf, tf, self.x)
        y = np.interp(qf, tf, self.y)
        yaw_cont = np.unwrap(self.yaw)
        yaw = np.interp(qf, tf, yaw_cont)
        return Trajectory(ts, x, y, wrap_angle_array(yaw))


@dataclass(frozen=True)
class RteReport:
    """Relative-error population over fixed-arc-length segments."""

    segment_length: float
    start_t: np.ndarray
    seg_lengths: np.ndarray
    errors_pct: np.ndarray
    rot_errors_deg_per_100m: np.ndarray

    @property
    def count(self) -> int:
        return int(self.errors_pct.shape[0])

    @property
    def median(self) -> float:
        return float(np.median(self.errors_pct))

    @property
    def mean(self) -> float:
        return float(np.mean(self.errors_pct))

    @property
    def quartiles(self) -> tuple[float, float]:
        return (
            float(np.percentile(self.errors_pct, 25)),
            float(np.percentile(self.errors_pct, 75)),
        )


def _overlap_window(est: Trajectory, gt: Trajectory) -> np.ndarray:
    lo = max(est.t[0], gt.t[0])
    hi = min(est.t[-1], gt.t[-1])
    if hi <= lo:
        raise TrajectoryTooShort("trajectories do not overlap in time")
    return (gt.t >= lo) & (gt.t <= hi)


def relative_translation_error(
    est: Trajectory, gt: Trajectory, segment_length: float = 100.0
) -> RteReport:
    """Percent translation error over every GT-arc-length segment.

    The estimate is resampled at the ground-truth timestamps of the common
    time window.  For each start index i, the end index j is the first
    sample at least ``segment_length`` of GT arc ahead; the error is
    ``|rel_gt - rel_est| / arc * 100`` with both relative displacements
    expressed in their own start frames.  Raises TrajectoryTooShort when
    no segment fits.
    """
    if segment_length <= 0.0:
        raise ValueError("segment length must be positive")
    window = _overlap_window(est, gt)
    gt_t = gt.t[window]
    if gt_t.shape[0] < 2:
        raise TrajectoryTooShort("too few ground-truth samples in the overlap")
    gx = gt.x[window]
    gy = gt.y[window]
    gyaw = gt.yaw[window]
    est_r = est.resample(gt_t)

    steps = np.hypot(np.diff(gx), np.diff(gy))
    arc = np.concatenate([[0.0], np.cumsum(steps)])
    if arc[-1] < segment_length:
        raise TrajectoryTooShort(
            f"ground-truth arc {arc[-1]:.1f} m shorter than one "
            f"{segment_length:.0f} m segment"
        )
    ends = np.searchsorted(arc, arc + segment_length, side="left")
    starts = np.nonzero(ends < arc.shape[0])[0]
    ends = ends[starts]
    seg_len = arc[ends] - arc[starts]

    def rel(x, y, yaw):
        dx = x[ends] - x[starts]
        dy = y[ends] - y[starts]
        c = np.cos(yaw[starts])
        s = np.sin(yaw[starts])
        return np.column_stack([c * dx + s * dy, -s * dx + c * dy])

    rel_gt = rel(gx, gy, gyaw)
    rel_est = rel(est_r.x, est_r.y, est_r.yaw)
    err = np.linalg.norm(rel_gt - rel_est, axis=1) / seg_len * 100.0

    dyaw_gt = wrap_angle_array(gyaw[ends] - gyaw[starts])
    dyaw_est = wrap_angle_array(est_r.yaw[ends] - est_r.yaw[starts])
    rot_err = np.degrees(np.abs(wrap_angle_array(dyaw_gt - dyaw_est)))
    rot_err = rot_err / seg_len * 100.0

    return RteReport(
        segment_length=segment_length,
        start_t=gt_t[starts],
        seg_lengths=seg_len,
        errors_pct=err,
        rot_errors_deg_per_100m=rot_err,
    )


def endpoint_error(est: Trajectory, gt: Trajectory) -> float:
    """Planar distance between the trajectories at the common end time."""
    lo = max(est.t[0], gt.t[0])
    hi = min(est.t[-1], gt.t[-1])
    if hi <= lo:
        raise TrajectoryTooShort("trajectories do not overlap in time")
    # Times relative to ``lo``, subtracted in int64 (see Trajectory.resample).
    tf = float(hi - lo)
    est_t = (est.t - lo).astype(float)
    gt_t = (gt.t - lo).astype(float)
    ex = np.interp(tf, est_t, est.x)
    ey = np.interp(tf, est_t, est.y)
    gx = np.interp(tf, gt_t, gt.x)
    gy = np.interp(tf, gt_t, gt.y)
    return float(math.hypot(ex - gx, ey - gy))
