"""Radar scan frontend: polar scan container, per-azimuth strongest-return
extraction, and attitude-based intra-scan motion compensation.

A polar scan is an (azimuth x range-bin) intensity grid swept over one
rotation; every azimuth row carries its own timestamp.  Extraction turns the
grid into a sparse 3D point cloud (z = 0 in the sensor plane); deskew then
re-expresses every point in the sensor frame at the earliest point time so a
scan captured while tilting stays rigid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attitude import AttitudeTrack
from .geometry import (
    quat_array_conjugate,
    quat_array_multiply,
    quat_array_to_matrices,
)

#: Longest allowed azimuth-timestamp span of one scan (one rotation @ >= 3.3 Hz).
MAX_SCAN_SPAN_NS = 300_000_000


@dataclass
class PolarScan:
    """One full radar rotation as a polar intensity grid.

    azimuths: (N_a,) beam directions in rad, strictly increasing in [0, 2pi).
    azimuth_timestamps: (N_a,) ns, non-decreasing, span <= MAX_SCAN_SPAN_NS.
    intensity: (N_a, N_r) uint8 power-like returns.
    range_resolution: meters per range bin; bin i spans [i*dr, (i+1)*dr).
    """

    azimuths: np.ndarray
    azimuth_timestamps: np.ndarray
    intensity: np.ndarray
    range_resolution: float

    def __post_init__(self):
        self.azimuths = np.asarray(self.azimuths, dtype=float)
        self.azimuth_timestamps = np.asarray(self.azimuth_timestamps, dtype=np.int64)
        self.intensity = np.asarray(self.intensity)
        if self.intensity.dtype != np.uint8:
            raise ValueError("intensity grid must be uint8")
        if self.intensity.ndim != 2:
            raise ValueError("intensity grid must be 2-D (azimuth x range)")
        n_a = self.intensity.shape[0]
        if self.azimuths.shape != (n_a,) or self.azimuth_timestamps.shape != (n_a,):
            raise ValueError("azimuth arrays must match the grid's first dimension")
        if n_a == 0:
            raise ValueError("scan must contain at least one azimuth")
        if not np.all(np.isfinite(self.azimuths)):
            raise ValueError("azimuths must be finite")
        if np.any(np.diff(self.azimuths) <= 0):
            raise ValueError("azimuths must be strictly increasing")
        if self.azimuths[0] < 0.0 or self.azimuths[-1] >= 2.0 * np.pi:
            raise ValueError("azimuths must lie in [0, 2pi)")
        ts = self.azimuth_timestamps
        if np.any(ts[1:] < ts[:-1]):
            raise ValueError("azimuth timestamps must be non-decreasing")
        span = int(ts[-1]) - int(ts[0])
        if span > MAX_SCAN_SPAN_NS:
            raise ValueError(f"azimuth timestamp span {span} ns exceeds one rotation")
        if not math.isfinite(self.range_resolution):
            raise ValueError("range_resolution must be finite")
        if self.range_resolution <= 0.0:
            raise ValueError("range_resolution must be positive")

    @property
    def azimuth_count(self) -> int:
        return self.intensity.shape[0]

    @property
    def range_bin_count(self) -> int:
        return self.intensity.shape[1]

    @property
    def t_start(self) -> int:
        return int(self.azimuth_timestamps.min())


@dataclass
class PointCloud:
    """Columnar point cloud: positions and capture times.

    ``t`` is each point's capture time (ns), which deskew reads.
    """

    xyz: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        self.t = np.asarray(self.t, dtype=np.int64).reshape(self.xyz.shape[0])

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def subset(self, mask: np.ndarray) -> "PointCloud":
        return PointCloud(self.xyz[mask], self.t[mask])


def k_strongest(
    scan: PolarScan,
    k: int,
    r_min: float,
    r_max: float,
    tau_raw: float,
) -> PointCloud:
    """Keep up to k returns per azimuth by descending intensity.

    A bin qualifies when its center range (i + 0.5) * dr lies in
    [r_min, r_max] and its intensity is strictly above tau_raw; the gate is
    applied before the top-k selection.  Ties in intensity break toward the
    lower bin index.  Points are emitted azimuth-major, strongest first
    within each azimuth, with z = 0 and the azimuth's timestamp.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n_r = scan.range_bin_count
    dr = scan.range_resolution
    centers = (np.arange(n_r) + 0.5) * dr
    in_range = (centers >= r_min) & (centers <= r_max)

    # Only the gated bins are sorted, not the grid.  Intensities are
    # integers, so "> tau_raw" equals "> floor(tau_raw)", and a small int
    # threshold keeps the one grid-sized comparison in uint8.
    thr = tau_raw
    if math.isfinite(tau_raw):
        thr = min(max(math.floor(tau_raw), -1), 255)
    flat = np.flatnonzero(scan.intensity > thr)
    rows, bins = np.divmod(flat, n_r)
    gated = in_range[bins]
    rows, bins = rows[gated], bins[gated]
    vals = scan.intensity[rows, bins]
    # flatnonzero is row-major and lexsort is stable, so within a row equal
    # intensities stay in ascending bin order.  Cast before negating: -uint8
    # wraps.
    order = np.lexsort((-vals.astype(np.int16), rows))
    rows, bins = rows[order], bins[order]
    top = np.arange(rows.size) - np.searchsorted(rows, rows) < k
    rows, bins = rows[top], bins[top]

    ranges = centers[bins]
    az = scan.azimuths[rows]
    xyz = np.column_stack(
        [ranges * np.cos(az), ranges * np.sin(az), np.zeros(rows.size)]
    )
    return PointCloud(xyz, scan.azimuth_timestamps[rows])


def deskew(cloud: PointCloud, track: AttitudeTrack) -> PointCloud:
    """Rotate every point into the sensor frame at the earliest point time.

    The attitude is queried once per run of equal consecutive times (one
    per azimuth for ``k_strongest`` output); points may come in any time
    order.  Translation during the sweep is not compensated
    (attitude-only).  With a constant attitude this is an exact identity on
    the coordinates.
    """
    if len(cloud) == 0:
        raise ValueError("cannot deskew an empty cloud")
    t = cloud.t
    starts = np.empty(len(t), dtype=bool)
    starts[0] = True
    np.not_equal(t[1:], t[:-1], out=starts[1:])
    run = np.cumsum(starts) - 1
    run_t = t[starts]
    quats = track.attitudes_at(run_t)
    # Equal times give equal rows, so any run at the earliest time serves.
    ref = int(np.argmin(run_t))
    q_ref = quats[ref : ref + 1]
    rel = quat_array_multiply(
        np.broadcast_to(quat_array_conjugate(q_ref), quats.shape), quats
    )
    rot = quat_array_to_matrices(rel)
    xyz = np.einsum("nij,nj->ni", rot[run], cloud.xyz)
    return replace(cloud, xyz=xyz)
