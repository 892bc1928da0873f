"""Radar scan frontend: polar scan container, per-azimuth strongest-return
extraction, and attitude-based intra-scan motion compensation.

A polar scan is an (azimuth x range-bin) intensity grid swept over one
rotation; every azimuth row carries its own timestamp.  Extraction turns the
grid into a sparse 3D point cloud (z = 0 in the sensor plane); deskew then
re-expresses every point in the sensor frame at the earliest point time so a
scan captured while tilting stays rigid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .attitude import AttitudeTrack
from .geometry import (
    quat_array_conjugate,
    quat_array_multiply,
    quat_array_to_matrices,
)

#: Longest allowed azimuth-timestamp span of one scan (one rotation @ >= 3.3 Hz).
MAX_SCAN_SPAN_NS = 300_000_000

STAGES = ("raw", "deskewed", "filtered")


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
        if np.any(np.diff(self.azimuths) <= 0):
            raise ValueError("azimuths must be strictly increasing")
        if self.azimuths[0] < 0.0 or self.azimuths[-1] >= 2.0 * np.pi:
            raise ValueError("azimuths must lie in [0, 2pi)")
        if np.any(np.diff(self.azimuth_timestamps) < 0):
            raise ValueError("azimuth timestamps must be non-decreasing")
        span = int(self.azimuth_timestamps[-1] - self.azimuth_timestamps[0])
        if span > MAX_SCAN_SPAN_NS:
            raise ValueError(f"azimuth timestamp span {span} ns exceeds one rotation")
        if self.range_resolution <= 0.0:
            raise ValueError("range resolution must be positive")

    @property
    def azimuth_count(self) -> int:
        return self.intensity.shape[0]

    @property
    def range_bin_count(self) -> int:
        return self.intensity.shape[1]

    @property
    def t_start(self) -> int:
        return int(self.azimuth_timestamps.min())


class RadarPoint(NamedTuple):
    """Single extracted return (sensor-frame coordinates at capture time)."""

    x: float
    y: float
    z: float
    intensity: float
    t: int


@dataclass
class PointCloud:
    """Columnar point cloud with a processing-stage tag.

    Stages advance strictly raw -> deskewed -> filtered; the coordinate
    frame is the capture frame for "raw" and the sensor frame at ``t_ref``
    afterwards.  ``weight`` defaults to 1 and is populated by tilt gating.
    """

    stage: str
    xyz: np.ndarray
    intensity: np.ndarray
    t: np.ndarray
    weight: np.ndarray
    t_ref: int

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        n = self.xyz.shape[0]
        self.intensity = np.asarray(self.intensity, dtype=float).reshape(n)
        self.t = np.asarray(self.t, dtype=np.int64).reshape(n)
        self.weight = np.asarray(self.weight, dtype=float).reshape(n)

    @staticmethod
    def empty(stage: str = "raw", t_ref: int = 0) -> "PointCloud":
        return PointCloud(
            stage,
            np.empty((0, 3)),
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0),
            t_ref,
        )

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def point(self, i: int) -> RadarPoint:
        return RadarPoint(
            float(self.xyz[i, 0]),
            float(self.xyz[i, 1]),
            float(self.xyz[i, 2]),
            float(self.intensity[i]),
            int(self.t[i]),
        )

    def subset(self, mask: np.ndarray) -> "PointCloud":
        return replace(
            self,
            xyz=self.xyz[mask],
            intensity=self.intensity[mask],
            t=self.t[mask],
            weight=self.weight[mask],
        )


def polar_to_cartesian(range_m: float, azimuth: float) -> tuple[float, float]:
    """Planar sensor-frame coordinates of a polar return."""
    return range_m * float(np.cos(azimuth)), range_m * float(np.sin(azimuth))


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
    n_a, n_r = scan.intensity.shape
    dr = scan.range_resolution
    centers = (np.arange(n_r) + 0.5) * dr
    in_range = (centers >= r_min) & (centers <= r_max)

    # Composite sort key, unique within a row: descending intensity, then
    # ascending bin index; -1 marks bins that fail the gate.  It is built
    # and partitioned in place to keep one grid-sized temporary per scan:
    # with several, glibc trimmed and re-faulted the heap top on every scan.
    key = scan.intensity.astype(np.int64)
    key *= n_r
    key += n_r - 1 - np.arange(n_r)
    key[~(in_range[None, :] & (scan.intensity > tau_raw))] = -1

    kk = min(k, n_r)
    key.partition(n_r - kk, axis=1)
    top_keys = np.sort(key[:, n_r - kk:], axis=1)[:, ::-1]

    valid = top_keys >= 0
    rows = np.repeat(np.arange(n_a), kk)[valid.ravel()]
    bins = n_r - 1 - top_keys[valid] % n_r
    if rows.size == 0:
        return PointCloud.empty("raw", scan.t_start)

    ranges = centers[bins]
    az = scan.azimuths[rows]
    xyz = np.column_stack(
        [ranges * np.cos(az), ranges * np.sin(az), np.zeros(rows.size)]
    )
    intensity = scan.intensity[rows, bins].astype(float)
    t = scan.azimuth_timestamps[rows]
    return PointCloud("raw", xyz, intensity, t, np.ones(rows.size), int(t.min()))


def deskew(cloud: PointCloud, track: AttitudeTrack) -> PointCloud:
    """Rotate every point into the sensor frame at the earliest point time.

    Translation during the sweep is not compensated (attitude-only).  With a
    constant attitude this is an exact identity on the coordinates.
    """
    if cloud.stage != "raw":
        raise ValueError(f"deskew expects a raw cloud, got {cloud.stage!r}")
    if len(cloud) == 0:
        raise ValueError("cannot deskew an empty cloud")
    t_ref = int(cloud.t.min())
    unique_t, inverse = np.unique(cloud.t, return_inverse=True)
    quats = track.attitudes_at(unique_t)
    q_ref = track.attitudes_at(np.array([t_ref], dtype=np.int64))
    rel = quat_array_multiply(
        np.broadcast_to(quat_array_conjugate(q_ref), quats.shape), quats
    )
    rot = quat_array_to_matrices(rel)
    xyz = np.einsum("nij,nj->ni", rot[inverse], cloud.xyz)
    return replace(cloud, stage="deskewed", xyz=xyz, t_ref=t_ref)
