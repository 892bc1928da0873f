"""Shared builders for the test suite.

Everything here is seeded-RNG driven; tests pass an explicit generator so
each case is reproducible in isolation.
"""

from __future__ import annotations

import numpy as np

from tiltro import PointCloud, PolarScan
from tiltro.geometry import quat_array_to_matrices, wrap_angle_array
from tiltro.sim import _deposit


def random_scan(
    rng: np.random.Generator,
    n_a: int = 64,
    n_r: int = 200,
    dr: float = 0.1,
    t0: int = 0,
) -> PolarScan:
    """Random intensity grid with evenly spaced azimuths and timestamps."""
    azimuths = np.arange(n_a) * (2.0 * np.pi / n_a)
    t = t0 + (np.arange(n_a) * (250_000_000 // max(n_a, 1))).astype(np.int64)
    intensity = rng.integers(0, 256, size=(n_a, n_r), dtype=np.uint8)
    return PolarScan(azimuths, t, intensity, dr)


def random_cloud(
    rng: np.random.Generator,
    n: int,
    extent: float = 50.0,
    planar: bool = True,
    stage: str = "deskewed",
) -> PointCloud:
    """Uniform random points in a centred box, unit weights."""
    xyz = rng.uniform(-extent, extent, size=(n, 3))
    if planar:
        xyz[:, 2] = 0.0
    intensity = rng.uniform(61.0, 255.0, size=n)
    t = np.zeros(n, dtype=np.int64)
    return PointCloud(stage, xyz, intensity, t, np.ones(n), 0)


def brute_force_k_strongest(scan: PolarScan, k, r_min, r_max, tau_raw):
    """Reference implementation: per azimuth, sort qualifying bins by
    descending intensity with ties to the lower bin, take the first k.
    Returns a list of (azimuth_row, bin) pairs in emission order."""
    n_a, n_r = scan.intensity.shape
    dr = scan.range_resolution
    out = []
    for row in range(n_a):
        candidates = []
        for b in range(n_r):
            r = (b + 0.5) * dr
            v = int(scan.intensity[row, b])
            if r_min <= r <= r_max and v > tau_raw:
                candidates.append((-v, b))
        candidates.sort()
        out.extend((row, b) for _, b in candidates[:k])
    return out


def all_pairs_pole_scan(scenario, gt, t_start: int) -> np.ndarray:
    """Reference pole rendering: the hit test over every (azimuth, pole)
    pair, without any candidate pre-filter.  Returns the quantized grid of a
    scan whose world holds only poles and whose radar has no noise floor."""
    radar = scenario.radar
    n_a, n_r = radar.azimuth_count, radar.range_bin_count
    az_idx = np.arange(n_a)
    azimuths = az_idx * (2.0 * np.pi / n_a)
    t_az = t_start + (az_idx.astype(np.int64) * radar.period_ns) // n_a
    pos, quats = gt.sample(t_az)
    rot = quat_array_to_matrices(quats)
    d_body = np.column_stack([np.cos(azimuths), np.sin(azimuths), np.zeros(n_a)])
    u = np.einsum("nij,nj->ni", rot, d_body)
    ray_bearing = np.arctan2(u[:, 1], u[:, 0])
    ray_elev = np.arctan2(u[:, 2], np.maximum(np.hypot(u[:, 0], u[:, 1]), 1e-9))
    half_step = np.pi / n_a
    e_half = np.radians(radar.elevation_half_width_deg)
    max_range = n_r * radar.range_resolution

    p = np.array([[q.x, q.y, q.base_z, q.height, q.reflectivity]
                  for q in scenario.poles])
    dx = p[None, :, 0] - pos[:, None, 0]
    dy = p[None, :, 1] - pos[:, None, 1]
    rh = np.hypot(dx, dy)
    bearing = np.arctan2(dy, dx)
    hit = np.abs(wrap_angle_array(bearing - ray_bearing[:, None])) <= half_step
    hit &= rh > 0.1
    el_bot = np.arctan2(p[None, :, 2] - pos[:, None, 2], np.maximum(rh, 0.1))
    el_top = np.arctan2(
        p[None, :, 2] + p[None, :, 3] - pos[:, None, 2], np.maximum(rh, 0.1)
    )
    hit &= (ray_elev[:, None] - e_half <= el_top) & (
        ray_elev[:, None] + e_half >= el_bot
    )
    slant = rh / np.maximum(np.cos(ray_elev)[:, None], 1e-6)
    hit &= slant < max_range + 1.0
    rows, cols = np.nonzero(hit)
    amps = np.minimum(p[cols, 4] * radar.reference_range / slant[rows, cols], 255.0)
    centers = slant[rows, cols] / radar.range_resolution - 0.5
    signal = np.zeros((n_a, n_r))
    _deposit(signal, rows, centers, amps)
    return np.clip(np.rint(signal), 0, 255).astype(np.uint8)
