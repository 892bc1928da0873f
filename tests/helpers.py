"""Shared builders for the test suite.

Everything here is seeded-RNG driven; tests pass an explicit generator so
each case is reproducible in isolation.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from tiltro import PointCloud, PolarScan, UnitQuat
from tiltro.errors import NoCorrespondences
from tiltro.geometry import (
    _SLERP_DOT_LIMIT,
    Pose2,
    quat_array_conjugate,
    quat_array_multiply,
    quat_array_to_matrices,
    wrap_angle_array,
)
from tiltro.params import Params
from tiltro.registration import MIN_MATCHED_FRACTION, IcpResult, NnIndex
from tiltro.sim import _GAUSS_WINDOW


# Scalar quaternion oracles for the batched quat_array_* and slerp_array
# paths, and for the attitude filter's closed-form checks.


def as_array(q: UnitQuat) -> np.ndarray:
    return np.array([q.w, q.x, q.y, q.z])


def from_axis_angle(axis, angle: float) -> UnitQuat:
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if norm < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    s = math.sin(half) / norm
    return UnitQuat(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)


def rotate(q: UnitQuat, vec) -> np.ndarray:
    """Rotate a (3,) vector or an (N, 3) stack of vectors by q."""
    return np.asarray(vec, dtype=float) @ q.rotation_matrix().T


def angle_to(a: UnitQuat, b: UnitQuat) -> float:
    """Rotation angle in radians separating two attitudes (double-cover
    aware)."""
    dot = a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z
    return 2.0 * math.acos(min(1.0, abs(dot)))


def approx_eq(a: UnitQuat, b: UnitQuat, tol: float = 1e-9) -> bool:
    return angle_to(a, b) <= tol


def slerp(q0: UnitQuat, q1: UnitQuat, t: float) -> UnitQuat:
    """Spherical interpolation along the shorter arc, t in [0, 1].

    Falls back to normalized lerp when the endpoints are nearly parallel,
    at the same cutoff as slerp_array, to avoid the unstable sin division.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter out of [0, 1]: {t}")
    a = as_array(q0)
    b = as_array(q1)
    dot = float(a @ b)
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > _SLERP_DOT_LIMIT:
        out = a + t * (b - a)
    else:
        theta = math.acos(min(1.0, dot))
        sin_theta = math.sin(theta)
        out = (math.sin((1.0 - t) * theta) * a + math.sin(t * theta) * b) / sin_theta
    return UnitQuat(out[0], out[1], out[2], out[3])


def unique_deskew(cloud: PointCloud, track) -> np.ndarray:
    """Reference deskew through np.unique: one attitude per distinct time,
    the earliest one as the reference.  Returns the deskewed positions."""
    unique_t, inverse = np.unique(cloud.t, return_inverse=True)
    quats = track.attitudes_at(unique_t)
    q_ref = quats[:1]
    rel = quat_array_multiply(
        np.broadcast_to(quat_array_conjugate(q_ref), quats.shape), quats
    )
    rot = quat_array_to_matrices(rel)
    return np.einsum("nij,nj->ni", rot[inverse], cloud.xyz)


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
) -> PointCloud:
    """Uniform random points in a centred box, all at time 0."""
    xyz = rng.uniform(-extent, extent, size=(n, 3))
    if planar:
        xyz[:, 2] = 0.0
    # A discarded draw, so seeded callers keep the clouds they were tuned on.
    rng.uniform(61.0, 255.0, size=n)
    return PointCloud(xyz, np.zeros(n, dtype=np.int64))


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


def scan_points(scan: PolarScan, pairs):
    """Positions and timestamps of the (azimuth_row, bin) pairs, in order,
    by the same expressions k_strongest uses, so a correct extraction
    matches them byte for byte."""
    rows = np.array([r for r, _ in pairs], dtype=np.intp)
    bins = np.array([b for _, b in pairs], dtype=np.intp)
    centers = (np.arange(scan.range_bin_count) + 0.5) * scan.range_resolution
    ranges = centers[bins]
    az = scan.azimuths[rows]
    xyz = np.column_stack(
        [ranges * np.cos(az), ranges * np.sin(az), np.zeros(rows.size)]
    )
    return xyz, scan.azimuth_timestamps[rows]


def unique_voxel_downsample(xyz: np.ndarray, edge: float):
    """Reference voxel compaction through np.unique(axis=0): the cells come
    out unique and lexicographically sorted, with each point's voxel in the
    inverse.  The aggregates are the same bincounts as voxel_downsample, so
    the two agree byte for byte when their groupings do.  Returns the
    centroids."""
    cells = np.floor(xyz / edge).astype(np.int64)
    unique_cells, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    m = unique_cells.shape[0]
    counts = np.bincount(inverse, minlength=m)
    return np.column_stack(
        [np.bincount(inverse, weights=xyz[:, i], minlength=m) for i in range(3)]
    ) / counts[:, None]


def _swap_first_azimuths(data: bytes) -> bytes:
    """Swap the azimuths of a FRAD file's first two records.  The header is
    "<4sHIId" (magic, version, azimuths, range bins, range resolution; 22
    bytes); each record is t (i8), az (f8) and the intensity row."""
    (n_r,) = struct.unpack_from("<I", data, 10)
    out = bytearray(data)
    first, second = 22 + 8, 22 + (16 + n_r) + 8
    out[first : first + 8], out[second : second + 8] = (
        data[second : second + 8],
        data[first : first + 8],
    )
    return bytes(out)


#: Ways to break a written scan file that every reader check before
#: ``PolarScan``'s passes: name -> (edit of the file's bytes, the message
#: ``PolarScan`` gives).  Header offsets as in ``_swap_first_azimuths``.
SCAN_FILE_DAMAGE = {
    "no-azimuths": (
        lambda data: data[:6] + struct.pack("<I", 0) + data[10:22],
        "scan must contain at least one azimuth",
    ),
    "decreasing-azimuths": (
        _swap_first_azimuths,
        "azimuths must be strictly increasing",
    ),
    "nan-range-resolution": (
        lambda data: data[:14] + struct.pack("<d", math.nan) + data[22:],
        "range_resolution must be finite",
    ),
}


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
    dense_deposit(signal, rows, centers, amps)
    return np.clip(np.rint(signal), 0, 255).astype(np.uint8)


def dense_deposit(signal: np.ndarray, az_idx: np.ndarray, centers: np.ndarray,
                  amps: np.ndarray) -> None:
    """Reference bump deposit: accumulate unit-sigma Gaussian range bumps
    into a dense (azimuth, range bin) grid with ``np.add.at``."""
    if az_idx.size == 0:
        return
    n_r = signal.shape[1]
    base = np.floor(centers).astype(np.int64)
    bins = base[:, None] + _GAUSS_WINDOW[None, :]
    values = amps[:, None] * np.exp(-0.5 * (bins - centers[:, None]) ** 2)
    ok = (bins >= 0) & (bins < n_r)
    rows = np.broadcast_to(az_idx[:, None], bins.shape)[ok]
    np.add.at(signal, (rows, bins[ok]), values[ok])


# The ICP loop as it was before the bounded k-d search and the batched
# planar solve, kept verbatim as the bit-exact oracle for
# registration.icp_point_to_point.


def _reference_solve_planar(src: np.ndarray, ref: np.ndarray, w: np.ndarray) -> Pose2:
    """Weighted closed-form SE(2) alignment of matched planar pairs."""
    w_total = float(w.sum())
    if w_total <= 0.0:
        return Pose2(0.0, 0.0, 0.0)
    src_c = (w[:, None] * src).sum(axis=0) / w_total
    ref_c = (w[:, None] * ref).sum(axis=0) / w_total
    ds = src - src_c
    dr = ref - ref_c
    h_xx = float((w * ds[:, 0] * dr[:, 0]).sum())
    h_xy = float((w * ds[:, 0] * dr[:, 1]).sum())
    h_yx = float((w * ds[:, 1] * dr[:, 0]).sum())
    h_yy = float((w * ds[:, 1] * dr[:, 1]).sum())
    sin_term = h_xy - h_yx
    cos_term = h_xx + h_yy
    if abs(sin_term) < 1e-12 and abs(cos_term) < 1e-12:
        # Rotation unobservable (e.g. all mass in one voxel): keep yaw fixed.
        yaw = 0.0
    else:
        yaw = math.atan2(sin_term, cos_term)
    c, s = math.cos(yaw), math.sin(yaw)
    tx = ref_c[0] - (c * src_c[0] - s * src_c[1])
    ty = ref_c[1] - (s * src_c[0] + c * src_c[1])
    return Pose2(tx, ty, yaw)


def _reference_apply_planar(pose: Pose2, xyz: np.ndarray) -> np.ndarray:
    out = xyz.copy()
    out[:, :2] = pose.transform_xy(xyz[:, :2])
    return out


def reference_icp(
    source_xyz: np.ndarray,
    index: NnIndex,
    prior: Pose2,
    params: Params = Params(),
) -> IcpResult:
    """Unbounded k-d queries, and the matched fraction and cost recomputed
    on every iteration."""
    n = len(source_xyz)
    if n == 0:
        raise NoCorrespondences("source cloud is empty")
    estimate = prior
    kk = min(params.k_nn, len(index))
    iterations = 0
    final_cost = 0.0
    matched_fraction = 0.0
    for iterations in range(1, params.max_iterations + 1):
        moved = _reference_apply_planar(estimate, source_xyz)
        dist, idx = index.query(moved, kk)
        valid = dist <= params.max_correspondence_distance
        matched_fraction = float(np.any(valid, axis=1).mean())
        if iterations == 1 and matched_fraction < MIN_MATCHED_FRACTION:
            raise NoCorrespondences(
                f"only {matched_fraction:.0%} of source points matched within "
                f"{params.max_correspondence_distance} m"
            )
        rows = np.repeat(np.arange(n), kk)[valid.ravel()]
        ref_pts = index.points[idx.ravel()[valid.ravel()]]
        pair_w = np.full(rows.size, 1.0 / kk)
        update = _reference_solve_planar(moved[rows, :2], ref_pts[:, :2], pair_w)
        estimate = update.compose(estimate)
        aligned = update.transform_xy(moved[rows, :2])
        residual_sq = np.sum((aligned - ref_pts[:, :2]) ** 2, axis=1)
        w_total = float(pair_w.sum())
        final_cost = float((pair_w * residual_sq).sum() / w_total) if w_total > 0 else 0.0
        if (
            math.hypot(update.x, update.y) < params.translation_epsilon
            and abs(update.yaw) < params.rotation_epsilon
        ):
            break
    delta = estimate.compose(prior.inverse())
    return IcpResult(delta, iterations, final_cost, matched_fraction)
