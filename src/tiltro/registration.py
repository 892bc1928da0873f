"""Scan-to-map registration: voxel compaction, nearest-neighbor index, and a
planar-motion point-to-point ICP.

Correspondences are found in 3D (so elevation structure still
disambiguates), but the motion update is constrained to SE(2): a closed-form
weighted planar alignment with yaw from atan2 over the cross-covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyReference, NoCorrespondences
from .geometry import Pose2
from .params import Params

#: ICP aborts when fewer than this fraction of source points find a neighbor.
MIN_MATCHED_FRACTION = 0.2


@dataclass(frozen=True)
class IcpResult:
    """delta: correction composed on top of the prior (source -> reference);
    final_cost: mean weighted squared planar residual (m^2)."""

    delta: Pose2
    iterations: int
    final_cost: float
    matched_fraction: float


def voxel_downsample(
    xyz: np.ndarray, weight: np.ndarray, edge: float
) -> tuple[np.ndarray, np.ndarray]:
    """One point per occupied voxel (cell floor(p / edge)) at the
    weight-weighted centroid of its (N, 3) members.

    Returns the (M, 3) centroids and each voxel's mean weight.  Under unit
    weights a centroid is exactly the plain mean of its members.  Output
    order follows the lexicographically sorted voxel coordinates and is
    deterministic.
    """
    if edge <= 0.0:
        raise ValueError("voxel edge must be positive")
    if len(xyz) == 0:
        return np.empty((0, 3)), np.empty(0)
    cells = np.floor(xyz / edge).astype(np.int64)
    # A voxel starts wherever the lexicographically sorted cells change;
    # lexsort on three int64 columns cannot overflow, unlike a combined 1-D
    # key.
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.any(sorted_cells[1:] != sorted_cells[:-1], axis=1, out=starts[1:])
    first = np.flatnonzero(starts)
    m = first.size
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    counts = np.diff(first, append=len(order))
    # Zero-total-weight voxels fall back to unweighted averaging.
    w_sum = np.bincount(inverse, weights=weight, minlength=m)
    zero = w_sum <= 0.0
    eff_w = np.where(zero[inverse], 1.0, weight)
    eff_sum = np.where(zero, counts.astype(float), w_sum)
    centroids = np.column_stack(
        [
            np.bincount(inverse, weights=eff_w * xyz[:, i], minlength=m)
            for i in range(3)
        ]
    ) / eff_sum[:, None]
    return centroids, w_sum / counts


class NnIndex:
    """k-nearest-neighbor index over reference points (3D metric)."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if points.shape[0] == 0:
            raise EmptyReference("cannot index an empty reference cloud")
        self.points = points
        self._tree = cKDTree(points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the up-to-k nearest reference points,
        sorted by distance; shapes are (Q, min(k, len(index)))."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        kk = min(k, len(self))
        dist, idx = self._tree.query(queries, k=kk)
        if kk == 1:
            dist = dist[:, None]
            idx = idx[:, None]
        return dist, idx


def build_nn_index(points: np.ndarray) -> NnIndex:
    """Build a nearest-neighbor index over (M, 3) reference points; raises
    EmptyReference when there are none."""
    return NnIndex(points)


def _solve_planar(src: np.ndarray, ref: np.ndarray, w: np.ndarray) -> Pose2:
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


def _apply_planar(pose: Pose2, xyz: np.ndarray) -> np.ndarray:
    out = xyz.copy()
    out[:, :2] = pose.transform_xy(xyz[:, :2])
    return out


def icp_point_to_point(
    source_xyz: np.ndarray,
    weight: np.ndarray,
    index: NnIndex,
    prior: Pose2,
    params: Params = Params(),
) -> IcpResult:
    """Align (N, 3) source points of the given weights to the reference
    points of ``index`` with an SE(2) motion model.

    Each source point is matched to its k_nn nearest reference points in 3D
    (pairs beyond max_correspondence_distance are dropped, each pair weighted
    by the point weight / k_nn), then a closed-form weighted planar transform
    is solved and composed onto the running estimate until the incremental
    update falls below the epsilons.

    Returns the correction ``delta`` such that ``delta.compose(prior)`` maps
    source coordinates onto the reference.  Raises NoCorrespondences when
    the source is empty or fewer than 20% of source points match on the
    first iteration.
    """
    n = len(source_xyz)
    if n == 0:
        raise NoCorrespondences("source cloud is empty")
    estimate = prior
    point_w = weight if params.use_point_weights else np.ones(n)
    kk = min(params.k_nn, len(index))
    iterations = 0
    final_cost = 0.0
    matched_fraction = 0.0
    for iterations in range(1, params.max_iterations + 1):
        moved = _apply_planar(estimate, source_xyz)
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
        pair_w = point_w[rows] / kk
        update = _solve_planar(moved[rows, :2], ref_pts[:, :2], pair_w)
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
