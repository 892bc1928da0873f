"""Scan-to-map registration: voxel compaction, nearest-neighbor index, and a
planar-motion point-to-point ICP.

Correspondences are found in 3D (so elevation structure still
disambiguates), but the motion update is constrained to SE(2): a closed-form
planar alignment of the matched pairs with yaw from atan2 over the
cross-covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyReference, NoCorrespondences
from .geometry import Pose2
from .params import Params

#: ICP aborts when fewer than this fraction of source points find a neighbor.
MIN_MATCHED_FRACTION = 0.2


@dataclass(frozen=True)
class IcpResult:
    """delta: correction composed on top of the prior (source -> reference);
    final_cost: mean squared planar residual over the matched pairs (m^2)."""

    delta: Pose2
    iterations: int
    final_cost: float
    matched_fraction: float


def voxel_downsample(xyz: np.ndarray, edge: float) -> np.ndarray:
    """One point per occupied voxel (cell floor(p / edge)) at the centroid
    of its (N, 3) members.

    Returns the (M, 3) centroids.  Output order follows the
    lexicographically sorted voxel coordinates and is deterministic.
    """
    if edge <= 0.0:
        raise ValueError("voxel edge must be positive")
    if len(xyz) == 0:
        return np.empty((0, 3))
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
    sums = [np.bincount(inverse, weights=xyz[:, i], minlength=m) for i in range(3)]
    return np.column_stack(sums) / counts[:, None]


class NnIndex:
    """k-nearest-neighbor index over reference points (3D metric)."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if points.shape[0] == 0:
            raise EmptyReference("cannot index an empty reference cloud")
        # Deferred so that commands which build no index never load scipy.
        from scipy.spatial import cKDTree

        self.points = points
        self._tree = cKDTree(points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def query(
        self, queries: np.ndarray, k: int, distance_upper_bound: float = math.inf
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the up-to-k nearest reference points,
        sorted by distance; shapes are (Q, min(k, len(index))).

        Only neighbours closer than ``distance_upper_bound`` are searched
        for; a slot left without one holds distance inf and index
        ``len(index)``.
        """
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        kk = min(k, len(self))
        dist, idx = self._tree.query(
            queries, k=kk, distance_upper_bound=distance_upper_bound
        )
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
    # Both centroids from one row-by-row axis-0 sum over the (M, 4) pairs.
    pairs = np.hstack([src, ref])
    centroids = (w[:, None] * pairs).sum(axis=0) / w_total
    centered = pairs - centroids
    # Rows (w * ds_i) * dr_j for (i, j) = xx, xy, yx, yy.  In C order each
    # row is contiguous and sums pairwise, as a 1-D sum of its products does.
    w_ds = w * centered[:, :2].T
    terms = np.multiply(
        w_ds[:, None, :], centered[:, 2:].T[None, :, :], order="C"
    ).reshape(4, -1)
    h_xx, h_xy, h_yx, h_yy = terms.sum(axis=1).tolist()
    sx, sy, rx, ry = centroids.tolist()
    sin_term = h_xy - h_yx
    cos_term = h_xx + h_yy
    if abs(sin_term) < 1e-12 and abs(cos_term) < 1e-12:
        # Rotation unobservable (e.g. all mass in one voxel): keep yaw fixed.
        yaw = 0.0
    else:
        yaw = math.atan2(sin_term, cos_term)
    c, s = math.cos(yaw), math.sin(yaw)
    tx = rx - (c * sx - s * sy)
    ty = ry - (s * sx + c * sy)
    return Pose2(tx, ty, yaw)


def _apply_planar(pose: Pose2, xyz: np.ndarray) -> np.ndarray:
    out = xyz.copy()
    out[:, :2] = pose.transform_xy(xyz[:, :2])
    return out


def icp_point_to_point(
    source_xyz: np.ndarray,
    index: NnIndex,
    prior: Pose2,
    params: Params = Params(),
) -> IcpResult:
    """Align (N, 3) source points to the reference points of ``index`` with
    an SE(2) motion model.

    Each source point is matched to its k_nn nearest reference points in 3D
    (pairs beyond max_correspondence_distance are dropped, each pair weighted
    1 / k_nn), then a closed-form weighted planar transform is solved and
    composed onto the running estimate until the incremental update falls
    below the epsilons.

    Returns the correction ``delta`` such that ``delta.compose(prior)`` maps
    source coordinates onto the reference.  Raises NoCorrespondences when
    the source is empty or fewer than 20% of source points match on the
    first iteration.
    """
    n = len(source_xyz)
    if n == 0:
        raise NoCorrespondences("source cloud is empty")
    estimate = prior
    kk = min(params.k_nn, len(index))
    max_dist = params.max_correspondence_distance
    # The tree's bound is strict, so searching just past max_dist finds
    # every neighbour the "<= max_dist" mask keeps, nearest first.  Distinct
    # neighbours at exactly equal distances may come back in another order
    # than an unbounded search gives.
    bound = math.nextafter(max_dist, math.inf)
    # Per-pair source rows and weights, masked down on every iteration.
    all_rows = np.repeat(np.arange(n), kk)
    all_pair_w = np.full(all_rows.size, 1.0 / kk)
    for iterations in range(1, params.max_iterations + 1):
        moved = _apply_planar(estimate, source_xyz)
        dist, idx = index.query(moved, kk, bound)
        valid = dist <= max_dist
        if iterations == 1:
            matched_fraction = float(np.any(valid, axis=1).mean())
            if matched_fraction < MIN_MATCHED_FRACTION:
                raise NoCorrespondences(
                    f"only {matched_fraction:.0%} of source points matched "
                    f"within {max_dist} m"
                )
        # Misses hold index len(index); the mask drops them before the gather.
        flat = valid.ravel()
        rows = all_rows[flat]
        src_xy = moved[rows, :2]
        ref_xy = index.points[idx.ravel()[flat], :2]
        pair_w = all_pair_w[flat]
        update = _solve_planar(src_xy, ref_xy, pair_w)
        estimate = update.compose(estimate)
        if (
            math.hypot(update.x, update.y) < params.translation_epsilon
            and abs(update.yaw) < params.rotation_epsilon
        ):
            break
    # Statistics of the last iteration's pairs, as the update left them.
    matched_fraction = float(np.any(valid, axis=1).mean())
    residual_sq = np.sum((update.transform_xy(src_xy) - ref_xy) ** 2, axis=1)
    w_total = float(pair_w.sum())
    final_cost = float((pair_w * residual_sq).sum() / w_total) if w_total > 0 else 0.0
    delta = estimate.compose(prior.inverse())
    return IcpResult(delta, iterations, final_cost, matched_fraction)
