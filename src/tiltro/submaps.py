"""Tilt-indexed submap atlas.

Submaps are bare world-frame point sets (voxel centroids) anchored at the
pose of their first scan and stamped with the roll/pitch at capture.  Lookup
selects the closest anchor that is both within the search radius and
tilt-compatible with the current attitude, so a patch of ground mapped while
level is never matched against the same patch seen nose-down.  A scan either
merges into the submap it matched or seeds a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose2, RelativeTilt, UnitQuat, relative_tilt
from .params import Params
from .registration import NnIndex, build_nn_index, voxel_downsample


@dataclass
class Submap:
    """One aggregated local map.

    anchor: planar pose of the founding scan (fixed for the submap's life).
    attitude_signature: (roll, pitch) rad at founding time, also fixed.
    points: (M, 3) world-frame voxel centroids.
    """

    submap_id: int
    anchor: Pose2
    attitude_signature: tuple[float, float]
    points: np.ndarray
    _nn_index: NnIndex | None = field(default=None, repr=False, compare=False)

    def nn_index(self) -> NnIndex:
        """Cached nearest-neighbor index; rebuilt lazily after merges."""
        if self._nn_index is None:
            self._nn_index = build_nn_index(self.points)
        return self._nn_index


@dataclass
class Atlas:
    """Ordered collection of submaps plus the run parameters.

    The atlas reads params.r_submap (search / merge radius), params.theta_tilt
    (per-component roll and pitch compatibility bound) and params.d_voxel
    (compaction edge length).
    """

    params: Params = Params()
    submaps: list[Submap] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.submaps)


def _tilt_compatible(
    atlas: Atlas, submap: Submap, roll: float, pitch: float
) -> bool:
    sig_roll, sig_pitch = submap.attitude_signature
    bound = math.radians(atlas.params.theta_tilt)
    return abs(roll - sig_roll) < bound and abs(pitch - sig_pitch) < bound


def find_submap(
    atlas: Atlas,
    predicted: Pose2,
    q_now: UnitQuat,
    require_tilt: bool = True,
) -> tuple[Submap, RelativeTilt] | None:
    """Closest tilt-compatible submap within r_submap of the predicted pose.

    Returns the submap together with the relative tilt of ``q_now``
    vs. the submap's attitude signature, or None when nothing qualifies.
    With ``require_tilt=False`` the roll/pitch compatibility check is
    skipped (distance-only ablation mode).
    """
    roll, pitch, _ = q_now.to_rpy()
    best: Submap | None = None
    best_dist = math.inf
    for submap in atlas.submaps:
        dist = predicted.planar_distance(submap.anchor)
        if dist > atlas.params.r_submap:
            continue
        if require_tilt and not _tilt_compatible(atlas, submap, roll, pitch):
            continue
        if dist < best_dist:
            best = submap
            best_dist = dist
    if best is None:
        return None
    signature = UnitQuat.from_rpy(*best.attitude_signature, 0.0)
    return best, relative_tilt(q_now, signature)


def lift_to_world(xyz: np.ndarray, pose: Pose2, q_now: UnitQuat) -> np.ndarray:
    """Transform (N, 3) sensor-frame points to the world frame.

    The rotation is the planar pose's yaw composed with the roll/pitch of
    ``q_now`` (Rz(yaw) @ Ry(pitch) @ Rx(roll)); the translation is planar.
    """
    roll, pitch, _ = q_now.to_rpy()
    rot = UnitQuat.from_rpy(roll, pitch, pose.yaw).rotation_matrix()
    world = xyz @ rot.T
    world[:, 0] += pose.x
    world[:, 1] += pose.y
    return world


def tilt_lift(xyz: np.ndarray, q_now: UnitQuat) -> np.ndarray:
    """Rotate (N, 3) sensor-frame points by roll/pitch only (no yaw, no
    shift).

    Applying a Pose2 on top of the result reproduces ``lift_to_world``; this
    is the form handed to the planar ICP so source and reference elevations
    agree.
    """
    roll, pitch, _ = q_now.to_rpy()
    rot = UnitQuat.from_rpy(roll, pitch, 0.0).rotation_matrix()
    return xyz @ rot.T


def update_atlas(
    atlas: Atlas,
    deskewed: np.ndarray,
    pose: Pose2,
    q_now: UnitQuat,
    matched: Submap | None,
) -> Atlas:
    """Merge the scan into its matched submap or append a new one.

    The (N, 3) deskewed points are world-framed via ``pose`` + roll/pitch
    of ``q_now``.  They merge into the matched submap only while the pose
    stays within r_submap of that submap's anchor and the tilt signature
    still agrees component-wise; otherwise a new submap is appended with the
    current pose as anchor and the current roll/pitch as signature.  Merges
    re-run voxel compaction, so the point count stays bounded, and a merged
    centroid is the plain mean of its voxel's stacked points.
    """
    if len(deskewed) == 0:
        raise ValueError("cannot add an empty cloud to the atlas")
    world = lift_to_world(deskewed, pose, q_now)
    roll, pitch, _ = q_now.to_rpy()
    if (
        matched is not None
        and pose.planar_distance(matched.anchor) <= atlas.params.r_submap
        and _tilt_compatible(atlas, matched, roll, pitch)
    ):
        stacked = np.vstack([matched.points, world])
        matched.points = voxel_downsample(stacked, atlas.params.d_voxel)
        matched._nn_index = None
    else:
        next_id = max((s.submap_id for s in atlas.submaps), default=-1) + 1
        points = voxel_downsample(world, atlas.params.d_voxel)
        atlas.submaps.append(Submap(next_id, pose, (roll, pitch), points))
    return atlas
