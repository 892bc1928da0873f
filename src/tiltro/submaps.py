"""Tilt-indexed submap atlas.

Submaps are voxel-compacted world-frame point clouds anchored at the pose of
their first scan and stamped with the roll/pitch at capture.  Lookup selects
the closest anchor that is both within the search radius and tilt-compatible
with the current attitude, so a patch of ground mapped while level is never
matched against the same patch seen nose-down.  A scan either merges into
the submap it matched or seeds a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .frontend import PointCloud
from .geometry import (
    Pose2,
    RelativeTilt,
    UnitQuat,
    relative_tilt,
)
from .params import Params
from .registration import NnIndex, build_nn_index, voxel_downsample


@dataclass
class Submap:
    """One aggregated local map.

    anchor: planar pose of the founding scan (fixed for the submap's life).
    attitude_signature: (roll, pitch) rad at founding time, also fixed.
    cloud: voxel-compacted world-frame points.
    """

    submap_id: int
    anchor: Pose2
    attitude_signature: tuple[float, float]
    cloud: PointCloud
    _nn_index: NnIndex | None = field(default=None, repr=False, compare=False)

    def nn_index(self) -> NnIndex:
        """Cached nearest-neighbor index; rebuilt lazily after merges."""
        if self._nn_index is None:
            self._nn_index = build_nn_index(self.cloud)
        return self._nn_index

    def signature_quat(self) -> UnitQuat:
        roll, pitch = self.attitude_signature
        return UnitQuat.from_rpy(roll, pitch, 0.0)


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
    return best, relative_tilt(q_now, best.signature_quat())


def lift_to_world(cloud: PointCloud, pose: Pose2, q_now: UnitQuat) -> PointCloud:
    """Transform a sensor-frame cloud to the world frame.

    The rotation is the planar pose's yaw composed with the roll/pitch of
    ``q_now`` (Rz(yaw) @ Ry(pitch) @ Rx(roll)); the translation is planar.
    """
    roll, pitch, _ = q_now.to_rpy()
    rot = UnitQuat.from_rpy(roll, pitch, pose.yaw).rotation_matrix()
    xyz = cloud.xyz @ rot.T
    xyz[:, 0] += pose.x
    xyz[:, 1] += pose.y
    return replace(cloud, xyz=xyz)


def tilt_lift(cloud: PointCloud, q_now: UnitQuat) -> PointCloud:
    """Rotate a sensor-frame cloud by roll/pitch only (no yaw, no shift).

    Applying a Pose2 on top of the result reproduces ``lift_to_world``; this
    is the form handed to the planar ICP so source and reference elevations
    agree.
    """
    roll, pitch, _ = q_now.to_rpy()
    rot = UnitQuat.from_rpy(roll, pitch, 0.0).rotation_matrix()
    return replace(cloud, xyz=cloud.xyz @ rot.T)


def update_atlas(
    atlas: Atlas,
    deskewed: PointCloud,
    pose: Pose2,
    q_now: UnitQuat,
    matched_id: int | None,
) -> Atlas:
    """Merge the scan into its matched submap or append a new one.

    The deskewed cloud is world-framed via ``pose`` + roll/pitch of
    ``q_now``.  It merges into the matched submap only while the pose stays
    within r_submap of that submap's anchor and the tilt signature still
    agrees component-wise; otherwise a new submap is appended with the
    current pose as anchor and the current roll/pitch as signature.  Merges
    re-run voxel compaction, so cloud density stays bounded.
    """
    if len(deskewed) == 0:
        raise ValueError("cannot add an empty cloud to the atlas")
    world = lift_to_world(deskewed, pose, q_now)
    roll, pitch, _ = q_now.to_rpy()
    target: Submap | None = None
    if matched_id is not None:
        for submap in atlas.submaps:
            if submap.submap_id == matched_id:
                target = submap
                break
    if (
        target is not None
        and pose.planar_distance(target.anchor) <= atlas.params.r_submap
        and _tilt_compatible(atlas, target, roll, pitch)
    ):
        merged = PointCloud(
            np.vstack([target.cloud.xyz, world.xyz]),
            np.concatenate([target.cloud.t, world.t]),
            np.concatenate([target.cloud.weight, world.weight]),
        )
        target.cloud = voxel_downsample(merged, atlas.params.d_voxel)
        target._nn_index = None
    else:
        next_id = (
            max((s.submap_id for s in atlas.submaps), default=-1) + 1
        )
        atlas.submaps.append(
            Submap(
                submap_id=next_id,
                anchor=pose,
                attitude_signature=(roll, pitch),
                cloud=voxel_downsample(world, atlas.params.d_voxel),
            )
        )
    return atlas
