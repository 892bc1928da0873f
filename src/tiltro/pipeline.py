"""Scan-by-scan odometry state machine.

Each radar rotation is turned into a pose update: extract the strongest
returns, deskew them with the IMU attitude, gate by relative tilt against
the matched submap, voxel-compact, and register against that submap with a
planar ICP seeded by a constant-velocity + IMU-yaw prediction.  Any failure
along the way degrades to a "miss": the pose falls back to the zero-velocity
prediction, the velocity resets, and the scan seeds a fresh submap.  The
pipeline never raises for a bad scan; every outcome is a diagnostics row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .attitude import AttitudeTrack
from .errors import TiltroError
from .frontend import PointCloud, PolarScan, deskew, k_strongest
from .geometry import Pose2, UnitQuat, wrap_angle
from .params import Params
from .registration import icp_point_to_point, voxel_downsample
from .submaps import Atlas, find_submap, tilt_lift, update_atlas
from .tilt_gate import tilt_filter

#: Velocity magnitudes at or above this are treated as divergence (m/s).
MAX_PLAUSIBLE_SPEED = 20.0


@dataclass(frozen=True)
class OdomState:
    """pose: planar world pose; velocity: world-frame (vx, vy) m/s;
    attitude: full 3D attitude at time t (ns)."""

    pose: Pose2
    velocity: tuple[float, float]
    attitude: UnitQuat
    t: int


@dataclass
class ScanDiagnostics:
    """Per-scan processing record; written as one CSV row.  The defaults
    describe a scan that reached no stage."""

    scan_index: int
    t: int
    hit: bool = False
    reason: str = ""
    submap_id: int = -1
    raw_points: int = 0
    filtered_points: int = 0
    downsampled_points: int = 0
    tilt_deg: float = 0.0
    icp_iterations: int = 0
    icp_cost: float = math.nan
    matched_fraction: float = 0.0
    atlas_size: int = 0

    CSV_HEADER = (
        "scan,t_ns,hit,reason,submap_id,raw_points,filtered_points,"
        "downsampled_points,tilt_deg,icp_iterations,icp_cost,"
        "matched_fraction,atlas_size"
    )

    def to_csv_row(self) -> str:
        """The fields in declaration order: bools as 1/0, floats as their
        round-trip repr(), everything else as str()."""
        cells = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                cells.append("1" if value else "0")
            elif f.type == "float":
                cells.append(repr(value))
            else:
                cells.append(str(value))
        return ",".join(cells)


def initial_state(track: AttitudeTrack, t_first: int) -> OdomState:
    """State at the origin just before the first scan is processed."""
    return OdomState(
        pose=Pose2.identity(),
        velocity=(0.0, 0.0),
        attitude=track.attitude_at(t_first),
        t=t_first,
    )


def predict(
    state: OdomState, t_next: int, track: AttitudeTrack
) -> tuple[Pose2, UnitQuat]:
    """Constant-velocity position advance; yaw advanced by the IMU's
    relative yaw between state.t and t_next.

    Returns the predicted pose and the track's attitude at t_next, both from
    one batched attitude query.
    """
    dt = (t_next - state.t) * 1e-9
    if dt < 0.0:
        raise ValueError("prediction target precedes the current state")
    q_now, q_next = track.attitudes_at([state.t, t_next])
    attitude = UnitQuat.from_array(q_next)
    yaw_now = UnitQuat.from_array(q_now).to_rpy()[2]
    dyaw = wrap_angle(attitude.to_rpy()[2] - yaw_now)
    pose = Pose2(
        state.pose.x + state.velocity[0] * dt,
        state.pose.y + state.velocity[1] * dt,
        state.pose.yaw + dyaw,
    )
    return pose, attitude


def process_scan(
    state: OdomState,
    scan: PolarScan,
    track: AttitudeTrack,
    atlas: Atlas,
    *,
    tilt_gate_enabled: bool = True,
    tilt_search_enabled: bool = True,
    scan_index: int = 0,
) -> tuple[OdomState, Atlas, ScanDiagnostics]:
    """Advance the odometry by one scan with the run parameters in
    ``atlas.params``.

    Returns the new state, the (mutated) atlas, and a diagnostics record.
    The published timestamp is the scan's earliest azimuth timestamp.  A
    new state is produced for every scan; component errors select the miss
    path instead of propagating.
    """
    params = atlas.params
    t_scan = scan.t_start
    diag = ScanDiagnostics(scan_index, t_scan, atlas_size=len(atlas))

    dt = (t_scan - state.t) * 1e-9
    try:
        if dt > 0.0:
            prior, q_now = predict(state, t_scan, track)
        else:
            prior, q_now = state.pose, track.attitude_at(t_scan)
    except (TiltroError, ValueError) as err:
        # Without attitude there is nothing to correct; hold the pose.
        new_state = replace(state, velocity=(0.0, 0.0), t=t_scan)
        diag.reason = f"attitude-unavailable: {err}"
        return new_state, atlas, diag

    match = find_submap(atlas, prior, q_now, require_tilt=tilt_search_enabled)
    if match is not None:
        diag.submap_id = match[0].submap_id
        diag.tilt_deg = match[1].angle_deg

    raw = k_strongest(scan, params.k, params.r_min, params.r_max, params.tau_raw)
    diag.raw_points = len(raw)
    deskewed: PointCloud | None = None
    pose: Pose2 | None = None
    velocity = (0.0, 0.0)
    hit = False

    if len(raw) == 0:
        diag.reason = "empty-scan"
    else:
        deskewed = deskew(raw, track)
        gated = deskewed
        if match is not None and tilt_gate_enabled:
            try:
                gated = tilt_filter(deskewed, match[1], params)
            except TiltroError:
                # Gate removed everything: fall back to the ungated cloud.
                diag.reason = "gate-rejected-all;"
        diag.filtered_points = len(gated)
        compact, compact_w = voxel_downsample(gated.xyz, gated.weight, params.d_voxel)
        diag.downsampled_points = len(compact)

        if match is None:
            diag.reason += "no-submap"
        elif dt <= 0.0:
            diag.reason += "no-time-baseline"
        else:
            submap, _tilt = match
            try:
                result = icp_point_to_point(
                    tilt_lift(compact, q_now),
                    compact_w,
                    submap.nn_index(),
                    prior,
                    params,
                )
                diag.icp_iterations = result.iterations
                diag.icp_cost = result.final_cost
                diag.matched_fraction = result.matched_fraction
                candidate = result.delta.compose(prior)
                vx = (candidate.x - state.pose.x) / dt
                vy = (candidate.y - state.pose.y) / dt
                if math.hypot(vx, vy) >= MAX_PLAUSIBLE_SPEED:
                    diag.reason += "divergence"
                else:
                    pose = candidate
                    velocity = (vx, vy)
                    hit = True
            except TiltroError as err:
                diag.reason += f"icp: {err}"

    if pose is None:
        # Miss: publish the constant-velocity prior for this scan; the
        # zeroed velocity makes the next prediction conservative.
        pose = prior

    new_state = OdomState(pose=pose, velocity=velocity, attitude=q_now, t=t_scan)
    diag.hit = hit

    if deskewed is not None:
        update_atlas(atlas, deskewed.xyz, pose, q_now, match[0] if hit else None)
    diag.atlas_size = len(atlas)
    return new_state, atlas, diag


def run_odometry(
    scans,
    track: AttitudeTrack,
    params: Params = Params(),
    *,
    tilt_gate_enabled: bool = True,
    tilt_search_enabled: bool = True,
) -> tuple[list[OdomState], list[ScanDiagnostics]]:
    """Process a scan sequence from a cold start at the origin.

    Returns one state and one diagnostics record per scan, in order.
    """
    states: list[OdomState] = []
    diags: list[ScanDiagnostics] = []
    atlas = Atlas(params)
    state: OdomState | None = None
    for i, scan in enumerate(scans):
        if state is None:
            state = initial_state(track, scan.t_start)
        state, atlas, diag = process_scan(
            state,
            scan,
            track,
            atlas,
            tilt_gate_enabled=tilt_gate_enabled,
            tilt_search_enabled=tilt_search_enabled,
            scan_index=i,
        )
        states.append(state)
        diags.append(diag)
    return states, diags
