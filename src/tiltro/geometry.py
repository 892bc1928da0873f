"""Rotation and planar-pose primitives shared across the odometry stack.

Conventions: quaternions are Hamilton ``(w, x, y, z)`` and active, so an
attitude quaternion's ``rotation_matrix()`` maps body coordinates into the
parent frame.  Euler angles follow the intrinsic ZYX (yaw, pitch, roll) order, i.e.
``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``.  Planar poses live in SE(2) with yaw
wrapped to ``(-pi, pi]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi
_NORM_EPS = 1e-12
# slerp_array falls back to normalized lerp when the arc is this flat.
_SLERP_DOT_LIMIT = 0.9995

DEFAULT_TILT_AXIS = np.array([1.0, 0.0, 0.0])


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    wrapped = math.remainder(angle, _TWO_PI)
    if wrapped <= -math.pi:
        wrapped += _TWO_PI
    return wrapped


def wrap_angle_array(angles: np.ndarray) -> np.ndarray:
    """Vectorized wrap to [-pi, pi); use for differences, not stored poses."""
    return (np.asarray(angles) + math.pi) % _TWO_PI - math.pi


def elapsed_ns(t0, t) -> np.ndarray:
    """``t - t0`` for int64 nanosecond times, as float64 correctly rounded.

    The int64 difference wraps once the times lie more than 2**63 apart, and
    converting the times to float first loses 256 ns at epoch scale.  Each
    time splits into a signed high and an unsigned low 32-bit half; both
    half differences are exact, so the one float addition rounds once.
    """
    t0 = np.asarray(t0, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    high = (t >> 32) - (t0 >> 32)
    low = (t & 0xFFFFFFFF) - (t0 & 0xFFFFFFFF)
    return high * 4294967296.0 + low


class UnitQuat:
    """Unit quaternion with the sign canonicalized so that w >= 0.

    Construction normalizes the components and flips the sign if needed, so
    any two representations of the same rotation serialize identically.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if norm < _NORM_EPS:
            raise ValueError("quaternion norm too small to normalize")
        inv = 1.0 / norm
        w, x, y, z = w * inv, x * inv, y * inv, z * inv
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitQuat):
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (other.w, other.x, other.y, other.z)

    def __hash__(self) -> int:
        return hash((self.w, self.x, self.y, self.z))

    @staticmethod
    def identity() -> "UnitQuat":
        return UnitQuat(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_rpy(roll: float, pitch: float, yaw: float) -> "UnitQuat":
        """Build from intrinsic ZYX Euler angles (applied yaw, pitch, roll)."""
        cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
        cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
        cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
        return UnitQuat(
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        )

    @staticmethod
    def from_array(arr) -> "UnitQuat":
        w, x, y, z = (float(v) for v in np.asarray(arr, dtype=float))
        return UnitQuat(w, x, y, z)

    def __mul__(self, other: "UnitQuat") -> "UnitQuat":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return UnitQuat(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "UnitQuat":
        return UnitQuat(self.w, -self.x, -self.y, -self.z)

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def to_rpy(self) -> tuple[float, float, float]:
        """Return (roll, pitch, yaw); roll is forced to 0 at gimbal lock."""
        w, x, y, z = self.w, self.x, self.y, self.z
        sin_pitch = 2.0 * (w * y - x * z)
        if sin_pitch > 1.0 - 1e-12 or sin_pitch < -1.0 + 1e-12:
            pitch = math.copysign(0.5 * math.pi, sin_pitch)
            yaw = math.atan2(-2.0 * (x * y - w * z), 1.0 - 2.0 * (x * x + z * z))
            return 0.0, pitch, yaw
        roll = math.atan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
        pitch = math.asin(sin_pitch)
        yaw = math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
        return roll, pitch, yaw

    def __repr__(self) -> str:
        return (
            f"UnitQuat(w={self.w:.9g}, x={self.x:.9g}, "
            f"y={self.y:.9g}, z={self.z:.9g})"
        )


@dataclass(frozen=True)
class RelativeTilt:
    """Roll/pitch part of a relative rotation as a horizontal axis-angle.

    ``axis`` is a unit vector with zero z component; ``angle`` is the
    non-negative tilt magnitude in radians.  A zero tilt uses the
    conventional +x axis so downstream code never sees a degenerate axis.
    """

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if abs(float(np.linalg.norm(axis)) - 1.0) > 1e-9:
            raise ValueError("tilt axis must be a unit vector")
        if abs(axis[2]) > 1e-9:
            raise ValueError("tilt axis must be horizontal")
        if self.angle < 0.0:
            raise ValueError("tilt angle must be non-negative")
        object.__setattr__(self, "axis", axis)

    @property
    def angle_deg(self) -> float:
        return math.degrees(self.angle)


def relative_tilt(q_now: UnitQuat, q_ref: UnitQuat) -> RelativeTilt:
    """Tilt (roll/pitch change, yaw discarded) of q_now relative to q_ref.

    The relative rotation ``q_ref^-1 * q_now`` is decomposed in ZYX order,
    the yaw factor dropped, and the remaining Ry(pitch) @ Rx(roll) rotation
    returned as an axis-angle with the axis projected to the horizontal
    plane and renormalized.
    """
    q_rel = q_ref.inverse() * q_now
    roll, pitch, _ = q_rel.to_rpy()
    tilt = UnitQuat.from_rpy(roll, pitch, 0.0)
    angle = 2.0 * math.acos(min(1.0, tilt.w))
    if angle < 1e-12:
        return RelativeTilt(DEFAULT_TILT_AXIS.copy(), 0.0)
    axis = np.array([tilt.x, tilt.y, 0.0])
    norm = float(np.linalg.norm(axis))
    if norm < _NORM_EPS:
        return RelativeTilt(DEFAULT_TILT_AXIS.copy(), 0.0)
    return RelativeTilt(axis / norm, angle)


@dataclass(frozen=True)
class Pose2:
    """Planar pose (x, y, yaw) with yaw stored wrapped to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)

    def compose(self, other: "Pose2") -> "Pose2":
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return Pose2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.yaw + other.yaw,
        )

    def inverse(self) -> "Pose2":
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return Pose2(-c * self.x - s * self.y, s * self.x - c * self.y, -self.yaw)

    def transform_xy(self, points: np.ndarray) -> np.ndarray:
        """Apply the pose to a (2,) point or an (N, 2) stack."""
        points = np.asarray(points, dtype=float)
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return points @ rot.T + np.array([self.x, self.y])

    def planar_distance(self, other: "Pose2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


# ---------------------------------------------------------------------------
# Batched quaternion helpers (rows are (w, x, y, z)); used on hot paths where
# per-object UnitQuat math would dominate.


def quat_array_normalize(quats: np.ndarray) -> np.ndarray:
    quats = np.asarray(quats, dtype=float)
    return quats / np.linalg.norm(quats, axis=-1, keepdims=True)


def quat_array_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_array_conjugate(quats: np.ndarray) -> np.ndarray:
    quats = np.asarray(quats, dtype=float)
    return quats * np.array([1.0, -1.0, -1.0, -1.0])


def quat_array_to_matrices(quats: np.ndarray) -> np.ndarray:
    """Convert an (N, 4) quaternion stack to (N, 3, 3) rotation matrices."""
    q = quat_array_normalize(quats)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((q.shape[0], 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def slerp_array(q0: np.ndarray, q1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-wise slerp between (N, 4) stacks with per-row parameters t."""
    a = quat_array_normalize(q0)
    b = quat_array_normalize(q1)
    t = np.asarray(t, dtype=float)[:, None]
    dot = np.sum(a * b, axis=1, keepdims=True)
    b = np.where(dot < 0.0, -b, b)
    dot = np.abs(dot)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    sin_theta = np.sin(theta)
    near = dot > _SLERP_DOT_LIMIT
    safe_sin = np.where(near, 1.0, sin_theta)
    w0 = np.where(near, 1.0 - t, np.sin((1.0 - t) * theta) / safe_sin)
    w1 = np.where(near, t, np.sin(t * theta) / safe_sin)
    return quat_array_normalize(w0 * a + w1 * b)


def rpy_to_quat_array(
    roll: np.ndarray, pitch: np.ndarray, yaw: np.ndarray
) -> np.ndarray:
    cy, sy = np.cos(0.5 * yaw), np.sin(0.5 * yaw)
    cp, sp = np.cos(0.5 * pitch), np.sin(0.5 * pitch)
    cr, sr = np.cos(0.5 * roll), np.sin(0.5 * roll)
    return np.stack(
        [
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        ],
        axis=-1,
    )


def quat_array_to_rpy(quats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ZYX extraction; pitch is clamped at gimbal lock."""
    q = quat_array_normalize(quats)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    roll = np.arctan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2.0 * (w * y - x * z), -1.0, 1.0))
    yaw = np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def rotvec_from_quat_array(quats: np.ndarray) -> np.ndarray:
    """Rotation vectors (axis * angle) for an (N, 4) quaternion stack."""
    q = quat_array_normalize(quats)
    q = np.where(q[:, :1] < 0.0, -q, q)
    vec_norm = np.linalg.norm(q[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(vec_norm, q[:, 0])
    scale = np.where(vec_norm > 1e-12, angle / np.where(vec_norm > 1e-12, vec_norm, 1.0), 2.0)
    return q[:, 1:] * scale[:, None]
