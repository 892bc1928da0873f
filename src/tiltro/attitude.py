"""IMU attitude estimation: static bias calibration, a complementary
gradient-descent filter (gyro propagation corrected toward the measured
gravity direction), and an interpolating attitude history.

The filter is deliberately yaw-blind: gravity observations constrain only
roll and pitch, so yaw follows the integrated gyro and may drift.  Consumers
that need heading use it only for short relative predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtrapolationTooFar, InsufficientData, NotStatic
from .geometry import (
    UnitQuat,
    quat_array_normalize,
    slerp_array,
)

GRAVITY = 9.81

#: Queries this far (ns) outside the track span clamp to the nearest endpoint.
EXTRAPOLATION_LIMIT_NS = 50_000_000

#: Accel corrections only apply when the measured norm is inside this band,
#: so launches, impacts and free-fall do not corrupt the gravity reference.
ACCEL_NORM_BAND = (0.5 * GRAVITY, 3.0 * GRAVITY)

_STATIC_GYRO_STD = 0.02  # rad/s, per-axis; above this the window is not static
_MAX_PLAUSIBLE_GYRO_BIAS = 0.1  # rad/s
_MAX_STEP_DT = 0.1  # s


@dataclass(frozen=True)
class ImuSample:
    """One inertial measurement: body rates (rad/s) and specific force (m/s^2)."""

    t: int
    omega: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float))


@dataclass(frozen=True)
class ImuBias:
    gyro: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gyro", np.asarray(self.gyro, dtype=float))
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float))

    @staticmethod
    def zero() -> "ImuBias":
        return ImuBias(np.zeros(3), np.zeros(3))


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert a sample sequence to (t, omega, accel) arrays."""
    t = np.array([s.t for s in samples], dtype=np.int64)
    omega = np.array([s.omega for s in samples], dtype=float)
    accel = np.array([s.accel for s in samples], dtype=float)
    return t, omega, accel


def estimate_bias(samples, window_s: float = 10.0) -> ImuBias:
    """Estimate constant sensor biases from an initial static window.

    The gyro bias is the mean rate over the window.  The accel bias is the
    mean specific force minus a gravity-magnitude vector along the measured
    mean direction, so the tilt of the resting pose is not absorbed into
    the bias.

    Raises:
        InsufficientData: samples span less than ``window_s``.
        NotStatic: per-axis gyro variance exceeds (0.02 rad/s)^2, the mean
            specific force is implausibly small, or the implied gyro bias
            is larger than 0.1 rad/s.
    """
    if len(samples) < 2:
        raise InsufficientData("need at least two samples for bias estimation")
    t, omega, accel = stack_samples(samples)
    window_ns = int(round(window_s * 1e9))
    if t[-1] - t[0] < window_ns:
        raise InsufficientData(
            f"samples span {(t[-1] - t[0]) / 1e9:.3f} s < window {window_s:.3f} s"
        )
    sel = t <= t[0] + window_ns
    omega = omega[sel]
    accel = accel[sel]
    if np.any(omega.var(axis=0) > _STATIC_GYRO_STD**2):
        raise NotStatic("gyro variance over the window exceeds the static bound")
    gyro_bias = omega.mean(axis=0)
    if float(np.linalg.norm(gyro_bias)) >= _MAX_PLAUSIBLE_GYRO_BIAS:
        raise NotStatic("implied gyro bias exceeds 0.1 rad/s; window was not static")
    mean_accel = accel.mean(axis=0)
    norm = float(np.linalg.norm(mean_accel))
    if norm < 0.5 * GRAVITY:
        raise NotStatic("mean specific force far from gravity; window was not static")
    accel_bias = mean_accel - GRAVITY * mean_accel / norm
    return ImuBias(gyro_bias, accel_bias)


def warm_start_attitude(mean_accel) -> UnitQuat:
    """Roll/pitch from the measured gravity direction; yaw set to zero."""
    a = np.asarray(mean_accel, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm < 1e-9:
        raise NotStatic("cannot warm start from a zero specific-force vector")
    ax, ay, az = a / norm
    roll = math.atan2(ay, az)
    pitch = math.asin(max(-1.0, min(1.0, -ax)))
    return UnitQuat.from_rpy(roll, pitch, 0.0)


def _madgwick_core(
    qw, qx, qy, qz, wx, wy, wz, ax, ay, az, dt, beta
) -> tuple[float, float, float, float]:
    # Gyro propagation: qdot = 0.5 * q ⊗ (0, omega).
    dw = 0.5 * (-qx * wx - qy * wy - qz * wz)
    dx = 0.5 * (qw * wx + qy * wz - qz * wy)
    dy = 0.5 * (qw * wy - qx * wz + qz * wx)
    dz = 0.5 * (qw * wz + qx * wy - qy * wx)

    if beta > 0.0:
        anorm = math.sqrt(ax * ax + ay * ay + az * az)
        if ACCEL_NORM_BAND[0] <= anorm <= ACCEL_NORM_BAND[1]:
            axn, ayn, azn = ax / anorm, ay / anorm, az / anorm
            # Residual between the attitude-predicted gravity direction
            # R(q)^T e_z and the normalized measurement.
            f1 = 2.0 * (qx * qz - qw * qy) - axn
            f2 = 2.0 * (qw * qx + qy * qz) - ayn
            f3 = 1.0 - 2.0 * (qx * qx + qy * qy) - azn
            gw = -2.0 * qy * f1 + 2.0 * qx * f2
            gx = 2.0 * qz * f1 + 2.0 * qw * f2 - 4.0 * qx * f3
            gy = -2.0 * qw * f1 + 2.0 * qz * f2 - 4.0 * qy * f3
            gz = 2.0 * qx * f1 + 2.0 * qy * f2
            gnorm = math.sqrt(gw * gw + gx * gx + gy * gy + gz * gz)
            if gnorm > 1e-12:
                inv = beta / gnorm
                dw -= gw * inv
                dx -= gx * inv
                dy -= gy * inv
                dz -= gz * inv

    qw += dw * dt
    qx += dx * dt
    qy += dy * dt
    qz += dz * dt
    inv = 1.0 / math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    return qw * inv, qx * inv, qy * inv, qz * inv


def madgwick_step(
    q: UnitQuat,
    omega,
    accel,
    dt: float,
    beta: float = 0.1,
) -> UnitQuat:
    """Advance the attitude by one debiased IMU sample.

    ``omega`` is the body rate (rad/s), ``accel`` the specific force
    (m/s^2).  The gradient correction toward gravity is skipped whenever
    the accel norm leaves ``ACCEL_NORM_BAND``; with ``beta == 0`` the step
    reduces to pure gyro integration.
    """
    if not 0.0 < dt <= _MAX_STEP_DT:
        raise ValueError(f"step dt out of (0, {_MAX_STEP_DT}] s: {dt}")
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    omega = np.asarray(omega, dtype=float)
    accel = np.asarray(accel, dtype=float)
    w, x, y, z = _madgwick_core(
        q.w, q.x, q.y, q.z,
        omega[0], omega[1], omega[2],
        accel[0], accel[1], accel[2],
        dt, beta,
    )
    return UnitQuat(w, x, y, z)


class AttitudeTrack:
    """Time-indexed attitude history with slerp queries.

    Stored quaternion rows are hemisphere-aligned (consecutive dot >= 0) so
    interpolation never crosses the double cover.  Instances are immutable
    after construction; queries are pure.
    """

    def __init__(self, t: np.ndarray, quats: np.ndarray):
        t = np.asarray(t, dtype=np.int64)
        quats = quat_array_normalize(np.asarray(quats, dtype=float))
        if t.ndim != 1 or quats.shape != (t.shape[0], 4):
            raise ValueError("need matching (N,) timestamps and (N, 4) quaternions")
        if t.shape[0] == 0:
            raise ValueError("attitude track must not be empty")
        if np.any(np.diff(t) <= 0):
            raise ValueError("track timestamps must be strictly increasing")
        flips = np.cumsum(np.sum(quats[1:] * quats[:-1], axis=1) < 0.0) % 2
        signs = np.concatenate([[1.0], np.where(flips, -1.0, 1.0)])
        self._t = t
        self._quats = quats * signs[:, None]
        self._t.setflags(write=False)
        self._quats.setflags(write=False)

    def __len__(self) -> int:
        return self._t.shape[0]

    @property
    def t_start(self) -> int:
        return int(self._t[0])

    @property
    def t_end(self) -> int:
        return int(self._t[-1])

    @property
    def timestamps(self) -> np.ndarray:
        return self._t

    @property
    def quaternions(self) -> np.ndarray:
        return self._quats

    def attitudes_at(self, ts) -> np.ndarray:
        """Vectorized slerp query; returns an (K, 4) quaternion stack.

        Queries within ``EXTRAPOLATION_LIMIT_NS`` outside the span clamp to
        the nearest endpoint; anything farther raises ExtrapolationTooFar.
        """
        ts = np.asarray(ts, dtype=np.int64)
        if ts.size == 0:
            return np.empty((0, 4))
        below = ts < self._t[0] - EXTRAPOLATION_LIMIT_NS
        above = ts > self._t[-1] + EXTRAPOLATION_LIMIT_NS
        if np.any(below) or np.any(above):
            bad = int(ts[below][0]) if np.any(below) else int(ts[above][0])
            raise ExtrapolationTooFar(
                f"query at {bad} ns is more than {EXTRAPOLATION_LIMIT_NS} ns "
                f"outside track span [{self.t_start}, {self.t_end}]"
            )
        clamped = np.clip(ts, self._t[0], self._t[-1])
        hi = np.searchsorted(self._t, clamped, side="left")
        hi = np.clip(hi, 1, len(self) - 1) if len(self) > 1 else np.zeros_like(hi)
        if len(self) == 1:
            return np.repeat(self._quats, ts.shape[0], axis=0)
        lo = hi - 1
        # Subtract in int64 first: float64 resolves only 256 ns at epoch scale.
        t0 = self._t[lo]
        frac = (clamped - t0).astype(float) / (self._t[hi] - t0).astype(float)
        frac = np.clip(frac, 0.0, 1.0)
        return slerp_array(self._quats[lo], self._quats[hi], frac)

    def attitude_at(self, t: int) -> UnitQuat:
        """Attitude at time t (ns), slerped between the bracketing samples."""
        q = self.attitudes_at(np.array([t], dtype=np.int64))[0]
        return UnitQuat.from_array(q)


def run_filter(
    samples,
    bias: ImuBias | None = None,
    beta: float = 0.1,
    q0: UnitQuat | None = None,
) -> AttitudeTrack:
    """Run the attitude filter over a full debiased IMU stream.

    If ``q0`` is omitted the attitude is warm-started from the first
    sample's (debiased) specific force.  Sample timestamps must be strictly
    increasing with gaps no longer than 0.1 s.
    """
    if len(samples) == 0:
        raise InsufficientData("cannot filter an empty IMU stream")
    bias = bias or ImuBias.zero()
    t, omega, accel = stack_samples(samples)
    if np.any(np.diff(t) <= 0):
        raise ValueError("IMU timestamps must be strictly increasing")
    omega = omega - bias.gyro
    accel = accel - bias.accel
    if q0 is None:
        q0 = warm_start_attitude(accel[0])
    quats = np.empty((t.shape[0], 4))
    qw, qx, qy, qz = q0.w, q0.x, q0.y, q0.z
    quats[0] = (qw, qx, qy, qz)
    dts = np.diff(t).astype(float) * 1e-9
    if np.any(dts > _MAX_STEP_DT):
        raise ValueError(f"IMU gap exceeds {_MAX_STEP_DT} s")
    om = omega
    ac = accel
    for i in range(1, t.shape[0]):
        qw, qx, qy, qz = _madgwick_core(
            qw, qx, qy, qz,
            om[i, 0], om[i, 1], om[i, 2],
            ac[i, 0], ac[i, 1], ac[i, 2],
            dts[i - 1], beta,
        )
        quats[i] = (qw, qx, qy, qz)
    return AttitudeTrack(t, quats)
