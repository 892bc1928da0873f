"""IMU attitude estimation: static bias calibration, a complementary
gradient-descent filter (gyro propagation corrected toward the measured
gravity direction), and an interpolating attitude history.

The filter is deliberately yaw-blind: gravity observations constrain only
roll and pitch, so yaw follows the integrated gyro and may drift.  Consumers
that need heading use it only for short relative predictions.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationTooFar, InsufficientData, NotStatic
from .geometry import (
    UnitQuat,
    elapsed_ns,
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
class ImuStream:
    """An inertial stream as columns: ``t`` (N,) int64 ns, strictly
    increasing; ``omega`` (N, 3) body rates (rad/s); ``accel`` (N, 3)
    specific force (m/s^2).  Row i is one measurement.
    """

    t: np.ndarray
    omega: np.ndarray
    accel: np.ndarray

    def __post_init__(self):
        # Read-only C-order copies: a stream cannot change after it was
        # checked, and run_filter reads its rows as raw doubles.
        t = np.array(self.t)
        if t.ndim != 1 or (t.size and t.dtype.kind not in "iu"):
            raise ValueError(
                f"ImuStream.t must be a 1-D integer array, got {t.dtype} {t.shape}"
            )
        columns = {"t": t.astype(np.int64, copy=False)}
        for name in ("omega", "accel"):
            col = np.array(getattr(self, name), dtype=float, order="C")
            if col.shape != (t.shape[0], 3):
                raise ValueError(
                    f"ImuStream.{name} must have shape ({t.shape[0]}, 3), "
                    f"got {col.shape}"
                )
            if not np.isfinite(col).all():
                raise ValueError(f"ImuStream.{name} must be finite")
            columns[name] = col
        stalled = columns["t"][1:] <= columns["t"][:-1]
        if stalled.any():
            row = int(np.argmax(stalled)) + 1
            raise ValueError(f"ImuStream.t must be strictly increasing (row {row})")
        for name, col in columns.items():
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.t.shape[0]


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


def estimate_bias(samples: ImuStream, window_s: float = 10.0) -> ImuBias:
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
    t, omega, accel = samples.t, samples.omega, samples.accel
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


class AttitudeTrack:
    """Time-indexed attitude history with slerp queries.

    Stored quaternion rows are hemisphere-aligned (consecutive dot >= 0) so
    interpolation never crosses the double cover.  Instances are immutable
    after construction; queries are pure.
    """

    def __init__(self, t: np.ndarray, quats: np.ndarray):
        # A copy, so freezing it below leaves the caller's array alone.
        t = np.array(t, dtype=np.int64)
        quats = quat_array_normalize(np.asarray(quats, dtype=float))
        if t.ndim != 1 or quats.shape != (t.shape[0], 4):
            raise ValueError("need matching (N,) timestamps and (N, 4) quaternions")
        if t.shape[0] == 0:
            raise ValueError("attitude track must not be empty")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("track timestamps must be strictly increasing")
        flips = np.cumsum(np.sum(quats[1:] * quats[:-1], axis=1) < 0.0) % 2
        signs = np.concatenate([[1.0], np.where(flips, -1.0, 1.0)])
        self._t = t
        self._quats = quats * signs[:, None]
        # The farthest queries that still clamp, as Python ints kept inside
        # int64, so the per-query comparison cannot wrap.
        self._reach = (
            max(int(t[0]) - EXTRAPOLATION_LIMIT_NS, -(2**63)),
            min(int(t[-1]) + EXTRAPOLATION_LIMIT_NS, 2**63 - 1),
        )
        # Sample intervals as floats: a query needs only its offset into one.
        self._gaps = elapsed_ns(t[:-1], t[1:])
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
        below = ts < self._reach[0]
        above = ts > self._reach[1]
        if np.any(below) or np.any(above):
            bad = int(ts[below][0]) if np.any(below) else int(ts[above][0])
            raise ExtrapolationTooFar(
                f"query at {bad} ns is more than {EXTRAPOLATION_LIMIT_NS} ns "
                f"outside track span [{self.t_start}, {self.t_end}]"
            )
        if len(self) == 1:
            return np.repeat(self._quats, ts.shape[0], axis=0)
        clamped = np.clip(ts, self._t[0], self._t[-1])
        hi = np.clip(np.searchsorted(self._t, clamped, side="left"), 1, len(self) - 1)
        lo = hi - 1
        frac = elapsed_ns(self._t[lo], clamped) / self._gaps[lo]
        frac = np.clip(frac, 0.0, 1.0)
        return slerp_array(self._quats[lo], self._quats[hi], frac)

    def attitude_at(self, t: int) -> UnitQuat:
        """Attitude at time t (ns), slerped between the bracketing samples."""
        q = self.attitudes_at(np.array([t], dtype=np.int64))[0]
        return UnitQuat.from_array(q)


def run_filter(
    samples: ImuStream,
    bias: ImuBias | None = None,
    beta: float = 0.1,
    q0: UnitQuat | None = None,
) -> AttitudeTrack:
    """Run the attitude filter over a full debiased IMU stream.

    Each step advances the attitude over one sample interval with that
    interval's closing body rate; the gradient correction toward gravity
    (gain ``beta``) is skipped whenever the accel norm leaves
    ``ACCEL_NORM_BAND``, and ``beta == 0`` is pure gyro integration.  If
    ``q0`` is omitted the attitude is warm-started from the first sample's
    (debiased) specific force.  Sample gaps may be no longer than 0.1 s.
    """
    if len(samples) == 0:
        raise InsufficientData("cannot filter an empty IMU stream")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    bias = bias or ImuBias.zero()
    omega = samples.omega - bias.gyro
    accel = samples.accel - bias.accel
    if q0 is None:
        q0 = warm_start_attitude(accel[0])
    dts = np.diff(samples.t).astype(float) * 1e-9
    if np.any(dts > _MAX_STEP_DT):
        raise ValueError(f"IMU gap exceeds {_MAX_STEP_DT} s")
    quats = np.empty((len(samples), 4))
    q = quats[0] = (q0.w, q0.x, q0.y, q0.z)
    # One row per step: the closing sample's omega and accel, then dt.
    # iter_unpack hands out one row at a time as Python floats, which are
    # several times cheaper than numpy scalars in this loop, without first
    # turning the whole stream into Python objects as tolist() would.
    steps = np.column_stack([omega[1:], accel[1:], dts])
    for i, row in enumerate(struct.iter_unpack("7d", steps), start=1):
        q = quats[i] = _madgwick_core(*q, *row, beta)
    return AttitudeTrack(samples.t, quats)
