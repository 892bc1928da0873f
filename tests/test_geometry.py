import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiltro import Pose2, RelativeTilt, UnitQuat, relative_tilt
from tiltro.geometry import (
    elapsed_ns,
    quat_array_multiply,
    quat_array_to_rpy,
    rpy_to_quat_array,
    slerp_array,
    wrap_angle,
)

from helpers import angle_to, approx_eq, as_array, from_axis_angle, rotate, slerp


def test_quat_normalizes_and_canonicalizes_sign():
    q = UnitQuat(-2.0, 0.0, 0.0, 0.0)
    assert q.w == pytest.approx(1.0)
    q = UnitQuat(-0.5, 0.5, 0.5, 0.5)
    assert q.w >= 0.0
    assert abs(np.linalg.norm(as_array(q)) - 1.0) < 1e-12


def test_quat_rejects_near_zero_norm():
    with pytest.raises(ValueError):
        UnitQuat(1e-13, 0.0, 0.0, 0.0)


def test_rpy_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        roll = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
        yaw = rng.uniform(-math.pi, math.pi)
        r, p, y = UnitQuat.from_rpy(roll, pitch, yaw).to_rpy()
        assert r == pytest.approx(roll, abs=1e-9)
        assert p == pytest.approx(pitch, abs=1e-9)
        assert y == pytest.approx(yaw, abs=1e-9)


def test_rpy_convention_matches_zyx_composition():
    # Rz(10 deg) * Ry(20 deg) * Rx(5 deg) decomposes back to (5, 20, 10).
    qx = from_axis_angle((1, 0, 0), math.radians(5))
    qy = from_axis_angle((0, 1, 0), math.radians(20))
    qz = from_axis_angle((0, 0, 1), math.radians(10))
    r, p, y = (qz * qy * qx).to_rpy()
    assert math.degrees(r) == pytest.approx(5.0, abs=1e-9)
    assert math.degrees(p) == pytest.approx(20.0, abs=1e-9)
    assert math.degrees(y) == pytest.approx(10.0, abs=1e-9)


def test_rotation_matrix_is_orthonormal_and_matches_rotate():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = UnitQuat(*rng.normal(size=4))
        m = q.rotation_matrix()
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0)
        v = rng.normal(size=3)
        assert np.allclose(rotate(q, v), m @ v, atol=1e-12)


def test_mul_inverse_gives_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = UnitQuat(*rng.normal(size=4))
        ident = q * q.inverse()
        assert approx_eq(ident, UnitQuat.identity(), tol=1e-7)


def test_slerp_endpoints():
    rng = np.random.default_rng(4)
    q0 = UnitQuat(*rng.normal(size=4))
    q1 = UnitQuat(*rng.normal(size=4))
    assert approx_eq(slerp(q0, q1, 0.0), q0, tol=1e-7)
    assert approx_eq(slerp(q0, q1, 1.0), q1, tol=1e-7)


def test_slerp_constant_angular_speed():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q0 = UnitQuat(*rng.normal(size=4))
        q1 = UnitQuat(*rng.normal(size=4))
        total = angle_to(q0, q1)
        for t in (0.25, 0.5, 0.75):
            assert angle_to(q0, slerp(q0, q1, t)) == pytest.approx(
                t * total, abs=1e-7
            )


def test_relative_tilt_pure_yaw_is_zero():
    qa = UnitQuat.from_rpy(0.0, 0.0, 0.3)
    qb = UnitQuat.from_rpy(0.0, 0.0, -1.2)
    tilt = relative_tilt(qa, qb)
    assert tilt.angle == pytest.approx(0.0, abs=1e-12)


def test_relative_tilt_known_pitch():
    q_ref = UnitQuat.identity()
    q_now = UnitQuat.from_rpy(0.0, math.radians(13.0), 0.0)
    tilt = relative_tilt(q_now, q_ref)
    assert tilt.angle_deg == pytest.approx(13.0, abs=1e-9)
    # pure pitch tilts about the y axis
    assert abs(tilt.axis[1]) == pytest.approx(1.0, abs=1e-9)


def test_relative_tilt_invariant_under_common_yaw():
    # A shared world-frame yaw leaves the tilt magnitude untouched and
    # carries the world-frame image of the axis around by that yaw.
    rng = np.random.default_rng(6)
    for _ in range(100):
        qn = UnitQuat.from_rpy(*rng.uniform(-0.5, 0.5, 2), rng.uniform(-math.pi, math.pi))
        qr = UnitQuat.from_rpy(*rng.uniform(-0.5, 0.5, 2), rng.uniform(-math.pi, math.pi))
        yaw = rng.uniform(-math.pi, math.pi)
        qy = UnitQuat.from_rpy(0.0, 0.0, yaw)
        a = relative_tilt(qn, qr)
        b = relative_tilt(qy * qn, qy * qr)
        assert b.angle == pytest.approx(a.angle, abs=1e-7)
        world_a = rotate(qr, a.axis)
        world_b = rotate(qy * qr, b.axis)
        c, s = math.cos(yaw), math.sin(yaw)
        rotated = np.array(
            [c * world_a[0] - s * world_a[1], s * world_a[0] + c * world_a[1], world_a[2]]
        )
        assert np.allclose(world_b, rotated, atol=1e-7)


def test_relative_tilt_inverse_nearly_symmetric():
    # Dropping yaw from the relative rotation makes the magnitude only
    # approximately direction-symmetric; the residual is far below any
    # threshold the pipeline applies.
    qn = UnitQuat.from_rpy(0.1, 0.2, 0.7)
    qr = UnitQuat.from_rpy(-0.05, 0.1, -0.4)
    assert relative_tilt(qn, qr).angle == pytest.approx(
        relative_tilt(qr, qn).angle, abs=1e-3
    )


def test_relative_tilt_validation():
    with pytest.raises(ValueError):
        RelativeTilt(np.array([1.0, 0.0, 0.5]), 0.1)  # not horizontal
    with pytest.raises(ValueError):
        RelativeTilt(np.array([2.0, 0.0, 0.0]), 0.1)  # not unit
    with pytest.raises(ValueError):
        RelativeTilt(np.array([1.0, 0.0, 0.0]), -0.1)


def test_pose2_compose_associative():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = (
            Pose2(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
            for _ in range(3)
        )
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.x == pytest.approx(right.x, abs=1e-9)
        assert left.y == pytest.approx(right.y, abs=1e-9)
        assert wrap_angle(left.yaw - right.yaw) == pytest.approx(0.0, abs=1e-9)


def test_pose2_inverse_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = Pose2(*rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
        ident = p.compose(p.inverse())
        assert ident.x == pytest.approx(0.0, abs=1e-12)
        assert ident.y == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(ident.yaw) == pytest.approx(0.0, abs=1e-12)


def test_pose2_transform_xy_matches_compose():
    p = Pose2(1.0, -2.0, math.radians(30))
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 4.0]])
    moved = p.transform_xy(pts)
    for (px, py), (mx, my) in zip(pts, moved):
        q = p.compose(Pose2(px, py, 0.0))
        assert mx == pytest.approx(q.x, abs=1e-12)
        assert my == pytest.approx(q.y, abs=1e-12)


def test_wrap_angle_range():
    rng = np.random.default_rng(9)
    for a in rng.uniform(-50, 50, 200):
        w = wrap_angle(a)
        assert -math.pi <= w <= math.pi
        assert math.cos(w - a) == pytest.approx(1.0, abs=1e-12)


def test_array_quat_helpers_match_scalar():
    rng = np.random.default_rng(10)
    qa = [UnitQuat(*rng.normal(size=4)) for _ in range(20)]
    qb = [UnitQuat(*rng.normal(size=4)) for _ in range(20)]
    arr_a = np.array([as_array(q) for q in qa])
    arr_b = np.array([as_array(q) for q in qb])
    prods = quat_array_multiply(arr_a, arr_b)
    for q1, q2, arr in zip(qa, qb, prods):
        assert approx_eq(q1 * q2, UnitQuat.from_array(arr), tol=1e-7)
    r, p, y = quat_array_to_rpy(arr_a)
    for q, rr, pp, yy in zip(qa, r, p, y):
        sr, sp, sy = q.to_rpy()
        assert (rr, pp, yy) == pytest.approx((sr, sp, sy), abs=1e-12)
    back = rpy_to_quat_array(r, p, y)
    for q, arr in zip(qa, back):
        assert approx_eq(q, UnitQuat.from_array(arr), tol=1e-7)


def test_slerp_array_matches_scalar():
    rng = np.random.default_rng(11)
    q0 = [UnitQuat(*rng.normal(size=4)) for _ in range(15)]
    q1 = [UnitQuat(*rng.normal(size=4)) for _ in range(15)]
    ts = rng.uniform(0, 1, 15)
    out = slerp_array(
        np.array([as_array(q) for q in q0]),
        np.array([as_array(q) for q in q1]),
        ts,
    )
    for a, b, t, arr in zip(q0, q1, ts, out):
        assert approx_eq(slerp(a, b, t), UnitQuat.from_array(arr), tol=1e-7)


_INT64 = st.integers(-(2**63), 2**63 - 1)


@given(st.lists(_INT64, min_size=1, max_size=4), _INT64)
def test_elapsed_ns_is_the_correctly_rounded_difference(ts, t0):
    got = elapsed_ns(t0, np.array(ts, dtype=np.int64))
    # Python's int -> float conversion rounds the exact difference once.
    assert got.tolist() == [float(t - t0) for t in ts]
