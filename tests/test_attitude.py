import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tiltro import (
    GRAVITY,
    AttitudeTrack,
    ExtrapolationTooFar,
    ImuBias,
    ImuStream,
    InsufficientData,
    NotStatic,
    UnitQuat,
    estimate_bias,
    run_filter,
)
from tiltro.attitude import EXTRAPOLATION_LIMIT_NS, warm_start_attitude
from tiltro.geometry import quat_array_to_rpy, rpy_to_quat_array

from helpers import angle_to, approx_eq, as_array, from_axis_angle, rotate, slerp

_DT = 0.005  # 200 Hz


def _expmap_step(q: UnitQuat, omega: np.ndarray, dt: float) -> UnitQuat:
    """Exact gyro integration oracle: q * exp(omega * dt / 2)."""
    theta = float(np.linalg.norm(omega)) * dt
    if theta < 1e-15:
        return q
    axis = omega / np.linalg.norm(omega)
    return q * from_axis_angle(axis, theta)


def _samples(n, accel, omega=(0.0, 0.0, 0.0), dt=_DT):
    """n samples at a fixed rate; accel and omega broadcast to (n, 3)."""
    return ImuStream(
        np.arange(n, dtype=np.int64) * int(round(dt * 1e9)),
        np.broadcast_to(np.asarray(omega, float), (n, 3)),
        np.broadcast_to(np.asarray(accel, float), (n, 3)),
    )


def _steps(q0, n, accel, omega, beta):
    """Filter attitudes after each of n steps from q0.

    Rows of accel and omega (broadcast to (n, 3)) drive steps 1..n; the
    stream's first sample only anchors the start time.
    """
    def padded(rows):
        return np.vstack([np.zeros(3), np.broadcast_to(rows, (n, 3))])

    samples = _samples(n + 1, padded(accel), padded(omega))
    track = run_filter(samples, q0=q0, beta=beta)
    return [UnitQuat.from_array(q) for q in track.quaternions[1:]]


def test_beta_zero_matches_gyro_oracle():
    rng = np.random.default_rng(20)
    q = UnitQuat.from_rpy(0.1, -0.2, 0.4)
    oracle = q
    omegas = rng.uniform(-1.5, 1.5, (400, 3))
    steps = _steps(q, 400, [0.0, 0.0, GRAVITY], omegas, 0.0)
    for i, (omega, step_q) in enumerate(zip(omegas, steps)):
        oracle = _expmap_step(oracle, omega, _DT)
        assert angle_to(step_q, oracle) <= 1e-6 * (i + 1)


def test_beta_zero_quarter_turn():
    omega = np.array([0.0, 0.0, math.pi / 2])
    q = _steps(UnitQuat.identity(), 200, np.zeros(3), omega, 0.0)[-1]
    _, _, yaw = q.to_rpy()
    assert yaw == pytest.approx(math.pi / 2, abs=1e-3)


def test_static_convergence_from_roll_error():
    q0 = UnitQuat.from_rpy(math.radians(20.0), 0.0, 0.0)
    q = _steps(q0, 2000, [0.0, 0.0, GRAVITY], np.zeros(3), 0.1)[-1]  # 10 s at 200 Hz
    roll, pitch, _ = q.to_rpy()
    assert abs(math.degrees(roll)) < 0.5
    assert abs(math.degrees(pitch)) < 0.5


def test_static_convergence_monotone_after_one_second():
    rng = np.random.default_rng(21)
    for _ in range(10):
        tilt = rng.uniform(-math.radians(30), math.radians(30), 2)
        q0 = UnitQuat.from_rpy(tilt[0], tilt[1], rng.uniform(-math.pi, math.pi))
        samples = _samples(1201, [0.0, 0.0, GRAVITY])  # 6 s
        track = run_filter(samples, q0=q0, beta=0.1)
        roll, pitch, _ = quat_array_to_rpy(track.quaternions[1:])
        after = np.hypot(roll, pitch)[200:]
        # Once converged the discrete gradient correction dithers within a
        # fraction of a milliradian, so allow that much per-step wiggle.
        assert np.all(np.diff(after) <= 1e-3)
        assert math.degrees(after[-1]) < 0.5


def test_yaw_offset_does_not_change_roll_pitch():
    rng = np.random.default_rng(22)
    omega = rng.uniform(-0.5, 0.5, (601, 3))
    samples = _samples(
        601, np.array([0.0, 0.0, GRAVITY]) + rng.normal(0, 0.05, (601, 3)), omega
    )
    qa = UnitQuat.from_rpy(0.1, -0.05, 0.0)
    qb = UnitQuat.from_rpy(0.0, 0.0, math.radians(70)) * qa
    ra, pa, _ = quat_array_to_rpy(run_filter(samples, q0=qa, beta=0.1).quaternions)
    rb, pb, _ = quat_array_to_rpy(run_filter(samples, q0=qb, beta=0.1).quaternions)
    np.testing.assert_allclose(ra, rb, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(pa, pb, rtol=0.0, atol=1e-6)


def test_accel_band_gates_gravity_correction():
    q = UnitQuat.from_rpy(0.2, 0.1, 0.0)
    omega = np.array([0.1, -0.2, 0.05])
    tilted = np.array([1.0, 2.0, 5.0])

    def step(accel, beta):
        return _steps(q, 1, accel, omega, beta)[0]

    for scale in (0.3, 4.0):  # below and above the [0.5 g, 3 g] band
        accel = tilted / np.linalg.norm(tilted) * scale * GRAVITY
        assert angle_to(step(accel, 0.1), step(accel, 0.0)) == 0.0
    in_band = tilted / np.linalg.norm(tilted) * GRAVITY
    assert angle_to(step(in_band, 0.1), step(in_band, 0.0)) > 0.0


def _columns(n=4):
    return {
        "t": np.arange(n, dtype=np.int64) * 5_000_000,
        "omega": np.zeros((n, 3)),
        "accel": np.tile([0.0, 0.0, GRAVITY], (n, 1)),
    }


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("omega", np.zeros((3, 3)), r"omega must have shape \(4, 3\)"),
        ("accel", np.zeros((5, 3)), r"accel must have shape \(4, 3\)"),
        ("omega", np.zeros((4, 2)), r"omega must have shape \(4, 3\)"),
        ("accel", np.zeros(12), r"accel must have shape \(4, 3\)"),
        ("t", np.zeros((4, 1), dtype=np.int64), "t must be a 1-D integer array"),
        ("t", np.arange(4) * 0.005, "t must be a 1-D integer array"),
        ("t", np.array([0, 5, 5, 10]), r"t must be strictly increasing \(row 2\)"),
        ("t", np.array([0, 5, 4, 10]), r"t must be strictly increasing \(row 2\)"),
    ],
    ids=[
        "omega-short", "accel-long", "omega-N-by-2", "accel-flat",
        "t-2d", "t-float", "t-equal", "t-decreasing",
    ],
)
def test_imu_stream_rejects_bad_columns(field, value, message):
    columns = _columns()
    columns[field] = value
    with pytest.raises(ValueError, match=f"ImuStream.{message}"):
        ImuStream(**columns)


@pytest.mark.parametrize("field", ["omega", "accel"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_imu_stream_rejects_non_finite_values(field, value):
    columns = _columns()
    columns[field][2, 1] = value
    with pytest.raises(ValueError, match=f"ImuStream.{field} must be finite"):
        ImuStream(**columns)


def test_imu_stream_is_columnar():
    columns = _columns()
    columns["omega"] = np.asfortranarray(columns["omega"])
    stream = ImuStream(**columns)
    assert len(stream) == 4
    assert stream.t.dtype == np.int64
    assert stream.omega.shape == stream.accel.shape == (4, 3)
    # The checked columns are read-only C-order copies; the caller's stay
    # writable.
    for name, col in columns.items():
        assert not getattr(stream, name).flags.writeable
        assert getattr(stream, name).flags.c_contiguous
        assert col.flags.writeable
    assert len(ImuStream([], np.empty((0, 3)), np.empty((0, 3)))) == 0


def test_run_filter_validation():
    samples = _samples(10, [0.0, 0.0, GRAVITY])
    for beta in (-0.1, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta"):
            run_filter(samples, beta=beta)
    # Zero (pure gyro integration) and any large finite gain are valid.
    run_filter(samples, beta=0.0)
    run_filter(samples, beta=1e6)


def test_estimate_bias_recovers_vertical_accel_bias():
    gyro_bias = np.array([0.01, -0.02, 0.005])
    accel = np.array([0.0, 0.0, GRAVITY + 0.08])
    samples = _samples(2400, accel, omega=gyro_bias, dt=_DT)
    bias = estimate_bias(samples, window_s=10.0)
    assert np.allclose(bias.gyro, gyro_bias, atol=1e-12)
    assert np.allclose(bias.accel, [0.0, 0.0, 0.08], atol=1e-9)


def test_estimate_bias_subtracts_gravity_along_measured_direction():
    # A lateral accel offset is indistinguishable from a resting tilt, so
    # the estimator only removes the component beyond one g along the mean.
    accel = np.array([0.05, -0.03, GRAVITY])
    samples = _samples(2400, accel, dt=_DT)
    bias = estimate_bias(samples, window_s=10.0)
    mean = accel
    expected = mean - GRAVITY * mean / np.linalg.norm(mean)
    assert np.allclose(bias.accel, expected, atol=1e-12)


def test_estimate_bias_errors():
    accel = np.array([0.0, 0.0, GRAVITY])
    with pytest.raises(InsufficientData):
        estimate_bias(_samples(1, accel))
    with pytest.raises(InsufficientData):
        estimate_bias(_samples(400, accel), window_s=10.0)  # 2 s span
    rng = np.random.default_rng(23)
    rotating = _samples(2400, accel, omega=rng.uniform(-0.5, 0.5, (2400, 3)))
    with pytest.raises(NotStatic):
        estimate_bias(rotating, window_s=10.0)
    freefall = _samples(2400, np.array([0.0, 0.0, 0.1]))
    with pytest.raises(NotStatic):
        estimate_bias(freefall, window_s=10.0)


def test_warm_start_recovers_static_tilt():
    rng = np.random.default_rng(24)
    for _ in range(50):
        roll = rng.uniform(-0.5, 0.5)
        pitch = rng.uniform(-0.5, 0.5)
        q_true = UnitQuat.from_rpy(roll, pitch, 0.0)
        body_accel = rotate(q_true.inverse(), np.array([0.0, 0.0, GRAVITY]))
        q = warm_start_attitude(body_accel)
        r, p, y = q.to_rpy()
        assert r == pytest.approx(roll, abs=1e-9)
        assert p == pytest.approx(pitch, abs=1e-9)
        assert abs(y) < 1e-12


def test_run_filter_static_stays_level():
    samples = _samples(1200, np.array([0.0, 0.0, GRAVITY]))
    track = run_filter(samples)
    assert len(track) == 1200
    roll, pitch, _ = track.attitude_at(samples.t[-1]).to_rpy()
    assert abs(roll) < 1e-6 and abs(pitch) < 1e-6


def test_run_filter_validates_timestamps():
    accel = np.array([0.0, 0.0, GRAVITY])
    # Equal timestamps never reach the filter: the stream rejects them.
    with pytest.raises(ValueError, match="strictly increasing"):
        _samples(2, accel, dt=0.0)
    with pytest.raises(ValueError, match="gap"):
        run_filter(_samples(2, accel, dt=0.2))
    with pytest.raises(InsufficientData):
        run_filter(_samples(0, accel))


def test_track_query_interpolates_and_guards_extrapolation():
    t = np.array([0, 1_000_000_000], dtype=np.int64)
    q0 = UnitQuat.identity()
    q1 = UnitQuat.from_rpy(0.0, 0.0, 1.0)
    track = AttitudeTrack(t, np.array([as_array(q0), as_array(q1)]))
    mid = track.attitude_at(500_000_000)
    assert approx_eq(mid, slerp(q0, q1, 0.5), tol=1e-9)
    # small clamp beyond the ends is allowed
    assert approx_eq(track.attitude_at(-1_000_000), q0, tol=1e-9)
    with pytest.raises(ExtrapolationTooFar):
        track.attitude_at(5_000_000_000)


def test_track_query_is_independent_of_the_time_origin():
    # At a Unix-epoch offset float64 resolves only 256 ns, so the query must
    # subtract in int64 before it converts.
    offset = 1_760_000_000_000_000_000
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.integers(4_000_000, 6_000_000, 200)).astype(np.int64)
    quats = np.array([
        as_array(UnitQuat.from_rpy(
            0.3 * math.sin(k / 9.0), 0.2 * math.cos(k / 7.0), k / 30.0
        ))
        for k in range(t.shape[0])
    ])
    ts = rng.integers(t[0], t[-1], 1000)
    local = AttitudeTrack(t, quats).attitudes_at(ts)
    epoch = AttitudeTrack(t + offset, quats).attitudes_at(ts + offset)
    np.testing.assert_array_equal(epoch, local)


@st.composite
def _track_and_queries(draw):
    n = draw(st.integers(1, 30))
    steps = draw(arrays(np.int64, n, elements=st.integers(1, 20_000_000)))
    t = draw(st.integers(-(2**60), 2**60)) + np.cumsum(steps)
    rpy = draw(arrays(np.float64, (n, 3), elements=st.floats(-3.2, 3.2)))
    quats = rpy_to_quat_array(rpy[:, 0], rpy[:, 1], rpy[:, 2])
    lo, hi = int(t[0]) - EXTRAPOLATION_LIMIT_NS, int(t[-1]) + EXTRAPOLATION_LIMIT_NS
    knots = st.sampled_from(t.tolist())
    ts = draw(st.lists(st.one_of(st.integers(lo, hi), knots), min_size=1, max_size=64))
    return AttitudeTrack(t, quats), np.array(ts, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_track_and_queries())
def test_track_batch_query_rows_equal_single_queries(case):
    # The pipeline folds several attitude lookups into one batched query;
    # that is only byte-neutral if every row is computed independently.
    track, ts = case
    batch = track.attitudes_at(ts)
    for i, t in enumerate(ts):
        assert batch[i].tobytes() == track.attitudes_at([t])[0].tobytes()


def test_attitude_track_copies_its_timestamps():
    t = np.array([0, 10], dtype=np.int64)
    track = AttitudeTrack(t, np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
    assert t.flags.writeable
    t[1] = 5
    assert track.timestamps.tolist() == [0, 10]
    assert not track.timestamps.flags.writeable
