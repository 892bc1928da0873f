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
    ImuSample,
    InsufficientData,
    NotStatic,
    UnitQuat,
    estimate_bias,
    madgwick_step,
    run_filter,
    slerp,
)
from tiltro.attitude import EXTRAPOLATION_LIMIT_NS, warm_start_attitude
from tiltro.geometry import rpy_to_quat_array

_DT = 0.005  # 200 Hz


def _expmap_step(q: UnitQuat, omega: np.ndarray, dt: float) -> UnitQuat:
    """Exact gyro integration oracle: q * exp(omega * dt / 2)."""
    theta = float(np.linalg.norm(omega)) * dt
    if theta < 1e-15:
        return q
    axis = omega / np.linalg.norm(omega)
    return q * UnitQuat.from_axis_angle(axis, theta)


def _static_samples(n, accel, omega=(0.0, 0.0, 0.0), dt=_DT, t0=0):
    step = int(round(dt * 1e9))
    return [
        ImuSample(t0 + i * step, np.asarray(omega, float), np.asarray(accel, float))
        for i in range(n)
    ]


def test_beta_zero_matches_gyro_oracle():
    rng = np.random.default_rng(20)
    q = UnitQuat.from_rpy(0.1, -0.2, 0.4)
    oracle = q
    accel = np.array([0.0, 0.0, GRAVITY])
    for i in range(400):
        omega = rng.uniform(-1.5, 1.5, 3)
        q = madgwick_step(q, omega, accel, _DT, beta=0.0)
        oracle = _expmap_step(oracle, omega, _DT)
        assert q.angle_to(oracle) <= 1e-6 * (i + 1)


def test_beta_zero_quarter_turn():
    q = UnitQuat.identity()
    omega = np.array([0.0, 0.0, math.pi / 2])
    for _ in range(200):
        q = madgwick_step(q, omega, np.zeros(3), _DT, beta=0.0)
    _, _, yaw = q.to_rpy()
    assert yaw == pytest.approx(math.pi / 2, abs=1e-3)


def test_static_convergence_from_roll_error():
    q = UnitQuat.from_rpy(math.radians(20.0), 0.0, 0.0)
    accel = np.array([0.0, 0.0, GRAVITY])
    for _ in range(2000):  # 10 s at 200 Hz
        q = madgwick_step(q, np.zeros(3), accel, _DT, beta=0.1)
    roll, pitch, _ = q.to_rpy()
    assert abs(math.degrees(roll)) < 0.5
    assert abs(math.degrees(pitch)) < 0.5


def test_static_convergence_monotone_after_one_second():
    rng = np.random.default_rng(21)
    accel = np.array([0.0, 0.0, GRAVITY])
    for _ in range(10):
        tilt = rng.uniform(-math.radians(30), math.radians(30), 2)
        q = UnitQuat.from_rpy(tilt[0], tilt[1], rng.uniform(-math.pi, math.pi))
        errors = []
        for i in range(1200):  # 6 s
            q = madgwick_step(q, np.zeros(3), accel, _DT, beta=0.1)
            roll, pitch, _ = q.to_rpy()
            errors.append(math.hypot(roll, pitch))
        after = np.array(errors[200:])
        # Once converged the discrete gradient correction dithers within a
        # fraction of a milliradian, so allow that much per-step wiggle.
        assert np.all(np.diff(after) <= 1e-3)
        assert math.degrees(after[-1]) < 0.5


def test_yaw_offset_does_not_change_roll_pitch():
    rng = np.random.default_rng(22)
    samples = []
    for i in range(600):
        samples.append(
            (
                rng.uniform(-0.5, 0.5, 3),
                np.array([0.0, 0.0, GRAVITY]) + rng.normal(0, 0.05, 3),
            )
        )
    qa = UnitQuat.from_rpy(0.1, -0.05, 0.0)
    qb = UnitQuat.from_rpy(0.0, 0.0, math.radians(70)) * qa
    for omega, accel in samples:
        qa = madgwick_step(qa, omega, accel, _DT, beta=0.1)
        qb = madgwick_step(qb, omega, accel, _DT, beta=0.1)
        ra, pa, _ = qa.to_rpy()
        rb, pb, _ = qb.to_rpy()
        assert ra == pytest.approx(rb, abs=1e-6)
        assert pa == pytest.approx(pb, abs=1e-6)


def test_accel_band_gates_gravity_correction():
    q = UnitQuat.from_rpy(0.2, 0.1, 0.0)
    omega = np.array([0.1, -0.2, 0.05])
    tilted = np.array([1.0, 2.0, 5.0])
    for scale in (0.3, 4.0):  # below and above the [0.5 g, 3 g] band
        accel = tilted / np.linalg.norm(tilted) * scale * GRAVITY
        with_corr = madgwick_step(q, omega, accel, _DT, beta=0.1)
        gyro_only = madgwick_step(q, omega, accel, _DT, beta=0.0)
        assert with_corr.angle_to(gyro_only) == 0.0
    in_band = tilted / np.linalg.norm(tilted) * GRAVITY
    assert madgwick_step(q, omega, in_band, _DT, beta=0.1).angle_to(
        madgwick_step(q, omega, in_band, _DT, beta=0.0)
    ) > 0.0


def test_madgwick_step_validation():
    q = UnitQuat.identity()
    with pytest.raises(ValueError):
        madgwick_step(q, np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        madgwick_step(q, np.zeros(3), np.zeros(3), 0.2)
    with pytest.raises(ValueError):
        madgwick_step(q, np.zeros(3), np.zeros(3), _DT, beta=-0.1)


def test_estimate_bias_recovers_vertical_accel_bias():
    gyro_bias = np.array([0.01, -0.02, 0.005])
    accel = np.array([0.0, 0.0, GRAVITY + 0.08])
    samples = _static_samples(2400, accel, omega=gyro_bias, dt=_DT)
    bias = estimate_bias(samples, window_s=10.0)
    assert np.allclose(bias.gyro, gyro_bias, atol=1e-12)
    assert np.allclose(bias.accel, [0.0, 0.0, 0.08], atol=1e-9)


def test_estimate_bias_subtracts_gravity_along_measured_direction():
    # A lateral accel offset is indistinguishable from a resting tilt, so
    # the estimator only removes the component beyond one g along the mean.
    accel = np.array([0.05, -0.03, GRAVITY])
    samples = _static_samples(2400, accel, dt=_DT)
    bias = estimate_bias(samples, window_s=10.0)
    mean = accel
    expected = mean - GRAVITY * mean / np.linalg.norm(mean)
    assert np.allclose(bias.accel, expected, atol=1e-12)


def test_estimate_bias_errors():
    accel = np.array([0.0, 0.0, GRAVITY])
    with pytest.raises(InsufficientData):
        estimate_bias(_static_samples(1, accel))
    with pytest.raises(InsufficientData):
        estimate_bias(_static_samples(400, accel), window_s=10.0)  # 2 s span
    rng = np.random.default_rng(23)
    rotating = [
        ImuSample(
            i * 5_000_000,
            rng.uniform(-0.5, 0.5, 3),
            accel,
        )
        for i in range(2400)
    ]
    with pytest.raises(NotStatic):
        estimate_bias(rotating, window_s=10.0)
    freefall = _static_samples(2400, np.array([0.0, 0.0, 0.1]))
    with pytest.raises(NotStatic):
        estimate_bias(freefall, window_s=10.0)


def test_warm_start_recovers_static_tilt():
    rng = np.random.default_rng(24)
    for _ in range(50):
        roll = rng.uniform(-0.5, 0.5)
        pitch = rng.uniform(-0.5, 0.5)
        q_true = UnitQuat.from_rpy(roll, pitch, 0.0)
        body_accel = q_true.inverse().rotate(np.array([0.0, 0.0, GRAVITY]))
        q = warm_start_attitude(body_accel)
        r, p, y = q.to_rpy()
        assert r == pytest.approx(roll, abs=1e-9)
        assert p == pytest.approx(pitch, abs=1e-9)
        assert abs(y) < 1e-12


def test_run_filter_static_stays_level():
    samples = _static_samples(1200, np.array([0.0, 0.0, GRAVITY]))
    track = run_filter(samples)
    assert len(track) == 1200
    roll, pitch, _ = track.attitude_at(samples[-1].t).to_rpy()
    assert abs(roll) < 1e-6 and abs(pitch) < 1e-6


def test_run_filter_validates_timestamps():
    accel = np.array([0.0, 0.0, GRAVITY])
    bad = [ImuSample(0, np.zeros(3), accel), ImuSample(0, np.zeros(3), accel)]
    with pytest.raises(ValueError):
        run_filter(bad)
    gap = [ImuSample(0, np.zeros(3), accel), ImuSample(200_000_000, np.zeros(3), accel)]
    with pytest.raises(ValueError):
        run_filter(gap)
    with pytest.raises(InsufficientData):
        run_filter([])


def test_track_query_interpolates_and_guards_extrapolation():
    t = np.array([0, 1_000_000_000], dtype=np.int64)
    q0 = UnitQuat.identity()
    q1 = UnitQuat.from_rpy(0.0, 0.0, 1.0)
    track = AttitudeTrack(t, np.array([q0.as_array(), q1.as_array()]))
    mid = track.attitude_at(500_000_000)
    assert mid.approx_eq(slerp(q0, q1, 0.5), tol=1e-9)
    # small clamp beyond the ends is allowed
    assert track.attitude_at(-1_000_000).approx_eq(q0, tol=1e-9)
    with pytest.raises(ExtrapolationTooFar):
        track.attitude_at(5_000_000_000)


def test_track_query_is_independent_of_the_time_origin():
    # At a Unix-epoch offset float64 resolves only 256 ns, so the query must
    # subtract in int64 before it converts.
    offset = 1_760_000_000_000_000_000
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.integers(4_000_000, 6_000_000, 200)).astype(np.int64)
    quats = np.array([
        UnitQuat.from_rpy(
            0.3 * math.sin(k / 9.0), 0.2 * math.cos(k / 7.0), k / 30.0
        ).as_array()
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
