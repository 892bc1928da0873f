"""
Roll and pitch from a cheap IMU
===============================

The odometry pipeline needs to know how far the radar plane is tilted
from horizontal at every scan.  A complementary filter integrates the
gyro for fast response and leans on the accelerometer's gravity
direction for long-term reference; yaw is unobservable from gravity and
is left to drift.

This demo drives the filter with a synthetic IMU over terrain that
pitches to +-18 degrees, then prints how closely roll and pitch track
the truth.
"""

import math

import numpy as np

from tiltro.attitude import estimate_bias, run_filter
from tiltro.geometry import quat_array_to_rpy
from tiltro.sim import ImuModel, PathSegment, Scenario, generate_ground_truth, synthesize_imu

scenario = Scenario(
    seed=11,
    segments=(
        PathSegment("dwell", duration=12.0),
        PathSegment("straight", speed=2.0, length=80.0),
    ),
    tilt_profile=(
        (0.0, 0.0, 0.0),
        (15.0, math.radians(12.0), math.radians(4.0)),
        (30.0, math.radians(-18.0), math.radians(-5.0)),
        (50.0, math.radians(10.0), 0.0),
        (70.0, 0.0, 0.0),
    ),
    # realistic noise plus turn-on biases the filter has to swallow
    imu=ImuModel(gyro_bias=(0.01, -0.015, 0.008), accel_bias=(0.05, -0.04, 0.03)),
)

truth = generate_ground_truth(scenario)
imu = synthesize_imu(scenario, truth)
# The stream is columnar: t (ns), omega (rad/s) and accel (m/s^2) arrays.
print(f"{len(imu)} IMU samples over {(imu.t[-1] - imu.t[0]) * 1e-9:.0f} s")

# The first segment is a dwell, so the opening window is genuinely static
# and the turn-on biases can be measured before filtering.
bias = estimate_bias(imu, window_s=10.0)
print("estimated gyro bias:", np.round(bias.gyro, 4))
# Horizontal accel bias is indistinguishable from a small resting tilt in
# a static window, so only the along-gravity component lands in the bias;
# the rest is absorbed by the attitude estimate, which is what matters here.
print("estimated accel bias:", np.round(bias.accel, 4))

track = run_filter(imu, bias, beta=0.1)

roll_e, pitch_e, _ = quat_array_to_rpy(track.quaternions)
roll_t, pitch_t, _ = quat_array_to_rpy(truth.sample(track.timestamps)[1])

settled = track.timestamps > track.timestamps[0] + 10_000_000_000
roll_err = np.degrees(np.abs(roll_e - roll_t))[settled]
pitch_err = np.degrees(np.abs(pitch_e - pitch_t))[settled]
print("after the 10 s settle window:")
print(f"  roll error  max {roll_err.max():.3f} deg  mean {roll_err.mean():.3f} deg")
print(f"  pitch error max {pitch_err.max():.3f} deg  mean {pitch_err.mean():.3f} deg")
print(f"  pitch excursion tracked: {np.degrees(pitch_t.min()):.1f} "
      f"to {np.degrees(pitch_t.max()):.1f} deg")
