"""
Render a synthetic radar-inertial dataset
=========================================

A scenario is a seeded description of a world (pole landmarks), a path
(dwell / straight / turn segments), and an attitude profile over the
path arc.  `simulate` turns it into polar radar scans, an IMU stream,
and dense ground truth; `write_dataset` lays those out as the directory
the `tiltro run` command consumes.
"""

import math
from pathlib import Path

import numpy as np

from tiltro.io import write_dataset
from tiltro.sim import PathSegment, Pole, Scenario, simulate

out_dir = Path("demo_out/dataset")

# A short course: hold still for two seconds (the odometry run uses the
# static stretch to calibrate IMU biases), then drive 60 m east while the
# terrain pitches the platform down and back up.
scenario = Scenario(
    seed=7,
    segments=(
        PathSegment("dwell", duration=2.0),
        PathSegment("straight", speed=2.0, length=60.0),
    ),
    tilt_profile=(
        (0.0, 0.0, 0.0),
        (20.0, math.radians(-12.0), 0.0),
        (30.0, math.radians(12.0), 0.0),
        (45.0, 0.0, 0.0),
    ),
    poles=tuple(
        Pole(
            x=float(x), y=float(y), base_z=0.0,
            height=float(h), reflectivity=float(a),
        )
        for x, y, h, a in np.random.default_rng(1).uniform(
            [-20.0, -35.0, 2.0, 150.0], [80.0, 35.0, 6.0, 255.0], size=(40, 4)
        )
    ),
)

print("scenario:", len(scenario.poles), "poles,",
      sum(seg.duration or seg.length / seg.speed for seg in scenario.segments),
      "seconds of driving")

result = simulate(scenario)
print("rendered", len(result.scans), "scans and", len(result.imu), "IMU samples")
# The IMU stream is columnar: one row per sample in each array.
print("  IMU columns: t", result.imu.t.shape, "ns, omega", result.imu.omega.shape,
      "rad/s, accel", result.imu.accel.shape, "m/s^2")

scan = result.scans[10]
print("scan 10:", scan.azimuth_count, "azimuths x",
      scan.range_bin_count, "range bins,",
      f"{scan.range_resolution} m per bin")
print("  strongest return:", int(scan.intensity.max()),
      "at range", f"{(np.argmax(scan.intensity.max(axis=0)) + 0.5) * scan.range_resolution:.1f} m")

write_dataset(
    out_dir,
    result.scans,
    result.imu,
    result.gt_t,
    result.gt_pos,
    result.gt_quats,
    scenario_text=scenario.to_json(),
)
print("dataset written to", out_dir)
print("  next: tiltro run --dataset", out_dir,
      "--config /dev/null --out demo_out/traj.csv")
