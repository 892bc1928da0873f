"""
Closed-loop odometry on a 500 m rectangle
=========================================

The whole chain in-process: simulate a flat rectangular loop through a
field of 200 poles, run the odometry (extraction, deskew, tilt gate,
submap lookup, ICP), and score the estimate against ground truth with
the relative translation error over 100 m segments.

Takes around half a minute.
"""

import time

import numpy as np

from tiltro.attitude import estimate_bias, run_filter
from tiltro.evaluation import Trajectory, endpoint_error, relative_translation_error
from tiltro.geometry import quat_array_to_rpy
from tiltro.io import states_to_arrays
from tiltro.params import Params
from tiltro.pipeline import run_odometry
from tiltro.sim import rectangle_loop, simulate

t0 = time.perf_counter()
scenario = rectangle_loop()
result = simulate(scenario)
print(f"simulated {len(result.scans)} scans in {time.perf_counter() - t0:.1f} s")

bias = estimate_bias(result.imu, window_s=10.0)
track = run_filter(result.imu, bias)

t1 = time.perf_counter()
states, diags = run_odometry(result.scans, track, Params())
print(f"odometry over {len(states)} scans in {time.perf_counter() - t1:.1f} s")
hits = sum(1 for d in diags if d.hit)
print(f"  {hits} registered, {len(states) - hits} misses,"
      f" atlas grew to {diags[-1].atlas_size} submaps")

t, x, y, yaw, roll, pitch = states_to_arrays(states)
est = Trajectory(t, x, y, yaw)

gt_t = result.gt_t
_, _, gt_yaw = quat_array_to_rpy(result.gt_quats)
gt = Trajectory(gt_t, result.gt_pos[:, 0], result.gt_pos[:, 1], gt_yaw)

report = relative_translation_error(est, gt, segment_length=100.0)
q1, q3 = report.quartiles
print(f"\nRTE over {report.count} overlapping 100 m segments:")
print(f"  median {report.median:.3f}%   IQR {q1:.3f}-{q3:.3f}%")
print(f"  endpoint error {endpoint_error(est, gt):.2f} m"
      f" after {np.sum(np.hypot(np.diff(gt.x), np.diff(gt.y))):.0f} m driven")
