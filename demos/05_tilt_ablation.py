"""
What the tilt handling buys
===========================

Same dataset, two configurations: the full pipeline versus one with the
tilt gate passing everything through and the submap search ignoring
attitude.  The course is a quarry-style straight with a ditch (pitch
swinging to +-30 degrees, roll shelves at +-8 degrees) where planar
matching degrades unless tilted points are handled.

One seed here; the acceptance suite repeats this over five seeds.
"""

import numpy as np

from tiltro.attitude import estimate_bias, run_filter
from tiltro.evaluation import Trajectory, relative_translation_error
from tiltro.geometry import quat_array_to_rpy
from tiltro.io import states_to_arrays
from tiltro.params import Params
from tiltro.pipeline import run_odometry
from tiltro.sim import generate_ground_truth, quarry_course, simulate

scenario = quarry_course(seed=1)

truth = generate_ground_truth(scenario)
_, pitch, _ = quat_array_to_rpy(truth.quats)
step = 250  # one 0.25 s scan period at the 1 kHz truth rate
print("course tilt statistics:")
print(f"  pitch spans {np.degrees(pitch.min()):.0f} to {np.degrees(pitch.max()):.0f} deg,"
      f" worst scan-to-scan jump {np.degrees(np.abs(pitch[step:] - pitch[:-step]).max()):.1f} deg")

result = simulate(scenario)
bias = estimate_bias(result.imu, window_s=10.0)
track = run_filter(result.imu, bias)

_, _, gt_yaw = quat_array_to_rpy(result.gt_quats)
gt = Trajectory(result.gt_t, result.gt_pos[:, 0], result.gt_pos[:, 1], gt_yaw)


def score(tilt_gate: bool, tilt_search: bool) -> float:
    states, diags = run_odometry(
        result.scans, track, Params(),
        tilt_gate_enabled=tilt_gate, tilt_search_enabled=tilt_search,
    )
    t, x, y, yaw, _, _ = states_to_arrays(states)
    report = relative_translation_error(Trajectory(t, x, y, yaw), gt)
    hits = sum(1 for d in diags if d.hit)
    label = "full pipeline " if tilt_gate else "tilt handling off"
    print(f"  {label}: median RTE {report.median:.3f}%"
          f"  ({hits}/{len(states)} scans registered)")
    return report.median


print("\nrunning both configurations on the same scans:")
gated = score(tilt_gate=True, tilt_search=True)
ungated = score(tilt_gate=False, tilt_search=False)
print(f"\ndelta (ungated - gated): {ungated - gated:+.3f} percentage points")
