"""
Why tilt needs a gate
=====================

A 2D radar registers everything onto one plane.  When the platform
pitches, far points swing out of the plane the submap was built in:
a point 40 m ahead under a 5 degree pitch moves ~3.5 m vertically, so
matching it against the flat submap drags the planar solution sideways.

The gate scores every point by its tilt-induced vertical displacement
through a Cauchy weight and drops the low-weight tail before
registration.  Close points survive; the far, badly-displaced ones go.
"""

import math

import numpy as np

from tiltro.frontend import PointCloud
from tiltro.geometry import RelativeTilt
from tiltro.params import Params
from tiltro.tilt_gate import cauchy_weight, tilt_filter, vertical_displacement

params = Params()  # gamma 3.5 m, cutoff weight 0.8, engage above 3 deg
print("Cauchy weight vs vertical displacement (gamma = 3.5 m):")
for dd in (0.0, 1.0, 1.75, 3.5, 7.0, 20.0):
    print(f"  {dd:5.2f} m -> {cauchy_weight(dd, params.gamma):.3f}")
cut = params.gamma * math.sqrt(1.0 / params.tau_tilt - 1.0)
print(f"weight cutoff {params.tau_tilt} puts the displacement cut at {cut} m")

# A planar cloud shaped like a radar scan: points out to 100 m all around.
rng = np.random.default_rng(5)
n = 4000
r = rng.uniform(5.0, 100.0, n)
az = rng.uniform(0.0, 2.0 * math.pi, n)
xyz = np.column_stack([r * np.cos(az), r * np.sin(az), np.zeros(n)])
cloud = PointCloud(xyz, np.zeros(n, dtype=np.int64), np.ones(n))

print("\nkept fraction as pitch grows (cut at", cut, "m of displacement):")
for pitch_deg in (1.0, 3.0, 5.0, 8.0, 13.0, 20.0):
    tilt = RelativeTilt(np.array([0.0, 1.0, 0.0]), math.radians(pitch_deg))
    kept = tilt_filter(cloud, tilt, params)
    dd = vertical_displacement(cloud.xyz, tilt)
    flag = "(passthrough below 3 deg)" if pitch_deg < params.theta_tilt else ""
    print(f"  pitch {pitch_deg:5.1f} deg: kept {len(kept):4d}/{n}"
          f"  max displacement {dd.max():5.1f} m {flag}")

# The survivors are concentrated near the tilt axis, where the plane
# barely moves; their weights ride along into the ICP solve.
tilt = RelativeTilt(np.array([0.0, 1.0, 0.0]), math.radians(8.0))
kept = tilt_filter(cloud, tilt, params)
along = np.abs(kept.xyz[:, 1]).mean()
across = np.abs(kept.xyz[:, 0]).mean()
print(f"\nat 8 deg pitch the kept points hug the tilt axis:"
      f" mean |y| {along:.1f} m vs mean |x| {across:.1f} m")
print(f"kept-point weights span {kept.weight.min():.3f} to {kept.weight.max():.3f}")
