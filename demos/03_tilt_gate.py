"""
Why tilt needs a gate
=====================

A 2D radar registers everything onto one plane.  When the platform
pitches, far points swing out of the plane the submap was built in:
a point 40 m ahead under a 5 degree pitch moves ~3.5 m vertically, so
matching it against the flat submap drags the planar solution sideways.

The gate is the paper's hard threshold: it keeps a point while its
tilt-induced vertical displacement is at most d_max and drops it
otherwise.  Close points survive; the far, badly-displaced ones go.
"""

import math

import numpy as np

from tiltro.frontend import PointCloud
from tiltro.geometry import RelativeTilt
from tiltro.params import Params
from tiltro.tilt_gate import tilt_filter, vertical_displacement

params = Params()  # cut at 1.75 m of displacement, engage above 3 deg
print(f"the gate keeps points displaced by at most d_max = {params.d_max} m")

# A planar cloud shaped like a radar scan: points out to 100 m all around.
rng = np.random.default_rng(5)
n = 4000
r = rng.uniform(5.0, 100.0, n)
az = rng.uniform(0.0, 2.0 * math.pi, n)
xyz = np.column_stack([r * np.cos(az), r * np.sin(az), np.zeros(n)])
cloud = PointCloud(xyz, np.zeros(n, dtype=np.int64))

print(f"\nkept fraction as pitch grows (cut at {params.d_max} m of displacement):")
for pitch_deg in (1.0, 3.0, 5.0, 8.0, 13.0, 20.0):
    tilt = RelativeTilt(np.array([0.0, 1.0, 0.0]), math.radians(pitch_deg))
    kept = tilt_filter(cloud, tilt, params)
    dd = vertical_displacement(cloud.xyz, tilt)
    flag = "(passthrough below 3 deg)" if pitch_deg < params.theta_tilt else ""
    print(f"  pitch {pitch_deg:5.1f} deg: kept {len(kept):4d}/{n}"
          f" ({len(kept) / n:6.1%})  max displacement {dd.max():5.1f} m {flag}")

# The survivors are concentrated near the tilt axis, where the plane
# barely moves, and every one of them is inside the cut.
tilt = RelativeTilt(np.array([0.0, 1.0, 0.0]), math.radians(8.0))
kept = tilt_filter(cloud, tilt, params)
along = np.abs(kept.xyz[:, 1]).mean()
across = np.abs(kept.xyz[:, 0]).mean()
print(f"\nat 8 deg pitch the kept points hug the tilt axis:"
      f" mean |y| {along:.1f} m vs mean |x| {across:.1f} m")
print(f"largest kept displacement {vertical_displacement(kept.xyz, tilt).max():.3f} m"
      f" <= d_max {params.d_max} m")
