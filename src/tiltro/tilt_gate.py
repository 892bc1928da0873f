"""Tilt-aware point filtering.

When the sensor tilts relative to the map it is matching against, returns
far from the tilt axis sweep through large vertical arcs and stop
corresponding to the same structure.  The gate is the paper's hard
threshold: a point is kept while the vertical displacement the relative
tilt induces at its location is at most ``d_max``, and dropped otherwise.
Points near the tilt axis survive; the far field is culled.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AllPointsRejected
from .frontend import PointCloud
from .geometry import RelativeTilt
from .params import Params


def _tilt_matrix(tilt: RelativeTilt) -> np.ndarray:
    ax, ay, az = tilt.axis
    c = math.cos(tilt.angle)
    s = math.sin(tilt.angle)
    one_c = 1.0 - c
    return np.array(
        [
            [c + ax * ax * one_c, ax * ay * one_c - az * s, ax * az * one_c + ay * s],
            [ay * ax * one_c + az * s, c + ay * ay * one_c, ay * az * one_c - ax * s],
            [az * ax * one_c - ay * s, az * ay * one_c + ax * s, c + az * az * one_c],
        ]
    )


def vertical_displacement(p, tilt: RelativeTilt):
    """|e_z . (R(tilt) p - p)|: vertical travel of p under the tilt rotation.

    Accepts a (3,) point or an (N, 3) stack; the tilt axis passes through
    the sensor origin.  For points in the z = 0 plane this equals
    |sin(angle)| times the horizontal distance from the tilt axis.
    """
    p = np.asarray(p, dtype=float)
    rot = _tilt_matrix(tilt)
    dz_row = rot[2] - np.array([0.0, 0.0, 1.0])
    return np.abs(p @ dz_row)


def tilt_filter(
    cloud: PointCloud, tilt: RelativeTilt, params: Params
) -> PointCloud:
    """Keep the points whose tilt-induced vertical displacement is at most
    d_max, in their order.

    Tilts below theta_tilt (deg) return the cloud unchanged.  Raises
    AllPointsRejected when nothing survives.
    """
    if tilt.angle_deg < params.theta_tilt:
        return cloud
    keep = vertical_displacement(cloud.xyz, tilt) <= params.d_max
    if not np.any(keep):
        raise AllPointsRejected(
            f"tilt of {tilt.angle_deg:.2f} deg rejected all {len(cloud)} points"
        )
    return cloud.subset(keep)
