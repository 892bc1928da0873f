"""Run parameters: one validated set for the whole pipeline.

Extraction, the tilt gate, the submap atlas, ICP and the attitude filter
all read their settings from the same frozen ``Params``; the run
configuration file (``io.parse_run_config``) maps its keys one-to-one onto
these fields.  This module imports only the standard library so every
layer can depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Params:
    """Parameter set for one run; the defaults are the field-tested values.

    Lengths are in meters and ``theta_tilt`` is in degrees.

    k, r_min, r_max, tau_raw: strongest-return extraction (returns per
    azimuth, range gate, raw intensity threshold).
    d_voxel: voxel edge for scan and submap compaction.
    theta_tilt: tilt bound shared by the submap search (per-component
    roll/pitch) and the tilt gate (activation threshold).
    d_max: the tilt gate's hard threshold on a point's tilt-induced
    vertical displacement; 0 keeps only points on the tilt axis.
    r_submap: submap search and merge radius.
    k_nn, max_iterations, translation_epsilon, rotation_epsilon,
    max_correspondence_distance: planar ICP.
    beta, static_window_s: attitude filter gain and the bias calibration
    window (s).
    """

    k: int = 10
    r_min: float = 5.0
    r_max: float = 100.0
    tau_raw: float = 60.0
    d_voxel: float = 1.0
    theta_tilt: float = 3.0
    d_max: float = 1.75
    r_submap: float = 20.0
    k_nn: int = 4
    max_iterations: int = 40
    translation_epsilon: float = 1e-3
    rotation_epsilon: float = 1e-4
    max_correspondence_distance: float = 5.0
    beta: float = 0.1
    static_window_s: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("k", "k_nn", "max_iterations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 <= self.r_min < self.r_max:
            raise ValueError("need 0 <= r_min < r_max")
        for name in (
            "d_voxel",
            "r_submap",
            "translation_epsilon",
            "rotation_epsilon",
            "max_correspondence_distance",
            "static_window_s",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("theta_tilt", "d_max", "beta"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
