"""Deterministic sensor simulator.

A scenario describes a world of reflective poles and walls, a vehicle path
(piecewise dwell / straight / arc segments with a tilt profile over arc
length), and the radar/IMU models.  From it the simulator produces dense
ground truth, rendered polar scans, and a synthetic IMU stream; every random
draw is keyed off the scenario seed plus a stream id, so regeneration is
bit-identical.

The radar model is geometric: each azimuth ray is cast from the interpolated
sensor pose at that azimuth's timestamp, and a target returns energy only
when the ray passes it in bearing and the target's vertical extent overlaps
the beam's elevation fan.  Tilting the sensor therefore changes which
targets are visible, which is exactly the effect the odometry stack has to
survive.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from itertools import islice

import numpy as np

from .attitude import GRAVITY, ImuStream
from .errors import InvalidScenario
from .frontend import PolarScan
from .geometry import (
    elapsed_ns,
    quat_array_conjugate,
    quat_array_multiply,
    quat_array_to_matrices,
    rotvec_from_quat_array,
    rpy_to_quat_array,
    slerp_array,
    wrap_angle_array,
)

_MS_NS = 1_000_000
_GAUSS_WINDOW = np.arange(-4, 6)  # bump support relative to floor(center)


def _check_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidScenario(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidScenario(f"{name} must be finite, got {value!r}")


def _check_model(prefix: str, model, counts=(), positive=()) -> None:
    """Every float field of a sensor model is a finite number, the
    ``positive`` ones above zero; the ``counts`` are integers >= 1."""
    for f in fields(model):
        value = getattr(model, f.name)
        name = f"{prefix}.{f.name}"
        if f.name in counts:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidScenario(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise InvalidScenario(f"{name} must be at least 1, got {value}")
        elif f.type == "float":
            _check_finite(name, value)
            if f.name in positive and value <= 0.0:
                raise InvalidScenario(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class RadarModel:
    azimuth_count: int = 400
    range_bin_count: int = 1000
    range_resolution: float = 0.1
    rotation_period: float = 0.25
    noise_floor_mean: float = 35.0
    noise_floor_sigma: float = 5.0
    elevation_half_width_deg: float = 2.0
    reference_range: float = 40.0
    #: 0 disables ground returns; > 0 makes down-pointing rays hit the z = 0
    #: plane, which is what turns vehicle tilt into radar clutter.
    ground_reflectivity: float = 0.0

    def __post_init__(self):
        _check_model("radar", self, counts=("azimuth_count", "range_bin_count"),
                     positive=("range_resolution", "rotation_period"))

    @property
    def period_ns(self) -> int:
        return int(round(self.rotation_period * 1e9))


@dataclass(frozen=True)
class ImuModel:
    rate: float = 200.0
    gyro_noise_density: float = 0.0002  # rad/s/sqrt(Hz)
    accel_noise_density: float = 0.002  # m/s^2/sqrt(Hz)
    gyro_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    accel_bias: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("gyro_bias", "accel_bias"):
            bias = getattr(self, name)
            if not (isinstance(bias, (tuple, list)) and len(bias) == 3):
                raise InvalidScenario(f"imu.{name} must hold 3 numbers, got {bias!r}")
            for v in bias:
                _check_finite(f"imu.{name}", v)
        _check_model("imu", self, positive=("rate",))


@dataclass(frozen=True)
class Pole:
    x: float
    y: float
    base_z: float
    height: float
    reflectivity: float


@dataclass(frozen=True)
class Wall:
    x1: float
    y1: float
    x2: float
    y2: float
    base_z: float
    height: float
    reflectivity: float


@dataclass(frozen=True)
class PathSegment:
    """kind "dwell" holds for ``duration`` s; "straight" covers ``length`` m;
    "turn" sweeps ``angle`` rad (signed, left positive) on ``radius`` m."""

    kind: str
    speed: float = 0.0
    length: float = 0.0
    radius: float = 0.0
    angle: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dwell", "straight", "turn"):
            raise InvalidScenario(f"unknown segment kind {self.kind!r}")
        if self.kind == "dwell" and self.duration <= 0.0:
            raise InvalidScenario("dwell segments need a positive duration")
        if self.kind == "straight" and (self.length <= 0.0 or self.speed <= 0.0):
            raise InvalidScenario("straight segments need positive length and speed")
        if self.kind == "turn" and (
            self.radius <= 0.0 or self.angle == 0.0 or self.speed <= 0.0
        ):
            raise InvalidScenario("turn segments need radius, angle and speed")

    @property
    def seg_duration(self) -> float:
        if self.kind == "dwell":
            return self.duration
        return self.arc_length / self.speed

    @property
    def arc_length(self) -> float:
        if self.kind == "dwell":
            return 0.0
        if self.kind == "straight":
            return self.length
        return self.radius * abs(self.angle)


@dataclass(frozen=True)
class Scenario:
    seed: int
    segments: tuple[PathSegment, ...]
    poles: tuple[Pole, ...] = ()
    walls: tuple[Wall, ...] = ()
    #: (arc_length_m, pitch_rad, roll_rad) breakpoints, linearly interpolated.
    tilt_profile: tuple[tuple[float, float, float], ...] = ()
    radar: RadarModel = field(default_factory=RadarModel)
    imu: ImuModel = field(default_factory=ImuModel)
    sensor_height: float = 0.5
    start_x: float = 0.0
    start_y: float = 0.0
    start_heading: float = 0.0

    def __post_init__(self):
        if not self.segments:
            raise InvalidScenario("scenario needs at least one path segment")
        if self.natural_duration <= 0.0:
            raise InvalidScenario("scenario path has zero duration")
        profile = tuple(tuple(float(v) for v in row) for row in self.tilt_profile)
        if any(len(row) != 3 for row in profile):
            raise InvalidScenario("tilt profile rows must be (s, pitch, roll)")
        if not all(math.isfinite(v) for row in profile for v in row):
            raise InvalidScenario("tilt profile values must be finite")
        if any(b[0] <= a[0] for a, b in zip(profile, profile[1:])):
            raise InvalidScenario("tilt profile arc lengths must increase")
        object.__setattr__(self, "tilt_profile", profile)

    @property
    def natural_duration(self) -> float:
        return sum(seg.seg_duration for seg in self.segments)

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "sensor_height": self.sensor_height,
            "start": {
                "x": self.start_x,
                "y": self.start_y,
                "heading": self.start_heading,
            },
            "radar": asdict(self.radar),
            "imu": asdict(self.imu),
            "segments": [asdict(seg) for seg in self.segments],
            "tilt_profile": [list(row) for row in self.tilt_profile],
            "poles": [list(asdict(p).values()) for p in self.poles],
            "walls": [list(asdict(w).values()) for w in self.walls],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise InvalidScenario(f"scenario is not valid JSON: {err}") from err
        try:
            doc = dict(doc)
            start = dict(doc.pop("start", {}))
            imu = dict(doc.pop("imu", {}))
            for key in ("gyro_bias", "accel_bias"):
                if key in imu:
                    imu[key] = tuple(imu[key])
            scenario = Scenario(
                seed=int(doc.pop("seed")),
                segments=tuple(PathSegment(**seg) for seg in doc.pop("segments")),
                poles=tuple(Pole(*row) for row in _number_rows("poles", doc)),
                walls=tuple(Wall(*row) for row in _number_rows("walls", doc)),
                tilt_profile=tuple(
                    tuple(row) for row in _number_rows("tilt_profile", doc)
                ),
                radar=RadarModel(**doc.pop("radar", {})),
                imu=ImuModel(**imu),
                sensor_height=float(doc.pop("sensor_height", 0.5)),
                start_x=float(start.pop("x", 0.0)),
                start_y=float(start.pop("y", 0.0)),
                start_heading=float(start.pop("heading", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise InvalidScenario(f"scenario field error: {err}") from err
        # Every key read above was popped; what is left is a typo.
        unknown = [*doc, *(f"start.{key}" for key in start)]
        if unknown:
            raise InvalidScenario(f"unknown scenario keys {unknown}")
        return scenario


def _number_rows(key: str, doc: dict) -> list:
    """Pops the pole, wall or tilt-profile rows of a scenario document:
    lists of numbers in field order, as ``Scenario.to_json`` writes them."""
    rows = doc.pop(key, [])
    for row in rows:
        if not (isinstance(row, list) and all(type(v) in (int, float) for v in row)):
            raise InvalidScenario(f"{key} rows must be lists of numbers, got {row!r}")
    return rows


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent deterministic RNG stream for one simulator product."""
    return np.random.default_rng([seed, stream_id])


_NOISE_STREAM_BASE = 1_000
_GROUND_STREAM_BASE = 5_000_000
_IMU_STREAM = 777
#: Rays closer to horizontal than this never return ground energy.
_GROUND_GRAZING_LIMIT = math.radians(0.8)
#: Fraction of eligible azimuths that actually speckle per scan.
_GROUND_HIT_RATE = 0.35


@dataclass(frozen=True)
class GroundTruth:
    """Dense pose history: t (ns), pos (N, 3), quats (N, 4) world<-body."""

    t: np.ndarray
    pos: np.ndarray
    quats: np.ndarray

    @property
    def t_start(self) -> int:
        return int(self.t[0])

    @property
    def t_end(self) -> int:
        return int(self.t[-1])

    def sample(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated positions and attitudes at the query times (ns)."""
        ts = np.asarray(ts, dtype=np.int64)
        # Limits as Python ints kept inside int64, so the comparison cannot wrap.
        first = max(self.t_start - 2 * _MS_NS, -(2**63))
        last = min(self.t_end + 2 * _MS_NS, 2**63 - 1)
        if np.any(ts < first) or np.any(ts > last):
            raise ValueError("ground-truth query outside the generated span")
        clamped = np.clip(ts, self.t[0], self.t[-1])
        hi = np.clip(np.searchsorted(self.t, clamped, side="left"), 1, len(self.t) - 1)
        lo = hi - 1
        t0 = self.t[lo]
        frac = np.clip(elapsed_ns(t0, clamped) / elapsed_ns(t0, self.t[hi]), 0.0, 1.0)
        pos = self.pos[lo] + (self.pos[hi] - self.pos[lo]) * frac[:, None]
        quats = slerp_array(self.quats[lo], self.quats[hi], frac)
        return pos, quats


def _segment_tables(scenario: Scenario):
    """Cumulative timing/arc tables and start poses for every segment."""
    n = len(scenario.segments)
    t_start = np.zeros(n)
    s_start = np.zeros(n)
    x0 = np.zeros(n)
    y0 = np.zeros(n)
    h0 = np.zeros(n)
    x, y, h = scenario.start_x, scenario.start_y, scenario.start_heading
    t_acc = 0.0
    s_acc = 0.0
    for i, seg in enumerate(scenario.segments):
        t_start[i] = t_acc
        s_start[i] = s_acc
        x0[i], y0[i], h0[i] = x, y, h
        t_acc += seg.seg_duration
        s_acc += seg.arc_length
        if seg.kind == "straight":
            x += seg.length * math.cos(h)
            y += seg.length * math.sin(h)
        elif seg.kind == "turn":
            kappa = math.copysign(1.0, seg.angle) / seg.radius
            h1 = h + seg.angle
            x += (math.sin(h1) - math.sin(h)) / kappa
            y -= (math.cos(h1) - math.cos(h)) / kappa
            h = h1
    return t_start, s_start, x0, y0, h0, t_acc


def generate_ground_truth(
    scenario: Scenario, duration: float | None = None
) -> GroundTruth:
    """Sample the scenario path at 1 kHz.

    Positions follow the closed-form piecewise path at the segment speeds,
    heading follows the path tangent, and roll/pitch come from the tilt
    profile evaluated at the traveled arc length.  z is the constant sensor
    mount height.  ``duration`` (s) truncates the natural path duration.
    """
    t_start, s_start, x0, y0, h0, natural = _segment_tables(scenario)
    if duration is None:
        duration = natural
    duration = min(float(duration), natural)
    if duration <= 0.0:
        raise InvalidScenario("requested duration must be positive")
    duration_ns = int(round(duration * 1e9))
    ts = np.arange(0, duration_ns + 1, _MS_NS, dtype=np.int64)
    if ts[-1] != duration_ns:
        ts = np.append(ts, np.int64(duration_ns))

    t_s = ts.astype(float) * 1e-9
    seg_end = t_start + np.array([s.seg_duration for s in scenario.segments])
    idx = np.clip(
        np.searchsorted(seg_end, t_s, side="left"), 0, len(scenario.segments) - 1
    )
    tau = t_s - t_start[idx]
    kinds = np.array([s.kind for s in scenario.segments])
    speeds = np.array([s.speed for s in scenario.segments])
    radii = np.array([max(s.radius, 1e-9) for s in scenario.segments])
    signs = np.array(
        [math.copysign(1.0, s.angle) if s.kind == "turn" else 1.0 for s in scenario.segments]
    )

    s_local = np.where(kinds[idx] == "dwell", 0.0, speeds[idx] * tau)
    heading = h0[idx].copy()
    x = x0[idx].copy()
    y = y0[idx].copy()

    straight = kinds[idx] == "straight"
    x[straight] += s_local[straight] * np.cos(h0[idx][straight])
    y[straight] += s_local[straight] * np.sin(h0[idx][straight])

    turning = kinds[idx] == "turn"
    kappa = signs[idx][turning] / radii[idx][turning]
    h_here = h0[idx][turning] + kappa * s_local[turning]
    x[turning] += (np.sin(h_here) - np.sin(h0[idx][turning])) / kappa
    y[turning] -= (np.cos(h_here) - np.cos(h0[idx][turning])) / kappa
    heading[turning] = h_here

    s_global = s_start[idx] + s_local
    if scenario.tilt_profile:
        prof = np.asarray(scenario.tilt_profile)
        pitch = np.interp(s_global, prof[:, 0], prof[:, 1])
        roll = np.interp(s_global, prof[:, 0], prof[:, 2])
    else:
        pitch = np.zeros_like(s_global)
        roll = np.zeros_like(s_global)

    quats = rpy_to_quat_array(roll, pitch, heading)
    pos = np.column_stack([x, y, np.full_like(x, scenario.sensor_height)])
    return GroundTruth(ts, pos, quats)


def _deposit(bumps: list, az_idx: np.ndarray, centers: np.ndarray,
             amps: np.ndarray, n_r: int) -> None:
    """Append the (flat cell, value) pairs of unit-sigma Gaussian range
    bumps, one per row of ``az_idx``, to ``bumps``."""
    if az_idx.size == 0:
        return
    base = np.floor(centers).astype(np.int64)
    bins = base[:, None] + _GAUSS_WINDOW[None, :]
    values = amps[:, None] * np.exp(-0.5 * (bins - centers[:, None]) ** 2)
    ok = (bins >= 0) & (bins < n_r)
    cells = az_idx[:, None] * n_r + bins
    bumps.append((cells[ok], values[ok]))


def _add_bumps(grid: np.ndarray, bumps: list) -> None:
    """Add the deposited values to the C-ordered grid.

    Each touched cell gets its values summed from 0.0 in deposit order, the
    order ``np.add.at`` on a zero grid adds them in, and the sum is added
    to the cell once, so no dense signal grid is needed.
    """
    if not bumps:
        return
    cells = np.concatenate([c for c, _ in bumps])
    values = np.concatenate([v for _, v in bumps])
    touched, slot = np.unique(cells, return_inverse=True)
    grid.reshape(-1)[touched] += np.bincount(slot, weights=values)


def _pole_candidates(pos: np.ndarray, ray_bearing: np.ndarray,
                     poles_xy: np.ndarray,
                     half_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (azimuth, pole) index pairs that may pass the bearing test.

    Seen from a pole at range r from the scan's mean sensor position, every
    azimuth's sensor position (at most ``reach`` from that mean) lies within
    asin(reach / r) of the pole's bearing from the mean.  So a ray can point
    at the pole within half a step only when its bearing is within that plus
    half a step of the mean bearing; 1e-6 rad absorbs rounding.  Poles within
    reach + 0.2 m of the mean keep every azimuth.
    """
    mean = pos[:, :2].mean(axis=0)
    reach = np.max(np.hypot(pos[:, 0] - mean[0], pos[:, 1] - mean[1]))
    rel = poles_xy - mean
    r = np.hypot(rel[:, 0], rel[:, 1])
    centre = np.arctan2(rel[:, 1], rel[:, 0])
    width = np.full(r.shape, np.inf)
    far = r > reach + 0.2
    width[far] = np.arcsin(reach / r[far]) + half_step + 1e-6
    # Both bearings come from arctan2, so their circular distance is
    # min(off, 2 pi - off).
    off = np.abs(ray_bearing[:, None] - centre[None, :])
    return np.nonzero((off <= width) | (off >= 2.0 * math.pi - width))


def render_scan(scenario: Scenario, gt: GroundTruth, t_start: int) -> PolarScan:
    """Render one full rotation starting at ``t_start`` (ns).

    Azimuth a of N is cast at time t_start + a/N of the period from the
    interpolated sensor pose at that time.  A target contributes a Gaussian
    range bump (sigma = one bin) at its slant range when the ray points at
    it in bearing (within half an azimuth step) and the beam's elevation fan
    (+- elevation_half_width_deg) overlaps the target's vertical extent.
    Bump amplitude is reflectivity * (reference_range / range), clamped to
    255.  The seeded noise floor is added last and the grid quantized.
    """
    radar = scenario.radar
    n_a = radar.azimuth_count
    n_r = radar.range_bin_count
    period_ns = radar.period_ns
    scan_index = int(round(t_start / period_ns))

    az_idx = np.arange(n_a)
    azimuths = az_idx * (2.0 * math.pi / n_a)
    t_az = t_start + (az_idx.astype(np.int64) * period_ns) // n_a
    pos, quats = gt.sample(t_az)
    rot = quat_array_to_matrices(quats)
    d_body = np.column_stack([np.cos(azimuths), np.sin(azimuths), np.zeros(n_a)])
    u = np.einsum("nij,nj->ni", rot, d_body)
    u_xy = np.hypot(u[:, 0], u[:, 1])
    ray_bearing = np.arctan2(u[:, 1], u[:, 0])
    ray_elev = np.arctan2(u[:, 2], np.maximum(u_xy, 1e-9))
    half_step = math.pi / n_a
    e_half = math.radians(radar.elevation_half_width_deg)
    max_range = n_r * radar.range_resolution

    bumps: list = []

    if scenario.poles:
        p = np.array([[q.x, q.y, q.base_z, q.height, q.reflectivity]
                      for q in scenario.poles])
        rows, cols = _pole_candidates(pos, ray_bearing, p[:, :2], half_step)
        dx = p[cols, 0] - pos[rows, 0]
        dy = p[cols, 1] - pos[rows, 1]
        rh = np.hypot(dx, dy)
        bearing = np.arctan2(dy, dx)
        hit = np.abs(wrap_angle_array(bearing - ray_bearing[rows])) <= half_step
        hit &= rh > 0.1
        el_bot = np.arctan2(p[cols, 2] - pos[rows, 2], np.maximum(rh, 0.1))
        el_top = np.arctan2(
            p[cols, 2] + p[cols, 3] - pos[rows, 2], np.maximum(rh, 0.1)
        )
        hit &= (ray_elev[rows] - e_half <= el_top) & (ray_elev[rows] + e_half >= el_bot)
        slant = rh / np.maximum(np.cos(ray_elev)[rows], 1e-6)
        hit &= slant < max_range + 1.0
        rows, cols, slant = rows[hit], cols[hit], slant[hit]
        amps = np.minimum(p[cols, 4] * radar.reference_range / slant, 255.0)
        centers = slant / radar.range_resolution - 0.5
        _deposit(bumps, rows, centers, amps, n_r)

    for wall in scenario.walls:
        seg = np.array([wall.x2 - wall.x1, wall.y2 - wall.y1])
        d = np.column_stack([np.cos(ray_bearing), np.sin(ray_bearing)])
        rel = np.array([wall.x1, wall.y1])[None, :] - pos[:, :2]
        denom = d[:, 0] * seg[1] - d[:, 1] * seg[0]
        safe = np.abs(denom) > 1e-12
        t_ray = np.where(safe, (rel[:, 0] * seg[1] - rel[:, 1] * seg[0]) / np.where(safe, denom, 1.0), -1.0)
        u_seg = np.where(safe, (rel[:, 0] * d[:, 1] - rel[:, 1] * d[:, 0]) / np.where(safe, denom, 1.0), -1.0)
        ok = safe & (t_ray > 0.5) & (u_seg >= 0.0) & (u_seg <= 1.0)
        rh = np.where(ok, t_ray, 1.0)
        el_bot = np.arctan2(wall.base_z - pos[:, 2], rh)
        el_top = np.arctan2(wall.base_z + wall.height - pos[:, 2], rh)
        ok &= (ray_elev - e_half <= el_top) & (ray_elev + e_half >= el_bot)
        slant = rh / np.maximum(np.cos(ray_elev), 1e-6)
        ok &= slant < max_range + 1.0
        rows = np.nonzero(ok)[0]
        amps = np.minimum(
            wall.reflectivity * radar.reference_range / slant[rows], 255.0
        )
        centers = slant[rows] / radar.range_resolution - 0.5
        _deposit(bumps, rows, centers, amps, n_r)

    if radar.ground_reflectivity > 0.0:
        # Diffuse ground speckle: down-pointing rays return energy from the
        # z = 0 plane.  Amplitude is roughly range-flat (larger grazing
        # footprint offsets spreading loss) and decorrelated between scans,
        # so the clutter behaves like scattering, not a phantom wall.
        grng = _stream(scenario.seed, _GROUND_STREAM_BASE + scan_index)
        keep = grng.uniform(0.0, 1.0, n_a) < _GROUND_HIT_RATE
        amp_jitter = grng.uniform(0.6, 1.4, n_a)
        bin_jitter = grng.normal(0.0, 1.0, n_a)
        dip = -ray_elev
        down = dip > _GROUND_GRAZING_LIMIT
        slant = pos[:, 2] / np.maximum(np.sin(np.maximum(dip, 1e-6)), 1e-9)
        ok = down & keep & (slant > 0.0) & (slant < max_range + 1.0)
        rows = np.nonzero(ok)[0]
        amps = np.minimum(radar.ground_reflectivity * amp_jitter[rows], 255.0)
        centers = slant[rows] / radar.range_resolution - 0.5 + bin_jitter[rows]
        _deposit(bumps, rows, centers, amps, n_r)

    rng = _stream(scenario.seed, _NOISE_STREAM_BASE + scan_index)
    grid = rng.normal(radar.noise_floor_mean, max(radar.noise_floor_sigma, 0.0),
                      (n_a, n_r))
    _add_bumps(grid, bumps)
    np.rint(grid, out=grid)
    np.clip(grid, 0, 255, out=grid)
    return PolarScan(azimuths, t_az, grid.astype(np.uint8), radar.range_resolution)


def synthesize_imu(scenario: Scenario, gt: GroundTruth) -> ImuStream:
    """Derive an IMU stream from the ground truth.

    Body rates come from forward quaternion differences over one IMU period
    (so noise-free gyro integration reproduces the truth exactly), specific
    force from the second difference of position plus gravity, rotated into
    the body frame.  Seeded noise and the configured constant biases are
    added last.
    """
    imu = scenario.imu
    dt_ns = int(round(1e9 / imu.rate))
    if dt_ns <= 0:
        raise InvalidScenario("IMU rate too high to represent")
    span = gt.t_end - gt.t_start
    count = int(span // dt_ns)
    if count < 2:
        raise InvalidScenario("ground truth too short for the IMU rate")
    ts = gt.t_start + np.arange(count, dtype=np.int64) * dt_ns
    dt_s = dt_ns * 1e-9

    _, q_now = gt.sample(ts)
    _, q_next = gt.sample(ts + dt_ns)
    rel = quat_array_multiply(quat_array_conjugate(q_now), q_next)
    omega = rotvec_from_quat_array(rel) / dt_s

    delta = _MS_NS
    t_minus = np.maximum(ts - delta, gt.t_start)
    t_plus = np.minimum(ts + delta, gt.t_end)
    p_minus, _ = gt.sample(t_minus)
    p_plus, _ = gt.sample(t_plus)
    p_now, _ = gt.sample(ts)
    h0 = (ts - t_minus).astype(float) * 1e-9
    h1 = (t_plus - ts).astype(float) * 1e-9
    accel_world = np.zeros_like(p_now)
    good = (h0 > 0) & (h1 > 0)
    h0g = h0[good][:, None]
    h1g = h1[good][:, None]
    accel_world[good] = 2.0 * (
        h1g * p_minus[good] - (h0g + h1g) * p_now[good] + h0g * p_plus[good]
    ) / (h0g * h1g * (h0g + h1g))
    accel_world[:, 2] += GRAVITY

    rot = quat_array_to_matrices(q_now)
    accel_body = np.einsum("nji,nj->ni", rot, accel_world)

    rng = _stream(scenario.seed, _IMU_STREAM)
    sigma_g = imu.gyro_noise_density * math.sqrt(imu.rate)
    sigma_a = imu.accel_noise_density * math.sqrt(imu.rate)
    omega = omega + np.asarray(imu.gyro_bias) + rng.normal(0.0, max(sigma_g, 0.0), omega.shape)
    accel_body = accel_body + np.asarray(imu.accel_bias) + rng.normal(
        0.0, max(sigma_a, 0.0), accel_body.shape
    )
    return ImuStream(ts, omega, accel_body)


@dataclass(frozen=True)
class SimResult:
    """Everything one scenario run produces.

    ``scans`` is a list, or a one-pass :class:`ScanStream` when the run was
    streamed.  ``gt_t/gt_pos/gt_quats`` are the dense truth resampled at the
    IMU timestamps (the table that gets persisted); ``truth`` is the full
    1 kHz history for in-process consumers.
    """

    scans: list[PolarScan] | ScanStream
    imu: ImuStream
    gt_t: np.ndarray
    gt_pos: np.ndarray
    gt_quats: np.ndarray
    truth: GroundTruth


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _render_scans(scenario: Scenario, gt: GroundTruth, starts) -> Iterator[PolarScan]:
    """Render the scans that start at ``starts``, yielding them in order.

    Each scan draws only from its own RNG streams, and numpy releases the
    GIL in the noise fill and the large ufuncs, so scans render in parallel
    and come out identical for any worker count.  At most 2 x workers
    renders are submitted ahead of the consumer, so a consumer that writes
    each scan away holds a fixed number of grids.  ``render_scan`` is looked
    up at every submit.  Closing the generator, or a render that raises,
    cancels the renders that have not started and joins the workers.
    """
    workers = _usable_cpus()
    pool = ThreadPoolExecutor(max_workers=workers)
    todo = iter(starts)
    try:
        pending = deque(
            pool.submit(render_scan, scenario, gt, t0)
            for t0 in islice(todo, 2 * workers)
        )
        while pending:
            scan = pending.popleft().result()
            t0 = next(todo, None)
            if t0 is not None:
                pending.append(pool.submit(render_scan, scenario, gt, t0))
            yield scan
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


class ScanStream:
    """The scans of ``simulate(..., stream=True)``: an iterator that renders
    them as they are consumed, in order and once; ``len()`` is the number of
    scans it yields in all.  ``close()`` stops the renders in flight."""

    def __init__(self, scenario: Scenario, gt: GroundTruth, starts: range):
        self._count = len(starts)
        self._scans = _render_scans(scenario, gt, starts)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> "ScanStream":
        return self

    def __next__(self) -> PolarScan:
        return next(self._scans)

    def close(self) -> None:
        self._scans.close()


def simulate(
    scenario: Scenario, duration: float | None = None, *, stream: bool = False
) -> SimResult:
    """Run a scenario end to end: truth, IMU stream, and all radar scans.

    Scans start at the truth origin and repeat every rotation period for as
    long as a full rotation fits inside the IMU stream's span, so every
    azimuth timestamp is covered by inertial data.  The scans render in
    parallel; by default all of them are returned in a list.  With
    ``stream=True`` they are rendered only as ``result.scans`` is iterated,
    with at most 2 x CPUs in flight, so writing them away one at a time
    keeps memory flat however long the scenario is.
    """
    gt = generate_ground_truth(scenario, duration)
    imu = synthesize_imu(scenario, gt)
    period = scenario.radar.period_ns
    starts = range(gt.t_start, int(imu.t[-1]) - period + 1, period)
    if stream:
        scans = ScanStream(scenario, gt, starts)
    else:
        # The kept scans are copied on this thread: glibc gives each worker
        # thread its own heap, and scans left there would keep the workers'
        # freed scratch from being reused.
        with closing(_render_scans(scenario, gt, starts)) as rendered:
            scans = [
                PolarScan(s.azimuths.copy(), s.azimuth_timestamps.copy(),
                          s.intensity.copy(), s.range_resolution)
                for s in rendered
            ]
    gt_pos, gt_quats = gt.sample(imu.t)
    return SimResult(scans, imu, imu.t, gt_pos, gt_quats, gt)


# ---------------------------------------------------------------------------
# Scenario presets used by the demos and the acceptance checks.


def _scatter_poles(
    rng: np.random.Generator,
    count: int,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    height_range: tuple[float, float] = (2.0, 6.0),
    reflectivity_range: tuple[float, float] = (150.0, 255.0),
) -> tuple[Pole, ...]:
    xs = rng.uniform(*x_range, count)
    ys = rng.uniform(*y_range, count)
    hs = rng.uniform(*height_range, count)
    refl = rng.uniform(*reflectivity_range, count)
    return tuple(
        Pole(float(x), float(y), 0.0, float(h), float(r))
        for x, y, h, r in zip(xs, ys, hs, refl)
    )


def rectangle_loop(seed: int = 1, pole_count: int = 200) -> Scenario:
    """Flat closed loop (~491 m): two 140 m and two 90 m straights joined by
    5 m quarter-circle arcs, poles scattered around the course."""
    speed = 2.0
    quarter = math.pi / 2.0
    segments = [PathSegment("dwell", duration=10.0)]
    for length in (140.0, 90.0, 140.0, 90.0):
        segments.append(PathSegment("straight", speed=speed, length=length))
        segments.append(
            PathSegment("turn", speed=speed, radius=5.0, angle=quarter)
        )
    poles = _scatter_poles(
        _stream(seed, 555), pole_count, (-35.0, 185.0), (-30.0, 140.0)
    )
    return Scenario(seed=seed, segments=tuple(segments), poles=poles)


def quarry_course(seed: int = 1, pole_count: int = 120) -> Scenario:
    """Straight 200 m corridor with a severe ditch profile: pitch swings to
    +-30 deg (crossing at up to ~15 deg per scan at 2.5 m/s) and roll steps
    to +-8 deg, through a field of mixed-height poles."""
    speed = 2.5
    segments = (
        PathSegment("dwell", duration=10.0),
        PathSegment("straight", speed=speed, length=200.0),
    )
    deg = math.radians
    tilt_profile = (
        # (arc s, pitch, roll); one scan covers 0.625 m at 2.5 m/s.  The
        # ditch walls ramp at ~2 deg/scan and the bottom snaps at
        # ~10.7 deg/scan; roll steps at up to ~3.9 deg/scan.
        (0.0, 0.0, 0.0),
        (20.0, deg(8.0), 0.0),
        (35.0, deg(-8.0), 0.0),
        (50.0, 0.0, 0.0),
        # ditch: dive to -30, snap to +30 across 3.5 m, climb back out
        (57.0, 0.0, 0.0),
        (66.5, deg(-30.0), 0.0),
        (70.0, deg(30.0), 0.0),
        (79.5, 0.0, 0.0),
        # roll shelf: gentle edge up, sharp edge across
        (100.0, 0.0, 0.0),
        (101.8, 0.0, deg(8.0)),
        (112.0, 0.0, deg(8.0)),
        (114.6, 0.0, deg(-8.0)),
        (124.0, 0.0, deg(-8.0)),
        (130.0, 0.0, 0.0),
        # gentler rolling terrain to the end
        (150.0, deg(10.0), deg(3.0)),
        (170.0, deg(-10.0), deg(-3.0)),
        (190.0, 0.0, 0.0),
    )
    poles = _scatter_poles(
        _stream(seed, 556),
        pole_count,
        (-20.0, 220.0),
        (-45.0, 45.0),
        height_range=(1.0, 8.0),
    )
    return Scenario(
        seed=seed,
        segments=segments,
        poles=poles,
        tilt_profile=tilt_profile,
        radar=RadarModel(ground_reflectivity=16.0),
    )


def tilt_step_course(seed: int = 3, pole_count: int = 80) -> Scenario:
    """Straight run that pitches up 8 deg over one meter mid-course and holds
    it, so every submap recorded while level becomes tilt-incompatible."""
    segments = (
        PathSegment("dwell", duration=10.0),
        PathSegment("straight", speed=2.0, length=60.0),
    )
    deg = math.radians
    tilt_profile = (
        (0.0, 0.0, 0.0),
        (30.0, 0.0, 0.0),
        (31.0, deg(8.0), 0.0),
        (60.0, deg(8.0), 0.0),
    )
    poles = _scatter_poles(
        _stream(seed, 557), pole_count, (-15.0, 75.0), (-35.0, 35.0)
    )
    return Scenario(
        seed=seed,
        segments=segments,
        poles=poles,
        tilt_profile=tilt_profile,
        radar=RadarModel(ground_reflectivity=16.0),
    )
