"""Tests for polar scan validation, k-strongest extraction, and deskewing."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tiltro.attitude import AttitudeTrack
from tiltro.frontend import (
    MAX_SCAN_SPAN_NS,
    PointCloud,
    PolarScan,
    deskew,
    k_strongest,
)
from tiltro.geometry import UnitQuat

from helpers import (
    as_array,
    brute_force_k_strongest,
    random_scan,
    scan_points,
    unique_deskew,
)


def _scan_from_rows(rows, dr=1.0):
    grid = np.asarray(rows, dtype=np.uint8)
    n_a = grid.shape[0]
    azimuths = np.arange(n_a) * (2.0 * np.pi / max(n_a, 1))
    t = np.arange(n_a, dtype=np.int64) * 1_000_000
    return PolarScan(azimuths, t, grid, dr)


def test_polar_scan_validation():
    az = np.array([0.0, 1.0])
    t = np.array([0, 10], dtype=np.int64)
    good = np.zeros((2, 4), dtype=np.uint8)
    PolarScan(az, t, good, 0.5)  # sanity: this one is fine
    with pytest.raises(ValueError):
        PolarScan(az, t, good.astype(np.uint16), 0.5)
    with pytest.raises(ValueError):
        PolarScan(az, t, np.zeros(4, dtype=np.uint8), 0.5)
    with pytest.raises(ValueError):
        PolarScan(np.array([0.0]), t, good, 0.5)
    with pytest.raises(ValueError):
        PolarScan(np.array([1.0, 1.0]), t, good, 0.5)
    with pytest.raises(ValueError):
        PolarScan(np.array([0.0, 2.0 * np.pi]), t, good, 0.5)
    with pytest.raises(ValueError):
        PolarScan(np.array([-0.1, 1.0]), t, good, 0.5)
    with pytest.raises(ValueError):
        PolarScan(az, np.array([10, 0], dtype=np.int64), good, 0.5)
    with pytest.raises(ValueError):
        PolarScan(az, np.array([0, MAX_SCAN_SPAN_NS + 1], dtype=np.int64), good, 0.5)
    with pytest.raises(ValueError):
        PolarScan(az, t, good, 0.0)
    with pytest.raises(ValueError):
        PolarScan(np.empty(0), np.empty(0, dtype=np.int64), np.zeros((0, 4), np.uint8), 0.5)
    # Non-finite geometry slips past every "<= 0" and diff comparison.
    for bad_az in ([np.nan, 1.0], [0.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="azimuths must be finite"):
            PolarScan(np.array(bad_az), t, good, 0.5)
    for bad_dr in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="range_resolution must be finite"):
            PolarScan(az, t, good, bad_dr)


def test_k_strongest_worked_example():
    scan = _scan_from_rows([[0, 90, 70, 80, 61, 50]])
    cloud = k_strongest(scan, k=3, r_min=0.5, r_max=10.0, tau_raw=60.0)
    ranges = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
    assert ranges == pytest.approx([1.5, 3.5, 2.5])
    assert np.all(cloud.xyz[:, 2] == 0.0)
    assert list(cloud.t) == [0, 0, 0]


def test_k_strongest_fewer_than_k():
    scan = _scan_from_rows([[0, 90, 0, 80, 0, 0]])
    cloud = k_strongest(scan, k=10, r_min=0.5, r_max=10.0, tau_raw=60.0)
    assert len(cloud) == 2


def test_k_strongest_all_subthreshold_yields_empty():
    scan = _scan_from_rows([[10, 20, 60, 5, 0, 60]])
    cloud = k_strongest(scan, k=3, r_min=0.5, r_max=10.0, tau_raw=60.0)
    assert len(cloud) == 0
    assert cloud.xyz.shape == (0, 3)


def test_k_strongest_threshold_is_strict():
    # Intensity exactly tau_raw does not qualify.
    scan = _scan_from_rows([[60, 61]])
    cloud = k_strongest(scan, k=5, r_min=0.0, r_max=10.0, tau_raw=60.0)
    assert len(cloud) == 1
    assert np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]) == pytest.approx([1.5])
    # Below zero every bin qualifies, and zero-intensity bins rank last.
    scan = _scan_from_rows([[0, 5, 0, 7]])
    cloud = k_strongest(scan, k=3, r_min=0.0, r_max=10.0, tau_raw=-0.5)
    assert np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]) == pytest.approx([3.5, 1.5, 0.5])
    # At the top of the uint8 range nothing lies above 255.
    top = _scan_from_rows([[255, 254]])
    assert len(k_strongest(top, k=5, r_min=0.0, r_max=10.0, tau_raw=255.0)) == 0
    assert len(k_strongest(top, k=5, r_min=0.0, r_max=10.0, tau_raw=254.5)) == 1


def test_k_strongest_tie_breaks_to_lower_bin():
    scan = _scan_from_rows([[0, 90, 0, 90, 90, 0]])
    cloud = k_strongest(scan, k=2, r_min=0.0, r_max=10.0, tau_raw=60.0)
    ranges = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
    assert ranges == pytest.approx([1.5, 3.5])


def test_k_strongest_range_gate_uses_bin_centers():
    # Bin 0 center 0.5 m sits exactly on r_min and stays in.
    scan = _scan_from_rows([[90, 90, 90]])
    cloud = k_strongest(scan, k=5, r_min=0.5, r_max=1.5, tau_raw=60.0)
    ranges = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
    assert sorted(ranges) == pytest.approx([0.5, 1.5])


def test_k_strongest_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n_a = int(rng.integers(1, 24))
        n_r = int(rng.integers(1, 60))
        dr = float(rng.uniform(0.05, 2.0))
        scan = random_scan(rng, n_a=n_a, n_r=n_r, dr=dr)
        k = int(rng.integers(1, 12))
        r_min = float(rng.uniform(0.0, n_r * dr * 0.5))
        r_max = float(rng.uniform(r_min + dr, n_r * dr + 1.0))
        tau = float(rng.integers(0, 255))
        cloud = k_strongest(scan, k, r_min, r_max, tau)
        expect = brute_force_k_strongest(scan, k, r_min, r_max, tau)
        assert len(cloud) == len(expect)
        if not expect:
            continue
        rows = np.searchsorted(scan.azimuth_timestamps, cloud.t)
        bins = np.rint(np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]) / dr - 0.5)
        got = list(zip(rows.tolist(), bins.astype(int).tolist()))
        assert got == expect


@st.composite
def _sparse_extraction_cases(draw):
    """Mostly-background grids: a few distinct levels (many ties) on a fill
    that usually sits at or below the threshold.  Thresholds may be
    fractional, negative or non-finite, windows may be empty, and k may
    reach past the row length."""
    n_a = draw(st.integers(1, 12))
    n_r = draw(st.integers(1, 40))
    levels = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
    background = draw(st.sampled_from([0, 35, 60]))
    grid = draw(
        arrays(
            np.uint8,
            (n_a, n_r),
            elements=st.sampled_from(levels),
            fill=st.just(background),
        )
    )
    dr = draw(st.floats(0.05, 2.0))
    tau = draw(
        st.one_of(
            st.integers(60, 256).map(float),
            st.floats(60.0, 300.0),
            st.floats(-5.0, 60.0),
            st.sampled_from([math.inf, -math.inf, math.nan]),
        )
    )
    r_min = draw(st.one_of(st.just(0.0), st.floats(0.0, n_r * dr + 1.0)))
    r_max = r_min + draw(st.floats(0.0, n_r * dr + 1.0))
    k = draw(st.integers(1, n_r + 2))
    return grid, dr, k, r_min, r_max, tau


@settings(max_examples=300, deadline=None)
@given(_sparse_extraction_cases())
def test_k_strongest_matches_brute_force_on_sparse_grids(case):
    grid, dr, k, r_min, r_max, tau = case
    scan = _scan_from_rows(grid, dr)
    cloud = k_strongest(scan, k, r_min, r_max, tau)
    expect = brute_force_k_strongest(scan, k, r_min, r_max, tau)
    assert len(cloud) == len(expect)
    xyz, t = scan_points(scan, expect)
    assert cloud.xyz.tobytes() == xyz.tobytes()
    assert cloud.t.tobytes() == t.tobytes()


def test_k_strongest_invariants():
    rng = np.random.default_rng(32)
    scan = random_scan(rng, n_a=40, n_r=120, dr=0.5)
    k, r_min, r_max, tau = 5, 2.0, 45.0, 120.0
    cloud = k_strongest(scan, k, r_min, r_max, tau)
    assert len(cloud) <= scan.azimuth_count * k
    ranges = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
    assert np.all((ranges >= r_min) & (ranges <= r_max))
    rows = np.searchsorted(scan.azimuth_timestamps, cloud.t)
    bins = np.rint(ranges / scan.range_resolution - 0.5).astype(int)
    assert np.all(scan.intensity[rows, bins] > tau)
    assert np.all(cloud.xyz[:, 2] == 0.0)
    assert np.all(cloud.weight == 1.0)
    np.testing.assert_array_equal(scan.azimuth_timestamps[rows], cloud.t)


def _track(t_ns, rpys):
    quats = np.array(
        [as_array(UnitQuat.from_rpy(*rpy)) for rpy in rpys]
    )
    return AttitudeTrack(np.asarray(t_ns, dtype=np.int64), quats)


def _raw_cloud(xyz, t):
    xyz = np.asarray(xyz, dtype=float)
    return PointCloud(xyz, t, np.ones(xyz.shape[0]))


def test_deskew_identity_under_constant_track():
    rng = np.random.default_rng(33)
    xyz = rng.uniform(-30, 30, size=(50, 3))
    xyz[:, 2] = 0.0
    t = np.sort(rng.integers(0, 250_000_000, size=50))
    cloud = _raw_cloud(xyz, t)
    q = UnitQuat.from_rpy(0.1, -0.2, 1.3)
    track = _track([-50_000_000, 300_000_000], [(0.1, -0.2, 1.3), (0.1, -0.2, 1.3)])
    # Reconstruct the same quat at both knots so slerp is constant.
    assert track.attitudes_at(np.array([0], dtype=np.int64))[0] == pytest.approx(
        as_array(q), abs=1e-12
    )
    out = deskew(cloud, track)
    np.testing.assert_allclose(out.xyz, cloud.xyz, atol=1e-9)
    np.testing.assert_array_equal(out.t, cloud.t)
    np.testing.assert_array_equal(out.weight, cloud.weight)


def test_deskew_preserves_ranges():
    rng = np.random.default_rng(34)
    xyz = rng.uniform(-40, 40, size=(200, 3))
    xyz[:, 2] = 0.0
    t = np.sort(rng.integers(0, 240_000_000, size=200))
    cloud = _raw_cloud(xyz, t)
    track = _track(
        [0, 125_000_000, 250_000_000],
        [(0.0, 0.0, 0.0), (0.05, -0.1, 0.4), (0.1, -0.2, 0.8)],
    )
    out = deskew(cloud, track)
    np.testing.assert_allclose(
        np.linalg.norm(out.xyz, axis=1), np.linalg.norm(cloud.xyz, axis=1), atol=1e-9
    )


def test_deskew_yaw_sweep_example():
    # Sensor yaws at +0.4 rad/s.  A point captured 0.125 s after the
    # reference, on the body x axis at 10 m, lands at bearing +0.05 rad
    # in the reference frame.
    track = _track(
        [0, 250_000_000], [(0.0, 0.0, 0.0), (0.0, 0.0, 0.1)]
    )
    cloud = _raw_cloud([[10.0, 0.0, 0.0], [10.0, 0.0, 0.0]], [0, 125_000_000])
    out = deskew(cloud, track)
    np.testing.assert_allclose(out.xyz[0], [10.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(
        out.xyz[1],
        [10.0 * math.cos(0.05), 10.0 * math.sin(0.05), 0.0],
        atol=1e-9,
    )
    assert out.xyz[1, 0] == pytest.approx(9.98750, abs=1e-4)
    assert out.xyz[1, 1] == pytest.approx(0.49979, abs=1e-4)


def test_deskew_pitch_ramp_displaces_z():
    # 13 degrees of pitch accumulated over the sweep tips a range-10 point
    # out of the plane by about 10*sin(13 deg).
    theta = math.radians(13.0)
    track = _track([0, 250_000_000], [(0.0, 0.0, 0.0), (0.0, theta, 0.0)])
    cloud = _raw_cloud([[10.0, 0.0, 0.0], [10.0, 0.0, 0.0]], [0, 250_000_000])
    out = deskew(cloud, track)
    assert out.xyz[1, 2] == pytest.approx(-10.0 * math.sin(theta), abs=1e-9)
    assert abs(out.xyz[1, 2]) == pytest.approx(2.2495, abs=1e-3)


def test_deskew_stage_and_empty_guards():
    track = _track([0, 250_000_000], [(0, 0, 0), (0, 0, 0)])
    cloud = _raw_cloud([[1.0, 0.0, 0.0]], [0])
    cloud.weight[:] = 0.5
    done = deskew(cloud, track)
    # Deskew moves the points and leaves their times and weights alone.
    np.testing.assert_array_equal(done.t, cloud.t)
    np.testing.assert_array_equal(done.weight, cloud.weight)
    with pytest.raises(ValueError, match="empty"):
        deskew(_raw_cloud(np.empty((0, 3)), []), track)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    n_times=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from(["sorted", "shuffled", "reversed"]),
)
def test_deskew_matches_unique_reference_in_any_time_order(n, n_times, seed, order):
    # Runs of equal times, as k_strongest emits them, or the same points
    # in any other order: every position matches the np.unique reference
    # byte for byte.
    rng = np.random.default_rng(seed)
    times = np.sort(rng.choice(240_000_000, size=n_times, replace=False))
    t = np.sort(rng.choice(times, size=n))
    if order == "shuffled":
        t = rng.permutation(t)
    elif order == "reversed":
        t = t[::-1]
    cloud = _raw_cloud(rng.uniform(-40.0, 40.0, size=(n, 3)), t)
    track = _track(
        [0, 125_000_000, 250_000_000],
        [(0.0, 0.0, 0.0), (0.05, -0.1, 0.4), (0.1, -0.2, 0.8)],
    )
    out = deskew(cloud, track)
    assert out.xyz.tobytes() == unique_deskew(cloud, track).tobytes()


def test_point_cloud_stage_and_subset():
    # The cloud carries only what the chain reads: deskew reads t, the
    # tilt gate sets weight, ICP reads xyz and weight.
    assert [f.name for f in fields(PointCloud)] == ["xyz", "t", "weight"]
    cloud = PointCloud([1.0, 0, 0, 2.0, 0, 0, 3.0, 0, 0], [0, 1, 2], [1, 1, 1])
    assert cloud.xyz.shape == (3, 3) and cloud.xyz.dtype == float
    assert cloud.t.dtype == np.int64 and cloud.weight.dtype == float
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), [0, 1], np.ones(3))
    sub = cloud.subset(np.array([True, False, True]))
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.xyz[:, 0], [1.0, 3.0])
    np.testing.assert_array_equal(sub.t, [0, 2])
