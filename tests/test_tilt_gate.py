"""Tests for the tilt gate: a hard threshold on tilt-induced vertical
displacement."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltro.errors import AllPointsRejected, ConfigError
from tiltro.frontend import PointCloud
from tiltro.geometry import RelativeTilt
from tiltro.io import parse_run_config
from tiltro.params import Params
from tiltro.tilt_gate import tilt_filter, vertical_displacement


def _tilt(deg, axis=(1.0, 0.0, 0.0)):
    return RelativeTilt(np.asarray(axis, dtype=float), math.radians(deg))


def _cloud(xyz):
    xyz = np.asarray(xyz, dtype=float)
    n = xyz.shape[0]
    return PointCloud(xyz, np.arange(n, dtype=np.int64))


def test_tilt_filter_keeps_d_max_and_drops_the_next_float():
    tilt = _tilt(13.0)
    cloud = _cloud([[0.0, 1.0, 0.0], [0.0, 10.0, 0.0]])
    d = float(vertical_displacement(cloud.xyz[1], tilt))
    assert tilt_filter(cloud, tilt, Params(d_max=d)).t.tolist() == [0, 1]
    # One float lower, the same point lies at nextafter(d_max, inf).
    d_max = math.nextafter(d, -math.inf)
    assert math.nextafter(d_max, math.inf) == d
    assert tilt_filter(cloud, tilt, Params(d_max=d_max)).t.tolist() == [0]


def test_vertical_displacement_zero_cases():
    p = np.array([3.0, -7.0, 0.0])
    assert vertical_displacement(p, _tilt(0.0)) == 0.0
    # Points on the rotation axis do not move at all.
    for c in (0.5, 2.0, -40.0):
        axis = np.array([0.6, 0.8, 0.0])
        assert vertical_displacement(c * axis, _tilt(25.0, axis)) == pytest.approx(
            0.0, abs=1e-12
        )


def test_vertical_displacement_example():
    d = vertical_displacement(np.array([0.0, 10.0, 0.0]), _tilt(13.0))
    assert d == pytest.approx(10.0 * math.sin(math.radians(13.0)), abs=1e-12)
    assert d == pytest.approx(2.2495, abs=1e-4)


def test_vertical_displacement_planar_closed_form():
    # For z = 0 points the displacement is |sin(angle)| times the horizontal
    # distance from the tilt axis.
    rng = np.random.default_rng(42)
    for _ in range(50):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        axis = np.array([math.cos(phi), math.sin(phi), 0.0])
        angle = rng.uniform(0.0, 0.6)
        pts = rng.uniform(-60.0, 60.0, size=(20, 3))
        pts[:, 2] = 0.0
        tilt = RelativeTilt(axis, angle)
        got = vertical_displacement(pts, tilt)
        perp = np.abs(axis[0] * pts[:, 1] - axis[1] * pts[:, 0])
        np.testing.assert_allclose(got, math.sin(angle) * perp, atol=1e-9)


def test_tilt_filter_keep_set_matches_closed_form():
    # The defaults keep exactly the points displaced by at most 1.75 m.
    rng = np.random.default_rng(43)
    params = Params()
    assert params.d_max == 1.75
    for trial in range(5):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        axis = np.array([math.cos(phi), math.sin(phi), 0.0])
        tilt = RelativeTilt(axis, math.radians(rng.uniform(3.5, 25.0)))
        pts = rng.uniform(-50.0, 50.0, size=(2000, 3))
        pts[:, 2] = 0.0
        cloud = _cloud(pts)
        out = tilt_filter(cloud, tilt, params)
        expect = set(
            np.nonzero(vertical_displacement(pts, tilt) <= 1.75)[0].tolist()
        )
        assert set(out.t.tolist()) == expect
        # Order preserved.
        assert np.all(np.diff(out.t) > 0)


@st.composite
def _gate_cases(draw):
    """A seeded cloud, flat or with some height, a tilt at or above
    theta_tilt about a random horizontal axis, and d_max from 0 to past the
    far field."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-60.0, 60.0, size=(draw(st.integers(1, 200)), 3))
    pts[:, 2] *= draw(st.sampled_from([0.0, 0.1]))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    axis = np.array([math.cos(phi), math.sin(phi), 0.0])
    params = Params(
        theta_tilt=draw(st.floats(0.0, 10.0)),
        d_max=draw(st.sampled_from([0.0, 0.5, 1.75, 10.0, 200.0])),
    )
    angle = math.radians(params.theta_tilt + draw(st.floats(0.0, 30.0)))
    return _cloud(pts), RelativeTilt(axis, angle), params


@settings(max_examples=150, deadline=None)
@given(_gate_cases())
def test_tilt_filter_keeps_exactly_the_points_within_d_max(case):
    cloud, tilt, params = case
    # Degrees to radians and back may land a hair under theta_tilt.
    assume(tilt.angle_deg >= params.theta_tilt)
    keep = np.flatnonzero(vertical_displacement(cloud.xyz, tilt) <= params.d_max)
    if keep.size == 0:
        with pytest.raises(AllPointsRejected):
            tilt_filter(cloud, tilt, params)
        return
    out = tilt_filter(cloud, tilt, params)
    np.testing.assert_array_equal(out.t, keep)
    np.testing.assert_array_equal(out.xyz, cloud.xyz[keep])


def test_tilt_filter_worked_example():
    cloud = _cloud([[0.0, 1.0, 0.0], [0.0, 5.0, 0.0], [0.0, 10.0, 0.0], [0.0, 40.0, 0.0]])
    tilt = _tilt(13.0)
    d = vertical_displacement(cloud.xyz, tilt)
    np.testing.assert_allclose(d, [0.2250, 1.1248, 2.2495, 8.9980], atol=5e-4)
    out = tilt_filter(cloud, tilt, Params())
    assert out.t.tolist() == [0, 1]


def test_tilt_filter_passthrough_below_activation():
    cloud = _cloud(np.random.default_rng(44).uniform(-40, 40, size=(100, 3)))
    out = tilt_filter(cloud, _tilt(1.0), Params())
    assert out is cloud
    assert len(out) == len(cloud)
    np.testing.assert_array_equal(out.xyz, cloud.xyz)


def test_tilt_filter_idempotent():
    rng = np.random.default_rng(45)
    pts = rng.uniform(-30.0, 30.0, size=(500, 3))
    pts[:, 2] = 0.0
    tilt = _tilt(10.0, (0.0, 1.0, 0.0))
    params = Params()
    once = tilt_filter(_cloud(pts), tilt, params)
    twice = tilt_filter(once, tilt, params)
    assert len(twice) == len(once)
    np.testing.assert_array_equal(twice.xyz, once.xyz)


def test_tilt_filter_axis_points_always_kept():
    axis = np.array([0.8, -0.6, 0.0])
    pts = np.outer(np.array([1.0, 5.0, 25.0, -60.0]), axis)
    out = tilt_filter(
        _cloud(pts), RelativeTilt(axis, math.radians(28.0)), Params(d_max=1e-9)
    )
    assert len(out) == 4


def test_tilt_filter_rejects_everything_far_from_axis():
    pts = np.zeros((10, 3))
    pts[:, 1] = np.linspace(20.0, 60.0, 10)  # all far from the x axis
    with pytest.raises(AllPointsRejected):
        tilt_filter(_cloud(pts), _tilt(20.0), Params())


def test_params_validation():
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="d_max"):
            Params(d_max=bad)
    with pytest.raises(ValueError):
        Params(theta_tilt=-1.0)
    Params(d_max=0.0)  # boundary allowed


@pytest.mark.parametrize("key", ["gamma", "tau_tilt"])
def test_cauchy_keys_are_unknown_in_a_config(key):
    with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
        parse_run_config(f"d_max = 1.75\n{key} = 0.8\n")
