"""Tests for the Cauchy tilt gate and its closed-form keep threshold."""

import math

import numpy as np
import pytest

from tiltro.errors import AllPointsRejected
from tiltro.frontend import PointCloud
from tiltro.geometry import RelativeTilt
from tiltro.params import Params
from tiltro.tilt_gate import (
    cauchy_weight,
    tilt_filter,
    vertical_displacement,
)


def _tilt(deg, axis=(1.0, 0.0, 0.0)):
    return RelativeTilt(np.asarray(axis, dtype=float), math.radians(deg))


def _cloud(xyz):
    xyz = np.asarray(xyz, dtype=float)
    n = xyz.shape[0]
    return PointCloud(xyz, np.arange(n, dtype=np.int64), np.ones(n))


def test_cauchy_weight_examples():
    assert cauchy_weight(0.0, 3.5) == 1.0
    assert cauchy_weight(3.5, 3.5) == 0.5
    for gamma in (0.1, 1.0, 3.5, 50.0):
        assert cauchy_weight(gamma, gamma) == 0.5


def test_cauchy_weight_strictly_decreasing():
    d = np.linspace(0.0, 40.0, 200)
    w = cauchy_weight(d, 3.5)
    assert np.all(np.diff(w) < 0.0)
    assert np.all((w > 0.0) & (w <= 1.0))


def test_cauchy_weight_scale_covariant():
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = rng.uniform(0.0, 30.0)
        gamma = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.1, 10.0)
        assert cauchy_weight(c * d, c * gamma) == pytest.approx(
            cauchy_weight(d, gamma), abs=1e-12
        )


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
    # gamma = 3.5, tau = 0.8 inverts to a keep radius of exactly 1.75 m of
    # vertical displacement.
    rng = np.random.default_rng(43)
    params = Params()
    cutoff = params.gamma * math.sqrt(1.0 / params.tau_tilt - 1.0)
    assert cutoff == pytest.approx(1.75)
    for trial in range(5):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        axis = np.array([math.cos(phi), math.sin(phi), 0.0])
        tilt = RelativeTilt(axis, math.radians(rng.uniform(3.5, 25.0)))
        pts = rng.uniform(-50.0, 50.0, size=(2000, 3))
        pts[:, 2] = 0.0
        cloud = _cloud(pts)
        out = tilt_filter(cloud, tilt, params)
        expect = set(
            np.nonzero(vertical_displacement(pts, tilt) <= cutoff)[0].tolist()
        )
        assert set(out.t.tolist()) == expect
        # Order preserved and weights carried through.
        assert np.all(np.diff(out.t) > 0)
        np.testing.assert_allclose(
            out.weight,
            cauchy_weight(vertical_displacement(out.xyz, tilt), params.gamma),
            atol=1e-12,
        )


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
    np.testing.assert_array_equal(out.weight, np.ones(len(cloud)))


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
    np.testing.assert_allclose(twice.weight, once.weight, atol=1e-12)


def test_tilt_filter_axis_points_always_kept():
    axis = np.array([0.8, -0.6, 0.0])
    pts = np.outer(np.array([1.0, 5.0, 25.0, -60.0]), axis)
    out = tilt_filter(
        _cloud(pts), RelativeTilt(axis, math.radians(28.0)), Params(tau_tilt=1.0)
    )
    assert len(out) == 4
    np.testing.assert_allclose(out.weight, np.ones(4), atol=1e-12)


def test_tilt_filter_rejects_everything_far_from_axis():
    pts = np.zeros((10, 3))
    pts[:, 1] = np.linspace(20.0, 60.0, 10)  # all far from the x axis
    with pytest.raises(AllPointsRejected):
        tilt_filter(_cloud(pts), _tilt(20.0), Params())



def test_params_validation():
    with pytest.raises(ValueError):
        Params(gamma=0.0)
    with pytest.raises(ValueError):
        Params(tau_tilt=0.0)
    with pytest.raises(ValueError):
        Params(tau_tilt=1.5)
    with pytest.raises(ValueError):
        Params(theta_tilt=-1.0)
    Params(tau_tilt=1.0)  # boundary allowed
