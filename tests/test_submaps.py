"""Tests for the submap atlas: tilt-proximity search and merge-or-create."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tiltro.geometry import Pose2, UnitQuat, relative_tilt
from tiltro.params import Params
from tiltro.submaps import (
    Atlas,
    Submap,
    find_submap,
    lift_to_world,
    tilt_lift,
    update_atlas,
)


def _cloud(n=20, seed=0):
    rng = np.random.default_rng(seed)
    xyz = rng.uniform(-10.0, 10.0, size=(n, 3))
    xyz[:, 2] = 0.0
    return xyz


def _submap(sid, x, y, roll=0.0, pitch=0.0):
    return Submap(
        submap_id=sid,
        anchor=Pose2(x, y, 0.0),
        attitude_signature=(roll, pitch),
        points=_cloud(seed=sid),
    )


def _level():
    return UnitQuat.identity()


def test_find_submap_empty_atlas_misses():
    assert find_submap(Atlas(), Pose2.identity(), _level()) is None


def test_find_submap_closest_wins():
    atlas = Atlas(submaps=[_submap(0, 12.0, 0.0), _submap(1, 5.0, 0.0)])
    found = find_submap(atlas, Pose2.identity(), _level())
    assert found is not None
    assert found[0].submap_id == 1


def test_find_submap_tilt_excludes_nearer_candidate():
    # The 5 m submap disagrees in pitch by 10 deg, the 12 m one by 1 deg;
    # the tilt gate throws out the nearer candidate.
    atlas = Atlas(
        submaps=[
            _submap(0, 5.0, 0.0, pitch=0.0),
            _submap(1, 12.0, 0.0, pitch=math.radians(9.0)),
        ]
    )
    q_now = UnitQuat.from_rpy(0.0, math.radians(10.0), 0.0)
    found = find_submap(atlas, Pose2.identity(), q_now)
    assert found is not None
    submap, tilt = found
    assert submap.submap_id == 1
    assert tilt.angle_deg == pytest.approx(1.0, abs=1e-6)


def test_find_submap_distance_only_mode_ignores_tilt():
    atlas = Atlas(
        submaps=[
            _submap(0, 5.0, 0.0, pitch=0.0),
            _submap(1, 12.0, 0.0, pitch=math.radians(9.0)),
        ]
    )
    q_now = UnitQuat.from_rpy(0.0, math.radians(10.0), 0.0)
    found = find_submap(atlas, Pose2.identity(), q_now, require_tilt=False)
    assert found is not None
    assert found[0].submap_id == 0


def test_find_submap_boundaries():
    # Distance uses <= r_submap; tilt uses strict < theta_tilt.
    atlas = Atlas(submaps=[_submap(0, 20.0, 0.0)])
    assert find_submap(atlas, Pose2.identity(), _level()) is not None
    atlas = Atlas(submaps=[_submap(0, 20.000001, 0.0)])
    assert find_submap(atlas, Pose2.identity(), _level()) is None
    atlas = Atlas(submaps=[_submap(0, 5.0, 0.0)])
    exactly = UnitQuat.from_rpy(0.0, math.radians(3.0), 0.0)
    assert find_submap(atlas, Pose2.identity(), exactly) is None
    just_under = UnitQuat.from_rpy(0.0, math.radians(2.999), 0.0)
    assert find_submap(atlas, Pose2.identity(), just_under) is not None


def test_find_submap_matches_exhaustive_oracle():
    rng = np.random.default_rng(61)
    for trial in range(60):
        n = int(rng.integers(0, 101))
        submaps = [
            _submap(
                i,
                float(rng.uniform(-60, 60)),
                float(rng.uniform(-60, 60)),
                roll=float(rng.uniform(-0.12, 0.12)),
                pitch=float(rng.uniform(-0.12, 0.12)),
            )
            for i in range(n)
        ]
        atlas = Atlas(submaps=submaps)
        predicted = Pose2(float(rng.uniform(-60, 60)), float(rng.uniform(-60, 60)), 0.0)
        q_now = UnitQuat.from_rpy(
            float(rng.uniform(-0.12, 0.12)),
            float(rng.uniform(-0.12, 0.12)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        require_tilt = bool(rng.integers(0, 2))
        roll, pitch, _ = q_now.to_rpy()
        bound = math.radians(atlas.params.theta_tilt)
        best_id, best_dist = None, math.inf
        for s in submaps:
            dist = predicted.planar_distance(s.anchor)
            if dist > atlas.params.r_submap:
                continue
            if require_tilt and not (
                abs(roll - s.attitude_signature[0]) < bound
                and abs(pitch - s.attitude_signature[1]) < bound
            ):
                continue
            if dist < best_dist:
                best_id, best_dist = s.submap_id, dist
        found = find_submap(atlas, predicted, q_now, require_tilt=require_tilt)
        if best_id is None:
            assert found is None
        else:
            assert found is not None
            assert found[0].submap_id == best_id
            signature = UnitQuat.from_rpy(*found[0].attitude_signature, 0.0)
            expect = relative_tilt(q_now, signature)
            assert found[1].angle == pytest.approx(expect.angle, abs=1e-12)


def test_lift_to_world_composes_tilt_then_pose():
    rng = np.random.default_rng(62)
    cloud = _cloud(seed=7)
    pose = Pose2(4.0, -3.0, 0.7)
    q_now = UnitQuat.from_rpy(0.1, -0.2, 1.9)  # yaw must be ignored
    lifted = lift_to_world(cloud, pose, q_now)
    tilted = tilt_lift(cloud, q_now)
    xy = pose.transform_xy(tilted[:, :2])
    np.testing.assert_allclose(lifted[:, :2], xy, atol=1e-12)
    np.testing.assert_allclose(lifted[:, 2], tilted[:, 2], atol=1e-12)


def test_update_atlas_creates_on_miss():
    atlas = Atlas()
    pose = Pose2(2.0, 1.0, 0.4)
    q = UnitQuat.from_rpy(0.02, -0.05, 0.4)
    update_atlas(atlas, _cloud(), pose, q, matched=None)
    assert len(atlas) == 1
    s = atlas.submaps[0]
    assert s.submap_id == 0
    assert s.anchor == pose
    assert s.attitude_signature == pytest.approx((0.02, -0.05), abs=1e-9)
    assert len(s.points) > 0


def test_update_atlas_merges_nearby_compatible_scan():
    atlas = Atlas()
    update_atlas(atlas, _cloud(seed=1), Pose2.identity(), _level(), None)
    sig_before = atlas.submaps[0].attitude_signature
    points_before = atlas.submaps[0].points
    q_close = UnitQuat.from_rpy(math.radians(1.0), math.radians(-2.0), 0.1)
    update_atlas(
        atlas, _cloud(seed=2), Pose2(3.0, 0.0, 0.1), q_close, atlas.submaps[0]
    )
    assert len(atlas) == 1
    s = atlas.submaps[0]
    assert s.points is not points_before
    assert len(s.points) > len(points_before)
    # Signature and anchor stay at their founding values.
    assert s.attitude_signature == sig_before
    assert s.anchor == Pose2.identity()


def test_update_atlas_new_submap_beyond_radius():
    atlas = Atlas()
    update_atlas(atlas, _cloud(seed=1), Pose2.identity(), _level(), None)
    first = atlas.submaps[0].points
    update_atlas(
        atlas, _cloud(seed=2), Pose2(25.0, 0.0, 0.0), _level(), atlas.submaps[0]
    )
    assert len(atlas) == 2
    assert atlas.submaps[0].points is first
    assert atlas.submaps[1].submap_id == 1
    assert atlas.submaps[1].anchor.x == pytest.approx(25.0)


def test_update_atlas_new_submap_on_tilt_change():
    atlas = Atlas()
    update_atlas(atlas, _cloud(seed=1), Pose2.identity(), _level(), None)
    q_tilted = UnitQuat.from_rpy(0.0, math.radians(5.0), 0.0)
    update_atlas(
        atlas, _cloud(seed=2), Pose2(2.0, 0.0, 0.0), q_tilted, atlas.submaps[0]
    )
    assert len(atlas) == 2
    assert atlas.submaps[1].attitude_signature[1] == pytest.approx(math.radians(5.0))


def test_update_atlas_exactly_one_outcome():
    rng = np.random.default_rng(63)
    atlas = Atlas()
    matched = None
    for step in range(40):
        pose = Pose2(float(rng.uniform(-40, 40)), float(rng.uniform(-40, 40)), 0.0)
        q = UnitQuat.from_rpy(
            float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1)), 0.0
        )
        count_before = len(atlas)
        points_before = {s.submap_id: s.points for s in atlas.submaps}
        update_atlas(atlas, _cloud(seed=step), pose, q, matched)
        grew = len(atlas) == count_before + 1
        bumped = [
            s.submap_id
            for s in atlas.submaps
            if s.submap_id in points_before and s.points is not points_before[s.submap_id]
        ]
        assert grew != (len(bumped) == 1)  # exactly one of the two outcomes
        ids = [s.submap_id for s in atlas.submaps]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        found = find_submap(atlas, pose, q)
        matched = found[0] if found else None


def test_update_atlas_merge_never_grows_point_count():
    atlas = Atlas()
    a = _cloud(n=200, seed=8)
    update_atlas(atlas, a, Pose2.identity(), _level(), None)
    first = len(atlas.submaps[0].points)
    b = _cloud(n=300, seed=9)
    update_atlas(atlas, b, Pose2(1.0, 0.0, 0.0), _level(), atlas.submaps[0])
    assert len(atlas.submaps[0].points) <= first + len(b)


def test_update_atlas_rejects_empty_cloud():
    with pytest.raises(ValueError):
        update_atlas(Atlas(), np.empty((0, 3)), Pose2.identity(), _level(), None)


@st.composite
def _merge_cases(draw):
    """A level submap at the origin and a scan that merges into it: points
    on quarter-metre steps (so many share a voxel) with a few far outliers,
    a pose inside r_submap and a tilt inside theta_tilt."""
    coord = st.integers(-24, 24).map(lambda i: i * 0.25)
    far = st.floats(-1e12, 1e12)
    submap, scan = (
        draw(arrays(np.float64, (n, 3), elements=coord, fill=far))
        for n in (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    )
    pose = Pose2(
        draw(st.floats(-10.0, 10.0)),
        draw(st.floats(-10.0, 10.0)),
        draw(st.floats(-math.pi, math.pi)),
    )
    tilt = st.floats(-math.radians(2.0), math.radians(2.0))
    q_now = UnitQuat.from_rpy(draw(tilt), draw(tilt), pose.yaw)
    edge = draw(st.floats(0.1, 3.0))
    return submap, scan, pose, q_now, edge


@settings(max_examples=200, deadline=None)
@given(_merge_cases())
def test_update_atlas_merge_is_the_unweighted_centroid(case):
    submap_points, scan, pose, q_now, edge = case
    atlas = Atlas(Params(d_voxel=edge), [Submap(0, Pose2(), (0.0, 0.0), submap_points)])
    update_atlas(atlas, scan, pose, q_now, atlas.submaps[0])
    assert len(atlas) == 1
    # Oracle: group the stacked points by np.unique over their cells and
    # take each voxel's plain mean, bincount(x) / counts.
    stacked = np.vstack([submap_points, lift_to_world(scan, pose, q_now)])
    cells = np.floor(stacked / edge).astype(np.int64)
    _, inverse, counts = np.unique(
        cells, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.reshape(-1)
    expect = np.column_stack(
        [np.bincount(inverse, weights=stacked[:, i]) for i in range(3)]
    ) / counts[:, None]
    got = atlas.submaps[0].points
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()
