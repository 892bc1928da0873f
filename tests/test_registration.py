"""Tests for voxel compaction, the NN index, and planar point-to-point ICP."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tiltro.errors import EmptyReference, NoCorrespondences
from tiltro.geometry import Pose2
from tiltro.params import Params
from tiltro.registration import (
    build_nn_index,
    icp_point_to_point,
    voxel_downsample,
)

from helpers import reference_icp, unique_voxel_downsample


EMPTY = np.empty((0, 3))


def _points(xyz):
    return np.asarray(xyz, dtype=float).reshape(-1, 3)


def _compact(xyz, edge=1.0):
    return voxel_downsample(_points(xyz), edge)


def _icp(source, reference, prior, params=Params()):
    """ICP of source points against reference points."""
    return icp_point_to_point(source, build_nn_index(reference), prior, params)


def _random_planar(rng, n, extent=50.0):
    xyz = rng.uniform(-extent, extent, size=(n, 3))
    xyz[:, 2] = 0.0
    return xyz


def _transformed(xyz, pose):
    out = xyz.copy()
    out[:, :2] = pose.transform_xy(xyz[:, :2])
    return out


def test_voxel_downsample_examples():
    one = _points([[0.3, 0.7, 0.0]])
    out = _compact(one)
    np.testing.assert_allclose(out, one)

    out = _compact([[0.2, 0.2, 0.0], [0.6, 0.6, 0.0]])
    assert len(out) == 1
    np.testing.assert_allclose(out[0], [0.4, 0.4, 0.0])

    out = _compact([[0.9, 0.0, 0.0], [1.1, 0.0, 0.0]])
    assert len(out) == 2


def test_voxel_downsample_mass_and_size():
    rng = np.random.default_rng(51)
    xyz = _random_planar(rng, 800)
    out = _compact(xyz)
    cells = np.unique(np.floor(xyz).astype(np.int64), axis=0)
    assert len(out) == len(cells) < len(xyz)
    # Each centroid stays in its voxel, and the voxels come out sorted.
    np.testing.assert_array_equal(np.floor(out).astype(np.int64), cells)


def test_voxel_downsample_idempotent_for_interior_centroids():
    # Tight clusters near cell centers keep their centroids interior, so a
    # second pass maps every output point to the same cell.
    rng = np.random.default_rng(52)
    centers = np.unique(rng.integers(-20, 20, size=(100, 3)), axis=0).astype(float) + 0.5
    centers[:, 2] = 0.5
    pts = np.repeat(centers, 3, axis=0) + rng.normal(0.0, 0.05, (centers.shape[0] * 3, 3))
    once = _compact(pts)
    twice = _compact(once)
    assert len(twice) == len(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_voxel_downsample_empty_and_validation():
    assert _compact(EMPTY).shape == (0, 3)
    with pytest.raises(ValueError):
        _compact(EMPTY, 0.0)


@st.composite
def _voxel_cases(draw):
    """Clouds with negative coordinates, many points per cell, and a few far
    outliers."""
    n = draw(st.integers(1, 60))
    # Quarter-metre steps put points on cell faces and many in one cell.
    coord = st.integers(-24, 24).map(lambda i: i * 0.25)
    far = st.floats(-1e15, 1e15)
    xyz = draw(arrays(np.float64, (n, 3), elements=coord, fill=far))
    edge = draw(st.floats(0.1, 3.0))
    return xyz, edge


@settings(max_examples=300, deadline=None)
@given(_voxel_cases())
def test_build_voxel_index_matches_unique_reference(case):
    got = voxel_downsample(*case)
    expect = unique_voxel_downsample(*case)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_nn_index_examples():
    index = build_nn_index(_points([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
    dist, idx = index.query(np.array([[1.0, 0.0, 0.0]]), 1)
    assert idx[0, 0] == 1
    assert dist[0, 0] == 0.0
    dist, idx = index.query(np.array([[1.9, 0.0, 0.0]]), 2)
    assert idx[0].tolist() == [1, 2]
    np.testing.assert_allclose(dist[0], [0.9, 1.1])
    dist, idx = index.query(np.array([[0.2, 0.0, 0.0]]), 10)
    assert dist.shape == (1, 3)
    assert np.all(np.diff(dist[0]) >= 0)


def test_nn_index_matches_brute_force():
    rng = np.random.default_rng(53)
    for n in (5, 200, 2000):
        pts = rng.uniform(-100.0, 100.0, size=(n, 3))
        index = build_nn_index(pts)
        queries = rng.uniform(-110.0, 110.0, size=(50, 3))
        k = min(4, n)
        dist, idx = index.query(queries, k)
        full = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
        expect = np.argsort(full, axis=1)[:, :k]
        expect_dist = np.take_along_axis(full, expect, axis=1)
        np.testing.assert_array_equal(idx, expect)
        np.testing.assert_allclose(dist, expect_dist, atol=1e-9)
        # A bounded search keeps the neighbours inside the bound, in the
        # same order, and fills the other slots with inf and index n.
        bound = float(np.median(expect_dist))
        b_dist, b_idx = index.query(queries, k, bound)
        inside = expect_dist < bound
        assert 0 < inside.sum() < inside.size
        np.testing.assert_array_equal(b_idx, np.where(inside, expect, n))
        np.testing.assert_array_equal(b_dist[inside], dist[inside])
        assert np.all(np.isinf(b_dist[~inside]))


def test_nn_index_empty_reference():
    with pytest.raises(EmptyReference):
        build_nn_index(EMPTY)


def test_icp_identity_fixed_point():
    # With bijective matching (k_nn = 1) a self-registration is an exact
    # fixed point.  Multi-neighbor configs pull every point toward its
    # local neighborhood centroid, so only k = 1 admits this sharp form.
    rng = np.random.default_rng(54)
    ref = _random_planar(rng, 150)
    result = _icp(ref, ref, Pose2.identity(), Params(k_nn=1))
    assert result.iterations == 1
    assert math.hypot(result.delta.x, result.delta.y) < 1e-6
    assert abs(result.delta.yaw) < 1e-6
    assert result.matched_fraction == 1.0


def test_icp_recovers_known_transform():
    rng = np.random.default_rng(55)
    ref = _random_planar(rng, 200)
    move = Pose2(0.8, -0.5, math.radians(4.0))
    src = _transformed(ref, move)
    result = _icp(src, ref, Pose2.identity(), Params(k_nn=1))
    inv = move.inverse()
    assert result.delta.x == pytest.approx(inv.x, abs=0.02)
    assert result.delta.y == pytest.approx(inv.y, abs=0.02)
    assert abs(result.delta.yaw - inv.yaw) < math.radians(0.1)


def test_icp_default_config_bias_stays_small():
    # The default 4-neighbor averaging is biased on sparse uniform clouds
    # (each pair set is a neighborhood centroid, not the true partner).
    # Pin the scale of that bias on a fixed cloud so it cannot regress.
    rng = np.random.default_rng(55)
    ref = _random_planar(rng, 200)
    move = Pose2(0.8, -0.5, math.radians(4.0))
    src = _transformed(ref, move)
    result = _icp(src, ref, Pose2.identity())
    inv = move.inverse()
    assert math.hypot(result.delta.x - inv.x, result.delta.y - inv.y) < 0.05
    assert abs(result.delta.yaw - inv.yaw) < math.radians(0.2)


def _cost_under(pose, source, reference, cfg):
    """Mean squared planar residual of the k-NN pairing at a pose."""
    index = build_nn_index(reference)
    moved = source.copy()
    moved[:, :2] = pose.transform_xy(moved[:, :2])
    kk = min(cfg.k_nn, len(reference))
    dist, idx = index.query(moved, kk)
    valid = dist <= cfg.max_correspondence_distance
    rows = np.repeat(np.arange(len(source)), kk)[valid.ravel()]
    ref_pts = index.points[idx.ravel()[valid.ravel()]]
    pair_w = np.ones(rows.size) / kk
    residual_sq = np.sum((moved[rows, :2] - ref_pts[:, :2]) ** 2, axis=1)
    return float((pair_w * residual_sq).sum() / pair_w.sum())


def test_icp_cost_not_above_prior_cost():
    rng = np.random.default_rng(56)
    cfg = Params()
    for _ in range(10):
        ref = _random_planar(rng, 300)
        move = Pose2(
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-math.radians(5), math.radians(5)),
        )
        src = _transformed(ref, move)
        src[:, :2] += rng.normal(0.0, 0.05, (len(src), 2))
        result = _icp(src, ref, Pose2.identity(), cfg)
        initial = _cost_under(Pose2.identity(), src, ref, cfg)
        assert result.final_cost <= initial + 1e-9


def test_icp_conjugation_equivariance():
    rng = np.random.default_rng(57)
    ref = _random_planar(rng, 200)
    move = Pose2(0.8, -0.5, math.radians(4.0))
    src = _transformed(ref, move)
    base = _icp(src, ref, Pose2.identity()).delta

    conj = Pose2(12.0, -7.0, 1.1)
    src_c = _transformed(src, conj)
    ref_c = _transformed(ref, conj)
    prior_c = conj.compose(Pose2.identity()).compose(conj.inverse())
    moved = _icp(src_c, ref_c, prior_c).delta
    expect = conj.compose(base).compose(conj.inverse())
    assert moved.x == pytest.approx(expect.x, abs=1e-5)
    assert moved.y == pytest.approx(expect.y, abs=1e-5)
    assert moved.yaw == pytest.approx(expect.yaw, abs=1e-5)


def test_icp_degenerate_yaw_holds_prior():
    src = _points([[0.0, 0.0, 0.0]])
    ref = _points([[1.0, 0.0, 0.0]])
    prior = Pose2(0.0, 0.0, 0.3)
    result = _icp(src, ref, prior)
    # Single correspondence cannot observe rotation: the correction is a
    # pure translation and the composed estimate keeps the prior's yaw.
    assert result.delta.yaw == pytest.approx(0.0, abs=1e-12)
    estimate = result.delta.compose(prior)
    assert estimate.yaw == pytest.approx(prior.yaw, abs=1e-12)
    np.testing.assert_allclose(
        estimate.transform_xy(src[:1, :2]), ref[:1, :2], atol=1e-2
    )


def test_icp_disjoint_clouds_raise():
    rng = np.random.default_rng(58)
    ref = _random_planar(rng, 100)
    far = ref + np.array([500.0, 0.0, 0.0])
    with pytest.raises(NoCorrespondences):
        _icp(far, ref, Pose2.identity())


def test_icp_empty_inputs_raise():
    rng = np.random.default_rng(59)
    ref = _random_planar(rng, 50)
    with pytest.raises(EmptyReference):
        _icp(ref, EMPTY, Pose2.identity())
    with pytest.raises(NoCorrespondences):
        _icp(EMPTY, ref, Pose2.identity())



def test_icp_config_validation():
    with pytest.raises(ValueError):
        Params(k_nn=0)
    with pytest.raises(ValueError):
        Params(max_iterations=0)
    with pytest.raises(ValueError):
        Params(translation_epsilon=0.0)
    with pytest.raises(ValueError):
        Params(max_correspondence_distance=-1.0)


@st.composite
def _icp_cases(draw):
    """Seeded clouds on a 2**-20 m lattice, where coordinate sums and
    differences are exact: source points placed max_correspondence_distance
    from a reference point along one axis lie exactly on the bound, and
    duplicated reference rows tie exactly.  Distinct reference points at
    exactly equal distances are left out (random 23-bit coordinates make
    them vanishingly rare): under a search bound the tree may return those
    in another order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = 2.0**-20
    n_ref = draw(st.integers(1, 40))
    ref = rng.integers(-4 * 2**20, 4 * 2**20, size=(n_ref, 3)) * unit
    ref = np.vstack([ref, ref[rng.integers(0, n_ref, draw(st.integers(0, 6)))]])
    max_dist = draw(st.sampled_from([0.5, 1.0, 2.25]))
    n_src = draw(st.integers(1, 40))
    near = rng.integers(0, len(ref), n_src)
    src = ref[near] + rng.integers(-2**20, 2**20, size=(n_src, 3)) * unit
    on_bound = rng.random(n_src) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    src[on_bound] = ref[near[on_bound]]
    axis = rng.integers(0, 3, on_bound.sum())
    src[np.flatnonzero(on_bound), axis] += rng.choice([-max_dist, max_dist], axis.size)
    prior = Pose2(
        draw(st.sampled_from([0.0, 0.3])), 0.0, draw(st.sampled_from([0.0, 0.01, -0.2]))
    )
    params = Params(
        k_nn=draw(st.sampled_from([1, 2, 4])),
        max_correspondence_distance=max_dist,
        max_iterations=draw(st.integers(1, 6)),
    )
    return src, build_nn_index(ref), prior, params


def _outcome(icp, case):
    try:
        return icp(*case)
    except NoCorrespondences as err:
        return str(err)


@settings(max_examples=400, deadline=None)
@given(_icp_cases())
def test_icp_matches_reference_loop_bit_for_bit(case):
    got = _outcome(icp_point_to_point, case)
    want = _outcome(reference_icp, case)
    if isinstance(want, str):
        assert got == want
        return
    assert (got.delta.x, got.delta.y, got.delta.yaw) == (
        want.delta.x, want.delta.y, want.delta.yaw
    )
    assert got.iterations == want.iterations
    assert got.final_cost == want.final_cost
    assert got.matched_fraction == want.matched_fraction

