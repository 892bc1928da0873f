"""End-to-end tests for the per-scan odometry state machine."""

import math
from dataclasses import fields

import numpy as np
import pytest

from tiltro.attitude import AttitudeTrack
from tiltro.frontend import PolarScan
from tiltro.geometry import Pose2, UnitQuat
from tiltro.params import Params
from tiltro.pipeline import (
    ScanDiagnostics,
    initial_state,
    predict,
    process_scan,
    run_odometry,
)
from tiltro.registration import NnIndex
from tiltro.sim import PathSegment, Pole, Scenario, simulate
from tiltro.submaps import Atlas

from helpers import approx_eq, as_array


def _straight_scenario():
    rng = np.random.default_rng(71)
    poles = tuple(
        Pole(float(x), float(y), 0.0, float(h), float(r))
        for x, y, h, r in zip(
            rng.uniform(-20.0, 70.0, 60),
            rng.uniform(-35.0, 35.0, 60),
            rng.uniform(2.0, 6.0, 60),
            rng.uniform(150.0, 255.0, 60),
        )
    )
    segments = (
        PathSegment("dwell", duration=2.0),
        PathSegment("straight", speed=2.0, length=40.0),
    )
    return Scenario(seed=7, segments=segments, poles=poles)


@pytest.fixture(scope="module")
def straight_sim():
    return simulate(_straight_scenario())


@pytest.fixture(scope="module")
def perfect_track(straight_sim):
    return AttitudeTrack(straight_sim.gt_t, straight_sim.gt_quats)


@pytest.fixture(scope="module")
def straight_run(straight_sim, perfect_track):
    return run_odometry(straight_sim.scans, perfect_track)


def test_one_state_and_diag_per_scan(straight_sim, straight_run):
    states, diags = straight_run
    assert len(states) == len(straight_sim.scans)
    assert len(diags) == len(straight_sim.scans)
    for i, (scan, state, diag) in enumerate(zip(straight_sim.scans, states, diags)):
        assert state.t == scan.t_start  # published stamp = earliest azimuth
        assert diag.t == scan.t_start
        assert diag.scan_index == i
    t = [s.t for s in states]
    assert all(b > a for a, b in zip(t, t[1:]))


def test_cold_start_seeds_first_submap(straight_run):
    states, diags = straight_run
    assert not diags[0].hit
    assert "no-submap" in diags[0].reason
    assert diags[0].atlas_size == 1
    assert states[0].velocity == (0.0, 0.0)
    assert states[0].pose.x == 0.0 and states[0].pose.y == 0.0


def test_steady_state_hits_and_endpoint(straight_sim, straight_run):
    states, diags = straight_run
    hits = [d.hit for d in diags[1:]]
    assert sum(hits) / len(hits) > 0.9
    gt_end, _ = straight_sim.truth.sample(np.array([states[-1].t], dtype=np.int64))
    err = math.hypot(states[-1].pose.x - gt_end[0, 0], states[-1].pose.y - gt_end[0, 1])
    assert err < 2.5
    assert all(np.isfinite([s.pose.x, s.pose.y, s.pose.yaw]).all() for s in states)


def test_velocity_equals_pose_delta_on_hits(straight_run):
    states, diags = straight_run
    for i in range(1, len(states)):
        if not diags[i].hit:
            continue
        dt = (states[i].t - states[i - 1].t) * 1e-9
        vx = (states[i].pose.x - states[i - 1].pose.x) / dt
        vy = (states[i].pose.y - states[i - 1].pose.y) / dt
        assert states[i].velocity[0] == pytest.approx(vx, abs=1e-9)
        assert states[i].velocity[1] == pytest.approx(vy, abs=1e-9)


def test_run_is_deterministic(straight_sim, perfect_track, straight_run):
    states_a, diags_a = straight_run
    states_b, diags_b = run_odometry(straight_sim.scans, perfect_track)
    for a, b in zip(states_a, states_b):
        assert (a.pose.x, a.pose.y, a.pose.yaw) == (b.pose.x, b.pose.y, b.pose.yaw)
        assert a.velocity == b.velocity
    for da, db in zip(diags_a, diags_b):
        assert da.to_csv_row() == db.to_csv_row()


def test_gate_passes_through_when_level(straight_run):
    # Flat course: every matched scan sits well under the activation
    # threshold, so the gate must not remove anything.
    states, diags = straight_run
    checked = 0
    for d in diags:
        if d.hit and d.tilt_deg < 3.0 and d.raw_points > 0:
            assert d.filtered_points == d.raw_points
            checked += 1
    assert checked > 20


def test_diagnostics_rows_match_header(straight_run):
    _, diags = straight_run
    n_cols = len(ScanDiagnostics.CSV_HEADER.split(","))
    for d in diags:
        assert len(d.to_csv_row().split(",")) == n_cols


def test_ablation_flags_run_clean(straight_sim, perfect_track):
    scans = straight_sim.scans[:30]
    for kwargs in (
        {"tilt_gate_enabled": False},
        {"tilt_search_enabled": False},
        {"tilt_gate_enabled": False, "tilt_search_enabled": False},
    ):
        states, diags = run_odometry(scans, perfect_track, **kwargs)
        assert len(states) == len(scans)
        assert all(math.isfinite(s.pose.x) for s in states)
        if not kwargs.get("tilt_gate_enabled", True):
            for d in diags:
                if d.raw_points:
                    assert d.filtered_points == d.raw_points


def test_empty_scan_takes_miss_path(straight_sim, perfect_track):
    scans = list(straight_sim.scans[:12])
    src = scans[6]
    scans[6] = PolarScan(
        src.azimuths,
        src.azimuth_timestamps,
        np.zeros_like(src.intensity),
        src.range_resolution,
    )
    states, diags = run_odometry(scans, perfect_track)
    assert diags[6].reason == "empty-scan"
    assert not diags[6].hit
    assert diags[6].raw_points == 0
    assert states[6].velocity == (0.0, 0.0)
    # No cloud, so the atlas is left exactly as it was.
    assert diags[6].atlas_size == diags[5].atlas_size
    # The run keeps going afterwards.
    assert any(d.hit for d in diags[7:])


def test_distant_atlas_forces_miss_with_velocity_reset(straight_sim, perfect_track):
    scan = straight_sim.scans[10]
    prev_t = straight_sim.scans[9].t_start
    state = initial_state(perfect_track, prev_t)
    state = type(state)(
        pose=Pose2(1.0, 2.0, 0.0),
        velocity=(1.2, 0.1),
        attitude=state.attitude,
        t=prev_t,
    )
    atlas = Atlas()
    # Seed a submap far outside r_submap so the search must miss.
    from tiltro.submaps import update_atlas

    rng = np.random.default_rng(72)
    far = rng.uniform(-10.0, 10.0, size=(30, 3))
    far[:, 2] = 0.0
    update_atlas(atlas, far, Pose2(500.0, 0.0, 0.0), UnitQuat.identity(), None)

    new_state, atlas, diag = process_scan(
        state, scan, perfect_track, atlas, scan_index=10
    )
    dt = (scan.t_start - prev_t) * 1e-9
    assert not diag.hit
    assert "no-submap" in diag.reason
    assert new_state.velocity == (0.0, 0.0)
    # Pose publishes the constant-velocity prior, not a zeroed pose.
    assert new_state.pose.x == pytest.approx(1.0 + 1.2 * dt, abs=1e-12)
    assert new_state.pose.y == pytest.approx(2.0 + 0.1 * dt, abs=1e-12)
    # Attitude comes straight from the track.
    assert approx_eq(
        new_state.attitude, perfect_track.attitude_at(scan.t_start), tol=1e-9
    )
    assert len(atlas) == 2  # the scan seeded a fresh submap


def test_predict_is_constant_velocity_plus_imu_yaw(perfect_track):
    t0 = perfect_track.t_start
    state = initial_state(perfect_track, t0)
    state = type(state)(
        pose=Pose2(3.0, -1.0, 0.2),
        velocity=(2.0, 0.5),
        attitude=state.attitude,
        t=t0,
    )
    t1 = t0 + 250_000_000
    pose, attitude = predict(state, t1, perfect_track)
    # The attitude at the target comes from the same batched query.
    np.testing.assert_array_equal(
        as_array(attitude), as_array(perfect_track.attitude_at(t1))
    )
    assert pose.x == pytest.approx(3.0 + 2.0 * 0.25)
    assert pose.y == pytest.approx(-1.0 + 0.5 * 0.25)
    # Straight dwell segment: IMU yaw is constant, so yaw carries over.
    assert pose.yaw == pytest.approx(0.2, abs=1e-6)
    with pytest.raises(ValueError):
        predict(state, t0 - 1, perfect_track)


def test_initial_state_is_origin(perfect_track):
    t0 = perfect_track.t_start
    state = initial_state(perfect_track, t0)
    assert state.pose == Pose2.identity()
    assert state.velocity == (0.0, 0.0)
    assert state.t == t0


def test_params_validation():
    for kwargs, field in [
        ({"k": 0}, "k"),
        ({"r_min": 10.0, "r_max": 5.0}, "r_min"),
        ({"r_min": -1.0}, "r_min"),
        ({"d_voxel": 0.0}, "d_voxel"),
        ({"r_submap": 0.0}, "r_submap"),
        ({"tau_tilt": 1.5}, "tau_tilt"),
        ({"tau_tilt": 0.0}, "tau_tilt"),
        ({"k_nn": 0}, "k_nn"),
        ({"gamma": 0.0}, "gamma"),
        ({"theta_tilt": -1.0}, "theta_tilt"),
        ({"max_iterations": 0}, "max_iterations"),
        ({"translation_epsilon": 0.0}, "translation_epsilon"),
        ({"rotation_epsilon": 0.0}, "rotation_epsilon"),
        ({"max_correspondence_distance": -1.0}, "max_correspondence_distance"),
        ({"beta": -0.1}, "beta"),
        ({"static_window_s": 0.0}, "static_window_s"),
    ]:
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            Params(**kwargs)
    floats = [f.name for f in fields(Params) if f.type == "float"]
    assert len(floats) == 13
    for name in floats:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                Params(**{name: value})
    # The cutoff's range is (0, 1]; the tilt bound may be zero.
    Params(tau_tilt=1.0, theta_tilt=0.0, beta=0.0, r_min=0.0)


@pytest.fixture
def nn_query_ks(monkeypatch):
    """The k of every nearest-neighbour query made during the test."""
    ks = []
    query = NnIndex.query

    def spying(self, queries, k, *bound):
        ks.append(k)
        return query(self, queries, k, *bound)

    monkeypatch.setattr(NnIndex, "query", spying)
    return ks


def test_run_odometry_queries_neighbors_with_params_k_nn(
    straight_sim, perfect_track, nn_query_ks
):
    _, diags = run_odometry(
        straight_sim.scans[:12], perfect_track, Params(k_nn=1)
    )
    assert any(d.hit for d in diags)
    assert nn_query_ks and set(nn_query_ks) == {1}


def test_process_scan_reads_params_from_the_atlas(
    straight_sim, perfect_track, nn_query_ks
):
    # A direct caller sets the run parameters once, on the atlas.
    scans = straight_sim.scans[:12]
    state = initial_state(perfect_track, scans[0].t_start)
    atlas = Atlas(Params(k_nn=2))
    hits = []
    for i, scan in enumerate(scans):
        state, atlas, diag = process_scan(
            state, scan, perfect_track, atlas, scan_index=i
        )
        hits.append(diag.hit)
    assert any(hits)
    assert nn_query_ks and set(nn_query_ks) == {2}


def test_process_scan_queries_attitude_twice(
    straight_sim, perfect_track, monkeypatch
):
    calls = []
    query = AttitudeTrack.attitudes_at

    def counting(self, ts):
        calls.append(1)
        return query(self, ts)

    scans = straight_sim.scans[:12]
    state = initial_state(perfect_track, scans[0].t_start)
    atlas = Atlas()
    monkeypatch.setattr(AttitudeTrack, "attitudes_at", counting)
    per_scan = []
    for i, scan in enumerate(scans):
        calls.clear()
        state, atlas, _ = process_scan(
            state, scan, perfect_track, atlas, scan_index=i
        )
        per_scan.append(len(calls))
    # The first scan reads its attitude and deskews; every later one
    # predicts, which also gives its attitude, and deskews.
    assert per_scan == [2] * len(scans)
