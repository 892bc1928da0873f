"""End-to-end tests for the per-scan odometry state machine."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltro.attitude import AttitudeTrack, ImuStream, estimate_bias, run_filter
from tiltro.frontend import MAX_SCAN_SPAN_NS, PolarScan, k_strongest
from tiltro.geometry import Pose2, UnitQuat
from tiltro.io import states_to_arrays
from tiltro.params import Params
from tiltro.pipeline import (
    MAX_PLAUSIBLE_SPEED,
    OdomState,
    ScanDiagnostics,
    initial_state,
    predict,
    process_scan,
    run_odometry,
)
from tiltro.registration import NnIndex
from tiltro.sim import (
    PathSegment,
    Pole,
    Scenario,
    generate_ground_truth,
    render_scan,
    simulate,
    tilt_step_course,
)
from tiltro.submaps import Atlas, update_atlas

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


def test_sweep_past_the_track_end_is_an_attitude_miss():
    # The track ends 100 ms into scan 20's sweep: predict's query at the
    # scan start is inside the track, deskew's later azimuths are not.
    sc = tilt_step_course(1)
    gt = generate_ground_truth(sc)
    period = sc.radar.period_ns
    scans = [render_scan(sc, gt, gt.t_start + i * period) for i in range(21)]
    t20 = scans[20].t_start
    keep = gt.t <= t20 + 100_000_000
    track = AttitudeTrack(gt.t[keep], gt.quats[keep])

    states, diags = run_odometry(scans, track)
    assert diags[19].hit
    diag = diags[20]
    assert diag.reason.startswith("attitude-unavailable: ")
    assert "outside track span" in diag.reason
    assert not diag.hit and diag.raw_points > 0
    prior, q20 = predict(states[19], t20, track)
    assert states[20] == OdomState(prior, (0.0, 0.0), q20, t20)
    assert diag.atlas_size == diags[19].atlas_size

    atlas = Atlas()
    state = initial_state(track, scans[0].t_start)
    for i, scan in enumerate(scans[:20]):
        state, atlas, _ = process_scan(state, scan, track, atlas, scan_index=i)
    before = [(s.submap_id, s.anchor, s.points.copy()) for s in atlas.submaps]
    _, atlas, _ = process_scan(state, scans[20], track, atlas, scan_index=20)
    after = [(s.submap_id, s.anchor, s.points) for s in atlas.submaps]
    assert len(after) == len(before)
    for (id0, anchor0, pts0), (id1, anchor1, pts1) in zip(before, after):
        assert (id0, anchor0) == (id1, anchor1)
        assert pts0.tobytes() == pts1.tobytes()


@pytest.mark.parametrize("offset_ns", [0, 1_000_000], ids=["at", "after"])
def test_scan_not_after_the_state_is_a_no_time_baseline_miss(
    straight_sim, perfect_track, offset_ns
):
    # Without elapsed time there is no velocity to check ICP against, so a
    # matched scan skips registration and seeds a fresh submap.
    scan = straight_sim.scans[5]
    atlas = Atlas()
    state = initial_state(perfect_track, scan.t_start)
    state, atlas, first = process_scan(state, scan, perfect_track, atlas)
    assert first.reason == "no-submap" and len(atlas) == 1
    state = replace(state, velocity=(1.0, 0.5), t=scan.t_start + offset_ns)

    published, atlas, diag = process_scan(
        state, scan, perfect_track, atlas, scan_index=5
    )
    assert diag.reason == "no-time-baseline"
    assert not diag.hit and diag.submap_id == 0
    assert diag.raw_points == diag.filtered_points > diag.downsampled_points > 0
    assert diag.icp_iterations == 0 and math.isnan(diag.icp_cost)
    assert published == OdomState(
        state.pose, (0.0, 0.0), perfect_track.attitude_at(scan.t_start), scan.t_start
    )
    assert len(atlas) == diag.atlas_size == 2


def test_implausible_icp_speed_is_a_divergence_miss(straight_sim, perfect_track):
    # A state 5 us before the scan turns any ICP correction into a speed
    # far above MAX_PLAUSIBLE_SPEED.
    scans = straight_sim.scans[:13]
    atlas = Atlas()
    state = initial_state(perfect_track, scans[0].t_start)
    for i, scan in enumerate(scans[:12]):
        state, atlas, _ = process_scan(state, scan, perfect_track, atlas, scan_index=i)
    state = replace(state, t=scans[12].t_start - 5_000)
    size = len(atlas)

    published, atlas, diag = process_scan(
        state, scans[12], perfect_track, atlas, scan_index=12
    )
    assert diag.reason == "divergence" and not diag.hit
    assert diag.icp_iterations > 0
    assert math.isfinite(diag.icp_cost) and diag.matched_fraction > 0.0
    prior, attitude = predict(state, scans[12].t_start, perfect_track)
    assert published == OdomState(prior, (0.0, 0.0), attitude, scans[12].t_start)
    assert len(atlas) == diag.atlas_size == size + 1


def test_gate_rejecting_every_point_prefixes_the_outcome():
    # d_max = 0 keeps only points with no vertical displacement at all.
    # With tilt search off, the first scan after the 8 deg step still
    # matches the level submap, the gate acts and rejects everything, and
    # the scan registers ungated.
    sc = tilt_step_course(1)
    gt = generate_ground_truth(sc)
    period = sc.radar.period_ns
    scans = [render_scan(sc, gt, gt.t_start + i * period) for i in range(94, 102)]
    track = AttitudeTrack(gt.t, gt.quats)

    _, diags = run_odometry(
        scans, track, Params(d_max=0.0), tilt_search_enabled=False
    )
    diag = diags[-1]
    assert diag.tilt_deg >= 3.0
    assert diag.reason.startswith("gate-rejected-all;")
    assert diag.filtered_points == diag.raw_points > 0
    assert all(not d.reason.startswith("gate-rejected-all;") for d in diags[:-1])


@st.composite
def _scan_cases(draw):
    """A random finite scan and roll/pitch track, a state whose time lies
    before, at or after the scan's start, and an atlas that is empty,
    holds random points, or holds the scan's own returns at the state's
    pose, so that every outcome from a hit to a miss is drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tilt = draw(st.sampled_from([0.0, 0.02, 0.3]))
    n_a = draw(st.integers(1, 32))
    n_r = int(rng.integers(1, 257))
    t_state = 10**12
    t_scan = t_state + draw(st.sampled_from([-100_000_000, 0, 1, 250_000_000]))
    step = 2.0 * math.pi / n_a
    azimuths = np.arange(n_a) * step + rng.uniform(0.0, step)
    times = t_scan + np.sort(rng.integers(0, MAX_SCAN_SPAN_NS + 1, n_a))
    fill = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    intensity = rng.integers(0, 256, (n_a, n_r)) * (rng.random((n_a, n_r)) < fill)
    scan = PolarScan(
        azimuths,
        times,
        intensity.astype(np.uint8),
        draw(st.sampled_from([0.4, 1.0])),
    )
    # Usually the track covers the state and the whole sweep; a short one
    # ends inside it.
    span = draw(st.sampled_from([300_000_000, 1_200_000_000, 1_200_000_000]))
    inner = rng.integers(1, span, draw(st.integers(0, 10)))
    track_t = t_state - 200_000_000 + np.unique(np.concatenate([[0, span], inner]))
    rpy = rng.uniform(-1.0, 1.0, (len(track_t), 3)) * [tilt, tilt, 3.0]
    track = AttitudeTrack(track_t, [as_array(UnitQuat.from_rpy(*a)) for a in rpy])
    state = OdomState(
        Pose2(*rng.uniform(-30.0, 30.0, 2), rng.uniform(-math.pi, math.pi)),
        tuple(rng.uniform(-5.0, 5.0, 2)),
        track.attitude_at(t_state),
        t_state,
    )
    atlas = Atlas()
    seed = draw(st.sampled_from(["empty", "random", "own-returns"]))
    params = atlas.params
    if seed == "random":
        points = rng.uniform(-40.0, 40.0, (int(rng.integers(1, 200)), 3))
        points[:, 2] *= 0.05
        update_atlas(atlas, points, state.pose, state.attitude, None)
    elif seed == "own-returns":
        raw = k_strongest(scan, params.k, params.r_min, params.r_max, params.tau_raw)
        if len(raw):
            update_atlas(atlas, raw.xyz, state.pose, state.attitude, None)
    switches = {
        "tilt_gate_enabled": draw(st.booleans()),
        "tilt_search_enabled": draw(st.booleans()),
    }
    return state, scan, track, atlas, switches


@settings(max_examples=200, deadline=None)
@given(_scan_cases())
def test_process_scan_never_raises_or_publishes_non_finite_state(case):
    state, scan, track, atlas, switches = case
    published, atlas, diag = process_scan(state, scan, track, atlas, **switches)
    assert published.t == diag.t == scan.t_start
    pose = published.pose
    assert np.isfinite([pose.x, pose.y, pose.yaw, *published.velocity]).all()
    assert np.isfinite(as_array(published.attitude)).all()
    assert math.hypot(*published.velocity) < MAX_PLAUSIBLE_SPEED
    if not diag.hit:
        assert published.velocity == (0.0, 0.0)
    assert diag.atlas_size == len(atlas)


def test_states_with_bit_equal_fields_are_equal_and_hash_equal(perfect_track):
    t = perfect_track.t_start + 5
    a = OdomState(Pose2(1.0, -2.0, 0.5), (0.25, 0.0), perfect_track.attitude_at(t), t)
    b = OdomState(Pose2(1.0, -2.0, 0.5), (0.25, 0.0), perfect_track.attitude_at(t), t)
    assert a.attitude is not b.attitude
    assert a == b and hash(a) == hash(b)
    q = a.attitude
    assert replace(a, attitude=UnitQuat(q.w, q.x, q.y, math.nextafter(q.z, 1.0))) != a
    assert len({a, b}) == 1


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
        ({"d_max": -1.0}, "d_max"),
        ({"k_nn": 0}, "k_nn"),
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
    assert len(floats) == 12
    for name in floats:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                Params(**{name: value})
    # The gate's threshold and the tilt bound may be zero.
    Params(d_max=0.0, theta_tilt=0.0, beta=0.0, r_min=0.0)


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


def _shifted(scan: PolarScan, offset: int) -> PolarScan:
    return PolarScan(
        scan.azimuths, scan.azimuth_timestamps + offset, scan.intensity,
        scan.range_resolution,
    )


@pytest.fixture(scope="module")
def short_course(straight_sim):
    """The first 30 scans of the straight course, its IMU, and the states
    run_odometry gives for them at the original time origin."""
    scans = straight_sim.scans[:30]
    imu = straight_sim.imu
    states, _ = run_odometry(scans, run_filter(imu, estimate_bias(imu)))
    return scans, imu, states


def _offsets(short_course):
    scans, imu, _ = short_course
    lo = min(int(imu.t[0]), min(s.t_start for s in scans))
    hi = max(int(imu.t[-1]), max(int(s.azimuth_timestamps.max()) for s in scans))
    return st.integers(-(2**63) - lo, 2**63 - 1 - hi)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_run_odometry_is_independent_of_the_time_origin(short_course, data):
    scans, imu, want = short_course
    offset = data.draw(_offsets(short_course), label="offset")
    imu_s = ImuStream(imu.t + offset, imu.omega, imu.accel)
    got, _ = run_odometry(
        [_shifted(s, offset) for s in scans], run_filter(imu_s, estimate_bias(imu_s))
    )
    got_t, *got_pose = states_to_arrays(got)
    want_t, *want_pose = states_to_arrays(want)
    assert got_t.tolist() == [t + offset for t in want_t.tolist()]
    assert [c.tobytes() for c in got_pose] == [c.tobytes() for c in want_pose]
