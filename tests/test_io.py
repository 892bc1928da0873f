"""Tests for file formats: binary scans, CSV streams, config, datasets."""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tiltro.attitude import ImuStream
from tiltro.errors import (
    BadMagic,
    ConfigError,
    FormatError,
    MalformedRow,
    NonMonotonicTimestamp,
    TruncatedFile,
    UnsupportedVersion,
)
from tiltro.evaluation import RteReport
from tiltro.frontend import MAX_SCAN_SPAN_NS, PolarScan
from tiltro.io import (
    GROUND_TRUTH_CSV_HEADER,
    IMU_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    format_run_config,
    ground_truth_trajectory,
    load_dataset,
    parse_run_config,
    read_ground_truth_csv,
    read_imu_csv,
    read_polar_scan,
    read_rte_csv,
    read_trajectory_csv,
    write_dataset,
    write_ground_truth_csv,
    write_imu_csv,
    write_polar_scan,
    write_rte_csv,
    write_trajectory_csv,
)
from tiltro.params import Params

from helpers import SCAN_FILE_DAMAGE


def _scan(seed=0, n_az=5, n_bins=8, t0=1_000_000_000):
    rng = np.random.default_rng(seed)
    az = np.arange(n_az) * (2.0 * math.pi / n_az)
    t = t0 + np.arange(n_az, dtype=np.int64) * 625_000
    grid = rng.integers(0, 256, size=(n_az, n_bins), dtype=np.uint8)
    return PolarScan(az, t, grid, 0.1)


def _imu(n=5, t0=999_000_000):
    i = np.arange(n)[:, None]
    return ImuStream(
        t0 + np.arange(n, dtype=np.int64) * 5_000_000,
        np.array([0.1, -1.0 / 3.0, 2.5e-17]) * (i + 1),
        np.array([0.05, 9.81, -7.25]) + i,
    )


def test_scan_round_trip_is_byte_identical(tmp_path):
    scan = _scan()
    p1 = tmp_path / "a.frad"
    p2 = tmp_path / "b.frad"
    write_polar_scan(scan, p1)
    back = read_polar_scan(p1)
    np.testing.assert_array_equal(back.azimuths, scan.azimuths)
    np.testing.assert_array_equal(back.azimuth_timestamps, scan.azimuth_timestamps)
    np.testing.assert_array_equal(back.intensity, scan.intensity)
    assert back.range_resolution == scan.range_resolution
    write_polar_scan(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scan_header_layout(tmp_path):
    scan = _scan(n_az=3, n_bins=4)
    p = tmp_path / "s.frad"
    write_polar_scan(scan, p)
    data = p.read_bytes()
    magic, version, n_a, n_r, dr = struct.unpack_from("<4sHIId", data, 0)
    assert magic == b"FRAD"
    assert version == 1
    assert (n_a, n_r) == (3, 4)
    assert dr == 0.1
    # Header then n_a fixed-size records: 8 (t) + 8 (az) + n_r intensity bytes.
    assert len(data) == struct.calcsize("<4sHIId") + 3 * (8 + 8 + 4)


def test_scan_bad_magic(tmp_path):
    p = tmp_path / "s.frad"
    write_polar_scan(_scan(), p)
    data = bytearray(p.read_bytes())
    data[0:4] = b"XRAD"
    p.write_bytes(bytes(data))
    with pytest.raises(BadMagic, match="byte 0"):
        read_polar_scan(p)


def test_scan_unsupported_version(tmp_path):
    p = tmp_path / "s.frad"
    write_polar_scan(_scan(), p)
    data = bytearray(p.read_bytes())
    struct.pack_into("<H", data, 4, 2)
    p.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersion, match="version 2"):
        read_polar_scan(p)


def test_scan_truncations_report_offsets(tmp_path):
    p = tmp_path / "s.frad"
    write_polar_scan(_scan(), p)
    whole = p.read_bytes()
    p.write_bytes(whole[:-1])
    with pytest.raises(TruncatedFile, match=f"byte {len(whole) - 1}"):
        read_polar_scan(p)
    p.write_bytes(whole[:10])  # inside the header
    with pytest.raises(TruncatedFile, match="header"):
        read_polar_scan(p)


def test_scan_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "s.frad"
    write_polar_scan(_scan(), p)
    p.write_bytes(p.read_bytes() + b"\x00\x00\x00")
    with pytest.raises(FormatError, match="3 trailing bytes"):
        read_polar_scan(p)


def test_imu_csv_round_trip_exact(tmp_path):
    samples = _imu()
    p = tmp_path / "imu.csv"
    write_imu_csv(p, samples)
    assert p.read_text().splitlines()[0] == IMU_CSV_HEADER
    back = read_imu_csv(p)
    assert len(back) == len(samples)
    np.testing.assert_array_equal(back.t, samples.t)
    # repr round trip: equality must be exact, not approximate
    assert back.omega.tolist() == samples.omega.tolist()
    assert back.accel.tolist() == samples.accel.tolist()


_EPOCH_NS = 1_760_000_000_000_000_000


@st.composite
def _imu_streams(draw):
    n = draw(st.integers(0, 12))
    steps = draw(arrays(np.int64, n, elements=st.integers(1, 10**9)))
    t0 = draw(st.integers(-(2**61), 2**61) | st.just(_EPOCH_NS))
    # Any finite double, -0.0 and subnormals included.
    values = arrays(
        np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False)
    )
    return ImuStream(t0 + np.cumsum(steps), draw(values), draw(values))


@given(_imu_streams())
@example(
    ImuStream(
        _EPOCH_NS + np.array([0, 1, 5_000_000], dtype=np.int64),
        [[-0.0, 5e-324, -2.2250738585072014e-308]] * 3,
        [[1.7976931348623157e308, -0.0, 1e-310]] * 3,
    )
)
def test_imu_csv_round_trip_is_byte_exact(tmp_path_factory, samples):
    d = tmp_path_factory.mktemp("imu")
    write_imu_csv(d / "a.csv", samples)
    back = read_imu_csv(d / "a.csv")
    write_imu_csv(d / "b.csv", back)
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()
    for name in ("t", "omega", "accel"):
        assert getattr(back, name).tobytes() == getattr(samples, name).tobytes()


def test_ground_truth_csv_round_trip_exact(tmp_path):
    t = np.array([10, 20, 35], dtype=np.int64)
    pos = np.array([[0.1, -2.0 / 7.0, 0.5], [1e-12, 3.0, 0.5], [4.0, 5.0, 0.5]])
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    quats[1] = [math.cos(0.2), 0.0, 0.0, math.sin(0.2)]
    p = tmp_path / "gt.csv"
    write_ground_truth_csv(p, t, pos, quats)
    t2, pos2, quats2 = read_ground_truth_csv(p)
    np.testing.assert_array_equal(t2, t)
    assert pos2.tolist() == pos.tolist()
    assert quats2.tolist() == quats.tolist()
    traj = ground_truth_trajectory(p)
    assert traj.yaw[1] == pytest.approx(0.4, abs=1e-12)
    assert traj.yaw[0] == 0.0


def test_trajectory_csv_round_trip_and_empty(tmp_path):
    p = tmp_path / "traj.csv"
    t = np.array([1, 2], dtype=np.int64)
    write_trajectory_csv(p, t, [0.1, 0.2], [1.0 / 3.0, -4.0], [0.0, 0.1],
                         [0.01, 0.02], [-0.03, 0.04])
    t2, x, y, yaw, roll, pitch = read_trajectory_csv(p)
    np.testing.assert_array_equal(t2, t)
    assert x.tolist() == [0.1, 0.2]
    assert y[0] == 1.0 / 3.0
    assert pitch.tolist() == [-0.03, 0.04]

    empty = tmp_path / "empty.csv"
    write_trajectory_csv(empty, np.array([], dtype=np.int64), [], [], [], [], [])
    cols = read_trajectory_csv(empty)
    assert all(len(c) == 0 for c in cols)


def test_csv_writers_reject_columns_shorter_than_t(tmp_path):
    t = np.array([10, 20, 30], dtype=np.int64)
    with pytest.raises(ValueError, match="3 timestamps but 2 rows"):
        write_ground_truth_csv(tmp_path / "gt.csv", t, np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="3 timestamps but 2 rows"):
        write_trajectory_csv(tmp_path / "traj.csv", t, *np.zeros((5, 2)))


def test_csv_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "imu.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(MalformedRow, match="line 1"):
        read_imu_csv(p)
    p.write_text(IMU_CSV_HEADER + "\n1,0,0,0,0,0,9.81\n2,0,0\n")
    with pytest.raises(MalformedRow, match="line 3"):
        read_imu_csv(p)
    p.write_text(IMU_CSV_HEADER + "\n1,0,0,zero,0,0,9.81\n")
    with pytest.raises(MalformedRow, match="line 2.*not a number"):
        read_imu_csv(p)
    p.write_text(IMU_CSV_HEADER + "\n1.5,0,0,0,0,0,9.81\n")
    with pytest.raises(MalformedRow, match="not an integer"):
        read_imu_csv(p)


@pytest.mark.parametrize(
    "header, read",
    [
        (IMU_CSV_HEADER, read_imu_csv),
        (GROUND_TRUTH_CSV_HEADER, read_ground_truth_csv),
        (TRAJECTORY_CSV_HEADER, read_trajectory_csv),
    ],
    ids=["imu", "ground_truth", "trajectory"],
)
def test_non_monotonic_timestamps_rejected(tmp_path, header, read):
    p = tmp_path / "data.csv"
    row = ",1.0" * header.count(",")
    p.write_text(f"{header}\n4{row}\n5{row}\n5{row}\n")
    with pytest.raises(NonMonotonicTimestamp, match="line 4: timestamp 5 does not increase past 5"):
        read(p)
    p.write_text(f"{header}\n5{row}\n4{row}\n")
    with pytest.raises(NonMonotonicTimestamp, match="line 3: timestamp 4 does not increase past 5"):
        read(p)


def _report():
    return RteReport(
        segment_length=10.0,
        start_t=np.array([100, 200, 300], dtype=np.int64),
        seg_lengths=np.array([10.0, 10.2, 10.1]),
        errors_pct=np.array([0.5, 1.0 / 3.0, 0.75]),
        rot_errors_deg_per_100m=np.array([0.0, 0.0, 0.0]),
    )


def test_rte_csv_round_trip(tmp_path):
    p = tmp_path / "rte.csv"
    rep = _report()
    write_rte_csv(p, rep)
    starts, lengths, errs, median = read_rte_csv(p)
    np.testing.assert_array_equal(starts, rep.start_t)
    assert lengths.tolist() == rep.seg_lengths.tolist()
    assert errs.tolist() == rep.errors_pct.tolist()
    assert median == rep.median


def test_rte_csv_summary_validation(tmp_path):
    p = tmp_path / "rte.csv"
    write_rte_csv(p, _report())
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-1]) + "\n")  # drop the summary
    with pytest.raises(MalformedRow, match="summary"):
        read_rte_csv(p)
    shuffled = lines[:3] + ["summary,2,0.5", lines[3]]
    p.write_text("\n".join(shuffled) + "\n")
    with pytest.raises(MalformedRow, match="after the summary"):
        read_rte_csv(p)
    bad = lines[:-1] + ["summary,7," + lines[-1].split(",")[2]]
    p.write_text("\n".join(bad) + "\n")
    with pytest.raises(MalformedRow, match="7 segments"):
        read_rte_csv(p)


def test_run_config_defaults_and_round_trip():
    assert parse_run_config("") == Params()
    # Pinned text: existing config files must keep their meaning.
    assert format_run_config(Params()) == (
        "k = 10\nr_min = 5.0\nr_max = 100.0\ntau_raw = 60.0\nd_voxel = 1.0\n"
        "theta_tilt = 3.0\nd_max = 1.75\nr_submap = 20.0\n"
        "k_nn = 4\nmax_iterations = 40\ntranslation_epsilon = 0.001\n"
        "rotation_epsilon = 0.0001\nmax_correspondence_distance = 5.0\n"
        "beta = 0.1\nstatic_window_s = 10.0\n"
    )
    params = Params(k=6, d_max=2.0, beta=0.05)
    assert parse_run_config(format_run_config(params)) == params
    text = "# comment\n\n k = 12 \nd_max = 0.5\n"
    got = parse_run_config(text)
    assert got.k == 12
    assert got.d_max == 0.5
    assert got.r_max == 100.0


def test_run_config_rejects_bad_input():
    for text, frag in [
        ("bogus = 1", "unknown key"),
        ("k = 5\nk = 6", "duplicate"),
        ("d_max = true", "cannot parse"),
        ("k = five", "cannot parse"),
        ("k 5", "key = value"),
        ("d_max = -1.0", "d_max"),
        ("beta = -0.1", "beta"),
        ("static_window_s = 0", "static_window_s"),
        ("d_voxel = nan", "config: d_voxel must be finite"),
        ("r_submap = inf", "r_submap must be finite"),
        ("theta_tilt = inf", "theta_tilt must be finite"),
        ("translation_epsilon = -inf", "translation_epsilon must be finite"),
    ]:
        with pytest.raises(ConfigError, match=frag):
            parse_run_config(text)
    with pytest.raises(ConfigError, match="run.cfg: beta must be finite"):
        parse_run_config("beta = nan", "run.cfg")


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_COUNT = st.integers(min_value=1, max_value=10**6)


@st.composite
def _valid_params(draw):
    r_min = draw(st.floats(min_value=0.0, max_value=1e300))
    return Params(
        k=draw(_COUNT),
        r_min=r_min,
        r_max=draw(st.floats(min_value=r_min, exclude_min=True, allow_infinity=False)),
        tau_raw=draw(st.floats(allow_nan=False, allow_infinity=False)),
        d_voxel=draw(_POSITIVE),
        theta_tilt=draw(_NON_NEGATIVE),
        d_max=draw(_NON_NEGATIVE),
        r_submap=draw(_POSITIVE),
        k_nn=draw(_COUNT),
        max_iterations=draw(_COUNT),
        translation_epsilon=draw(_POSITIVE),
        rotation_epsilon=draw(_POSITIVE),
        max_correspondence_distance=draw(_POSITIVE),
        beta=draw(_NON_NEGATIVE),
        static_window_s=draw(_POSITIVE),
    )


@given(_valid_params())
def test_run_config_round_trips_every_valid_params(params):
    assert parse_run_config(format_run_config(params)) == params


_CONFIG_KEYS = [f.name for f in fields(Params)]
_CONFIG_VALUES = (
    st.sampled_from(
        ["nan", "-inf", "inf", "1e999", "true", "False", "0", "-1", "0.5", "4", ""]
    )
    | st.floats().map(repr)
    | st.integers().map(str)
    | st.text(max_size=8)
)
_CONFIG_LINES = (
    st.tuples(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=8), _CONFIG_VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    )
    | st.text(max_size=16)
)


@given(st.lists(_CONFIG_LINES, max_size=8).map("\n".join))
def test_run_config_parser_raises_only_config_error(text):
    try:
        params = parse_run_config(text)
    except ConfigError:
        return
    for f in fields(Params):
        if f.type == "float":
            assert math.isfinite(getattr(params, f.name))


@pytest.mark.parametrize(
    "write, read",
    [
        (lambda p: write_imu_csv(p, _imu()), read_imu_csv),
        (
            lambda p: write_ground_truth_csv(
                p, [1, 2, 3], np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
            ),
            read_ground_truth_csv,
        ),
        (
            lambda p: write_trajectory_csv(p, [1, 2, 3], *np.zeros((5, 3))),
            read_trajectory_csv,
        ),
        (lambda p: write_rte_csv(p, _report()), read_rte_csv),
    ],
    ids=["imu", "ground_truth", "trajectory", "rte"],
)
def test_csv_readers_reject_non_finite_numbers(tmp_path, write, read):
    p = tmp_path / "data.csv"
    write(p)
    lines = p.read_text().splitlines()
    for value in ("nan", "inf", "-inf", "1e999"):
        bad = lines.copy()
        bad[2] = bad[2].rsplit(",", 1)[0] + "," + value
        p.write_text("\n".join(bad) + "\n")
        with pytest.raises(MalformedRow, match=f"line 3: '{value}' is not a finite"):
            read(p)


@pytest.mark.parametrize(
    "header, width, read, column",
    [
        (IMU_CSV_HEADER, 6, read_imu_csv, lambda imu: imu.t),
        (GROUND_TRUTH_CSV_HEADER, 7, read_ground_truth_csv, lambda gt: gt[0]),
    ],
    ids=["imu", "ground_truth"],
)
def test_csv_readers_reject_timestamps_outside_int64(tmp_path, header, width, read, column):
    p = tmp_path / "data.csv"

    def write(*ts):
        p.write_text(header + "\n" + "".join(f"{t}{',1.0' * width}\n" for t in ts))

    lo, hi = -(2**63), 2**63 - 1
    write(lo, lo + 1)
    assert column(read(p)).tolist() == [lo, lo + 1]
    write(hi - 1, hi)
    assert column(read(p)).tolist() == [hi - 1, hi]
    write(hi - 1, hi + 1)
    with pytest.raises(MalformedRow, match=f"line 3: '{2**63}' is outside the int64"):
        read(p)
    write(lo - 1, lo)
    with pytest.raises(MalformedRow, match=f"line 2: '{-(2**63) - 1}' is outside the int64"):
        read(p)


def test_dataset_round_trip(tmp_path):
    scans = [_scan(seed=i, t0=1_000_000_000 + i * 250_000_000) for i in range(3)]
    imu = _imu(n=200)
    gt_t = np.array([999_000_000, 2_000_000_000], dtype=np.int64)
    gt_pos = np.zeros((2, 3))
    gt_quats = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
    root = write_dataset(tmp_path / "ds", scans, imu, gt_t, gt_pos, gt_quats,
                         scenario_text='{"seed": 1}')
    ds = load_dataset(root)
    assert len(ds.scans) == 3
    np.testing.assert_array_equal(ds.scans[1].intensity, scans[1].intensity)
    assert len(ds.imu) == 200
    assert ds.ground_truth_path is not None
    assert ds.scenario_text == '{"seed": 1}'
    # Rewriting with fewer scans must clear the stale files.
    write_dataset(root, scans[:2], imu, gt_t, gt_pos, gt_quats)
    assert len(load_dataset(root).scans) == 2


def test_dataset_layout_validation(tmp_path):
    with pytest.raises(FormatError, match="missing scans"):
        load_dataset(tmp_path)
    scans = [_scan(t0=1_000_000_000)]
    root = write_dataset(
        tmp_path / "ds", scans, _imu(n=50),
        np.array([0], dtype=np.int64), np.zeros((1, 3)),
        np.array([[1.0, 0.0, 0.0, 0.0]]),
    )
    (root / "scans" / "000000.frad").rename(root / "scans" / "000005.frad")
    with pytest.raises(FormatError, match="contiguous"):
        load_dataset(root)
    (root / "scans" / "000005.frad").rename(root / "scans" / "000000.frad")
    (root / "imu.csv").unlink()
    with pytest.raises(FormatError, match="missing imu"):
        load_dataset(root)


def test_dataset_scans_must_sit_inside_imu_span(tmp_path):
    # Scan at t=9 s but IMU covers only the first second.
    scans = [_scan(t0=9_000_000_000)]
    root = write_dataset(
        tmp_path / "ds", scans, _imu(n=50),
        np.array([0], dtype=np.int64), np.zeros((1, 3)),
        np.array([[1.0, 0.0, 0.0, 0.0]]),
    )
    with pytest.raises(FormatError, match="IMU span"):
        load_dataset(root)


def _assert_same_scan(got, want):
    assert got.azimuths.tobytes() == want.azimuths.tobytes()
    assert got.azimuth_timestamps.tobytes() == want.azimuth_timestamps.tobytes()
    assert got.intensity.tobytes() == want.intensity.tobytes()
    assert got.range_resolution == want.range_resolution


def _written(tmp_path, count=4):
    scans = [_scan(seed=i, t0=1_000_000_000 + i * 250_000_000) for i in range(count)]
    root = write_dataset(
        tmp_path / "ds", scans, _imu(n=400), np.array([0], dtype=np.int64),
        np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]), scenario_text="{}",
    )
    return root, scans


def test_dataset_scans_decode_on_access(tmp_path):
    root, scans = _written(tmp_path)
    ds = load_dataset(root)
    assert len(ds.scans) == len(scans)
    for got, want in zip(ds.scans, scans, strict=True):
        _assert_same_scan(got, want)
    _assert_same_scan(ds.scans[2], scans[2])
    _assert_same_scan(ds.scans[-1], scans[-1])
    with pytest.raises(IndexError):
        ds.scans[len(scans)]
    # Every access decodes the file again: nothing is cached.
    assert ds.scans[0] is not ds.scans[0]


def test_dataset_scan_corrupted_after_load_raises_on_access(tmp_path):
    root, scans = _written(tmp_path)
    ds = load_dataset(root)
    victim = root / "scans" / "000002.frad"
    victim.write_bytes(victim.read_bytes()[:-1])
    _assert_same_scan(ds.scans[1], scans[1])
    with pytest.raises(FormatError, match="000002.frad"):
        ds.scans[2]
    with pytest.raises(FormatError, match="000002.frad"):
        list(ds.scans)
    # A scan moved outside the IMU span is caught on access too.
    write_polar_scan(_scan(t0=9_000_000_000), victim)
    with pytest.raises(FormatError, match="000002.frad: scan timestamps leave the IMU span"):
        ds.scans[2]


@pytest.mark.parametrize("damage", list(SCAN_FILE_DAMAGE))
def test_load_dataset_names_a_scan_file_the_scan_checks_reject(tmp_path, damage):
    edit, message = SCAN_FILE_DAMAGE[damage]
    root, _ = _written(tmp_path)
    victim = root / "scans" / "000002.frad"
    victim.write_bytes(edit(victim.read_bytes()))
    with pytest.raises(FormatError, match=f"000002.frad: {message}"):
        load_dataset(root)


def test_interrupted_dataset_write_is_rejected_by_load(tmp_path):
    root, scans = _written(tmp_path)
    assert (root / "scenario.echo").is_file()

    def cut_short():
        yield from scans[:2]
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        write_dataset(root, cut_short(), _imu(n=400), np.array([0], dtype=np.int64),
                      np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert sorted(p.name for p in root.rglob("*") if p.is_file()) == [
        "000000.frad", "000001.frad"
    ]
    with pytest.raises(FormatError, match="missing imu.csv"):
        load_dataset(root)


@st.composite
def _polar_scans(draw):
    """Any valid scan: 1-12 azimuths strictly increasing in [0, 2pi),
    non-decreasing timestamps within one rotation, 1-16 bins of any uint8."""
    n_az = draw(st.integers(1, 12))
    n_bins = draw(st.integers(1, 16))
    az = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
            min_size=n_az, max_size=n_az, unique=True,
        )
    )
    steps = draw(
        arrays(np.int64, n_az - 1, elements=st.integers(0, MAX_SCAN_SPAN_NS // n_az))
    )
    t0 = draw(st.integers(-(2**62), 2**62) | st.just(_EPOCH_NS))
    t = t0 + np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
    grid = draw(arrays(np.uint8, (n_az, n_bins)))
    dr = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return PolarScan(sorted(az), t, grid, dr)


@settings(max_examples=60, deadline=2000)
@given(_polar_scans())
def test_scan_round_trip_is_byte_identical_for_any_valid_scan(tmp_path_factory, scan):
    d = tmp_path_factory.mktemp("frad")
    write_polar_scan(scan, d / "a.frad")
    back = read_polar_scan(d / "a.frad")
    _assert_same_scan(back, scan)
    write_polar_scan(back, d / "b.frad")
    assert (d / "a.frad").read_bytes() == (d / "b.frad").read_bytes()


@settings(max_examples=30, deadline=2000)
@given(st.lists(_polar_scans(), min_size=1, max_size=3))
def test_dataset_scans_round_trip_byte_identically(tmp_path_factory, scans):
    t_lo = min(int(s.azimuth_timestamps[0]) for s in scans)
    t_hi = max(int(s.azimuth_timestamps[-1]) for s in scans)
    imu = ImuStream(np.array([t_lo, t_hi + 1], dtype=np.int64), np.zeros((2, 3)),
                    np.zeros((2, 3)))
    root = write_dataset(tmp_path_factory.mktemp("ds"), scans, imu,
                         np.array([t_lo], dtype=np.int64), np.zeros((1, 3)),
                         np.array([[1.0, 0.0, 0.0, 0.0]]))
    ds = load_dataset(root)
    assert len(ds.scans) == len(scans)
    for i, back in enumerate(ds.scans):
        write_polar_scan(back, root / "again.frad")
        written = root / "scans" / f"{i:06d}.frad"
        assert (root / "again.frad").read_bytes() == written.read_bytes()


@st.composite
def _ground_truth_tables(draw):
    n = draw(st.integers(0, 12))
    steps = draw(arrays(np.int64, n, elements=st.integers(1, 10**9)))
    t0 = draw(st.integers(-(2**61), 2**61) | st.just(_EPOCH_NS))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pos = draw(arrays(np.float64, (n, 3), elements=finite))
    quats = draw(arrays(np.float64, (n, 4), elements=finite))
    return t0 + np.cumsum(steps), pos, quats


@settings(max_examples=100, deadline=2000)
@given(_ground_truth_tables())
def test_ground_truth_csv_round_trip_is_byte_exact(tmp_path_factory, table):
    d = tmp_path_factory.mktemp("gt")
    write_ground_truth_csv(d / "a.csv", *table)
    back = read_ground_truth_csv(d / "a.csv")
    write_ground_truth_csv(d / "b.csv", *back)
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()
    for got, want in zip(back, table):
        assert got.tobytes() == want.tobytes()
