"""File formats: binary polar scans, CSV streams, run configuration.

Everything written here reads back losslessly: the scan container is a
fixed little-endian layout that round-trips byte-identically, and CSV
floats use the shortest representation that reparses to the same double.
Parsers fail loudly with positions (byte offsets or line numbers) instead
of guessing.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .attitude import ImuStream
from .errors import (
    BadMagic,
    ConfigError,
    FormatError,
    MalformedRow,
    NonMonotonicTimestamp,
    TruncatedFile,
    UnsupportedVersion,
)
from .evaluation import RteReport, Trajectory
from .frontend import PolarScan
from .geometry import quat_array_to_rpy
from .params import Params
from .pipeline import ScanDiagnostics

_SCAN_MAGIC = b"FRAD"
_SCAN_VERSION = 1
_SCAN_HEADER = struct.Struct("<4sHIId")

IMU_CSV_HEADER = "t_ns,wx,wy,wz,ax,ay,az"
GROUND_TRUTH_CSV_HEADER = "t_ns,x,y,z,qw,qx,qy,qz"
TRAJECTORY_CSV_HEADER = "t_ns,x,y,yaw,roll,pitch"
RTE_CSV_HEADER = "start_t_ns,length_m,err_pct"


def _record_dtype(range_bins: int) -> np.dtype:
    return np.dtype(
        [("t", "<i8"), ("az", "<f8"), ("intensity", "u1", (range_bins,))]
    )


def write_polar_scan(scan: PolarScan, path) -> None:
    n_a = scan.azimuth_count
    n_r = scan.range_bin_count
    rec = np.empty(n_a, dtype=_record_dtype(n_r))
    rec["t"] = scan.azimuth_timestamps
    rec["az"] = scan.azimuths
    rec["intensity"] = scan.intensity
    header = _SCAN_HEADER.pack(
        _SCAN_MAGIC, _SCAN_VERSION, n_a, n_r, scan.range_resolution
    )
    # The header and then the record buffer, with no joined copy.
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(rec)


def read_polar_scan(path) -> PolarScan:
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _SCAN_HEADER.size:
        raise TruncatedFile(
            f"{path}: file ends at byte {len(data)}; the header alone "
            f"needs {_SCAN_HEADER.size} bytes"
        )
    magic, version, n_a, n_r, dr = _SCAN_HEADER.unpack_from(data, 0)
    if magic != _SCAN_MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r} at byte 0")
    if version != _SCAN_VERSION:
        raise UnsupportedVersion(
            f"{path}: unsupported format version {version} at byte 4"
        )
    rec_dtype = _record_dtype(n_r)
    expected = _SCAN_HEADER.size + n_a * rec_dtype.itemsize
    if len(data) < expected:
        raise TruncatedFile(
            f"{path}: file ends at byte {len(data)} but {n_a} records of "
            f"{rec_dtype.itemsize} bytes need {expected} bytes"
        )
    if len(data) > expected:
        raise FormatError(
            f"{path}: {len(data) - expected} trailing bytes at byte {expected}"
        )
    rec = np.frombuffer(data, dtype=rec_dtype, count=n_a, offset=_SCAN_HEADER.size)
    # The grid stays a read-only view of the file's bytes: a copy would
    # double the memory traffic of a decode, and a dataset decodes every
    # scan twice (validation, then use).
    try:
        return PolarScan(rec["az"].copy(), rec["t"].copy(), rec["intensity"], dr)
    except ValueError as err:
        raise FormatError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# CSV streams.  All floats are written with repr() so reading them back
# reproduces the exact double; timestamps are plain integers.


def _read_rows(path, header: str):
    """Yield (line_number, fields) for every data row; validates the header."""
    path = Path(path)
    n_cols = header.count(",") + 1
    with path.open("r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if first.rstrip("\r\n") != header:
            raise MalformedRow(
                f"{path}: line 1: expected header {header!r}"
            )
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_cols:
                raise MalformedRow(
                    f"{path}: line {lineno}: expected {n_cols} fields, "
                    f"got {len(parts)}"
                )
            yield lineno, parts


def _parse_int(path, lineno: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError as err:
        raise MalformedRow(
            f"{path}: line {lineno}: {text!r} is not an integer"
        ) from err
    # Every integer column is stored as int64.
    if not -(2**63) <= value < 2**63:
        raise MalformedRow(
            f"{path}: line {lineno}: {text!r} is outside the int64 range"
        )
    return value


def _parse_float(path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise MalformedRow(
            f"{path}: line {lineno}: {text!r} is not a number"
        ) from err
    # Nothing this program writes is non-finite; a NaN read back would
    # travel through the filter into published poses.
    if not math.isfinite(value):
        raise MalformedRow(
            f"{path}: line {lineno}: {text!r} is not a finite number"
        )
    return value


def _read_table(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """(t (N,) int64, (N, k) floats) of a timestamped table whose header
    names t and k float columns.  Timestamps must strictly increase."""
    ts, rows = [], []
    for lineno, parts in _read_rows(path, header):
        t = _parse_int(path, lineno, parts[0])
        if ts and t <= ts[-1]:
            raise NonMonotonicTimestamp(
                f"{path}: line {lineno}: timestamp {t} does not "
                f"increase past {ts[-1]}"
            )
        ts.append(t)
        rows.append([_parse_float(path, lineno, p) for p in parts[1:]])
    floats = np.array(rows, dtype=float).reshape(len(ts), header.count(","))
    return np.array(ts, dtype=np.int64), floats


def _write_table(path, header: str, t, floats) -> None:
    # tolist() yields plain ints and floats, so repr() emits the shortest
    # round-trip literal
    t = np.asarray(t, dtype=np.int64).tolist()
    rows = np.asarray(floats, dtype=float).tolist()
    if len(rows) != len(t):
        raise ValueError(f"{len(t)} timestamps but {len(rows)} rows of values")
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(
            f"{ti},{','.join(map(repr, row))}\n" for ti, row in zip(t, rows)
        )


def write_imu_csv(path, samples: ImuStream) -> None:
    _write_table(
        path, IMU_CSV_HEADER, samples.t, np.hstack([samples.omega, samples.accel])
    )


def read_imu_csv(path) -> ImuStream:
    t, v = _read_table(path, IMU_CSV_HEADER)
    return ImuStream(t, v[:, 0:3], v[:, 3:6])


def write_ground_truth_csv(path, t, pos, quats) -> None:
    _write_table(path, GROUND_TRUTH_CSV_HEADER, t, np.column_stack([pos, quats]))


def read_ground_truth_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (t, pos (N, 3), quats (N, 4))."""
    t, v = _read_table(path, GROUND_TRUTH_CSV_HEADER)
    return t, v[:, 0:3].copy(), v[:, 3:7].copy()


def ground_truth_trajectory(path) -> Trajectory:
    """Planar trajectory view of a ground-truth file (yaw from quaternions)."""
    t, pos, quats = read_ground_truth_csv(path)
    _, _, yaw = quat_array_to_rpy(quats)
    return Trajectory(t, pos[:, 0], pos[:, 1], yaw)


def write_trajectory_csv(path, t, x, y, yaw, roll, pitch) -> None:
    _write_table(
        path, TRAJECTORY_CSV_HEADER, t, np.column_stack([x, y, yaw, roll, pitch])
    )


def read_trajectory_csv(path):
    """Returns (t, x, y, yaw, roll, pitch) arrays; empty arrays for a
    header-only file."""
    t, v = _read_table(path, TRAJECTORY_CSV_HEADER)
    return (t, *v.T)


def states_to_arrays(states):
    """Column arrays (t, x, y, yaw, roll, pitch) from an OdomState sequence."""
    t = np.array([s.t for s in states], dtype=np.int64)
    x = np.array([s.pose.x for s in states])
    y = np.array([s.pose.y for s in states])
    yaw = np.array([s.pose.yaw for s in states])
    rp = np.array(
        [s.attitude.to_rpy()[:2] for s in states], dtype=float
    ).reshape(len(states), 2)
    return t, x, y, yaw, rp[:, 0], rp[:, 1]


def write_diagnostics_csv(path, diags) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(ScanDiagnostics.CSV_HEADER + "\n")
        for d in diags:
            fh.write(d.to_csv_row() + "\n")


def write_rte_csv(path, report: RteReport) -> None:
    """One row per segment plus a final `summary` row carrying the segment
    count and the median percentage."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(RTE_CSV_HEADER + "\n")
        for i in range(report.count):
            fh.write(
                f"{int(report.start_t[i])},{float(report.seg_lengths[i])!r},"
                f"{float(report.errors_pct[i])!r}\n"
            )
        fh.write(f"summary,{report.count},{report.median!r}\n")


def read_rte_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Returns (start_t, lengths, errors_pct, median)."""
    path = Path(path)
    starts, lengths, errs = [], [], []
    median = None
    for lineno, parts in _read_rows(path, RTE_CSV_HEADER):
        if parts[0] == "summary":
            count = _parse_int(path, lineno, parts[1])
            if count != len(errs):
                raise MalformedRow(
                    f"{path}: line {lineno}: summary counts {count} segments, "
                    f"file holds {len(errs)}"
                )
            median = _parse_float(path, lineno, parts[2])
            continue
        if median is not None:
            raise MalformedRow(
                f"{path}: line {lineno}: data row after the summary row"
            )
        starts.append(_parse_int(path, lineno, parts[0]))
        lengths.append(_parse_float(path, lineno, parts[1]))
        errs.append(_parse_float(path, lineno, parts[2]))
    if median is None:
        raise MalformedRow(f"{path}: missing summary row")
    return (
        np.array(starts, dtype=np.int64),
        np.array(lengths),
        np.array(errs),
        median,
    )


# ---------------------------------------------------------------------------
# Run configuration: a flat key = value text file with one key per field of
# Params.  Unknown and repeated keys are rejected so typos never silently
# fall back to defaults.


_CONFIG_FIELDS = {f.name: f.type for f in fields(Params)}


def _parse_config_value(key: str, text: str, where: str):
    try:
        if _CONFIG_FIELDS[key] == "int":
            return int(text)
        return float(text)
    except ValueError as err:
        raise ConfigError(f"{where}: cannot parse {key} value {text!r}") from err


def parse_run_config(text: str, source: str = "config") -> Params:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}: line {lineno}"
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected `key = value`")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = _parse_config_value(key, value, where)
    try:
        return Params(**values)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from err


def read_run_config(path) -> Params:
    path = Path(path)
    return parse_run_config(path.read_text(encoding="utf-8"), str(path))


def format_run_config(params: Params) -> str:
    lines = []
    for f in fields(Params):
        v = getattr(params, f.name)
        if isinstance(v, float):
            text = repr(v)
        else:
            text = str(v)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dataset directory layout.


class ScanFiles(Sequence):
    """A dataset's scans, decoded from their files one access at a time.

    Supports ``len()``, iteration and integer indexing.  Every access reads
    the file again and checks it as ``load_dataset`` did, so a file damaged
    since raises the error ``load_dataset`` would have raised rather than
    feeding odometry.
    """

    def __init__(self, paths: list[Path], t_lo: int, t_hi: int):
        self._paths = paths
        self._t_lo = t_lo
        self._t_hi = t_hi

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, index: int) -> PolarScan:
        return _read_dataset_scan(self._paths[index], self._t_lo, self._t_hi)


def _read_dataset_scan(path: Path, t_lo: int, t_hi: int) -> PolarScan:
    scan = read_polar_scan(path)
    if scan.azimuth_timestamps[0] < t_lo or scan.azimuth_timestamps[-1] > t_hi:
        raise FormatError(
            f"{path.name}: scan timestamps leave the IMU span [{t_lo}, {t_hi}]"
        )
    return scan


@dataclass
class Dataset:
    """A dataset directory opened for reading: the scans in index order,
    decoded one at a time from their files, plus the IMU stream."""

    path: Path
    scans: ScanFiles
    imu: ImuStream
    ground_truth_path: Path | None
    scenario_text: str | None


def write_dataset(
    out_dir, scans, imu, gt_t, gt_pos, gt_quats, scenario_text: str | None = None
) -> Path:
    """Lay out a dataset directory from any iterable of scans, writing each
    scan as it arrives; replaces whatever dataset was there.

    The old files all go before anything is written, and ``imu.csv`` is
    written last, so a write cut short leaves a directory that
    ``load_dataset`` rejects rather than new scans beside an old IMU stream.
    """
    out_dir = Path(out_dir)
    scans_dir = out_dir / "scans"
    scans_dir.mkdir(parents=True, exist_ok=True)
    for stale in scans_dir.glob("*.frad"):
        stale.unlink()
    for name in ("imu.csv", "ground_truth.csv", "scenario.echo"):
        (out_dir / name).unlink(missing_ok=True)
    for i, scan in enumerate(scans):
        write_polar_scan(scan, scans_dir / f"{i:06d}.frad")
    write_ground_truth_csv(out_dir / "ground_truth.csv", gt_t, gt_pos, gt_quats)
    if scenario_text is not None:
        (out_dir / "scenario.echo").write_text(scenario_text, encoding="utf-8")
    write_imu_csv(out_dir / "imu.csv", imu)
    return out_dir


def load_dataset(path) -> Dataset:
    """Open a dataset directory, validating the layout and every scan file.

    Scan files must be contiguous from 000000, and each must decode with
    every azimuth timestamp inside the IMU stream's span (the attitude
    filter cannot cover scans it has no inertial data for).  All of this is
    checked here, before any scan is used; the returned ``scans`` keep only
    the paths and decode a file when it is accessed.
    """
    path = Path(path)
    scans_dir = path / "scans"
    if not scans_dir.is_dir():
        raise FormatError(f"{path}: missing scans/ directory")
    imu_path = path / "imu.csv"
    if not imu_path.is_file():
        raise FormatError(f"{path}: missing imu.csv")
    scan_files = sorted(scans_dir.glob("*.frad"))
    if not scan_files:
        raise FormatError(f"{path}: no scan files in scans/")
    for i, f in enumerate(scan_files):
        if f.name != f"{i:06d}.frad":
            raise FormatError(
                f"{path}: scan files are not contiguous from 000000.frad "
                f"(found {f.name} at position {i})"
            )
    imu = read_imu_csv(imu_path)
    if len(imu) == 0:
        raise FormatError(f"{imu_path}: IMU stream is empty")
    t_lo, t_hi = int(imu.t[0]), int(imu.t[-1])
    for f in scan_files:
        _read_dataset_scan(f, t_lo, t_hi)
    gt_path = path / "ground_truth.csv"
    echo_path = path / "scenario.echo"
    return Dataset(
        path=path,
        scans=ScanFiles(scan_files, t_lo, t_hi),
        imu=imu,
        ground_truth_path=gt_path if gt_path.is_file() else None,
        scenario_text=(
            echo_path.read_text(encoding="utf-8") if echo_path.is_file() else None
        ),
    )
