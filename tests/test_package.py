"""Tests for the package's public namespace and the contracts its
constructors share."""

import warnings

import numpy as np
import pytest

import tiltro
from tiltro import AttitudeTrack, ImuStream, PolarScan, Trajectory, endpoint_error
from tiltro.geometry import quat_array_to_rpy, rpy_to_quat_array
from tiltro.sim import GroundTruth


def test_every_export_resolves_once():
    names = tiltro.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(tiltro, name)] == []


#: Each constructor of a timestamped sequence, taking two int64 times.
_TIMED = {
    "ImuStream": lambda t: ImuStream(t, np.zeros((2, 3)), np.zeros((2, 3))),
    "AttitudeTrack": lambda t: AttitudeTrack(t, np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))),
    "Trajectory": lambda t: Trajectory(t, np.zeros(2), np.zeros(2), np.zeros(2)),
    "PolarScan": lambda t: PolarScan([0.0, 1.0], t, np.zeros((2, 1), np.uint8), 0.1),
}


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("name", list(_TIMED))
def test_timestamp_order_checks_do_not_wrap(name, increasing):
    # Their int64 difference wraps: 2**63 + 1 reads negative.
    low, high = -(2**62) - 1, 2**62
    t = np.array([low, high] if increasing else [high, low], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if increasing and name != "PolarScan":
            _TIMED[name](t)
        else:
            # An increasing scan is still far longer than one rotation.
            match = "exceeds one rotation" if increasing else "increasing|non-decreasing"
            with pytest.raises(ValueError, match=match):
                _TIMED[name](t)


_IDENTITY2 = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
_ZEROS2 = np.zeros(2)

#: Each interpolation over int64 times: (t, query) -> (value, expected),
#: where the value runs linearly from 0 at t[0] to 1 at t[1] and the query
#: lies halfway.  endpoint_error reads at the common end, where it is 1.
_INTERPOLATED = {
    "AttitudeTrack.attitudes_at": lambda t, q: (
        quat_array_to_rpy(
            AttitudeTrack(t, rpy_to_quat_array(np.array([0.0, 1.0]), _ZEROS2, _ZEROS2))
            .attitudes_at([q])
        )[0][0],
        0.5,
    ),
    "GroundTruth.sample": lambda t, q: (
        GroundTruth(t, np.array([[0.0, 0, 0], [1.0, 0, 0]]), _IDENTITY2)
        .sample([q])[0][0, 0],
        0.5,
    ),
    "Trajectory.resample": lambda t, q: (
        Trajectory(t, [0.0, 1.0], _ZEROS2, _ZEROS2).resample([q, t[1]]).x[0],
        0.5,
    ),
    "endpoint_error": lambda t, q: (
        endpoint_error(
            Trajectory(t, [0.0, 1.0], _ZEROS2, _ZEROS2),
            Trajectory(t, _ZEROS2, _ZEROS2, _ZEROS2),
        ),
        1.0,
    ),
}

#: Two spans longer than 2**63 ns and two short ones at the int64 edges.
_SPANS = {
    "wide": (-(2**62) - 1, 2**62),
    "full": (-(2**63), 2**63 - 1),
    "int64-min": (-(2**63), -(2**63) + 10**9),
    "int64-max": (2**63 - 1 - 10**9, 2**63 - 1),
}


@pytest.mark.parametrize("span", list(_SPANS))
@pytest.mark.parametrize("name", list(_INTERPOLATED))
def test_time_interpolation_does_not_wrap(name, span):
    lo, hi = _SPANS[span]
    t = np.array([lo, hi], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, expected = _INTERPOLATED[name](t, lo + (hi - lo) // 2)
    assert value == pytest.approx(expected, abs=1e-9)
