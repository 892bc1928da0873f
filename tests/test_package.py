"""Tests for the package's public namespace and the contracts its
constructors share."""

import warnings

import numpy as np
import pytest

import tiltro
from tiltro import AttitudeTrack, ImuStream, PolarScan, Trajectory


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
