"""Tests for the package's public namespace."""

import tiltro


def test_every_export_resolves_once():
    names = tiltro.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(tiltro, name)] == []
