"""Tests for orbit propagation and the Walker constellation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation, WalkerShell
from repro.leo.geometry import elevation_angle
from repro.leo.ground import default_terminal
from repro.leo.orbits import (
    OrbitalElements,
    propagate_ecef,
    single_position_ecef,
)
from repro.units import EARTH_RADIUS, km


def test_orbital_period_for_starlink_altitude():
    elements = OrbitalElements(km(550), 53.0, 0.0, 0.0)
    # ~95.6 minutes for a 550 km orbit.
    assert elements.period == pytest.approx(95.6 * 60, rel=0.01)


def test_position_magnitude_constant():
    elements = OrbitalElements(km(550), 53.0, 30.0, 45.0)
    for t in (0.0, 500.0, 3000.0, 9000.0):
        pos = single_position_ecef(elements, t)
        assert np.linalg.norm(pos) == pytest.approx(
            EARTH_RADIUS + km(550), rel=1e-9)


def test_latitude_bounded_by_inclination():
    elements = OrbitalElements(km(550), 53.0, 0.0, 0.0)
    max_lat = 0.0
    for t in np.arange(0, 6000, 30.0):
        pos = single_position_ecef(elements, t)
        lat = np.degrees(np.arcsin(pos[2] / np.linalg.norm(pos)))
        max_lat = max(max_lat, abs(lat))
    assert max_lat == pytest.approx(53.0, abs=1.0)


def test_satellite_moves():
    elements = OrbitalElements(km(550), 53.0, 0.0, 0.0)
    p0 = single_position_ecef(elements, 0.0)
    p1 = single_position_ecef(elements, 60.0)
    # ~7.6 km/s orbital speed => ~450 km per minute.
    assert np.linalg.norm(p1 - p0) == pytest.approx(km(450), rel=0.1)


def test_vectorised_propagation_matches_scalar():
    shells = WalkerShell(planes=4, sats_per_plane=3, phasing=1)
    alts, incs, raans, arg_lats = shells.element_arrays()
    positions = propagate_ecef(alts, incs, raans, arg_lats, 1234.0)
    assert positions.shape == (12, 3)
    for i in range(12):
        single = propagate_ecef(alts[i:i + 1], incs[i:i + 1],
                                raans[i:i + 1], arg_lats[i:i + 1],
                                1234.0)[0]
        assert positions[i] == pytest.approx(single)


def test_walker_shell_defaults_are_starlink_shell1():
    shell = WalkerShell()
    assert shell.total_satellites == 1584
    assert shell.inclination_deg == 53.0


def test_walker_shell_validation():
    with pytest.raises(ConfigurationError):
        WalkerShell(planes=0)
    with pytest.raises(ConfigurationError):
        WalkerShell(phasing=99)


def test_constellation_visibility_from_belgium():
    constellation = Constellation()
    ut = default_terminal().ecef()
    for t in (0.0, 3600.0, 40_000.0):
        indices, elevations, ranges = constellation.visible_from(ut, t)
        # Shell 1 keeps 10-40 satellites above 25 deg at 50 N.
        assert 5 <= len(indices) <= 60
        assert np.all(elevations >= 25.0)
        assert np.all(np.diff(elevations) <= 1e-9)  # sorted descending
        # Slant range bounds: 550 km (zenith) to ~1100 km at 25 deg.
        assert ranges.min() >= km(549)
        assert ranges.max() <= km(1300)


def test_visibility_elevations_consistent_with_geometry():
    constellation = Constellation()
    ut = default_terminal().ecef()
    indices, elevations, _ = constellation.visible_from(ut, 500.0)
    positions = constellation.positions(500.0)
    for idx, elev in zip(indices[:5], elevations[:5]):
        assert elevation_angle(ut, positions[idx]) == pytest.approx(
            float(elev))


def test_positions_cache_per_time():
    constellation = Constellation()
    p1 = constellation.positions(100.0)
    p2 = constellation.positions(100.0)
    assert p1 is p2
    p3 = constellation.positions(101.0)
    assert p3 is not p1


def test_range_to_single_satellite():
    constellation = Constellation()
    ut = default_terminal().ecef()
    indices, _, ranges = constellation.visible_from(ut, 0.0)
    assert constellation.range_to(ut, int(indices[0]), 0.0) == \
        pytest.approx(float(ranges[0]))


@settings(max_examples=40, deadline=None)
@given(t=st.floats(-1e6, 1.4e7, allow_nan=False, allow_infinity=False))
def test_positions_match_propagate_ecef_bitwise(t):
    """The orbit terms a constellation computes once at construction
    give exactly the positions a per-call propagation does, shell
    boundaries included."""
    shells = [WalkerShell(),
              WalkerShell(altitude_m=km(570), inclination_deg=70.0,
                          planes=36, sats_per_plane=20, phasing=11)]
    elements = [np.concatenate(column) for column in
                zip(*(shell.element_arrays() for shell in shells))]
    assert np.array_equal(Constellation(shells=shells).positions(t),
                          propagate_ecef(*elements, t))
