"""Tests for spherical geometry helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.leo.constellation import Constellation
from repro.leo.geometry import (
    GeoPoint,
    east_north_frame,
    ecef,
    elevation_and_range,
    elevation_angle,
    fiber_path_delay,
    great_circle_distance,
    propagation_delay,
    slant_range,
    unit_up,
)
from repro.units import EARTH_RADIUS, SPEED_OF_LIGHT, km


def test_ecef_on_equator_prime_meridian():
    pos = ecef(0.0, 0.0)
    assert pos == pytest.approx([EARTH_RADIUS, 0.0, 0.0])


def test_ecef_north_pole():
    pos = ecef(90.0, 0.0)
    assert pos[2] == pytest.approx(EARTH_RADIUS)
    assert abs(pos[0]) < 1.0


def test_ecef_altitude_adds_radially():
    ground = ecef(45.0, 10.0)
    high = ecef(45.0, 10.0, alt_m=km(550))
    assert np.linalg.norm(high) == pytest.approx(
        EARTH_RADIUS + km(550))
    assert np.linalg.norm(high - ground) == pytest.approx(km(550))


def test_slant_range_zenith():
    ground = ecef(50.0, 4.0)
    sat = ecef(50.0, 4.0, alt_m=km(550))
    assert slant_range(ground, sat) == pytest.approx(km(550))


def test_slant_range_vectorised():
    ground = ecef(50.0, 4.0)
    sats = np.array([ecef(50.0, 4.0, km(550)),
                     ecef(51.0, 5.0, km(550))])
    ranges = slant_range(ground, sats)
    assert ranges.shape == (2,)
    assert ranges[0] == pytest.approx(km(550))
    assert ranges[1] > ranges[0]


def test_elevation_at_zenith_is_90():
    ground = ecef(50.0, 4.0)
    sat = ecef(50.0, 4.0, km(550))
    assert elevation_angle(ground, sat) == pytest.approx(90.0)


def test_elevation_below_horizon_negative():
    ground = ecef(50.0, 4.0)
    antipode_sat = ecef(-50.0, -176.0, km(550))
    assert elevation_angle(ground, antipode_sat) < 0


def test_elevation_vectorised_matches_scalar():
    ground = ecef(50.0, 4.0)
    sats = np.array([ecef(52.0, 8.0, km(550)),
                     ecef(40.0, -20.0, km(550))])
    vector = elevation_angle(ground, sats)
    for i in range(2):
        assert vector[i] == pytest.approx(
            elevation_angle(ground, sats[i]))


def test_great_circle_known_distance():
    brussels = GeoPoint(50.85, 4.35)
    paris = GeoPoint(48.86, 2.35)
    distance = great_circle_distance(brussels, paris)
    assert distance == pytest.approx(264_000, rel=0.05)


def test_great_circle_zero_for_same_point():
    p = GeoPoint(10.0, 20.0)
    assert great_circle_distance(p, p) == pytest.approx(0.0)


def test_propagation_delay():
    assert propagation_delay(SPEED_OF_LIGHT) == pytest.approx(1.0)


def test_fiber_delay_slower_than_vacuum_and_stretched():
    a, b = GeoPoint(50.0, 4.0), GeoPoint(52.0, 13.0)
    straight = great_circle_distance(a, b) / SPEED_OF_LIGHT
    assert fiber_path_delay(a, b) > 2.0 * straight


@given(lat=st.floats(-90, 90), lon=st.floats(-180, 180))
def test_property_ecef_magnitude_is_radius(lat, lon):
    assert np.linalg.norm(ecef(lat, lon)) == pytest.approx(
        EARTH_RADIUS, rel=1e-12)


@given(lat1=st.floats(-89, 89), lon1=st.floats(-179, 179),
       lat2=st.floats(-89, 89), lon2=st.floats(-179, 179))
def test_property_great_circle_symmetric_and_bounded(lat1, lon1,
                                                     lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    d_ab = great_circle_distance(a, b)
    d_ba = great_circle_distance(b, a)
    assert d_ab == pytest.approx(d_ba, abs=1.0)
    assert 0 <= d_ab <= np.pi * EARTH_RADIUS + 1.0


def test_elevation_up_param_is_bit_identical():
    """Passing the precomputed unit-up changes nothing, bitwise."""
    from repro.leo.geometry import unit_up

    ground = ecef(50.0, 4.0)
    up = unit_up(ground)
    sats = np.array([ecef(50.0 + d, 4.0 + d, km(550))
                     for d in (0.0, 2.0, 7.0, 15.0)])
    for sat in sats:
        assert elevation_angle(ground, sat, up=up) == \
            elevation_angle(ground, sat)
    assert np.array_equal(elevation_angle(ground, sats, up=up),
                          elevation_angle(ground, sats))


def test_elevation_and_range_matches_separate_calls():
    """The fused pass returns exactly what two passes would."""
    from repro.leo.geometry import elevation_and_range, unit_up

    ground = ecef(51.0, 5.0)
    up = unit_up(ground)
    sats = np.array([ecef(51.0 + d, 5.0 - d, km(550 + 20 * d))
                     for d in (0.0, 1.0, 4.0, 12.0)])
    elev, rng = elevation_and_range(ground, sats, up)
    assert np.array_equal(elev, elevation_angle(ground, sats, up=up))
    assert np.array_equal(rng, slant_range(ground, sats))


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.3e7), lat=st.floats(-60.0, 60.0),
       lon=st.floats(-180.0, 180.0),
       picks=st.lists(st.integers(0, 1583), min_size=2, max_size=60))
def test_vectorised_kernels_on_row_subsets_match_full_pass(t, lat, lon,
                                                           picks):
    """A vectorised kernel run on a subset of rows gives exactly the
    floats of those rows of the full pass -- the invariant that lets
    the scheduler run its exact geometry on prefilter-kept rows only,
    and share one elementwise pass between terminals. At least two
    rows: numpy runs a one-row ``(1, 3) @ (3,)`` as a ddot, not a
    gemv, and the two round differently."""
    ground = ecef(lat, lon)
    up = unit_up(ground)
    sats = Constellation().positions(t)
    rows = np.array(picks)
    full_elev, full_rng = elevation_and_range(ground, sats, up)
    elev, rng = elevation_and_range(ground, sats[rows], up)
    assert np.array_equal(elev, full_elev[rows])
    assert np.array_equal(rng, full_rng[rows])
    assert np.array_equal(elevation_angle(ground, sats[rows], up=up),
                          elevation_angle(ground, sats, up=up)[rows])
    assert np.array_equal(slant_range(ground, sats[rows]),
                          slant_range(ground, sats)[rows])


_COMPONENT = st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False)
_VECTORS = st.lists(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT),
                    min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(a=_VECTORS, b=_VECTORS)
def test_stacked_matmul_equals_scalar_dot_bitwise(a, b):
    """``(..., 1, 3) @ (..., 3, 1)`` runs one BLAS ddot per pair, the
    kernel a scalar 1-D ``.dot`` runs, so the two agree bit for bit;
    the gateway table relies on it. (Broadcast ``(a * b).sum(1)``,
    ``einsum`` and gemv round differently in about a quarter of
    cases, so none of them may stand in for ``.dot``.)"""
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    stacked = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    scalar = [a[i].dot(b[i]) for i in range(n)]
    assert [x.hex() for x in stacked.tolist()] == \
        [float(x).hex() for x in scalar]


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_UP_COMPONENT = st.floats(-1.0, 1.0) | _SIGNED_ZERO
_POLE = st.tuples(_SIGNED_ZERO, _SIGNED_ZERO, st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(up=_POLE | st.tuples(_UP_COMPONENT, _UP_COMPONENT,
                            _UP_COMPONENT).filter(any),
       lat=st.floats(-90.0, 90.0) | st.sampled_from([90.0, -90.0]),
       lon=st.floats(-180.0, 180.0))
def test_east_north_frame_north_is_np_cross_bitwise(up, lat, lon):
    """north = up x east is written out in Python floats; it must be
    ``np.cross``'s bytes, signed zeros and poles included, for a given
    up-vector and for one derived from a ground point."""
    up = np.array(up)
    east, north = east_north_frame(up * EARTH_RADIUS, up)
    assert north.tobytes() == np.cross(up, east).tobytes()
    ground = ecef(lat, lon)
    east, north = east_north_frame(ground)
    derived_up = ground / np.linalg.norm(ground)
    assert north.tobytes() == np.cross(derived_up, east).tobytes()
