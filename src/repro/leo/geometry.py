"""Spherical-Earth geometry for satellite links.

A spherical Earth (mean radius) is accurate to well under 1 % for the
path-length and elevation computations the latency model needs; WGS-84
flattening would change Starlink RTTs by tens of microseconds, far
below the scheduling jitter the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import EARTH_RADIUS, SPEED_OF_LIGHT


@dataclass(frozen=True)
class GeoPoint:
    """A point given in geodetic coordinates (degrees, metres)."""

    lat_deg: float
    lon_deg: float
    alt_m: float = 0.0

    def to_ecef(self) -> np.ndarray:
        """Earth-centred Earth-fixed position vector, metres."""
        return ecef(self.lat_deg, self.lon_deg, self.alt_m)


def ecef(lat_deg: float, lon_deg: float, alt_m: float = 0.0) -> np.ndarray:
    """Geodetic (spherical) to ECEF coordinates, metres."""
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    r = EARTH_RADIUS + alt_m
    return np.array([
        r * np.cos(lat) * np.cos(lon),
        r * np.cos(lat) * np.sin(lon),
        r * np.sin(lat),
    ])


def slant_range(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Straight-line distance between ECEF positions, metres.

    ``b`` may be an (N, 3) array of satellite positions, in which case
    an (N,) array of ranges is returned.
    """
    diff = np.asarray(b) - np.asarray(a)
    if diff.ndim == 1:
        # sqrt(x . x) is exactly what np.linalg.norm computes for a
        # 1-D real vector (after a no-op ravel); spelling it out
        # skips the linalg dispatch on this per-satellite hot path.
        return float(np.sqrt(diff.dot(diff)))
    return np.linalg.norm(diff, axis=1)


def unit_up(ground: np.ndarray) -> np.ndarray:
    """Local unit up-vector at an ECEF ground position.

    Exactly the expression :func:`elevation_angle` evaluates
    internally, split out so schedulers can precompute it once per
    ground site and pass it back through ``up=`` — same bytes, one
    norm instead of one per call.
    """
    ground = np.asarray(ground, dtype=float)
    return ground / np.linalg.norm(ground)


def elevation_angle(ground: np.ndarray,
                    sat: np.ndarray,
                    up: np.ndarray | None = None) -> float | np.ndarray:
    """Elevation of ``sat`` above the local horizon at ``ground``, degrees.

    ``sat`` may be an (N, 3) array; an (N,) array is then returned.
    Negative values mean the satellite is below the horizon.
    ``up`` optionally supplies the precomputed :func:`unit_up` of
    ``ground`` (hot-path callers evaluate it once per site instead of
    once per call; passing it never changes a single bit).
    """
    ground = np.asarray(ground, dtype=float)
    sat = np.asarray(sat, dtype=float)
    if up is None:
        up = ground / np.linalg.norm(ground)
    los = sat - ground
    if los.ndim == 1:
        # sqrt(x . x) == np.linalg.norm for 1-D real input, minus
        # the dispatch overhead (see slant_range).
        rng = np.sqrt(los.dot(los))
        sin_el = np.dot(los, up) / rng
        return float(np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0))))
    rng = np.linalg.norm(los, axis=1)
    sin_el = los @ up / rng
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))


def azimuth_angle(ground: np.ndarray, sat: np.ndarray,
                  up: np.ndarray | None = None) -> float | np.ndarray:
    """Compass azimuth of ``sat`` seen from ``ground``, degrees.

    Measured clockwise from true north in the local tangent plane
    (0 = north, 90 = east), the convention obstruction sky masks use.
    ``sat`` may be an (N, 3) array; an (N,) array is then returned.
    A satellite at the zenith has an ill-defined azimuth; 0.0 is
    returned there (its horizontal projection vanishes).
    """
    ground = np.asarray(ground, dtype=float)
    return azimuth_in_frame(ground, np.asarray(sat, dtype=float),
                            *east_north_frame(ground, up))


def east_north_frame(ground: np.ndarray, up: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Local east and north unit vectors at ``ground`` (ECEF).

    The frame depends on the ground point only, so a caller measuring
    many azimuths from one point builds it once and passes it to
    :func:`azimuth_in_frame`.
    """
    if up is None:
        up = ground / np.linalg.norm(ground)
    # Local east/north unit vectors from the spherical up-vector.
    east = np.array([-up[1], up[0], 0.0])
    east_norm = np.linalg.norm(east)
    if east_norm == 0.0:
        # At the poles every horizontal direction is "south"/"north";
        # pick the prime-meridian tangent for a stable frame.
        east = np.array([0.0, 1.0, 0.0])
        east_norm = 1.0
    east = east / east_norm
    # north = up x east. np.cross also rounds each product and each
    # difference once, so these floats are its bytes, at a tenth of
    # its cost on two 3-vectors.
    u0, u1, u2 = up.tolist()
    e0, e1, e2 = east.tolist()
    return east, np.array([u1 * e2 - u2 * e1, u2 * e0 - u0 * e2,
                           u0 * e1 - u1 * e0])


def azimuth_in_frame(ground: np.ndarray, sat: np.ndarray,
                     east: np.ndarray, north: np.ndarray
                     ) -> float | np.ndarray:
    """:func:`azimuth_angle` in a frame from :func:`east_north_frame`."""
    los = sat - ground
    e = los @ east
    n = los @ north
    az = np.degrees(np.arctan2(e, n)) % 360.0
    if np.ndim(az) == 0:
        return float(az)
    return az


def elevation_and_range(ground: np.ndarray, sat: np.ndarray,
                        up: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """``(elevations_deg, ranges_m)`` for an (N, 3) satellite array.

    One pass sharing the line-of-sight norm: the norm
    :func:`elevation_angle` divides by *is* the slant range, so
    separate calls compute it twice. Bit-identical to
    ``(elevation_angle(ground, sat, up), slant_range(ground, sat))``
    — both evaluate ``norm(sat - ground, axis=1)`` on the same rows.
    """
    ground = np.asarray(ground, dtype=float)
    sat = np.asarray(sat, dtype=float)
    los = sat - ground
    rng = np.linalg.norm(los, axis=1)
    sin_el = los @ up / rng
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0))), rng


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Surface distance between two geodetic points, metres."""
    lat1, lon1 = np.radians(a.lat_deg), np.radians(a.lon_deg)
    lat2, lon2 = np.radians(b.lat_deg), np.radians(b.lon_deg)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (np.sin(dlat / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2)
    return float(2 * EARTH_RADIUS * np.arcsin(np.sqrt(h)))


def propagation_delay(distance_m: float,
                      speed: float = SPEED_OF_LIGHT) -> float:
    """One-way propagation delay for ``distance_m``, seconds."""
    return distance_m / speed


def fiber_path_delay(a: GeoPoint, b: GeoPoint,
                     stretch: float = 1.5) -> float:
    """One-way delay of a terrestrial fibre path between two sites.

    Real fibre routes are longer than the great circle; ``stretch``
    (default 1.5) captures routing detours, and propagation uses the
    ~2/3 c speed of light in glass.
    """
    from repro.units import FIBER_SPEED

    distance = great_circle_distance(a, b) * stretch
    return distance / FIBER_SPEED
