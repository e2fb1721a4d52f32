"""Circular-orbit propagation.

Starlink shell-1 satellites fly near-circular orbits, so a circular
two-body propagator is sufficient: eccentricity effects move the
slant range by a few kilometres (tens of microseconds of delay),
negligible against the tens-of-milliseconds RTT the paper measures.

Positions are produced directly in the Earth-fixed frame (ECEF) by
rotating the inertial orbital position against Earth rotation, so they
are directly comparable with ground-site ECEF coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.units import EARTH_MU, EARTH_RADIUS, SIDEREAL_DAY

#: Earth rotation rate, rad/s.
EARTH_ROTATION_RATE = 2.0 * np.pi / SIDEREAL_DAY


@dataclass(frozen=True)
class OrbitalElements:
    """Minimal element set for one circular-orbit satellite."""

    altitude_m: float
    inclination_deg: float
    raan_deg: float            # right ascension of the ascending node
    arg_latitude_deg: float    # argument of latitude at epoch t=0

    @property
    def semi_major_axis(self) -> float:
        """Orbit radius, metres."""
        return EARTH_RADIUS + self.altitude_m

    @property
    def mean_motion(self) -> float:
        """Angular rate, rad/s."""
        return float(np.sqrt(EARTH_MU / self.semi_major_axis ** 3))

    @property
    def period(self) -> float:
        """Orbital period, seconds."""
        return 2.0 * np.pi / self.mean_motion


class OrbitTerms(NamedTuple):
    """The time-invariant terms of many circular orbits, (N,) each.

    :func:`orbit_terms` computes them once per element set, so a
    caller propagating the same satellites to many times (a
    constellation, once per scheduler slot) pays the radius, mean
    motion and the RAAN and inclination trigonometry only once.
    """

    radius: np.ndarray
    mean_motion: np.ndarray
    arg_latitude: np.ndarray
    cos_raan: np.ndarray
    sin_raan: np.ndarray
    cos_inclination: np.ndarray
    sin_inclination: np.ndarray


def orbit_terms(altitudes: np.ndarray, inclinations: np.ndarray,
                raans: np.ndarray,
                args_latitude: np.ndarray) -> OrbitTerms:
    """:class:`OrbitTerms` of (N,) element arrays; angles in radians."""
    a = EARTH_RADIUS + altitudes
    return OrbitTerms(
        radius=a, mean_motion=np.sqrt(EARTH_MU / a ** 3),
        arg_latitude=args_latitude,
        cos_raan=np.cos(raans), sin_raan=np.sin(raans),
        cos_inclination=np.cos(inclinations),
        sin_inclination=np.sin(inclinations))


def positions_at(terms: OrbitTerms, t: float) -> np.ndarray:
    """(N, 3) ECEF positions of the ``terms`` orbits at ``t``, metres."""
    a = terms.radius
    cos_raan, sin_raan = terms.cos_raan, terms.sin_raan
    cos_i, sin_i = terms.cos_inclination, terms.sin_inclination
    # Argument of latitude now.
    u = terms.arg_latitude + terms.mean_motion * t
    # Inertial position of a circular orbit.
    cos_u, sin_u = np.cos(u), np.sin(u)
    x_eci = a * (cos_u * cos_raan - sin_u * sin_raan * cos_i)
    y_eci = a * (cos_u * sin_raan + sin_u * cos_raan * cos_i)
    z_eci = a * (sin_u * sin_i)
    # Rotate into the Earth-fixed frame.
    theta = EARTH_ROTATION_RATE * t
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    x = cos_t * x_eci + sin_t * y_eci
    y = -sin_t * x_eci + cos_t * y_eci
    return np.column_stack([x, y, z_eci])


def propagate_ecef(altitudes: np.ndarray, inclinations: np.ndarray,
                   raans: np.ndarray, args_latitude: np.ndarray,
                   t: float) -> np.ndarray:
    """Vectorised ECEF positions of many satellites at time ``t``.

    All element arrays must have the same shape (N,); angles are in
    radians. Returns an (N, 3) array in metres.
    """
    return positions_at(
        orbit_terms(altitudes, inclinations, raans, args_latitude), t)


def single_position_ecef(elements: OrbitalElements, t: float) -> np.ndarray:
    """ECEF position of one satellite at time ``t``, metres."""
    return propagate_ecef(
        np.array([elements.altitude_m]),
        np.array([np.radians(elements.inclination_deg)]),
        np.array([np.radians(elements.raan_deg)]),
        np.array([np.radians(elements.arg_latitude_deg)]),
        t,
    )[0]
