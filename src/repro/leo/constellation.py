"""Walker-delta constellations and visibility search.

Starlink shell 1 (the operational shell during the paper's campaign)
is a Walker-delta pattern: 72 planes at 53 degrees inclination and
~550 km altitude, 22 satellites per plane. The phasing factor spreads
satellites of adjacent planes so coverage gaps do not line up.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.leo.geometry import elevation_angle, slant_range
from repro.leo.orbits import orbit_terms, positions_at
from repro.units import km


@dataclass(frozen=True)
class WalkerShell:
    """One Walker-delta shell: i:T/P/F in Walker notation."""

    altitude_m: float = km(550)
    inclination_deg: float = 53.0
    planes: int = 72
    sats_per_plane: int = 22
    phasing: int = 39          # F in Walker notation, [0, planes)

    def __post_init__(self) -> None:
        if self.planes <= 0 or self.sats_per_plane <= 0:
            raise ConfigurationError("planes and sats_per_plane must be > 0")
        if not 0 <= self.phasing < self.planes:
            raise ConfigurationError(
                f"phasing must be in [0, {self.planes}), got {self.phasing}")

    @property
    def total_satellites(self) -> int:
        """Number of satellites in the shell."""
        return self.planes * self.sats_per_plane

    def element_arrays(self) -> tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
        """Vectorised element arrays (altitude, inclination, RAAN,
        argument of latitude), one entry per satellite, radians."""
        total = self.total_satellites
        plane_idx = np.repeat(np.arange(self.planes), self.sats_per_plane)
        slot_idx = np.tile(np.arange(self.sats_per_plane), self.planes)
        raan = 2.0 * np.pi * plane_idx / self.planes
        in_plane = 2.0 * np.pi * slot_idx / self.sats_per_plane
        phase_shift = (2.0 * np.pi * self.phasing
                       * plane_idx / (self.planes * self.sats_per_plane))
        arg_lat = in_plane + phase_shift
        altitudes = np.full(total, self.altitude_m)
        inclinations = np.full(total, np.radians(self.inclination_deg))
        return altitudes, inclinations, raan, arg_lat


@dataclass
class Constellation:
    """A set of shells with position and visibility queries.

    The default constellation is Starlink shell 1 as deployed during
    the measurement campaign. Positions are cached per query time, as
    scheduling evaluates several ground sites at the same instant.
    """

    shells: list[WalkerShell] = field(
        default_factory=lambda: [WalkerShell()])
    #: Minimum usable elevation for the user terminal, degrees.
    min_elevation_deg: float = 25.0
    #: Distinct query times the position cache holds. One entry
    #: suffices for a single scheduler, but a fleet interleaves
    #: queries at alternating times (slot sweeps, handover scans) and
    #: would thrash a single-entry cache.
    position_cache_size: int = 8

    def __post_init__(self) -> None:
        arrays = [shell.element_arrays() for shell in self.shells]
        # Every time-invariant orbit term, computed once: a position
        # query then costs only the terms that move with ``t``.
        self._orbits = orbit_terms(
            *(np.concatenate(column) for column in zip(*arrays)))
        self._position_cache: OrderedDict[float, np.ndarray] = \
            OrderedDict()
        #: Position-cache effectiveness counters (observability for
        #: the fleet access pattern; not part of any digest).
        self.position_cache_hits = 0
        self.position_cache_misses = 0

    @property
    def size(self) -> int:
        """Total number of satellites across all shells."""
        return int(self._orbits.radius.shape[0])

    def orbit_radii(self) -> np.ndarray:
        """(N,) orbit radii (Earth centre to satellite), metres.

        Circular orbits: the radius is exactly altitude + Earth
        radius at every instant, which makes unit direction vectors
        cheap -- ``positions(t) / orbit_radii()[:, None]`` -- without
        any per-time norm.
        """
        return self._orbits.radius.copy()

    def positions(self, t: float) -> np.ndarray:
        """(N, 3) ECEF positions at time ``t``, metres.

        Cached per query time in a small LRU
        (:attr:`position_cache_size` entries), so interleaved queries
        at a handful of alternating times -- the multi-terminal access
        pattern -- all hit.
        """
        cached = self._position_cache.get(t)
        if cached is not None:
            self._position_cache.move_to_end(t)
            self.position_cache_hits += 1
            return cached
        self.position_cache_misses += 1
        positions = positions_at(self._orbits, t)
        self._position_cache[t] = positions
        while len(self._position_cache) > self.position_cache_size:
            self._position_cache.popitem(last=False)
        return positions

    def visible_from(self, ground_ecef: np.ndarray, t: float,
                     min_elevation_deg: float | None = None,
                     up: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Satellites visible from a ground point at time ``t``.

        Returns ``(indices, elevations_deg, ranges_m)`` sorted by
        descending elevation. ``up`` optionally passes the
        precomputed :func:`repro.leo.geometry.unit_up` of the ground
        point through to :func:`elevation_angle` (bit-identical).
        """
        min_el = (self.min_elevation_deg if min_elevation_deg is None
                  else min_elevation_deg)
        positions = self.positions(t)
        elevations = elevation_angle(ground_ecef, positions, up=up)
        mask = elevations >= min_el
        indices = np.nonzero(mask)[0]
        if indices.size == 0:
            return indices, np.array([]), np.array([])
        elev = elevations[indices]
        ranges = slant_range(ground_ecef, positions[indices])
        order = np.argsort(-elev)
        return indices[order], elev[order], ranges[order]

    def range_to(self, ground_ecef: np.ndarray, sat_index: int,
                 t: float) -> float:
        """Slant range from a ground point to one satellite, metres."""
        return float(slant_range(ground_ecef,
                                 self.positions(t)[sat_index]))
