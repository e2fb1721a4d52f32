"""Fleet placement: many terminals on one shared constellation.

The paper measures a single dish; its follow-ons need many vantage
points on the *same* constellation. :class:`FleetSpec` places a
fleet's terminals across latitude bands, round-robin with
per-terminal seeded jitter, which is how the multi-vantage campaign
mode spreads its dishes.

The fleet is scheduled by :class:`~repro.leo.scheduling.FleetScheduler`,
the one implementation of slot selection, re-exported here: it
computes each slot for all T terminals in one batched pass, and a
single dish is its one-row case. Rows may move and carry their own
sky masks; the campaign's fleet mode keeps its terminals fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.leo.geometry import GeoPoint
from repro.leo.ground import UserTerminal
from repro.leo.scheduling import FleetScheduler, fleet_seeds
from repro.rng import make_rng

__all__ = [
    "FleetScheduler",
    "FleetSpec",
    "build_fleet_terminals",
    "fleet_seeds",
]


@dataclass(frozen=True)
class FleetSpec:
    """Seeded placement of a terminal fleet across latitude bands."""

    terminals: int
    #: (low, high) latitude bands, degrees; terminals are assigned
    #: round-robin so every band gets an even share.
    lat_bands: tuple[tuple[float, float], ...] = ((48.5, 52.5),)
    #: (low, high) longitude range shared by all bands, degrees.
    lon_range: tuple[float, float] = (2.0, 7.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.terminals < 1:
            raise ConfigurationError(
                f"FleetSpec.terminals must be >= 1, got {self.terminals}")
        if not self.lat_bands:
            raise ConfigurationError("FleetSpec.lat_bands is empty")
        for lo, hi in self.lat_bands:
            if not lo <= hi:
                raise ConfigurationError(
                    f"inverted latitude band ({lo}, {hi})")
        lo, hi = self.lon_range
        if not lo <= hi:
            raise ConfigurationError(
                f"inverted longitude range ({lo}, {hi})")


def build_fleet_terminals(spec: FleetSpec) -> list[UserTerminal]:
    """The spec's terminals, deterministically placed.

    Terminal ``i`` draws its site from the stream seeded
    ``(spec.seed, "fleet-site", i)``, so growing the fleet never
    moves an existing terminal.
    """
    terminals = []
    for i in range(spec.terminals):
        lo_lat, hi_lat = spec.lat_bands[i % len(spec.lat_bands)]
        lo_lon, hi_lon = spec.lon_range
        rng = make_rng((spec.seed, "fleet-site", i))
        lat = lo_lat + rng.random() * (hi_lat - lo_lat)
        lon = lo_lon + rng.random() * (hi_lon - lo_lon)
        terminals.append(
            UserTerminal(f"ut-fleet-{i:04d}", GeoPoint(lat, lon)))
    return terminals
