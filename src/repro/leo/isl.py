"""Inter-satellite-link (ISL) routing -- the paper's future work.

During the measurement campaign ISLs were not enabled: all traffic
went dish -> satellite -> nearby gateway, so reaching Singapore meant
exiting in Germany and riding terrestrial fibre (Sec. 3.1, Sec. 4).
The paper anticipates ISL activation "by the end of 2022".

This module implements that future: a +grid ISL topology (each
satellite links to its in-plane neighbours and the nearest satellites
of adjacent planes), shortest-delay routing over the constellation
with the simulator's own Dijkstra
(:func:`repro.netsim.routing.shortest_paths`), and an RTT estimator
for dish -> sky path -> remote ground station. Comparing it against
the bent-pipe model reproduces the Hypatia-style prediction the paper
cites: long-haul RTTs drop substantially once packets route through
the sky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.leo.constellation import Constellation
from repro.leo.geometry import GeoPoint, elevation_angle, slant_range
from repro.netsim.routing import Adjacency, add_edge, shortest_paths
from repro.units import SPEED_OF_LIGHT, ms

#: Minimum elevation for the ground <-> satellite legs.
GROUND_MIN_ELEVATION_DEG = 25.0

#: Per-satellite forwarding/processing latency.
SATELLITE_PROCESSING_S = ms(0.3)


@dataclass(frozen=True)
class IslPath:
    """One sky route between two ground points."""

    satellite_hops: tuple[int, ...]
    distance_m: float

    @property
    def hop_count(self) -> int:
        """Number of satellites traversed."""
        return len(self.satellite_hops)

    @property
    def one_way_delay(self) -> float:
        """Propagation plus per-hop processing, seconds."""
        return (self.distance_m / SPEED_OF_LIGHT
                + self.hop_count * SATELLITE_PROCESSING_S)

    @property
    def rtt(self) -> float:
        """Symmetric-path round trip, seconds."""
        return 2.0 * self.one_way_delay


class IslRouter:
    """Shortest-delay routing over a +grid ISL constellation."""

    def __init__(self, constellation: Constellation | None = None):
        self.constellation = constellation or Constellation()
        shell = self.constellation.shells[0]
        self._planes = shell.planes
        self._per_plane = shell.sats_per_plane

    def _neighbors(self, index: int) -> list[int]:
        """+grid: two in-plane neighbours, two cross-plane."""
        plane, slot = divmod(index, self._per_plane)
        in_plane = [plane * self._per_plane
                    + ((slot + d) % self._per_plane) for d in (-1, 1)]
        cross = [((plane + d) % self._planes) * self._per_plane + slot
                 for d in (-1, 1)]
        return in_plane + cross

    def graph_at(self, t: float) -> Adjacency:
        """ISL adjacency ``{sat: {neighbour: metres}}`` at time ``t``."""
        positions = self.constellation.positions(t)
        n = self.constellation.size
        graph: Adjacency = {index: {} for index in range(n)}
        for index in range(n):
            for neighbor in self._neighbors(index):
                if neighbor <= index:
                    continue
                add_edge(graph, index, neighbor, float(np.linalg.norm(
                    positions[index] - positions[neighbor])))
        return graph

    def _visible(self, ground: GeoPoint, t: float) -> tuple:
        ecef = ground.to_ecef()
        indices, _, ranges = self.constellation.visible_from(
            ecef, t, min_elevation_deg=GROUND_MIN_ELEVATION_DEG)
        if indices.size == 0:
            raise RoutingError(
                f"no satellite visible from {ground} at t={t}")
        return indices, ranges

    def path(self, src: GeoPoint, dst: GeoPoint, t: float) -> IslPath:
        """Shortest sky route from ``src`` to ``dst`` at time ``t``.

        Up- and downlink satellites are chosen *jointly*: virtual
        ground nodes attach to every visible satellite, so the
        ground-to-ground shortest path picks the pair that minimises
        the total route. (Two physically close satellites on crossing
        planes can be many grid hops apart -- greedy highest-elevation
        selection would route half way around the grid.)
        """
        graph = self.graph_at(t)
        src_vis, src_ranges = self._visible(src, t)
        dst_vis, dst_ranges = self._visible(dst, t)
        for idx, rng_m in zip(src_vis, src_ranges):
            add_edge(graph, "src", int(idx), float(rng_m))
        for idx, rng_m in zip(dst_vis, dst_ranges):
            add_edge(graph, "dst", int(idx), float(rng_m))
        _, pred = shortest_paths(graph, "src", target="dst")
        if "dst" not in pred:  # pragma: no cover
            raise RoutingError("ISL grid is disconnected")
        route = ["dst"]
        while route[-1] != "src":
            route.append(pred[route[-1]])
        route.reverse()
        hops = [n for n in route if isinstance(n, int)]
        distance = sum(graph[a][b] for a, b in zip(route, route[1:]))
        return IslPath(satellite_hops=tuple(hops),
                       distance_m=float(distance))

    def rtt_estimate(self, src: GeoPoint, dst: GeoPoint,
                     t: float) -> float:
        """One ISL RTT sample (no queueing/jitter), seconds."""
        return self.path(src, dst, t).rtt


def bent_pipe_vs_isl(src: GeoPoint, dst: GeoPoint,
                     bent_pipe_rtt_s: float, t: float = 0.0,
                     router: IslRouter | None = None) -> dict:
    """Compare the measured bent-pipe RTT with the ISL prediction."""
    router = router or IslRouter()
    isl_rtt = router.rtt_estimate(src, dst, t)
    return {
        "bent_pipe_rtt_s": bent_pipe_rtt_s,
        "isl_rtt_s": isl_rtt,
        "improvement_s": bent_pipe_rtt_s - isl_rtt,
        "speedup": (bent_pipe_rtt_s / isl_rtt
                    if isl_rtt > 0 else float("inf")),
    }
