"""Tests for the ISL-routing extension (the paper's future work)."""

import random

import networkx as nx
import pytest

from repro.leo.constellation import Constellation, WalkerShell
from repro.leo.geometry import GeoPoint
from repro.leo.isl import IslPath, IslRouter, bent_pipe_vs_isl
from repro.units import to_ms

BELGIUM = GeoPoint(50.67, 4.61)
SINGAPORE = GeoPoint(1.35, 103.82)
FREMONT = GeoPoint(37.55, -121.99)
AMSTERDAM = GeoPoint(52.37, 4.90)


@pytest.fixture(scope="module")
def router():
    return IslRouter(Constellation())


def test_grid_neighbours_are_four(router):
    for index in (0, 17, 1583):
        neighbors = router._neighbors(index)
        assert len(set(neighbors)) == 4
        assert index not in neighbors


def oracle_graph(adjacency):
    """A networkx copy of a router adjacency, for the oracle."""
    graph = nx.Graph()
    graph.add_nodes_from(adjacency)
    graph.add_weighted_edges_from((a, b, weight)
                                  for a, nbrs in adjacency.items()
                                  for b, weight in nbrs.items())
    return graph


def test_graph_is_connected(router):
    graph = oracle_graph(router.graph_at(0.0))
    assert graph.number_of_nodes() == 1584
    # +grid: 2 undirected edges per satellite.
    assert graph.number_of_edges() == 2 * 1584
    assert nx.is_connected(graph)


def test_paths_match_networkx_shortest_path(router):
    """The router's Dijkstra names networkx's route, hop for hop and
    metre for metre, on the same graph at seeded (src, dst, t)."""
    rng = random.Random(2022)
    for _ in range(40):
        src, dst = (GeoPoint(rng.uniform(-50.0, 50.0),
                             rng.uniform(-180.0, 180.0)) for _ in range(2))
        t = rng.uniform(0.0, 6_000.0)
        graph = oracle_graph(router.graph_at(t))
        for name, ground in (("src", src), ("dst", dst)):
            for idx, rng_m in zip(*router._visible(ground, t)):
                graph.add_edge(name, int(idx), weight=float(rng_m))
        route = nx.shortest_path(graph, "src", "dst", weight="weight")
        expected = IslPath(
            satellite_hops=tuple(route[1:-1]),
            distance_m=float(sum(graph[a][b]["weight"]
                                 for a, b in zip(route, route[1:]))))
        assert router.path(src, dst, t) == expected


def test_nearby_destination_uses_few_hops(router):
    path = router.path(BELGIUM, AMSTERDAM, t=0.0)
    assert path.hop_count <= 3
    assert to_ms(path.rtt) < 25


def test_long_haul_rtt_below_bent_pipe(router):
    """ISL to Singapore beats the paper's 270 ms bent-pipe median."""
    path = router.path(BELGIUM, SINGAPORE, t=0.0)
    assert path.hop_count >= 5          # genuinely multi-hop
    assert 60 <= to_ms(path.rtt) <= 200
    comparison = bent_pipe_vs_isl(BELGIUM, SINGAPORE,
                                  bent_pipe_rtt_s=0.270,
                                  router=router)
    assert comparison["improvement_s"] > 0.05
    assert comparison["speedup"] > 1.3


def test_fremont_isl_rtt(router):
    """Fremont: ~8800 km great circle -> sky RTT well under the
    measured 184 ms."""
    rtt = router.rtt_estimate(BELGIUM, FREMONT, t=0.0)
    assert 0.06 <= rtt <= 0.17


def test_rtt_varies_with_time(router):
    samples = {round(router.rtt_estimate(BELGIUM, SINGAPORE,
                                         t=t * 120.0), 6)
               for t in range(4)}
    assert len(samples) > 1
