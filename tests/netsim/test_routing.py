"""Route computation: the stdlib Dijkstra against networkx as oracle.

``install_shortest_path_routes`` must install exactly the next hops
that ``nx.all_pairs_dijkstra_path`` names, ties included, and no route
to an unreachable node. ``Network.route_names`` must name the path a
packet is forwarded along, hop by hop.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.netsim.engine import Simulator
from repro.netsim.node import Router
from repro.netsim.packet import Packet, Protocol
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.topology import Network


@st.composite
def topologies(draw):
    """Names plus (a, b, weight) links: tied integer weights, self-loops,
    parallel links re-added with a new weight, isolated nodes and
    disconnected parts."""
    names = [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    node = st.sampled_from(names)
    weight = st.integers(0, 3).map(float)
    links = draw(st.lists(st.tuples(node, node, weight),
                          max_size=2 * len(names)))
    if links:
        # Re-add some links, either way round, with a fresh weight.
        for index, flip, new in draw(st.lists(
                st.tuples(st.integers(0, len(links) - 1), st.booleans(),
                          weight), max_size=4)):
            a, b, _ = links[index]
            links.append((b, a, new) if flip else (a, b, new))
    return names, links


def oracle_graph(names, links):
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for a, b, weight in links:
        graph.add_edge(a, b, weight=weight)
    return graph


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_installed_next_hops_match_networkx(topology):
    names, links = topology
    sim = Simulator()
    nodes = [Router(sim, name, f"10.0.0.{i + 1}")
             for i, name in enumerate(names)]
    by_name = {node.name: node for node in nodes}
    for a, b, _ in links:
        by_name[a].attach(b, None)
        by_name[b].attach(a, None)
    install_shortest_path_routes(nodes, links)

    paths = dict(nx.all_pairs_dijkstra_path(oracle_graph(names, links),
                                            weight="weight"))
    for src in nodes:
        # Equality also says an unreachable destination has no route.
        assert src.routes == {by_name[dst].address: path[1]
                              for dst, path in paths[src.name].items()
                              if len(path) > 1}


def equal_cost_ring():
    """a -2- b -1- c -2- d -1- a: a reaches c at cost 3 either way.

    ``a`` settles ``d`` first, so it forwards toward c via d, and d
    delivers straight to c. networkx's bidirectional search names the
    other path, a - b - c.
    """
    net = Network()
    net.add_host("a", "10.0.0.1")
    net.add_router("b")
    net.add_host("c", "10.0.0.3")
    net.add_router("d")
    for x, y, weight in (("a", "b", 2.0), ("b", "c", 1.0),
                         ("c", "d", 2.0), ("d", "a", 1.0)):
        net.connect(x, y, delay=0.001, weight=weight)
    net.finalize()
    return net


def test_route_names_follow_the_installed_next_hops():
    net = equal_cost_ring()
    assert net.route_names("a", "c") == ["a", "d", "c"]
    assert net.route_names("c", "a") == ["c", "b", "a"]
    assert net.route_names("a", "a") == ["a"]
    # A packet takes the named path.
    net.host("a").send(Packet(src="10.0.0.1", dst="10.0.0.3",
                              protocol=Protocol.TCP, size=100, dst_port=9))
    net.run()
    assert net.node("d").packets_forwarded == 1
    assert net.node("b").packets_forwarded == 0


def test_route_names_raise_when_unreachable():
    net = Network()
    net.add_host("a")
    net.add_router("r")
    net.add_host("island")
    net.connect("a", "r")
    net.finalize()
    assert net.route_names("a", "r") == ["a", "r"]
    with pytest.raises(RoutingError):
        net.route_names("a", "island")
