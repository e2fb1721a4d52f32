"""Static route computation over a simulated topology.

Routes are computed once with Dijkstra's algorithm over explicit link
weights (1.0 by default, i.e. hop count) and installed as
per-destination entries on every node. The simulated networks are
small (tens of nodes), so full any-to-any tables are cheap and keep
forwarding trivial. :func:`shortest_paths` breaks ties in a fixed
order, which the tests check against a reference graph library.
"""

from __future__ import annotations

from collections.abc import Hashable
from heapq import heappop, heappush
from itertools import count

from repro.errors import RoutingError
from repro.netsim.node import Node

#: ``{node: {neighbour: weight}}``, undirected, in insertion order.
Adjacency = dict[Hashable, dict[Hashable, float]]


def add_edge(adj: Adjacency, a: Hashable, b: Hashable,
             weight: float) -> None:
    """Link ``a`` and ``b``; re-adding a link overwrites its weight."""
    adj.setdefault(a, {})[b] = weight
    adj.setdefault(b, {})[a] = weight


def shortest_paths(adj: Adjacency, source: Hashable,
                   target: Hashable | None = None
                   ) -> tuple[dict, dict]:
    """Dijkstra from ``source``; stops once ``target`` is settled.

    Returns ``(dist, pred)``: ``dist`` maps every settled node, in
    settling order, to its distance; ``pred`` maps each node reached
    from ``source`` to its predecessor. Equal distances pop in push
    order and a predecessor changes only on a strictly shorter
    distance, so equal-cost ties always resolve the same way. Weights
    must be non-negative.
    """
    dist: dict = {}
    seen = {source: 0}
    pred: dict = {}
    pushes = count(1)
    fringe = [(0, 0, source)]
    while fringe:
        d, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = d
        if v == target:
            break
        for u, weight in adj[v].items():
            vu = d + weight
            if u not in dist and (u not in seen or vu < seen[u]):
                seen[u] = vu
                pred[u] = v
                heappush(fringe, (vu, next(pushes), u))
    return dist, pred


def install_shortest_path_routes(nodes: list[Node],
                                 edges: list[tuple[str, str, float]]) -> None:
    """Install any-to-any shortest-path routes on every node.

    Destination keys are node *addresses*; next hops are neighbour
    node names, matching :class:`repro.netsim.node.Node` tables.
    Unreachable destinations get no route.
    """
    adj: Adjacency = {node.name: {} for node in nodes}
    for a, b, weight in edges:
        add_edge(adj, a, b, weight)
    by_name = {node.name: node for node in nodes}
    for src in nodes:
        dist, pred = shortest_paths(adj, src.name)
        first_hop: dict[str, str] = {}
        # Settling order puts every predecessor before its successors.
        for dst_name in list(dist)[1:]:
            via = pred[dst_name]
            next_hop = first_hop[dst_name] = (
                dst_name if via == src.name else first_hop[via])
            if next_hop not in src.neighbors:
                raise RoutingError(
                    f"{src.name}: computed next hop {next_hop} is not "
                    f"attached")
            src.routes[by_name[dst_name].address] = next_hop
