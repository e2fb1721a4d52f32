"""Network builder: nodes + links + routes in one object.

:class:`Network` is the convenience layer the access-network models
use: create hosts/routers by name, connect them with link parameters,
then call :meth:`finalize` to compute and install routes. It also
hands out RFC-1918-flavoured addresses when callers do not care.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError, RoutingError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.loss import LossModel
from repro.netsim.node import (DEFAULT_ROUTE, Host, NatBox, Node, Router,
                               Shaper)
from repro.netsim.queues import DropTailQueue
from repro.netsim.routing import install_shortest_path_routes


class Network:
    """A simulator plus the nodes and links built on top of it."""

    def __init__(self, sim: Simulator | None = None):
        self.sim = sim or Simulator()
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self._edges: list[tuple[str, str, float]] = []
        self._next_host_octet = 10
        self._finalized = False

    # -- node creation ---------------------------------------------------

    def _register(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def _auto_address(self) -> str:
        octet = self._next_host_octet
        self._next_host_octet += 1
        return f"10.0.{octet // 250}.{octet % 250 + 1}"

    def add_host(self, name: str, address: str | None = None) -> Host:
        """Create an end host."""
        return self._register(
            Host(self.sim, name, address or self._auto_address()))

    def add_router(self, name: str, address: str | None = None) -> Router:
        """Create a plain forwarding router."""
        return self._register(
            Router(self.sim, name, address or self._auto_address()))

    def add_nat(self, name: str, address: str,
                inside_neighbor: str) -> NatBox:
        """Create a NAT box whose inside faces ``inside_neighbor``."""
        return self._register(
            NatBox(self.sim, name, address, inside_neighbor))

    def add_shaper(self, name: str, address: str | None = None,
                   classifier=None,
                   class_rates: dict[str, float] | None = None,
                   burst_bytes: int = 64_000) -> Shaper:
        """Create a traffic-discrimination shaper."""
        return self._register(
            Shaper(self.sim, name, address or self._auto_address(),
                   classifier=classifier, class_rates=class_rates,
                   burst_bytes=burst_bytes))

    # -- wiring ------------------------------------------------------

    def connect(self, a: str, b: str,
                rate_ab: float | None = None,
                rate_ba: float | None = None,
                delay: float | Callable[[float], float] = 0.0,
                delay_ba: float | Callable[[float], float] | None = None,
                queue_ab: DropTailQueue | None = None,
                queue_ba: DropTailQueue | None = None,
                loss_ab: LossModel | None = None,
                loss_ba: LossModel | None = None,
                weight: float = 1.0) -> Link:
        """Create a bidirectional link between named nodes."""
        for name in (a, b):
            if name not in self.nodes:
                raise ConfigurationError(f"unknown node {name!r}")
        link = Link(self.sim, self.nodes[a], self.nodes[b],
                    rate_ab=rate_ab, rate_ba=rate_ba,
                    delay=delay, delay_ba=delay_ba,
                    queue_ab=queue_ab, queue_ba=queue_ba,
                    loss_ab=loss_ab, loss_ba=loss_ba)
        self.links.append(link)
        self._edges.append((a, b, weight))
        return link

    def finalize(self) -> None:
        """Compute and install shortest-path routes on every node."""
        install_shortest_path_routes(list(self.nodes.values()), self._edges)
        self._finalized = True

    # -- lookups -----------------------------------------------------

    def host(self, name: str) -> Host:
        """Fetch a host by name (raising on routers)."""
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise ConfigurationError(f"{name!r} is not a Host")
        return node

    def node(self, name: str) -> Node:
        """Fetch any node by name."""
        return self.nodes[name]

    def link_between(self, a: str, b: str) -> Link:
        """The (first) link connecting two named nodes."""
        for link in self.links:
            names = {link.a.name, link.b.name}
            if names == {a, b}:
                return link
        raise ConfigurationError(f"no link between {a!r} and {b!r}")

    def route_names(self, src: str, dst: str) -> list[str]:
        """Node names a packet from ``src`` to ``dst`` is forwarded
        through, endpoints included: the installed next hops."""
        address = self.nodes[dst].address
        path = [src]
        while path[-1] != dst:
            routes = self.nodes[path[-1]].routes
            via = routes.get(address) or routes.get(DEFAULT_ROUTE)
            if via is None or len(path) > len(self.nodes):
                raise RoutingError(
                    f"no route from {src} to {dst} at {path[-1]}")
            path.append(via)
        return path

    def run(self, until: float | None = None) -> None:
        """Convenience passthrough to the simulator."""
        self.sim.run(until=until)
