"""Topology, static routing, and the store-and-forward pipeline.

Nodes are dense integer ids in creation order. A duplex link is two
independent simplex links with identical parameters, each with its own
queue discipline instance. Forwarding is hop-count shortest path with a
smallest-next-hop tie-break, computed once when the topology freezes.

A link transmits one packet at a time: enqueue ('+' trace event, 'd' on
drop), dequeue ('-') when the head of line wins the link, then arrival
at the far node after transmission time plus propagation delay. The far
node either delivers to a bound receiver ('r') or forwards onward. No
per-hop processing delay is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalError, SimulationError
from .qdisc import QdiscConfig, build_qdisc
from .units import NS_PER_SEC


@dataclass
class Packet:
    """The unit that is routed, queued, traced, and counted."""

    uid: int  # unique across the whole run
    fid: int  # flow id / traffic class
    ptype: str  # short label: "cbr", "exp", ...
    size: int  # bytes, >= 1
    src: int
    sport: int
    dst: int
    dport: int
    seq: int  # per-flow sequence number
    birth: int  # ns


@dataclass
class SimplexLink:
    from_node: int
    to_node: int
    bandwidth: int  # bits/s
    delay: int  # propagation, ns
    qdisc: object
    busy_until: int = 0
    transmitting: bool = field(default=False, repr=False)
    enqueued: int = 0  # running event counters, mirror the trace
    dequeued: int = 0
    drops: int = 0


def tx_time(size: int, bandwidth: int) -> int:
    """Serialization delay of `size` bytes at `bandwidth` bits/s, in ns.

    Integer floor division; exact for all the usual speed/size pairs
    (1000 B at 10 Mb/s is exactly 800_000 ns).
    """
    return size * 8 * NS_PER_SEC // bandwidth


class Network:
    """Nodes, links, routes, and packet movement over one event engine."""

    def __init__(self, engine, tracer):
        self.engine = engine
        self.tracer = tracer
        self.node_count = 0
        self.links: list[SimplexLink] = []
        self._link_by_pair: dict[tuple[int, int], SimplexLink] = {}
        self._routes: dict[int, dict[int, SimplexLink]] | None = None
        self._receivers: dict[tuple[int, int], object] = {}
        self._ports: list[int] = []  # next free port per node

    # -- topology construction ------------------------------------------

    def add_node(self) -> int:
        if self._routes is not None:
            raise SimulationError("topology is frozen: cannot add node after routing")
        node = self.node_count
        self.node_count += 1
        self._ports.append(0)
        return node

    def add_duplex_link(
        self, a: int, b: int, bandwidth: int, delay: int, qdisc_spec: QdiscConfig
    ) -> tuple[SimplexLink, SimplexLink]:
        """Install two simplex links a->b and b->a with identical parameters.

        Each direction gets its own queue discipline instance.
        """
        if self._routes is not None:
            raise SimulationError("topology is frozen: cannot add link after routing")
        if a == b:
            raise SimulationError(f"self-link forbidden (node {a})")
        for node in (a, b):
            if not 0 <= node < self.node_count:
                raise SimulationError(f"unknown node {node}")
        if (a, b) in self._link_by_pair:
            raise SimulationError(f"duplicate link between nodes {a} and {b}")
        pair = []
        for frm, to in ((a, b), (b, a)):
            link = SimplexLink(frm, to, bandwidth, delay, build_qdisc(qdisc_spec))
            self.links.append(link)
            self._link_by_pair[(frm, to)] = link
            pair.append(link)
        return pair[0], pair[1]

    def link(self, from_node: int, to_node: int) -> SimplexLink:
        return self._link_by_pair[(from_node, to_node)]

    def allot_port(self, node: int) -> int:
        """Next unused port on `node`, in agent creation order from 0."""
        port = self._ports[node]
        self._ports[node] = port + 1
        return port

    def bind_receiver(self, node: int, port: int, callback) -> None:
        self._receivers[(node, port)] = callback

    # -- routing ---------------------------------------------------------

    def compute_routes(self) -> dict[int, dict[int, SimplexLink]]:
        """Freeze the topology and build per-node forwarding tables.

        Shortest path by hop count; equal-cost ties resolved toward the
        smallest next-hop node id so multi-path runs are reproducible.
        Unreachable pairs simply get no entry.
        """
        neighbors: dict[int, list[int]] = {n: [] for n in range(self.node_count)}
        for (frm, to) in self._link_by_pair:
            neighbors[frm].append(to)
        for lst in neighbors.values():
            lst.sort()

        dist = [self._bfs_distances(src, neighbors) for src in range(self.node_count)]

        routes: dict[int, dict[int, SimplexLink]] = {}
        for src in range(self.node_count):
            table: dict[int, SimplexLink] = {}
            for dst in range(self.node_count):
                if dst == src or dist[src][dst] is None:
                    continue
                next_hop = min(
                    n for n in neighbors[src]
                    if dist[n][dst] is not None and dist[n][dst] == dist[src][dst] - 1
                )
                table[dst] = self._link_by_pair[(src, next_hop)]
            routes[src] = table
        self._routes = routes
        return routes

    def reachable(self, src: int, dst: int) -> bool:
        """Whether a packet from `src` can reach `dst` (after routing)."""
        if self._routes is None:
            raise SimulationError("routes not computed")
        return src == dst or dst in self._routes[src]

    def _bfs_distances(self, src: int, neighbors) -> list:
        dist = [None] * self.node_count
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for node in frontier:
                for n in neighbors[node]:
                    if dist[n] is None:
                        dist[n] = dist[node] + 1
                        nxt.append(n)
            frontier = nxt
        return dist

    # -- packet movement ---------------------------------------------------

    def forward(self, node: int, pkt: Packet, via_link: SimplexLink | None = None) -> None:
        """Move `pkt` onward from `node`: deliver here, or queue on the
        outgoing link toward pkt.dst (starting transmission if idle)."""
        if self._routes is None:
            raise SimulationError("routes not computed")
        if node == pkt.dst:
            self._deliver(node, pkt, via_link)
            return
        link = self._routes[node].get(pkt.dst)
        if link is None:
            raise SimulationError(f"no route from node {node} to node {pkt.dst}")
        self.tracer.record("+", self.engine.now(), link.from_node, link.to_node, pkt)
        link.enqueued += 1
        result = link.qdisc.enqueue(pkt)
        if result.dropped is not None:
            self.tracer.record("d", self.engine.now(), link.from_node, link.to_node, result.dropped)
            link.drops += 1
        if not link.transmitting:
            self._start_tx(link)

    def _deliver(self, node: int, pkt: Packet, via_link: SimplexLink | None) -> None:
        frm = via_link.from_node if via_link is not None else node
        self.tracer.record("r", self.engine.now(), frm, node, pkt)
        receiver = self._receivers.get((node, pkt.dport))
        if receiver is None:
            raise InternalError(f"no receiver bound at node {node} port {pkt.dport}")
        receiver(pkt)

    def _start_tx(self, link: SimplexLink) -> None:
        pkt = link.qdisc.dequeue()
        if pkt is None:
            link.transmitting = False
            return
        now = self.engine.now()
        self.tracer.record("-", now, link.from_node, link.to_node, pkt)
        link.dequeued += 1
        link.transmitting = True
        link.busy_until = now + tx_time(pkt.size, link.bandwidth)
        self.engine.schedule(link.busy_until, lambda: self._tx_complete(link, pkt))

    def _tx_complete(self, link: SimplexLink, pkt: Packet) -> None:
        self.engine.schedule(
            self.engine.now() + link.delay, lambda: self.forward(link.to_node, pkt, link)
        )
        self._start_tx(link)  # next waiting packet, back to back
