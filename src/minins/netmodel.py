"""Topology, static routing, and the store-and-forward pipeline.

Nodes are dense integer ids in creation order. A duplex link is two
independent simplex links with identical parameters, each with its own
queue discipline instance. Forwarding is hop-count shortest path with a
smallest-next-hop tie-break, computed per destination, on the first
packet toward it.

A link transmits one packet at a time: enqueue ('+' trace event, 'd' on
drop), dequeue ('-') when the head of line wins the link, then arrival
at the far node after transmission time plus propagation delay. The far
node either delivers to a bound receiver ('r') or forwards onward. No
per-hop processing delay is modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalError, SimulationError
from .qdisc import build_qdisc
from .units import NS_PER_SEC


@dataclass(slots=True)
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
    tail: str | None = field(default=None, repr=False, compare=False)  # TraceWriter's cache


@dataclass
class SimplexLink:
    from_node: int
    to_node: int
    bandwidth: int  # bits/s
    delay: int  # propagation, ns
    qdisc: object
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
    """Nodes, links, routes, and packet movement over one event engine.

    Built in one step from a validated topology: `node_count` dense node
    ids and one (a, b, bandwidth, delay, qdisc_config) entry per duplex
    link, which becomes two simplex links a->b and b->a with identical
    parameters, each with its own queue discipline instance.
    """

    def __init__(self, engine, tracer, node_count: int, duplex_links):
        self.engine = engine
        self.tracer = tracer
        self.node_count = node_count
        self.links: list[SimplexLink] = []
        self._link_by_pair: dict[tuple[int, int], SimplexLink] = {}
        self._receivers: dict[tuple[int, int], object] = {}
        self._ports = [0] * node_count  # next free port per node
        self._links_into: list[list[SimplexLink]] = [[] for _ in range(node_count)]
        for a, b, bandwidth, delay, qdisc_config in duplex_links:
            for frm, to in ((a, b), (b, a)):
                link = SimplexLink(frm, to, bandwidth, delay, build_qdisc(qdisc_config))
                self.links.append(link)
                self._link_by_pair[(frm, to)] = link
                self._links_into[to].append(link)
        # next-hop column per destination, built on the first packet toward it
        self._routes: list[list[SimplexLink | None] | None] = [None] * node_count

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

    def compute_routes(self, dst: int) -> list[SimplexLink | None]:
        """Next-hop link toward `dst` from every node, indexed by node id.

        Shortest path by hop count; equal-cost ties resolved toward the
        smallest next-hop node id so multi-path runs are reproducible.
        One BFS backward from `dst` over incoming links, visiting each
        level in ascending node order, so the first node of a level to
        reach a neighbour is its smallest next hop. `dst` itself and
        nodes with no path to it get None.
        """
        column: list[SimplexLink | None] = [None] * self.node_count
        frontier = [dst]
        while frontier:
            nxt = []
            for node in sorted(frontier):
                for link in self._links_into[node]:
                    frm = link.from_node
                    if column[frm] is None and frm != dst:
                        column[frm] = link
                        nxt.append(frm)
            frontier = nxt
        return column

    # -- packet movement ---------------------------------------------------

    def forward(self, node: int, pkt: Packet, via_link: SimplexLink | None = None) -> None:
        """Move `pkt` onward from `node`: deliver here, or queue on the
        outgoing link toward pkt.dst (starting transmission if idle)."""
        if node == pkt.dst:
            self._deliver(node, pkt, via_link)
            return
        column = self._routes[pkt.dst]
        if column is None:
            column = self._routes[pkt.dst] = self.compute_routes(pkt.dst)
        link = column[node]
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
        self.engine.schedule(
            now + tx_time(pkt.size, link.bandwidth), lambda: self._tx_complete(link, pkt)
        )

    def _tx_complete(self, link: SimplexLink, pkt: Packet) -> None:
        self.engine.schedule(
            self.engine.now() + link.delay, lambda: self.forward(link.to_node, pkt, link)
        )
        self._start_tx(link)  # next waiting packet, back to back
