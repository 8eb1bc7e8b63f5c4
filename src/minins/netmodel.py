"""Topology, static routing, and the store-and-forward pipeline.

Nodes are dense integer ids in creation order. A duplex link is two
independent simplex links with identical parameters, each with its own
queue discipline instance. Forwarding is hop-count shortest path with a
smallest-next-hop tie-break, computed per destination, on the first
packet toward it.

A link transmits one packet at a time: enqueue ('+' trace event, 'd' on
drop), dequeue ('-') when the head of line wins the link, then arrival
at the far node after transmission time plus propagation delay. The far
node either delivers to the packet's sink ('r') or forwards onward. No
per-hop processing delay is modeled. A drop adds one to the `nlost` of
the victim's sink.

`parse_scenario` rejects a scenario whose sink is unreachable from its
source, and every packet is addressed to a bound sink, so forwarding
always finds a next hop and a delivery always finds its sink: neither is
checked per packet.

As in ns-2's `LinkDelay::recv`, a hop's arrival is scheduled when its
transmission starts, so it is one engine event. The end of the
transmission has a key of its own, `(free_at, free_seq)`: the time the
wire is free and a sequence number reserved when the transmission
starts. The link is busy exactly while the event being dispatched comes
before that key. A transmit-complete event that sends the next packet
is pushed under the key only once a packet waits, so an uncontended hop
costs one event and the busy/idle boundary does not depend on whether
the event exists.

The per-packet path makes no call that cannot change state. It reads
the clock as the attribute `engine.now`, skips every trace record when
`tracer` is None (no trace file), and dequeues only when a packet is
waiting: a link's counters say so, since `enqueued - drops - dequeued`
is what its queue holds (`qdisc.held()`). An idle link's queue is
empty, so the packet enqueued on it is always accepted and sent at once.
While the link is busy its queue only grows (a drop replaces the packet
it makes room for), so a waiting packet still waits at `free_at`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
    enqueued: int = 0  # running event counters, mirror the trace
    dequeued: int = 0
    drops: int = 0
    # Key of the current transmission's end: busy while the event being
    # dispatched comes before it.
    free_at: int = -1
    free_seq: int = 0
    # Dequeued but not yet arrived, oldest first: transmissions end in
    # the order they start and the delay is constant, so arrivals fall
    # due in transmit order.
    in_flight: deque = field(default_factory=deque, repr=False)
    tx_done: Callable[[], None] | None = field(default=None, repr=False)
    arrive: Callable[[], None] | None = field(default=None, repr=False)


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
        self.tracer = tracer  # None: no trace file, so nothing is recorded
        self.node_count = node_count
        self.links: list[SimplexLink] = []
        self._sinks: dict[tuple[int, int], object] = {}  # (node, port) -> SinkMonitor
        self._ports = [0] * node_count  # next free port per node
        # incoming links per node, in declaration order: a node's first is
        # from the first declared link touching it
        self.links_into: list[list[SimplexLink]] = [[] for _ in range(node_count)]
        for a, b, bandwidth, delay, qdisc_config in duplex_links:
            for frm, to in ((a, b), (b, a)):
                link = SimplexLink(frm, to, bandwidth, delay, build_qdisc(qdisc_config))
                # The link's engine actions, bound once instead of a
                # closure per packet.
                link.tx_done = partial(self._start_tx, link)
                link.arrive = partial(self._arrive, link)
                self.links.append(link)
                self.links_into[to].append(link)
        # next-hop column per destination, built on the first packet toward it
        self._routes: list[list[SimplexLink | None] | None] = [None] * node_count

    def allot_port(self, node: int) -> int:
        """Next unused port on `node`, in agent creation order from 0."""
        port = self._ports[node]
        self._ports[node] = port + 1
        return port

    def bind_sink(self, sink) -> None:
        """Deliver packets for (sink.node, sink.port) to `sink` and count
        their drops in its `nlost`."""
        self._sinks[(sink.node, sink.port)] = sink

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
                for link in self.links_into[node]:
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
        engine = self.engine
        now = engine.now
        tracer = self.tracer
        if node == pkt.dst:
            if tracer is not None:
                frm = via_link.from_node if via_link is not None else node
                tracer.record("r", now, frm, node, pkt)
            self._sinks[(node, pkt.dport)].on_receive(pkt)
            return
        column = self._routes[pkt.dst]
        if column is None:
            column = self._routes[pkt.dst] = self.compute_routes(pkt.dst)
        link = column[node]
        if tracer is not None:
            tracer.record("+", now, link.from_node, link.to_node, pkt)
        link.enqueued += 1
        victim = link.qdisc.enqueue(pkt).dropped
        if victim is not None:
            if tracer is not None:
                tracer.record("d", now, link.from_node, link.to_node, victim)
            link.drops += 1
            self._sinks[(victim.dst, victim.dport)].nlost += 1
        free_at = link.free_at
        if now < free_at or (now == free_at and engine.seq < link.free_seq):
            # busy: the transmit-complete event sends this packet, pushed
            # now if it is the only one waiting
            if victim is None and link.enqueued - link.drops == link.dequeued + 1:
                engine.schedule(free_at, link.tx_done, link.free_seq)
        else:
            self._start_tx(link)

    def _start_tx(self, link: SimplexLink) -> None:
        """Send the next waiting packet; the caller knows one is waiting.

        Also the transmit-complete action, pushed only while one waits.
        """
        engine = self.engine
        now = engine.now
        pkt = link.qdisc.dequeue()
        if self.tracer is not None:
            self.tracer.record("-", now, link.from_node, link.to_node, pkt)
        link.dequeued += 1
        # tx_time(pkt.size, link.bandwidth), inline
        free_at = link.free_at = now + pkt.size * 8 * NS_PER_SEC // link.bandwidth
        free_seq = link.free_seq = engine.reserve()
        link.in_flight.append(pkt)
        engine.schedule(free_at + link.delay, link.arrive)
        if link.enqueued - link.drops > link.dequeued:  # qdisc.held() > 0
            engine.schedule(free_at, link.tx_done, free_seq)  # back to back

    def _arrive(self, link: SimplexLink) -> None:
        self.forward(link.to_node, link.in_flight.popleft(), link)
