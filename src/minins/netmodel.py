"""Topology, static routing, and the store-and-forward pipeline.

Nodes are dense integer ids in creation order. A duplex link is two
independent simplex links with identical parameters, each with its own
queue discipline instance. Forwarding is hop-count shortest path with a
smallest-next-hop tie-break, computed per destination the first time
`route_to` names it, so the routes are fixed once the network is built.

A link transmits one packet at a time: enqueue ('+' trace event, 'd' on
drop), dequeue ('-') when the head of line wins the link, then arrival
at the far node after transmission time plus propagation delay. The far
node either delivers to the packet's sink ('r') or forwards onward. No
per-hop processing delay is modeled. A drop adds one to the `nlost` of
the victim's sink.

A packet's only record of where it goes is the sink that counts it
(`pkt.sink`): its destination is that sink's node and port, so a
delivery and a drop find their sink without a lookup. `parse_scenario`
rejects a sink unreachable from its source, and the sink's node is
routed to before any packet is sent, so forwarding always finds a next
hop: neither is checked per packet.

As in ns-2's `LinkDelay::recv`, a hop's arrival is scheduled when its
transmission starts, so it is one engine event. The end of the
transmission has a key of its own, `(free_at, free_seq)`: the time the
wire is free and a sequence number reserved when the transmission
starts. The link is busy exactly while the event being dispatched comes
before that key. A transmit-complete event that sends the next packet
is pushed under the key only once a packet waits, so an uncontended hop
costs one event and the busy/idle boundary does not depend on whether
the event exists.

Every sink is a `SinkMonitor`, whose `on_receive` only counts: it
reads no clock and changes nothing but the sink's own counters. So an
untraced run credits a delivery when the last hop's transmission
starts, not in an arrival event, if the arrival falls within the
running `run_until` limit (`engine.limit`). The hop then has no
arrival event and no `in_flight` entry. Removing an event changes no
other state, and sequence numbers stay monotone, so the remaining
events keep their order; when `run_until(L)` returns, exactly the
deliveries at times <= L are credited, as with arrival events. A
packet sent outside a run and every traced run keep the arrival event,
so a trace's `r` lines carry the true delivery times.

The per-packet path makes no call that cannot change state. It reads
the clock as the attribute `engine.now`, skips every trace record when
`tracer` is None (no trace file), and dequeues only when a packet is
waiting: a link's counters say so, since `enqueued - drops - dequeued`
is what its queue holds (`qdisc.held()`). An idle link's queue is
empty, and `parse_scenario` enforces `limit >= 1`, so every queue
accepts the packet that finds its link idle, which is sent at once.
While the link is busy its queue only grows (a drop replaces the packet
it makes room for), so a waiting packet still waits at `free_at`.

So an untraced run sends a packet that finds its link idle without
queueing it: `qdisc.serve(pkt)` leaves the state that `enqueue(pkt)`
and then `dequeue()` would leave on the empty queue (for SFQ, the
packet's bucket becomes the last served), and the link still counts
the packet as enqueued and dequeued. A traced run makes both calls, in
the order its '+' and '-' lines record them: it is the reference path,
which the golden trace digests pin and `perfbench`'s hook self-test
checks (one `enqueue` per '+' line, one `dequeue` per '-' line), and
its time goes to writing the lines, not to the queue calls.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from .qdisc import build_qdisc
from .units import NS_PER_SEC


class Packet:
    """The unit that is routed, queued, traced, and counted."""

    __slots__ = ("uid", "fid", "ptype", "size", "src", "sport", "seq", "birth", "sink", "tail")

    def __init__(self, uid: int, fid: int, ptype: str, size: int, src: int, sport: int,
                 seq: int, birth: int, sink):
        self.uid = uid  # unique across the whole run
        self.fid = fid  # flow id / traffic class
        self.ptype = ptype  # short label: "cbr", "exp", ...
        self.size = size  # bytes, >= 1
        self.src = src
        self.sport = sport
        self.seq = seq  # per-flow sequence number
        self.birth = birth  # ns
        self.sink = sink  # the SinkMonitor it goes to; its node and port are the destination
        self.tail = None  # TraceWriter's cache: the line's formatted end

    def __repr__(self) -> str:
        return (f"Packet(uid={self.uid!r}, fid={self.fid!r}, ptype={self.ptype!r}, "
                f"size={self.size!r}, src={self.src!r}, sport={self.sport!r}, "
                f"dst={self.sink.node!r}, dport={self.sink.port!r}, seq={self.seq!r}, "
                f"birth={self.birth!r})")


class SimplexLink:
    __slots__ = ("from_node", "to_node", "bandwidth", "delay", "qdisc", "enqueued",
                 "dequeued", "drops", "free_at", "free_seq", "in_flight", "tx_done",
                 "arrive", "ends")

    def __init__(self, from_node: int, to_node: int, bandwidth: int, delay: int, qdisc):
        self.from_node = from_node
        self.to_node = to_node
        self.bandwidth = bandwidth  # bits/s
        self.delay = delay  # propagation, ns
        self.qdisc = qdisc
        self.enqueued = 0  # running event counters, mirror the trace
        self.dequeued = 0
        self.drops = 0
        # Key of the current transmission's end: busy while the event being
        # dispatched comes before it.
        self.free_at = -1
        self.free_seq = 0
        # Dequeued but not yet arrived, oldest first: transmissions end in
        # the order they start and the delay is constant, so arrivals fall
        # due in transmit order.
        self.in_flight = deque()
        # Its engine actions, bound by Network.
        self.tx_done = None
        self.arrive = None
        self.ends = None  # TraceWriter's cache: the line's formatted from and to


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
        # next-hop column per destination, built by its first route_to
        self._routes: list[list[SimplexLink | None] | None] = [None] * node_count

    def route_to(self, node: int) -> None:
        """Let packets be sent toward `node`: computes the routes toward
        it unless an earlier call did."""
        if self._routes[node] is None:
            self._routes[node] = self.compute_routes(node)

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
        outgoing link toward its sink's node (starting transmission if idle).

        An untraced packet that finds its link idle skips the queue
        discipline and goes straight onto the wire. The idle link's
        queue is empty and its limit at least 1, so enqueue would accept
        the packet and dequeue return it at once; `qdisc.serve` leaves
        what those two calls would, SFQ's round-robin position included.
        A traced run makes both calls, which its '+' and '-' lines
        record, and stays the reference path (see the module docstring).
        """
        engine = self.engine
        now = engine.now
        tracer = self.tracer
        dst = pkt.sink.node
        if node == dst:
            if tracer is not None:
                tracer.record("r", now, via_link, pkt)
            pkt.sink.on_receive(pkt)
            return
        link = self._routes[dst][node]
        link.enqueued += 1
        free_at = link.free_at
        if now < free_at or (now == free_at and engine.seq < link.free_seq):
            # busy: the transmit-complete event sends this packet, pushed
            # now if it is the only one waiting
            if tracer is not None:
                tracer.record("+", now, link, pkt)
            victim = link.qdisc.enqueue(pkt).dropped
            if victim is not None:
                if tracer is not None:
                    tracer.record("d", now, link, victim)
                link.drops += 1
                victim.sink.nlost += 1
            elif link.enqueued - link.drops == link.dequeued + 1:
                engine.schedule(free_at, link.tx_done, link.free_seq)
        elif tracer is not None:
            tracer.record("+", now, link, pkt)
            link.qdisc.enqueue(pkt)  # into an empty queue: accepted
            self._start_tx(link)
        else:
            link.qdisc.serve(pkt)
            self._start_tx(link, pkt)

    def _start_tx(self, link: SimplexLink, pkt: Packet | None = None) -> None:
        """Send `pkt`, or else the next waiting packet; the caller knows
        one is waiting.

        Also the transmit-complete action, pushed only while one waits.
        Only an untraced run passes `pkt`, which never entered the queue.
        """
        engine = self.engine
        now = engine.now
        tracer = self.tracer
        if pkt is None:
            pkt = link.qdisc.dequeue()
            if tracer is not None:
                tracer.record("-", now, link, pkt)
        link.dequeued += 1
        # tx_time(pkt.size, link.bandwidth), inline
        free_at = link.free_at = now + pkt.size * 8 * NS_PER_SEC // link.bandwidth
        free_seq = link.free_seq = engine.reserve()
        arrive_at = free_at + link.delay
        if tracer is None and pkt.sink.node == link.to_node and arrive_at <= engine.limit:
            pkt.sink.on_receive(pkt)  # due by the limit: credit it now
        else:
            link.in_flight.append(pkt)
            engine.schedule(arrive_at, link.arrive)
        if link.enqueued - link.drops > link.dequeued:  # qdisc.held() > 0
            engine.schedule(free_at, link.tx_done, free_seq)  # back to back

    def _arrive(self, link: SimplexLink) -> None:
        self.forward(link.to_node, link.in_flight.popleft(), link)
