"""Transport agents and application-level traffic generators.

A UdpAgent stamps outgoing packets with its flow id and its own
sequence numbers (as in ns-2, agents sharing a flow id number their
packets independently). A generator sends through its agent with
`agent.send(self)`: the packet takes its size from the generator and
points back at it (`Packet.origin`), which is where the trace writer
finds its ptype and source address, so one agent may be driven by
several generators of different kinds and sizes. A SinkMonitor counts
the packets delivered to it and, as the network reports them, those
dropped on the way. On top sit two generators: constant bit rate (fixed-size packets at a fixed
interval) and exponential on-off (alternating exponentially distributed
ON/OFF periods, sending at a fixed rate while ON, starting with ON).

Randomness comes only from the on-off generator, which draws from its
own splitmix64 substream in a fixed order (ON duration, then OFF
duration, alternating), so a seed fully determines the schedule.

Generators take their validated CbrSpec/ExpSpec directly and never
schedule an event at or after their own stop time, so nothing has to
be withdrawn when they stop.
"""

from __future__ import annotations

import math

from .netmodel import Packet, tx_time
from .scenario import CbrSpec, ExpSpec


def exp_variate(mean: int, rng) -> int:
    """Exponential draw with the given mean (ns), floored to whole ns.

    Inverse transform: -mean * ln(1 - u) with u uniform in [0, 1).
    `parse_scenario` accepts only positive means.
    """
    return int(-mean * math.log1p(-rng.uniform()))


class UdpAgent:
    """Packet source bound to one node and port, sending to one sink."""

    def __init__(self, network, node: int, port: int, fid: int, alloc_uid, sink):
        self.network = network
        self.node = node
        self.port = port
        self.fid = fid
        self.sink = sink
        self._alloc_uid = alloc_uid
        self._next_seq = 0

    def send(self, origin) -> None:
        """Send one packet of `origin`, a generator driving this agent."""
        seq = self._next_seq
        self._next_seq = seq + 1
        # Positional, in field order: uid fid size seq birth sink origin.
        pkt = Packet(self._alloc_uid(), self.fid, origin.size, seq,
                     self.network.engine.now, self.sink, origin)
        self.network.forward(self.node, pkt)


class SinkMonitor:
    """Terminal agent of one flow: counts packets and bytes delivered.

    Every packet of the flow carries its sink (`Packet.sink`), so the
    network credits a delivery or a drop to it without a lookup.
    `nlost` counts the flow's packets dropped on the way, wherever they
    were dropped: the network adds each drop to the victim's own sink,
    so it equals the analyzer's per-flow `dropped`.

    `on_receive` only counts: it reads no clock and changes nothing
    else. An untraced run may call it when the last hop's transmission
    starts rather than at the arrival time (see `netmodel`), so it must
    stay that way; the delivery times are the trace's `r` lines.
    """

    def __init__(self, node: int, port: int):
        self.node = node
        self.port = port
        self.npkts = 0
        self.bytes = 0
        self.nlost = 0

    def on_receive(self, pkt: Packet) -> None:
        self.npkts += 1
        self.bytes += pkt.size


class _OnOffSender:
    """The send loop both generators share: while an ON period lasts,
    one `size`-byte packet every `gap` ns, the first at the period's
    opening instant, none at or past `_send_until` (the period's end,
    capped at stop). The base class runs a single ON period, [start,
    stop).
    """

    ptype: str

    def __init__(self, engine, agent: UdpAgent, spec, gap: int):
        self.engine = engine
        self.agent = agent
        self.spec = spec
        self.size = spec.size  # per send; a NamedTuple field read costs more
        self.gap = gap  # ns between sends while ON
        self.emitted = 0
        self._send_until = spec.stop
        self.trace_prefix = None  # TraceWriter's cache: the fields its packets share

    def install(self) -> None:
        if self.spec.start < self.spec.stop:
            self.engine.schedule(self.spec.start, self._begin_on)

    def _begin_on(self) -> None:
        # The first send is scheduled when the period opens, not at
        # install: its place among same-instant events fixes the trace.
        self.engine.schedule(self.engine.now, self._send)

    def _send(self) -> None:
        self.agent.send(self)
        self.emitted += 1
        nxt = self.engine.now + self.gap
        if nxt < self._send_until:
            self.engine.schedule(nxt, self._send)


class CbrGenerator(_OnOffSender):
    """Constant bit rate: one `size`-byte packet every `interval` ns.

    Sends land exactly at start + k*interval, strictly before stop: a
    send that would land at or past stop is never scheduled.
    """

    ptype = "cbr"

    def __init__(self, engine, agent: UdpAgent, spec: CbrSpec):
        super().__init__(engine, agent, spec, spec.interval)


class ExpOnOffGenerator(_OnOffSender):
    """Exponential on-off: ON ~ Exp(burst), OFF ~ Exp(idle).

    The process starts in ON. While ON, packets go out with fixed
    spacing size*8/rate, the first at the period's opening instant; a
    send that would land at or past the period's end is deferred to the
    next ON opening. Nothing (send or ON/OFF switch) is scheduled at or
    past stop, so the generator falls silent there by itself.
    """

    ptype = "exp"

    def __init__(self, engine, agent: UdpAgent, spec: ExpSpec, rng):
        super().__init__(engine, agent, spec, tx_time(spec.size, spec.rate))
        self.rng = rng

    def _begin_on(self) -> None:
        now = self.engine.now
        on_end = now + exp_variate(self.spec.burst, self.rng)
        self._send_until = min(on_end, self.spec.stop)
        if now < self._send_until:
            self.engine.schedule(now, self._send)
        if on_end < self.spec.stop:
            self.engine.schedule(on_end, self._begin_off)

    def _begin_off(self) -> None:
        on_at = self.engine.now + exp_variate(self.spec.idle, self.rng)
        if on_at < self.spec.stop:
            self.engine.schedule(on_at, self._begin_on)
