"""Transport agents and application-level traffic generators.

A UdpAgent stamps outgoing packets with its flow id and its own
sequence numbers (as in ns-2, agents sharing a flow id number their
packets independently); a SinkMonitor counts arrivals and infers losses
from sequence gaps. On top sit two generators: constant bit rate
(fixed-size packets at a fixed interval) and exponential on-off
(alternating exponentially distributed ON/OFF periods, sending at a
fixed rate while ON, starting with ON).

Randomness comes only from the on-off generator, which draws from its
own splitmix64 substream in a fixed order (ON duration, then OFF
duration, alternating), so a seed fully determines the schedule.

Generators take their validated CbrSpec/ExpSpec directly and never
schedule an event at or after their own stop time, so nothing has to
be withdrawn when they stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalError, SimulationError
from .netmodel import Packet, tx_time
from .scenario import CbrSpec, ExpSpec


def exp_variate(mean: int, rng) -> int:
    """Exponential draw with the given mean (ns), floored to whole ns.

    Inverse transform: -mean * ln(1 - u) with u uniform in [0, 1).
    """
    if mean <= 0:
        raise SimulationError(f"exponential mean must be positive, got {mean}")
    return int(-mean * math.log1p(-rng.uniform()))


class UdpAgent:
    """Packet source bound to one node and port, sending to one peer."""

    def __init__(self, network, node: int, port: int, fid: int, alloc_uid,
                 peer_node: int, peer_port: int):
        self.network = network
        self.node = node
        self.port = port
        self.fid = fid
        self.peer_node = peer_node
        self.peer_port = peer_port
        self._alloc_uid = alloc_uid
        self._next_seq = 0

    def send(self, size: int, ptype: str) -> Packet:
        seq = self._next_seq
        self._next_seq = seq + 1
        pkt = Packet(
            uid=self._alloc_uid(),
            fid=self.fid,
            ptype=ptype,
            size=size,
            src=self.node,
            sport=self.port,
            dst=self.peer_node,
            dport=self.peer_port,
            seq=seq,
            birth=self.network.engine.now(),
        )
        self.network.forward(self.node, pkt)
        return pkt


@dataclass
class MonitorReport:
    npkts: int
    bytes: int
    nlost: int
    last_arrival: int | None  # ns, None before any packet


class SinkMonitor:
    """Terminal agent of one flow: counts packets/bytes, infers losses.

    Like ns-2's LossMonitor, `nlost` is inferred from sequence gaps:
    highest seq received + 1 - packets received. It cannot see drops
    after the last delivered packet; the analyzer's per-flow `dropped`
    is the exact count.
    """

    def __init__(self, node: int, port: int, clock):
        self.node = node
        self.port = port
        self._clock = clock
        self.npkts = 0
        self.bytes = 0
        self.last_arrival: int | None = None
        self._highest_seq = -1

    def on_receive(self, pkt: Packet) -> None:
        if pkt.dst != self.node or pkt.dport != self.port:
            raise InternalError(
                f"misdelivery: packet for {pkt.dst}.{pkt.dport} "
                f"reached sink {self.node}.{self.port}"
            )
        self.npkts += 1
        self.bytes += pkt.size
        if pkt.seq > self._highest_seq:
            self._highest_seq = pkt.seq
        self.last_arrival = self._clock()

    @property
    def nlost(self) -> int:
        return self._highest_seq + 1 - self.npkts

    def report(self) -> MonitorReport:
        return MonitorReport(self.npkts, self.bytes, self.nlost, self.last_arrival)


class CbrGenerator:
    """Constant bit rate: one `size`-byte packet every `interval` ns.

    Sends land exactly at start + k*interval, strictly before stop: a
    send that would land at or past stop is never scheduled.
    """

    ptype = "cbr"

    def __init__(self, engine, agent: UdpAgent, spec: CbrSpec):
        self.engine = engine
        self.agent = agent
        self.spec = spec
        self.emitted = 0

    def install(self) -> None:
        if self.spec.start < self.spec.stop:
            self.engine.schedule(self.spec.start, self._start)

    def _start(self) -> None:
        # The first send is scheduled when start dispatches, not at
        # install: its place among same-instant events fixes the trace.
        self.engine.schedule(self.engine.now(), self._send)

    def _send(self) -> None:
        self.agent.send(self.spec.size, self.ptype)
        self.emitted += 1
        nxt = self.engine.now() + self.spec.interval
        if nxt < self.spec.stop:
            self.engine.schedule(nxt, self._send)


class ExpOnOffGenerator:
    """Exponential on-off: ON ~ Exp(burst), OFF ~ Exp(idle).

    The process starts in ON. While ON, packets go out with fixed
    spacing size*8/rate, the first at the period's opening instant; a
    send that would land at or past the period's end is deferred to the
    next ON opening. Nothing (send or ON/OFF switch) is scheduled at or
    past stop, so the generator falls silent there by itself.
    """

    ptype = "exp"

    def __init__(self, engine, agent: UdpAgent, spec: ExpSpec, rng):
        self.engine = engine
        self.agent = agent
        self.spec = spec
        self.rng = rng
        self.gap = tx_time(spec.size, spec.rate)  # ns between sends while ON
        self.emitted = 0
        self._send_until = 0  # end of the current ON period, capped at stop

    def install(self) -> None:
        if self.spec.start < self.spec.stop:
            self.engine.schedule(self.spec.start, self._begin_on)

    def _begin_on(self) -> None:
        now = self.engine.now()
        on_end = now + exp_variate(self.spec.burst, self.rng)
        self._send_until = min(on_end, self.spec.stop)
        if now < self._send_until:
            self.engine.schedule(now, self._send)
        if on_end < self.spec.stop:
            self.engine.schedule(on_end, self._begin_off)

    def _send(self) -> None:
        self.agent.send(self.spec.size, self.ptype)
        self.emitted += 1
        nxt = self.engine.now() + self.gap
        if nxt < self._send_until:
            self.engine.schedule(nxt, self._send)

    def _begin_off(self) -> None:
        on_at = self.engine.now() + exp_variate(self.spec.idle, self.rng)
        if on_at < self.spec.stop:
            self.engine.schedule(on_at, self._begin_on)
