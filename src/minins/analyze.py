"""Offline trace analytics: per-flow counts, delay and throughput; lifecycle checks.

`analyze_trace` reads a trace in one streaming pass, parsing each line
once, with bounded per-packet state (a packet's state is retired when
it is received or dropped), so results do not depend on how the input
is chunked. Each line goes through `trace.parse_line`, which checks
the whole line and returns the nine fields read here as text: op,
time, from, to, size, fid, source and destination address, and uid.
Numbers in a trace are canonical decimal, so they are compared as
text; the time is converted when it differs from the previous line's,
the size only for a delivery that is counted, and the fid and the
two addresses' nodes once per distinct (fid, source address,
destination address) text.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .trace import parse_line, parse_time_fixed
from .units import NS_PER_SEC

_MAX_BINS = 2**20  # a throughput series longer than this is refused, not built


FlowKey = tuple[int, int, int]  # (fid, source node, sink node)


class FlowStats(NamedTuple):
    sent: int
    received: int
    dropped: int
    bytes_received: int
    mean_delay: float | None  # seconds; None when nothing received
    max_delay: float | None


_NO_FLOW = FlowStats(0, 0, 0, 0, None, None)  # a flow with no line in the trace


class TraceReport(NamedTuple):
    # Every flow with a '+', 'd' or 'r' line, in first-line order, and
    # each one's bytes received per bin index (each {} without bins).
    flows: dict[FlowKey, FlowStats]
    bins: dict[FlowKey, dict[int, int]]
    violations: list[str]

    def flow(self, key: FlowKey) -> FlowStats:
        """The counters of flow `key`; all zero for a flow the trace never names."""
        return self.flows.get(key, _NO_FLOW)


class _Flow:
    """One flow's running counts in `analyze_trace`. Its source and sink
    node are kept as trace text, which compares with a line's from and
    to: trace numbers are canonical, so equal text is equal value."""

    __slots__ = ("source", "sink", "sent", "received", "dropped", "bytes_received",
                 "delay_total", "delay_max", "bytes_per_bin")

    def __init__(self, source: str, sink: str):
        self.source = source
        self.sink = sink
        self.sent = self.received = self.dropped = self.bytes_received = 0
        self.delay_total = self.delay_max = 0  # ns
        self.bytes_per_bin: dict[int, int] = {}

    def stats(self) -> FlowStats:
        received = self.received
        return FlowStats(self.sent, received, self.dropped, self.bytes_received,
                         self.delay_total / received / NS_PER_SEC if received else None,
                         self.delay_max / NS_PER_SEC if received else None)


def utilization(bytes_delivered: int, duration: float, bandwidth: float) -> float:
    """Delivered bits over link capacity, as a percentage.

    Evaluated exactly as bytes * 8 / (bandwidth * duration) * 100 in
    binary floating point, preserving that operation order.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return bytes_delivered * 8.0 / (bandwidth * duration) * 100.0


def analyze_trace(lines: Iterable[str], bin_ns: int | None = None) -> TraceReport:
    """Check every packet's lifecycle and count every flow; one pass.

    Lifecycle grammar per uid: on each link, '+' then exactly one of '-'
    or 'd'; a '+' after a '-' only at the node that link ends at; 'r'
    only downstream of a '-' on the incoming link, and only at the node
    of the packet's destination address; timestamps never decrease.
    Packets still queued or in flight at end of trace are fine. State is
    retired on 'r' or 'd', so a retired uid that shows up again as a
    fresh '+' is not detected.

    A line belongs to the flow (fid, source, sink) read from its own
    fields: its fid, the node of its source address and the node of its
    destination address. sent counts a packet's first enqueue at the
    source node, or its delivery there ('r' from and to the source),
    which has no link events; received counts deliveries at the sink
    node; dropped counts 'd' lines; delay runs from that first enqueue
    to delivery (first-hop transmission included), and is 0 for a
    delivery at the source. With `bin_ns`, a positive whole number of
    ns, the report also holds each flow's bytes received at the sink per
    time bin of that width, bin k from k * bin_ns (see
    `throughput_bps`). Blank lines are skipped; a malformed line raises
    TraceError.
    """
    violations: list[str] = []
    state: dict[str, tuple] = {}  # uid -> (op of its last link event, from, to)
    time_text = None  # the previous line's, and `time` converted from it
    last_time = 0
    sent_at: dict[str, int] = {}  # uid -> first '+' time at its source
    flows: dict[FlowKey, _Flow] = {}
    # a line's (fid, source address, destination address) text -> its
    # flow, so the addresses are split once per agent, not per line
    by_text: dict[tuple[str, str, str], _Flow] = {}
    for lineno, line in enumerate(lines, start=1):
        fields = parse_line(line, lineno)
        if fields is None:  # a blank line
            continue
        op, text, frm, to, size, fid, src, dst, uid = fields
        if text != time_text:
            time_text = text
            time = parse_time_fixed(text)
        if time < last_time:
            violations.append(f"line {lineno}: time goes backwards")
        else:
            last_time = time
        cur = state.get(uid)
        if op == "+":
            if cur is not None:
                if cur[0] != "-":
                    violations.append(f"line {lineno}: uid {uid} enqueued while queued")
                elif cur[2] != frm:
                    violations.append(
                        f"line {lineno}: uid {uid} enqueued at node {frm}, "
                        f"but its last hop ended at node {cur[2]}")
            state[uid] = ("+", frm, to)
        elif op == "-":
            if cur != ("+", frm, to):
                violations.append(f"line {lineno}: '-' for uid {uid} without matching '+'")
            state[uid] = ("-", frm, to)
        elif op == "d":
            if cur != ("+", frm, to):
                violations.append(f"line {lineno}: 'd' for uid {uid} without matching '+'")
            state.pop(uid, None)
        else:  # r; a delivery at the packet's own source node has no link events
            if cur != ("-", frm, to) and not (frm == to and cur is None):
                violations.append(f"line {lineno}: 'r' for uid {uid} without upstream '-'")
            state.pop(uid, None)
        if op == "-" or (op == "+" and uid in sent_at):
            continue  # a dequeue, or a later enqueue of a packet sent: nothing to count
        names = (fid, src, dst)
        flow = by_text.get(names)
        if flow is None:
            source, sink = src.partition(".")[0], dst.partition(".")[0]
            flow = by_text[names] = flows.setdefault(
                (int(fid), int(source), int(sink)), _Flow(source, sink))
        if op == "+":
            if frm == flow.source:
                sent_at[uid] = time
                flow.sent += 1
        elif op == "d":
            flow.dropped += 1
            sent_at.pop(uid, None)
        else:  # r
            birth = sent_at.pop(uid, None)
            if frm == to == flow.source:  # delivered at its own source: no '+', delay 0
                flow.sent += 1
            if to != flow.sink:
                violations.append(f"line {lineno}: 'r' for uid {uid} at node {to}, "
                                  f"not its destination node {flow.sink}")
                continue
            size = int(size)
            flow.received += 1
            flow.bytes_received += size
            if birth is not None:
                delay = time - birth
                flow.delay_total += delay
                if delay > flow.delay_max:
                    flow.delay_max = delay
            if bin_ns is not None:
                k = time // bin_ns
                flow.bytes_per_bin[k] = flow.bytes_per_bin.get(k, 0) + size
    return TraceReport({key: flow.stats() for key, flow in flows.items()},
                       {key: flow.bytes_per_bin for key, flow in flows.items()}, violations)


def throughput_bps(bytes_per_bin: dict[int, int], bin_ns: int) -> list[float]:
    """Received bits/s per bin of `bin_ns` ns, from one flow's
    `TraceReport.bins`: every bin from 0 through the one holding the
    last delivery, [] for none. More than 2**20 bins raise ValueError."""
    nbins = max(bytes_per_bin, default=-1) + 1
    if nbins > _MAX_BINS:
        raise ValueError(f"{nbins} throughput bins of {bin_ns} ns; the limit is {_MAX_BINS}")
    return [bytes_per_bin.get(k, 0) * 8 / (bin_ns / NS_PER_SEC) for k in range(nbins)]


def flow_stats(lines: Iterable[str], fid: int, source: int, sink: int) -> FlowStats:
    """One flow's counters from a trace; see `analyze_trace`."""
    return analyze_trace(lines).flow((fid, source, sink))
