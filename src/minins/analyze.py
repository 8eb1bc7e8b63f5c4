"""Offline trace analytics: per-flow counts, delay and throughput; lifecycle checks.

`analyze_trace` reads a trace in one streaming pass, with one record
per live packet, retired by its 'r' or 'd' line, so results do not
depend on how the input is chunked. A packet is its tail text: the
eight fields after op, time, from and to, uid included, which every
line of a packet repeats. `_HEAD` checks op, time, from and to on
every line, and `_TAIL` a tail only when it has no record yet; a line
either rejects goes to `trace.parse_line`, which skips it if blank and
raises otherwise. Numbers in a trace are canonical decimal, so they
are compared as text; the time is converted when it differs from the
previous line's, the size once per packet, and the fid and the nodes
of both addresses once per distinct text of those three fields.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .trace import _HEAD, _TAIL, parse_line, parse_time_fixed
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


class _Packet:
    """A live packet in `analyze_trace`: its size, uid and, None until
    set, last link event (op, from, to), flow and first-send time (ns)."""

    __slots__ = ("hop", "size", "uid", "flow", "birth")

    def __init__(self, size: int, uid: str):
        self.hop = self.flow = self.birth = None
        self.size, self.uid = size, uid


def analyze_trace(lines: Iterable[str], bin_ns: int | None = None) -> TraceReport:
    """Check every packet's lifecycle and count every flow; one pass.

    Lifecycle grammar per packet: on each link, '+' then exactly one of
    '-' or 'd'; a '+' after a '-' only at the node that link ends at;
    'r' only downstream of a '-' on the incoming link, and only at the
    node of the packet's destination address; timestamps never
    decrease; a packet that starts at its source (its first '+' there,
    or its 'r' there) has a uid above every earlier such packet's, as
    uids are given out in send order (else `line N: uid U reused`).
    Packets still queued or in flight at end of trace are fine. A packet
    is its eight constant fields, so a line that changes them breaks
    the grammar.

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
    time_text = None  # the previous line's, and `time` converted from it
    last_time = 0
    last_uid = -1  # the largest uid of a packet that started at its source
    flows: dict[FlowKey, _Flow] = {}
    by_text: dict[tuple[str, str, str], _Flow] = {}  # (fid, src, dst address) text -> flow
    live: dict[str, _Packet] = {}  # a live packet's tail text -> its record
    match_head, match_tail = _HEAD.match, _TAIL.fullmatch
    for lineno, line in enumerate(lines, start=1):
        head = match_head(line)
        if head is None:
            parse_line(line, lineno)  # None for a blank line; raises for any other
            continue
        op, text, frm, to = head.groups()
        if text != time_text:
            time_text = text
            time = parse_time_fixed(text)
        if time < last_time:
            violations.append(f"line {lineno}: time goes backwards")
        else:
            last_time = time
        tail_text = line[head.end():]
        pkt = live.get(tail_text)
        if pkt is None and tail_text[-1:] != "\n":  # a last line without its LF
            pkt = live.get(tail_text := tail_text + "\n")
        if pkt is None or pkt.flow is None and op != "-":  # new, or made by a '-' line
            tail = match_tail(line, head.end())
            if tail is None:
                parse_line(line, lineno)  # raises: a line whose head matches is not blank
            size, fid, src, dst, uid = tail.groups()
            flow = None  # a '-' line counts nothing, so it looks up no flow
            if op != "-":
                names = (fid, src, dst)
                flow = by_text.get(names)
                if flow is None:
                    source, sink = src.partition(".")[0], dst.partition(".")[0]
                    flow = by_text[names] = flows.setdefault(
                        (int(fid), int(source), int(sink)), _Flow(source, sink))
            if pkt is None:
                pkt = live[tail_text] = _Packet(int(size), uid)
                if (op == "+" or op == "r" and frm == to) and frm == flow.source:  # it starts
                    if (number := int(uid)) <= last_uid:
                        violations.append(f"line {lineno}: uid {uid} reused")
                    else:
                        last_uid = number
            pkt.flow = flow
        hop, flow = pkt.hop, pkt.flow
        if op == "+":
            if hop is not None and hop[0] != "-":
                violations.append(f"line {lineno}: uid {pkt.uid} enqueued while queued")
            elif hop is not None and hop[2] != frm:
                violations.append(f"line {lineno}: uid {pkt.uid} enqueued at node {frm}, "
                                  f"but its last hop ended at node {hop[2]}")
            pkt.hop = ("+", frm, to)
            if pkt.birth is None and frm == flow.source:
                pkt.birth = time
                flow.sent += 1
        elif op == "-":
            if hop != ("+", frm, to):
                violations.append(f"line {lineno}: '-' for uid {pkt.uid} without matching '+'")
            pkt.hop = ("-", frm, to)
        elif op == "d":
            if hop != ("+", frm, to):
                violations.append(f"line {lineno}: 'd' for uid {pkt.uid} without matching '+'")
            del live[tail_text]
            flow.dropped += 1
        else:  # r; a delivery at the packet's own source node has no link events
            if hop != ("-", frm, to) and not (frm == to and hop is None):
                violations.append(f"line {lineno}: 'r' for uid {pkt.uid} without upstream '-'")
            del live[tail_text]
            if frm == to == flow.source:  # delivered at its own source: no '+', delay 0
                flow.sent += 1
            if to != flow.sink:
                violations.append(f"line {lineno}: 'r' for uid {pkt.uid} at node {to}, "
                                  f"not its destination node {flow.sink}")
                continue
            flow.received += 1
            flow.bytes_received += pkt.size
            if pkt.birth is not None:
                delay = time - pkt.birth
                flow.delay_total += delay
                if delay > flow.delay_max:
                    flow.delay_max = delay
            if bin_ns is not None:
                k = time // bin_ns
                flow.bytes_per_bin[k] = flow.bytes_per_bin.get(k, 0) + pkt.size
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
