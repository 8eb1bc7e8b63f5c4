"""Offline trace analytics: per-flow counts, delay and throughput; lifecycle checks.

`analyze_trace` reads a trace in one streaming pass, parsing each line
once, with bounded per-packet state (a packet's state is retired when
it is received or dropped), so results do not depend on how the input
is chunked. Each line goes through `trace.parse_line`, which checks
the whole line and returns the seven fields read here as text: op,
time, from, to, size, fid and uid. Numbers in a trace are canonical
decimal, so from, to, fid and uid are compared as text; the time is
converted when it differs from the previous line's, and the size only
for a delivery that is counted.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .trace import parse_line, parse_time_fixed
from .units import NS_PER_SEC

_MAX_BINS = 2**20  # a throughput series longer than this is refused, not built


class FlowStats(NamedTuple):
    fid: int
    sent: int = 0
    received: int = 0
    dropped: int = 0
    bytes_received: int = 0
    mean_delay: float | None = None  # seconds; None when nothing received
    max_delay: float | None = None


class TraceReport(NamedTuple):
    flow: FlowStats | None  # None unless a flow was asked for
    series: list[tuple[float, float]]  # (bin start s, bits/s); [] unless bins were asked for
    violations: list[str]


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


def bin_width_ns(bin_seconds: float) -> int:
    """A throughput bin width in whole ns; it must be finite and at least 1 ns."""
    ns = bin_seconds * NS_PER_SEC
    if not (math.isfinite(ns) and ns >= 1):
        raise ValueError(f"bin must be at least 1 ns and a finite number of ns, got {bin_seconds}")
    return round(ns)


def analyze_trace(
    lines: Iterable[str],
    flow: tuple[int, int, int] | None = None,
    bin_seconds: float | None = None,
) -> TraceReport:
    """Check every packet's lifecycle and, for a flow, count it; one pass.

    Lifecycle grammar per uid: on each link, '+' then exactly one of '-'
    or 'd'; a '+' after a '-' only at the node that link ends at; 'r'
    only downstream of a '-' on the incoming link; timestamps never
    decrease. Packets still queued or in flight at end of trace are
    fine. State is retired on 'r' or 'd', so a retired uid that shows up
    again as a fresh '+' is not detected.

    `flow` is (fid, source, sink). sent counts a packet's first enqueue
    at the source node, or its delivery there ('r' from and to the
    source), which has no link events; received counts deliveries at the
    sink node; delay runs from that first enqueue to delivery (first-hop
    transmission included), and is 0 for a delivery at the source. With
    `bin_seconds`, the report also holds the received bits/s at the sink
    per time bin, anchored at t=0, for every bin from 0 through the one
    holding the last delivery. A bin is `bin_seconds` rounded to whole
    ns, and its rate is taken over that rounded width; more than 2**20
    bins raise ValueError. Blank lines are skipped; a malformed line
    raises TraceError.
    """
    if bin_seconds is not None and flow is None:
        raise ValueError("throughput bins need a flow")
    bin_ns = None if bin_seconds is None else bin_width_ns(bin_seconds)
    # The flow's numbers as trace text: trace numbers are canonical, so
    # equal text is equal value. Without a flow no line's fid matches.
    fid_text, source_text, sink_text = (None, None, None) if flow is None else map(str, flow)
    violations: list[str] = []
    state: dict[str, tuple] = {}  # uid -> (op of its last link event, from, to)
    time_text = None  # the previous line's, and `time` converted from it
    last_time = 0
    sent_at: dict[str, int] = {}  # uid -> first '+' time at source
    sent = received = dropped = bytes_received = delay_total = delay_max = 0
    bytes_per_bin: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=1):
        fields = parse_line(line, lineno)
        if fields is None:  # a blank line
            continue
        op, text, frm, to, size, rec_fid, uid = fields
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
        if rec_fid != fid_text:
            continue
        if op == "+":
            if frm == source_text and uid not in sent_at:
                sent_at[uid] = time
                sent += 1
        elif op == "d":
            dropped += 1
            sent_at.pop(uid, None)
        elif op == "r":
            if frm == to == source_text:  # delivered at its own source: no '+', delay 0
                sent += 1
            if to == sink_text:
                size = int(size)
                received += 1
                bytes_received += size
                birth = sent_at.pop(uid, None)
                if birth is not None:
                    delay = time - birth
                    delay_total += delay
                    if delay > delay_max:
                        delay_max = delay
                if bin_ns is not None:
                    k = time // bin_ns
                    bytes_per_bin[k] = bytes_per_bin.get(k, 0) + size
    stats = None
    if flow is not None:
        stats = FlowStats(flow[0], sent, received, dropped, bytes_received,
                          delay_total / received / NS_PER_SEC if received else None,
                          delay_max / NS_PER_SEC if received else None)
    nbins = max(bytes_per_bin, default=-1) + 1
    if nbins > _MAX_BINS:
        raise ValueError(f"{nbins} throughput bins of {bin_seconds} s; the limit is {_MAX_BINS}")
    series = [] if bin_ns is None else [
        (k * bin_ns / NS_PER_SEC, bytes_per_bin.get(k, 0) * 8 / (bin_ns / NS_PER_SEC))
        for k in range(nbins)
    ]
    return TraceReport(stats, series, violations)


def flow_stats(lines: Iterable[str], fid: int, source: int, sink: int) -> FlowStats:
    """Per-flow counters from a trace; see `analyze_trace`."""
    return analyze_trace(lines, (fid, source, sink)).flow
