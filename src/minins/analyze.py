"""Offline trace analytics: throughput, loss, delay, utilization.

`analyze_trace` reads a trace in one streaming pass, parsing each line
once, with bounded per-packet state (a packet's state is retired when
it is received or dropped), so results do not depend on how the input
is chunked. Each line goes through `trace.parse_event`, which checks
the whole line as strictly as `trace.parse_line` but converts only the
seven fields read here: op, time, from, to, size, fid and uid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

# parse_line is not called here, but the benchmark's parse micro-timing
# (perfbench/worker.py) and its parse hook read it from this module.
from .trace import parse_event, parse_line  # noqa: F401
from .units import NS_PER_SEC


@dataclass
class FlowStats:
    fid: int
    sent: int = 0
    received: int = 0
    dropped: int = 0
    bytes_received: int = 0
    mean_delay: float | None = None  # seconds; None when nothing received
    max_delay: float | None = None


@dataclass
class TraceReport:
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
    at the source node; received counts deliveries at the sink node;
    delay for a received packet runs from that first enqueue to delivery
    (first-hop transmission included). With `bin_seconds`, the report
    also holds the received bits/s at the sink per time bin, anchored at
    t=0, for every bin from 0 through the one holding the last delivery.
    Blank lines are skipped; a malformed line raises TraceError.
    """
    if bin_seconds is not None and flow is None:
        raise ValueError("throughput bins need a flow")
    bin_ns = None if bin_seconds is None else bin_width_ns(bin_seconds)
    fid, source, sink = flow if flow is not None else (None, None, None)
    violations: list[str] = []
    state: dict[int, tuple] = {}  # uid -> (op of its last link event, from, to)
    last_time = 0
    sent_at: dict[int, int] = {}  # uid -> first '+' time at source
    sent = received = dropped = bytes_received = delay_total = delay_max = 0
    bytes_per_bin: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() and line.isascii():
            continue
        op, time, frm, to, size, rec_fid, uid = parse_event(line, lineno)
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
        if rec_fid != fid:
            continue
        if op == "+":
            if frm == source and uid not in sent_at:
                sent_at[uid] = time
                sent += 1
        elif op == "d":
            dropped += 1
            sent_at.pop(uid, None)
        elif op == "r" and to == sink:
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
        stats = FlowStats(fid, sent, received, dropped, bytes_received)
        if received:
            stats.mean_delay = delay_total / received / NS_PER_SEC
            stats.max_delay = delay_max / NS_PER_SEC
    series = [] if bin_ns is None else [
        (k * bin_ns / NS_PER_SEC, bytes_per_bin.get(k, 0) * 8 / bin_seconds)
        for k in range(max(bytes_per_bin, default=-1) + 1)
    ]
    return TraceReport(stats, series, violations)


def flow_stats(lines: Iterable[str], fid: int, source: int, sink: int) -> FlowStats:
    """Per-flow counters from a trace; see `analyze_trace`."""
    return analyze_trace(lines, (fid, source, sink)).flow
