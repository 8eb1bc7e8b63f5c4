"""Brute-force reference model for micro scenarios.

Deliberately primitive: plain-list queues, routing by exhaustive path
enumeration, and an event list scanned linearly for the minimum
(time, creation order) entry each step. No heap, and no shared code
with the simulator beyond arithmetic.
Creation order mirrors the simulator's documented FIFO tie-break: the
initial injections first, then events in the order causality creates
them. Starting a service creates its completion and then, at completion
plus the propagation delay, its arrival; a completion creates only the
next service. The simulator pushes a completion only when a packet
waits, but under the number it would have had, so always creating one
here gives the same order.

ReferenceFifo is DropTail as one plain list. ReferenceSfq is SFQ the
same way: one plain list per bucket and a linear scan for every service
and every eviction. Each queue's enqueue returns its drop victim, which
for SFQ may be a packet already queued.

reference_onoff is an exponential on-off source's whole schedule, taken
period by period from the documented rules and a splitmix64 stream
transcribed here, with no event queue at all.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass
class MicroLink:
    limit: int
    bandwidth: int
    delay: int
    buckets: int | None = None  # None: DropTail; else SFQ with this many buckets


@dataclass
class MicroScenario:
    node_count: int
    links: dict  # (a, b) -> MicroLink, both directions present
    injections: list  # (time, uid, src, dst, size, fid) in schedule order


class MicroPacket(NamedTuple):
    uid: int
    src: int
    dst: int
    size: int
    fid: int


def next_hop(scenario: MicroScenario, at: int, dst: int):
    """Exhaustive shortest path: fewest hops, smallest next hop on ties."""
    best = None
    others = [n for n in range(scenario.node_count) if n not in (at, dst)]
    for hops in range(1, scenario.node_count):
        for mids in itertools.permutations(others, hops - 1):
            path = (at,) + mids + (dst,)
            if all((a, b) in scenario.links for a, b in zip(path, path[1:])):
                key = (hops, path[1])
                if best is None or key < best:
                    best = key
    return None if best is None else best[1]


def reference_outcome(scenario: MicroScenario):
    """Returns (delivered uid -> time, dropped uid set, trace events).

    The trace events are the `+`, `-`, `d` and `r` events as
    (op, time, from, to, uid), in the order they happen: a drop right
    after the enqueue that caused it, and a delivery at the packet's own
    source from and to that node.
    """
    queues = {
        pair: ReferenceFifo(link.limit) if link.buckets is None
        else ReferenceSfq(link.limit, link.buckets)
        for pair, link in scenario.links.items()
    }
    busy = {pair: False for pair in scenario.links}
    delivered = {}
    dropped = set()
    events = []
    counter = itertools.count()
    pending = [
        [time, next(counter), "inject", None, MicroPacket(uid, src, dst, size, fid)]
        for time, uid, src, dst, size, fid in scenario.injections
    ]

    def serve(pair, now):
        pkt = queues[pair].dequeue()
        events.append(("-", now, *pair, pkt.uid))
        busy[pair] = True
        link = scenario.links[pair]
        done = now + pkt.size * 8 * 1_000_000_000 // link.bandwidth
        pending.append([done, next(counter), "complete", pair, None])
        pending.append([done + link.delay, next(counter), "arrive", pair, pkt])

    def handle_at(node, pkt, now, came_from):
        if node == pkt.dst:
            events.append(("r", now, came_from, node, pkt.uid))
            delivered[pkt.uid] = now
            return
        hop = next_hop(scenario, node, pkt.dst)
        assert hop is not None, "micro scenarios are always connected"
        pair = (node, hop)
        events.append(("+", now, *pair, pkt.uid))
        victim = queues[pair].enqueue(pkt)
        if victim is not None:
            events.append(("d", now, *pair, victim.uid))
            dropped.add(victim.uid)
        if not busy[pair]:  # an idle link's queue was empty, so it took pkt
            serve(pair, now)

    while pending:
        index = min(range(len(pending)), key=lambda i: (pending[i][0], pending[i][1]))
        now, _, kind, pair, pkt = pending.pop(index)
        if kind == "inject":
            handle_at(pkt.src, pkt, now, pkt.src)
        elif kind == "complete":
            busy[pair] = False
            if queues[pair].held():
                serve(pair, now)
        else:  # arrive
            handle_at(pair[1], pkt, now, pair[0])
    return delivered, dropped, events


def reference_mix64(z: int) -> int:
    """splitmix64 finalizer, transcribed independently of the
    implementation under test."""
    z &= 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def reference_bucket(fid: int, buckets: int) -> int:
    """splitmix64 finalizer mod buckets."""
    return reference_mix64(fid) % buckets


def reference_uniforms(seed: int, ordinal: int):
    """The uniforms of `SplitMix64.substream(seed, ordinal)`: a stream
    seeded with mix64(seed ^ ordinal) whose state steps by the golden
    gamma, each output's top 53 bits scaled into [0, 1)."""
    state = reference_mix64(seed ^ ordinal)
    while True:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        yield (reference_mix64(state) >> 11) / 2**53


def reference_onoff(seed: int, ordinal: int, burst: int, idle: int, gap: int,
                    start: int, stop: int):
    """An exp on-off source's schedule: (send times, [(time, "on" or "off")], draws).

    From `start`, ON and OFF periods alternate, ON first. Each length
    is drawn when its period opens, from the `(seed, ordinal)` stream,
    as int(-mean * log1p(-u)) ns with mean `burst` for ON and `idle`
    for OFF. While ON, a packet goes out at the opening and every `gap`
    ns after it, strictly before the period's end and before `stop`. A
    period that would open at or past `stop` never opens: it is neither
    drawn nor switched to.
    """
    uniforms = reference_uniforms(seed, ordinal)
    sends, switches, draws = [], [], 0
    t, on = start, True
    while t < stop:
        switches.append((t, "on" if on else "off"))
        length = int(-(burst if on else idle) * math.log1p(-next(uniforms)))
        draws += 1
        if on:
            sends += range(t, min(t + length, stop), gap)
        t += length
        on = not on
    return sends, switches, draws


class ReferenceFifo:
    """DropTail as a plain list: the arrival is the victim when full."""

    def __init__(self, limit: int):
        self.limit = limit
        self.items = []

    def held(self) -> int:
        return len(self.items)

    def enqueue(self, pkt):
        """Returns the drop victim, or None."""
        if len(self.items) < self.limit:
            self.items.append(pkt)
            return None
        return pkt

    def dequeue(self):
        return self.items.pop(0)


class ReferenceSfq:
    """SFQ as plain lists, scanned linearly.

    Service: the non-empty bucket met first by a cyclic scan that starts
    just after the last-served bucket. Overflow: the arrival is queued,
    then the tail of the longest bucket (lowest index on ties) goes.
    Only buckets some flow hashed to are kept, so `buckets` may be huge;
    the scan measures each one's cyclic distance from its start instead
    of stepping through every index.
    """

    def __init__(self, limit: int, buckets: int):
        self.limit = limit
        self.buckets = buckets
        self.lists = {}  # bucket index -> list of packets, oldest first
        self.last_served = buckets - 1

    def held(self) -> int:
        return sum(len(q) for q in self.lists.values())

    def enqueue(self, pkt):
        """Returns the drop victim, or None."""
        self.lists.setdefault(reference_bucket(pkt.fid, self.buckets), []).append(pkt)
        if self.held() <= self.limit:
            return None
        longest = None
        for idx, q in self.lists.items():
            if q and (longest is None or (len(q), -idx) > (len(self.lists[longest]), -longest)):
                longest = idx
        return self.lists[longest].pop()

    def dequeue(self):
        best = None
        for idx, q in self.lists.items():
            distance = (idx - self.last_served - 1) % self.buckets
            if q and (best is None or distance < best[0]):
                best = (distance, idx)
        if best is None:
            return None
        self.last_served = best[1]
        return self.lists[best[1]].pop(0)
