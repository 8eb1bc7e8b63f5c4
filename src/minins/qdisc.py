"""Output-queue disciplines attached to simplex links.

DropTail is a bounded FIFO that discards the arriving packet when full.
SFQ hashes flows into buckets served round-robin; on overflow it drops
from the tail of the currently longest bucket (lowest bucket index on
ties), which is the arriving packet whenever its own bucket is longest.
Both count occupancy in packets, not bytes. A link dequeues only when
`held()` says a packet waits, so `dequeue` never sees an empty queue.

`serve(pkt)` is for a packet that arrives at an empty queue and leaves
at once: it leaves the state that `enqueue(pkt)` followed by `dequeue()`
would. DropTail keeps no such state; SFQ's round-robin position moves
to the packet's bucket, which is made on the flow's first packet as
`enqueue` makes it.

SFQ keeps only the buckets its flows have used, plus a sorted list of
the non-empty ones, so its memory grows with the number of flows and
its service cost with the number of busy buckets, not with `buckets`.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from typing import NamedTuple

from .rng import mix64

DROPTAIL_DEFAULT_LIMIT = 50
SFQ_DEFAULT_LIMIT = 40
SFQ_DEFAULT_BUCKETS = 16


class QdiscConfig(NamedTuple):
    kind: str  # "droptail" | "sfq"
    limit: int
    buckets: int = SFQ_DEFAULT_BUCKETS  # meaningful for sfq only


class EnqueueResult(NamedTuple):
    dropped: object | None = None  # victim Packet, arriving or resident


ACCEPTED = EnqueueResult()  # shared result of every enqueue that drops nothing


def sfq_bucket(fid: int, buckets: int) -> int:
    """Deterministic flow-to-bucket hash: splitmix64 finalizer mod buckets."""
    return mix64(fid) % buckets


class DropTail:
    """Bounded FIFO; the arriving packet is the drop victim when full."""

    kind = "droptail"

    def __init__(self, limit: int = DROPTAIL_DEFAULT_LIMIT):
        self.limit = limit
        self._q: deque = deque()

    def enqueue(self, pkt) -> EnqueueResult:
        if len(self._q) < self.limit:
            self._q.append(pkt)
            return ACCEPTED
        return EnqueueResult(dropped=pkt)

    def dequeue(self):
        return self._q.popleft()

    def serve(self, pkt) -> None:
        pass

    def held(self) -> int:
        return len(self._q)


class Sfq:
    """Stochastic Fair Queueing: hash buckets plus round-robin service."""

    kind = "sfq"

    def __init__(self, limit: int = SFQ_DEFAULT_LIMIT, buckets: int = SFQ_DEFAULT_BUCKETS):
        self.limit = limit
        self.buckets = buckets
        self._q: dict[int, deque] = {}  # bucket index -> FIFO, made on first use
        self._busy: list[int] = []  # indices of non-empty buckets, ascending
        self._bucket_of: dict[int, int] = {}  # fid -> bucket index
        self._held = 0
        self._rr = buckets - 1  # last-served bucket; service resumes after it

    def _new_flow(self, fid: int) -> int:
        """Bucket index of a flow's first packet, its FIFO made if new."""
        idx = self._bucket_of[fid] = sfq_bucket(fid, self.buckets)
        self._q.setdefault(idx, deque())
        return idx

    def enqueue(self, pkt) -> EnqueueResult:
        idx = self._bucket_of.get(pkt.fid)
        if idx is None:
            idx = self._new_flow(pkt.fid)
        bucket = self._q[idx]
        if not bucket:
            insort(self._busy, idx)
        bucket.append(pkt)
        if self._held < self.limit:
            self._held += 1
            return ACCEPTED
        # Overflow: evict from the tail of the longest bucket, lowest
        # index on ties. If the arriving bucket is longest, the arrival
        # itself just became that tail.
        queues = self._q
        longest = max(self._busy, key=lambda i: len(queues[i]))
        victim = queues[longest].pop()
        if not queues[longest]:
            self._busy.remove(longest)
        return EnqueueResult(dropped=victim)

    def dequeue(self):
        busy = self._busy
        # The first busy bucket after the last-served one, wrapping
        # around to the lowest: the bucket a cyclic scan would reach.
        pos = bisect_right(busy, self._rr)
        if pos == len(busy):
            pos = 0
        idx = self._rr = busy[pos]
        bucket = self._q[idx]
        pkt = bucket.popleft()
        if not bucket:
            del busy[pos]
        self._held -= 1
        return pkt

    def serve(self, pkt) -> None:
        idx = self._bucket_of.get(pkt.fid)
        if idx is None:
            idx = self._new_flow(pkt.fid)
        self._rr = idx

    def held(self) -> int:
        return self._held


def build_qdisc(config: QdiscConfig):
    if config.kind == "droptail":
        return DropTail(limit=config.limit)
    return Sfq(limit=config.limit, buckets=config.buckets)
