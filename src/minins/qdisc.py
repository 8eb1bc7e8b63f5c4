"""Output-queue disciplines attached to simplex links.

DropTail is a bounded FIFO that discards the arriving packet when full.
SFQ hashes flows into buckets served round-robin; on overflow it drops
from the tail of the currently longest bucket (lowest bucket index on
ties), which is the arriving packet whenever its own bucket is longest.
Both count occupancy in packets, not bytes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .rng import mix64

DROPTAIL_DEFAULT_LIMIT = 50
SFQ_DEFAULT_LIMIT = 40
SFQ_DEFAULT_BUCKETS = 16


@dataclass(frozen=True)
class QdiscConfig:
    kind: str  # "droptail" | "sfq"
    limit: int
    buckets: int = SFQ_DEFAULT_BUCKETS  # meaningful for sfq only


@dataclass
class EnqueueResult:
    dropped: object | None = None  # victim Packet, arriving or resident


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
            return EnqueueResult()
        return EnqueueResult(dropped=pkt)

    def dequeue(self):
        return self._q.popleft() if self._q else None

    def held(self) -> int:
        return len(self._q)


class Sfq:
    """Stochastic Fair Queueing: hash buckets plus round-robin service."""

    kind = "sfq"

    def __init__(self, limit: int = SFQ_DEFAULT_LIMIT, buckets: int = SFQ_DEFAULT_BUCKETS):
        self.limit = limit
        self.buckets = buckets
        self._q: list[deque] = [deque() for _ in range(buckets)]
        self._held = 0
        self._rr = buckets - 1  # last-served bucket; scan starts after it

    def enqueue(self, pkt) -> EnqueueResult:
        bucket = self._q[sfq_bucket(pkt.fid, self.buckets)]
        bucket.append(pkt)
        if self._held < self.limit:
            self._held += 1
            return EnqueueResult()
        # Overflow: evict from the tail of the longest bucket, lowest
        # index on ties. If the arriving bucket is longest, the arrival
        # itself just became that tail.
        longest = max(self._q, key=len)
        victim = longest.pop()
        return EnqueueResult(dropped=victim)

    def dequeue(self):
        if self._held == 0:
            return None
        for step in range(1, self.buckets + 1):
            idx = (self._rr + step) % self.buckets
            if self._q[idx]:
                self._rr = idx
                self._held -= 1
                return self._q[idx].popleft()
        return None  # unreachable while _held is consistent

    def held(self) -> int:
        return self._held


def build_qdisc(config: QdiscConfig):
    if config.kind == "droptail":
        return DropTail(limit=config.limit)
    return Sfq(limit=config.limit, buckets=config.buckets)
