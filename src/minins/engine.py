"""Deterministic discrete-event scheduler.

Simulation time is integer nanoseconds, so all scheduling arithmetic is
exact and runs are bit-reproducible. Every event has a key
`(time, seq)`: `seq` comes from one monotone counter, so events at equal
times dispatch in the order they were scheduled (FIFO). A component may
take a number with `reserve()` and push an event under it later, or
never: the event then keeps the place among same-time events that it
would have had if it had been scheduled when the number was taken. The
engine knows nothing about packets; actions are zero-argument callables
bound once per component (a bound method or a `functools.partial`), not
closures made per event. A scheduled event always runs once its time is
reached: a component that has to stop never schedules past its stop.

The clock is the plain attribute `engine.now` and the key of the event
being dispatched is `(engine.now, engine.seq)`, read without a call on
the per-packet path; only the engine writes them.

While `run_until(limit)` runs, `engine.limit` holds its limit; outside
a run it is -1, which no event time reaches. A component may act at
once on an outcome it knows is due within the limit instead of
scheduling an event for it (the network credits an untraced run's
deliveries this way), so `run_until` returns the time of the last
event it dispatched, which can come before the last outcome it
accounted for.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from .errors import SimulationError


class EventEngine:
    """Time-ordered event queue with a clock and FIFO tie-breaking.

    Single-threaded: one engine instance must never be shared across
    threads. Independent engines share no state.
    """

    def __init__(self):
        self.now = 0  # time of the most recently dispatched event (0 before any)
        self.seq = -1  # its sequence number (-1 before any)
        self.limit = -1  # the running run_until's limit; -1 outside a run
        self._heap: list[tuple] = []  # (time_ns, seq, action)
        self._next_seq = 0

    def reserve(self) -> int:
        """Take the next sequence number for an event scheduled later, if at all."""
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def schedule(self, time: int, action: Callable[[], None], seq: int | None = None) -> None:
        """Schedule `action` at absolute time `time` (ns). Never in the past.

        `seq` is a number taken earlier with `reserve()`; without it the
        event takes the next number. Either way its key must come after
        the event being dispatched.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} ns: clock already at {self.now} ns"
            )
        if seq is None:
            seq = self._next_seq
            self._next_seq = seq + 1
        elif time == self.now and seq <= self.seq:
            raise SimulationError(
                f"cannot schedule number {seq} at {time} ns: "
                f"event {self.seq} at that time is already dispatched"
            )
        heappush(self._heap, (time, seq, action))

    def run_until(self, limit: int) -> int:
        """Dispatch every event with time <= limit in (time, seq) order.

        The clock advances to each event's time before its action runs;
        actions may schedule further events, which participate if they
        fall within the limit. `limit` is readable as `self.limit`
        while the run lasts. Returns the final clock value, the time of
        the last dispatched event (unchanged if nothing dispatched).
        """
        heap = self._heap
        self.limit = limit
        try:
            while heap and heap[0][0] <= limit:
                self.now, self.seq, action = heappop(heap)
                action()
        finally:
            self.limit = -1
        return self.now
