"""Span and count hooks around the public entry points of each layer.

The hooks live in the benchmark, not in the program: the `install_*`
functions replace public names with wrappers, at the place each name is
called from, and leave the rest of the program untouched. A name that a
later version of the program no longer has is listed in `Spans.absent`
instead of failing the run.

Every wrapped call is a span (name, start, end, parent). Spans are
aggregated as they close into per-phase counts, total time and self
time (the span minus the time its child spans cover); the spans of
the outermost KEEP_DEPTH levels are also kept whole in memory and
handed back with the results.
"""

from __future__ import annotations

import time

PHASES = ("setup", "run", "analyze")
KEEP_DEPTH = 2  # deeper spans are only aggregated: there is one per packet event


class Spans:
    """In-memory span recorder shared by every hook of one process."""

    def __init__(self):
        self.by_phase: dict[str, dict[str, list[int]]] = {p: {} for p in PHASES}
        self.stats = self.by_phase["setup"]  # [calls, total_ns, self_ns] per name
        self.kept: list[tuple] = []  # (name, phase, start_ns, end_ns, parent index)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [child_ns, kept index] per open span
        self._phase = "setup"

    def set_phase(self, phase: str) -> None:
        self._phase = phase
        self.stats = self.by_phase[phase]

    def bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped in a span; `after(args, result)` may count."""
        stack = self._stack
        kept = self.kept
        clock = time.perf_counter_ns
        spans = self

        def wrapper(*args, **kwargs):
            if len(stack) < KEEP_DEPTH:
                index = len(kept)
                parent = stack[-1][1] if stack else -1
                kept.append(None)
            else:
                index = -1
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                entry = spans.stats.get(name)
                if entry is None:
                    entry = spans.stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if index >= 0:
                    kept[index] = (name, spans._phase, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call of the benchmark's own code inside a span."""
        return self.wrap(name, fn)(*args, **kwargs)


def _hook(spans: Spans, owner, attr: str, name: str, after=None, wrapped=None):
    """Replace `owner.attr` by a span wrapper; note it absent if missing.

    `wrapped` maps original functions to their wrappers, so a function
    reachable under several names gets one wrapper and counts once.
    """
    fn = getattr(owner, attr, None)
    if fn is None:
        spans.absent.append(f"{owner.__name__}.{attr}")
        return None
    if wrapped is not None and fn in wrapped:
        wrapper = wrapped[fn]
    else:
        wrapper = spans.wrap(name, fn, after)
        if wrapped is not None:
            wrapped[fn] = wrapper
    setattr(owner, attr, wrapper)
    return fn


def install_sim(spans: Spans, minins) -> None:
    """Hook the simulation layers: engine, netmodel, qdisc, traffic, trace.

    Methods are patched on their classes, which is where every call
    site looks them up; `exp_variate` is patched in `minins.traffic`,
    the module that calls it. Extra counts:

    - engine.scheduled / engine.cancelled / engine.dispatched, and
      engine.peak_pending, the most events scheduled but not yet
      dispatched or cancelled. Dispatch is counted by handing the
      engine a counting wrapper around each scheduled action.
    - qdisc.<kind>.drops (enqueue returned a victim), qdisc.peak_held
      (largest `held()` after an enqueue) and qdisc.<kind>.dequeued
      (dequeue returned a packet).
    """
    engine_cls = getattr(minins.engine, "EventEngine", None)
    if engine_cls is None:
        spans.absent.append("engine.EventEngine")
    else:
        def cancelled(args, result):
            if result:
                spans.bump("engine.cancelled")

        _hook(spans, engine_cls, "run_until", "engine.EventEngine.run_until")
        _hook(spans, engine_cls, "cancel", "engine.EventEngine.cancel", cancelled)
        if _hook(spans, engine_cls, "schedule", "engine.EventEngine.schedule") is not None:
            timed_schedule = engine_cls.schedule
            counts = spans.counts
            for key in ("engine.scheduled", "engine.cancelled", "engine.dispatched",
                        "engine.peak_pending"):
                counts.setdefault(key, 0)

            def schedule(self, time, action, *args, **kwargs):
                def counted():
                    counts["engine.dispatched"] += 1
                    action()

                counts["engine.scheduled"] += 1
                pending = (counts["engine.scheduled"] - counts["engine.cancelled"]
                           - counts["engine.dispatched"])
                if pending > counts["engine.peak_pending"]:
                    counts["engine.peak_pending"] = pending
                return timed_schedule(self, time, counted, *args, **kwargs)

            engine_cls.schedule = schedule

    network_cls = getattr(minins.netmodel, "Network", None)
    if network_cls is None:
        spans.absent.append("netmodel.Network")
    else:
        _hook(spans, network_cls, "forward", "netmodel.Network.forward")
        _hook(spans, network_cls, "compute_routes", "netmodel.Network.compute_routes")

    for cls_name in ("DropTail", "Sfq"):
        cls = getattr(minins.qdisc, cls_name, None)
        if cls is None:
            spans.absent.append(f"qdisc.{cls_name}")
            continue
        kind = cls_name.lower()

        def enqueued(args, result, kind=kind):
            if getattr(result, "dropped", None) is not None:
                spans.bump(f"qdisc.{kind}.drops")
            spans.peak("qdisc.peak_held", args[0].held())

        def dequeued(args, result, kind=kind):
            if result is not None:
                spans.bump(f"qdisc.{kind}.dequeued")

        _hook(spans, cls, "enqueue", f"qdisc.{cls_name}.enqueue", enqueued)
        _hook(spans, cls, "dequeue", f"qdisc.{cls_name}.dequeue", dequeued)

    for cls_name in ("TraceWriter", "NullTracer"):
        cls = getattr(minins.trace, cls_name, None)
        if cls is None:
            spans.absent.append(f"trace.{cls_name}")
        else:
            _hook(spans, cls, "record", f"trace.{cls_name}.record")

    for owner, attr in (("UdpAgent", "send"), ("SinkMonitor", "on_receive")):
        cls = getattr(minins.traffic, owner, None)
        if cls is None:
            spans.absent.append(f"traffic.{owner}")
        else:
            _hook(spans, cls, attr, f"traffic.{owner}.{attr}")
    _hook(spans, minins.traffic, "exp_variate", "traffic.exp_variate")


def install_scenario(spans: Spans, minins) -> None:
    """Hook `parse_scenario` in the package namespace the worker calls."""
    _hook(spans, minins, "parse_scenario", "scenario.parse_scenario")


def install_analyze(spans: Spans, minins) -> None:
    """Hook the analyzer where the CLI calls it.

    `minins.cli` imports the analysis functions by name, so they are
    patched there and in `minins.analyze` (one wrapper per function).
    `parse_line` is patched in `minins.analyze`, whose record iterator
    calls it.
    """
    wrapped: dict = {}
    for fn in ("flow_stats", "throughput_series", "conservation_check"):
        for owner in (minins.cli, minins.analyze):
            _hook(spans, owner, fn, f"analyze.{fn}", wrapped=wrapped)
    _hook(spans, minins.analyze, "parse_line", "analyze.parse_line")
