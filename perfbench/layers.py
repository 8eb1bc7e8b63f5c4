"""Per-layer metrics from hooked worker reports, and the hook self-test.

Layer names follow the modules of `src/minins`. A metric comes from the
span statistics of hooks.py: calls, total time and self time per hooked
name, per phase (`setup`: parse and build, `run`: `Simulation.run`,
`analyze`: `minins analyze`). Times from hooked runs include the hooks'
own cost; `bench.tracing_overhead` says how much that is.
"""

from __future__ import annotations

import statistics

UNITS = {
    "engine.events_per_pkt": "event/pkt",
    "engine.scheduled": "count",
    "engine.cancelled": "count",
    "engine.dispatched": "count",
    "engine.self_s": "s",
    "engine.ns_per_schedule": "ns",
    "engine.peak_pending": "count",
    "netmodel.forward_calls": "count",
    "netmodel.self_s": "s",
    "netmodel.ns_per_forward": "ns",
    "netmodel.compute_routes_s": "s",
    "qdisc.droptail.enqueues": "count",
    "qdisc.droptail.drops": "count",
    "qdisc.sfq.enqueues": "count",
    "qdisc.sfq.drops": "count",
    "qdisc.sfq.ns_per_enqueue": "ns",
    "qdisc.sfq.ns_per_dequeue": "ns",
    "qdisc.accept_ratio": "ratio",
    "qdisc.peak_held": "pkt",
    "traffic.sent": "pkt",
    "traffic.received": "pkt",
    "traffic.delivered_ratio": "ratio",
    "traffic.exp_draws": "count",
    "traffic.self_s": "s",
    "trace.record_calls": "count",
    "trace.self_s": "s",
    "trace.ns_per_record": "ns",
    "trace.lines": "line",
    "trace.bytes": "B",
    "trace.ns_per_line": "ns",
    "analyze.lines": "line",
    "analyze.parse_calls_per_line": "call/line",
    "analyze.parse_ns_per_line": "ns",
    "analyze.flow_stats_s": "s",
    "analyze.series_s": "s",
    "analyze.conservation_s": "s",
    "analyze.read_split_s": "s",
    "analyze.vs_split": "ratio",
    "cli.analyze_s": "s",
    "cli.analyze_lines_per_s": "line/s",
    "scenario.parse_s": "s",
    "sim.build_s": "s",
    "bench.tracing_overhead": "ratio",
    "bench.hooks_absent": "count",
}

# Metrics that are counts of work: they must repeat exactly.
EXACT = tuple(name for name, unit in UNITS.items()
              if unit in ("count", "pkt", "line", "B", "event/pkt", "call/line", "ratio")
              and name not in ("analyze.vs_split", "bench.tracing_overhead"))


class _Stats:
    """Lookup over one hooked report's span statistics."""

    def __init__(self, report: dict):
        spans = report["spans"]
        self.by_phase = spans["by_phase"]
        self.counts = spans["counts"]
        self.absent = spans["absent"]

    def _entries(self, name: str, phase: str | None):
        phases = [phase] if phase else list(self.by_phase)
        return [self.by_phase[p][name] for p in phases if name in self.by_phase[p]]

    def calls(self, name: str, phase: str | None = None) -> int:
        return sum(e[0] for e in self._entries(name, phase))

    def total_s(self, name: str, phase: str | None = None) -> float:
        return sum(e[1] for e in self._entries(name, phase)) / 1e9

    def self_s(self, name: str, phase: str | None = None) -> float:
        return sum(e[2] for e in self._entries(name, phase)) / 1e9

    def layer_self_s(self, layer: str, phase: str) -> float:
        """Self time of every hooked name of `layer` during `phase`."""
        return sum(e[2] for name, e in self.by_phase[phase].items()
                   if name.startswith(layer + ".")) / 1e9

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def job_metrics(report: dict) -> dict[str, float]:
    """Figures of the timed job: everything but the trace file and analyzer."""
    s = _Stats(report)
    sent = s.calls("traffic.UdpAgent.send")
    received = s.calls("traffic.SinkMonitor.on_receive")
    dropped = s.count("qdisc.droptail.drops") + s.count("qdisc.sfq.drops")
    enqueues = s.calls("qdisc.DropTail.enqueue") + s.calls("qdisc.Sfq.enqueue")
    schedule = "engine.EventEngine.schedule"
    forward = "netmodel.Network.forward"
    records = s.calls("trace.TraceWriter.record") + s.calls("trace.NullTracer.record")
    return {
        "engine.events_per_pkt": _per(s.count("engine.dispatched"), sent),
        "engine.scheduled": s.count("engine.scheduled"),
        "engine.cancelled": s.count("engine.cancelled"),
        "engine.dispatched": s.count("engine.dispatched"),
        "engine.self_s": s.layer_self_s("engine", "run"),
        "engine.ns_per_schedule": _per(s.total_s(schedule) * 1e9, s.calls(schedule)),
        "engine.peak_pending": s.count("engine.peak_pending"),
        "netmodel.forward_calls": s.calls(forward),
        "netmodel.self_s": s.layer_self_s("netmodel", "run"),
        "netmodel.ns_per_forward": _per(s.self_s(forward) * 1e9, s.calls(forward)),
        "netmodel.compute_routes_s": s.total_s("netmodel.Network.compute_routes"),
        "qdisc.droptail.enqueues": s.calls("qdisc.DropTail.enqueue"),
        "qdisc.droptail.drops": s.count("qdisc.droptail.drops"),
        "qdisc.sfq.enqueues": s.calls("qdisc.Sfq.enqueue"),
        "qdisc.sfq.drops": s.count("qdisc.sfq.drops"),
        "qdisc.sfq.ns_per_enqueue": _per(s.total_s("qdisc.Sfq.enqueue") * 1e9,
                                         s.calls("qdisc.Sfq.enqueue")),
        "qdisc.sfq.ns_per_dequeue": _per(s.total_s("qdisc.Sfq.dequeue") * 1e9,
                                         s.calls("qdisc.Sfq.dequeue")),
        "qdisc.accept_ratio": _per(enqueues - dropped, enqueues),
        "qdisc.peak_held": s.count("qdisc.peak_held"),
        "traffic.sent": sent,
        "traffic.received": received,
        "traffic.delivered_ratio": _per(received, sent),
        "traffic.exp_draws": s.calls("traffic.exp_variate"),
        "traffic.self_s": s.layer_self_s("traffic", "run"),
        "trace.record_calls": records,
        "trace.self_s": s.layer_self_s("trace", "run"),
        "trace.ns_per_record": _per(s.self_s("trace.TraceWriter.record", "run")
                                    + s.self_s("trace.NullTracer.record", "run"),
                                    records) * 1e9,
        "scenario.parse_s": s.total_s("scenario.parse_scenario"),
        "sim.build_s": s.total_s("sim.Simulation"),
        "bench.hooks_absent": len(s.absent),
    }


def probe_metrics(report: dict) -> dict[str, float]:
    """Trace-file and analyzer figures of a hooked job that wrote a trace."""
    s = _Stats(report)
    trace = report["outputs"]["trace"]
    micro = report["micro"]
    lines = trace["lines"]
    return {
        "trace.lines": lines,
        "trace.bytes": trace["bytes"],
        "trace.ns_per_line": _per(s.self_s("trace.TraceWriter.record") * 1e9,
                                  s.calls("trace.TraceWriter.record")),
        "analyze.lines": micro["lines"],
        "analyze.parse_calls_per_line": _per(s.calls("analyze.parse_line"), lines),
        "analyze.parse_ns_per_line": _per(micro["parse_s"] * 1e9, micro["lines"]),
        "analyze.flow_stats_s": s.total_s("analyze.flow_stats"),
        "analyze.series_s": s.total_s("analyze.throughput_series"),
        "analyze.conservation_s": s.total_s("analyze.conservation_check"),
        "analyze.read_split_s": micro["read_split_s"],
    }


def layer_samples(plain: list[dict], hooked: list[dict], probe_plain: list[dict],
                  probe_hooked: list[dict], checks) -> dict[str, list[float]]:
    """Per-layer metric samples, one per hooked iteration.

    Counts must repeat exactly across the hooked iterations of one seed;
    each differing count is a failed check.
    """
    samples: dict[str, list[float]] = {name: [] for name in UNITS}
    for report in hooked:
        for name, value in job_metrics(report).items():
            samples[name].append(value)
    for report in probe_hooked:
        for name, value in probe_metrics(report).items():
            samples[name].append(value)
    run_plain = statistics.median(r["run_s"] for r in plain)
    samples["bench.tracing_overhead"] = [r["run_s"] / run_plain for r in hooked]
    analyze_s = [r["analyze_s"] for r in probe_plain]
    lines = probe_hooked[0]["outputs"]["trace"]["lines"]
    read_split = statistics.median(samples["analyze.read_split_s"])
    samples["cli.analyze_s"] = analyze_s
    samples["cli.analyze_lines_per_s"] = [lines / a for a in analyze_s]
    samples["analyze.vs_split"] = [a / read_split for a in analyze_s]
    for name in EXACT:
        values = samples[name]
        checks.expect(len(set(values)) <= 1, f"{name} differs between runs: {values}")
    return samples


def check_hooks(report: dict, checks) -> None:
    """Hook counts must match the link counters and the trace's op lines.

    Every enqueue is a '+' line and a link `enqueued`; every victim a
    'd' line and a link drop; every dequeued packet a '-' line; every
    delivery an 'r' line and a SinkMonitor call; every forward either
    a '+' or an 'r'; every send one packet emitted by a generator.
    """
    s = _Stats(report)
    out = report["outputs"]
    ops = out["trace"]["ops"]
    links = out["links"]
    pairs = {
        "+ lines": (ops.get("+", 0),
                    s.calls("qdisc.DropTail.enqueue") + s.calls("qdisc.Sfq.enqueue"),
                    sum(link["enqueued"] for link in links)),
        "d lines": (ops.get("d", 0),
                    s.count("qdisc.droptail.drops") + s.count("qdisc.sfq.drops"),
                    sum(link["drops"] for link in links)),
        "- lines": (ops.get("-", 0),
                    s.count("qdisc.droptail.dequeued") + s.count("qdisc.sfq.dequeued"),
                    sum(link["dequeued"] for link in links)),
        "r lines": (ops.get("r", 0), s.calls("traffic.SinkMonitor.on_receive"),
                    out["npkts"]),
        "forwards": (ops.get("+", 0) + ops.get("r", 0),
                     s.calls("netmodel.Network.forward")),
        "lines": (out["trace"]["lines"], s.calls("trace.TraceWriter.record")),
        "sends": (sum(g["emitted"] for g in out["generators"]),
                  s.calls("traffic.UdpAgent.send")),
    }
    for what, values in pairs.items():
        checks.expect(len(set(values)) == 1, f"hook self-test: {what} disagree {values}")
