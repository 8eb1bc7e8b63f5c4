"""Scenario execution: build the model, run it, collect statistics.

A run is a pure function of (scenario, seed): same inputs give byte
identical trace files and statistics blocks. Each traffic generator
draws from its own substream keyed by its position in the scenario, so
adding a generator does not disturb the streams of earlier ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .analyze import utilization
from .engine import EventEngine
from .netmodel import Network
from .rng import SplitMix64
from .scenario import ScenarioSpec
from .trace import NullTracer, TraceWriter
from .traffic import (
    CbrGenerator,
    ExpOnOffGenerator,
    MonitorReport,
    SinkMonitor,
    UdpAgent,
)
from .units import format_time_short


@dataclass
class RunResult:
    duration: int  # final clock, ns
    npkts: int  # received, all sinks
    bytes: int
    nlost: int
    utilization_pct: float
    sink_node: int | None  # node whose counters the human block reports
    monitors: list[MonitorReport]
    trace_path: str | None

    def stats_block(self) -> str:
        """The printed statistics: human lines plus machine key=value."""
        tempo = format_time_short(self.duration)
        node = self.sink_node if self.sink_node is not None else 0
        util = repr(self.utilization_pct)
        return (
            "Estatisticas:\n"
            f"Tempo Simulacao: {tempo} s\n"
            f"Pacotes recebidos no nodo {node}: {self.npkts}\n"
            f"Bytes recebidos no nodo {node}: {self.bytes}\n"
            f"Utilizacao do link: {util}%\n"
            f"tempo_simulacao_s={tempo}\n"
            f"pacotes_recebidos={self.npkts}\n"
            f"bytes_recebidos={self.bytes}\n"
            f"utilizacao_link_pct={util}\n"
        )


class Simulation:
    """One scenario wired onto one event engine, ready to run."""

    def __init__(self, spec: ScenarioSpec, trace_path: str | None = None,
                 seed: int | None = None):
        self.spec = spec
        self.seed = spec.seed if seed is None else seed
        self.trace_path = spec.trace_path if trace_path is None else trace_path
        self.engine = EventEngine()
        self.sinks: list[SinkMonitor] = []
        self.agents: dict[str, UdpAgent] = {}
        self.generators: list = []
        self._uid_counter = itertools.count()
        self._build()
        # Opened only after a successful build: a scenario that fails to
        # build leaves no trace file behind.
        self.tracer = TraceWriter(self.trace_path) if self.trace_path else NullTracer()
        self.network.tracer = self.tracer

    # -- construction ------------------------------------------------------

    def _alloc_uid(self) -> int:
        return next(self._uid_counter)

    def _build(self) -> None:
        spec = self.spec
        node_id = {name: k for k, name in enumerate(spec.nodes)}
        self.network = Network(self.engine, NullTracer(), len(spec.nodes), [
            (node_id[link.a], node_id[link.b], link.bandwidth, link.delay, link.qdisc)
            for link in spec.links
        ])

        # Each udp directive creates its source agent and its own sink
        # monitor; ports fall out of creation order, agent then sink.
        for agent_spec in spec.agents:
            src = node_id[agent_spec.src]
            src_port = self.network.allot_port(src)
            sink_node = node_id[agent_spec.sink]
            sink = SinkMonitor(sink_node, self.network.allot_port(sink_node), self.engine.now)
            self.network.bind_receiver(sink.node, sink.port, sink.on_receive)
            agent = UdpAgent(self.network, src, src_port, agent_spec.fid, self._alloc_uid,
                             sink.node, sink.port)
            self.agents[agent_spec.name] = agent
            self.sinks.append(sink)

        for ordinal, gen_spec in enumerate(spec.generators):
            agent = self.agents[gen_spec.agent]
            if gen_spec.kind == "cbr":
                gen = CbrGenerator(self.engine, agent, gen_spec)
            else:
                rng = SplitMix64.substream(self.seed, ordinal)
                gen = ExpOnOffGenerator(self.engine, agent, gen_spec, rng)
            gen.install()
            self.generators.append(gen)

        self.engine.schedule(spec.duration, self._finish)

    def _finish(self) -> None:
        """Terminal no-op: guarantees the clock reaches the duration."""

    # -- execution ---------------------------------------------------------

    def run(self) -> RunResult:
        try:
            self.engine.run_until(self.spec.duration)
        finally:
            self.tracer.close_flush()
        return self._result()

    def _result(self) -> RunResult:
        duration = self.engine.now()
        npkts = sum(s.npkts for s in self.sinks)
        total_bytes = sum(s.bytes for s in self.sinks)
        nlost = sum(s.nlost for s in self.sinks)
        sink_node = self.sinks[0].node if self.sinks else None
        ref_bw = self._reference_bandwidth(sink_node)
        if duration > 0 and ref_bw is not None:
            util = utilization(total_bytes, duration / 1e9, float(ref_bw))
        else:
            util = 0.0
        return RunResult(
            duration=duration,
            npkts=npkts,
            bytes=total_bytes,
            nlost=nlost,
            utilization_pct=util,
            sink_node=sink_node,
            monitors=[s.report() for s in self.sinks],
            trace_path=self.trace_path,
        )

    def _reference_bandwidth(self, sink_node: int | None) -> int | None:
        """Bandwidth the utilization figure is quoted against: the first
        declared link touching the primary sink's node (its last hop)."""
        if sink_node is None:
            return None
        name = self.spec.nodes[sink_node]
        for link in self.spec.links:
            if name in (link.a, link.b):
                return link.bandwidth
        return None


def run_scenario(spec: ScenarioSpec, trace_path: str | None = None,
                 seed: int | None = None) -> RunResult:
    """Build the scenario, run to its configured duration, return stats."""
    return Simulation(spec, trace_path=trace_path, seed=seed).run()
