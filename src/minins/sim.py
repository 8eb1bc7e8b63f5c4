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
from .trace import TraceWriter
from .traffic import CbrGenerator, ExpOnOffGenerator, SinkMonitor, UdpAgent
from .units import format_time_short


@dataclass
class RunResult:
    duration: int  # ns
    npkts: int  # received, all sinks
    bytes: int
    nlost: int
    utilization_pct: float  # bytes delivered at sink_node only
    sink_node: int | None  # first sink's node, whose link the utilization quotes
    sink_nodes: int  # distinct nodes with a sink; npkts and bytes span them all

    def stats_block(self) -> str:
        """The printed statistics: human lines plus machine key=value."""
        tempo = format_time_short(self.duration)
        if self.sink_nodes > 1:
            where = f"em {self.sink_nodes} nodos"
        else:
            where = f"no nodo {self.sink_node if self.sink_node is not None else 0}"
        util = repr(self.utilization_pct)
        return (
            "Estatisticas:\n"
            f"Tempo Simulacao: {tempo} s\n"
            f"Pacotes recebidos {where}: {self.npkts}\n"
            f"Bytes recebidos {where}: {self.bytes}\n"
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
        self._build()
        # Opened only after a successful build: a scenario that fails to
        # build leaves no trace file behind.
        self.tracer = TraceWriter(self.trace_path) if self.trace_path else None
        self.network.tracer = self.tracer

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        node_id = {name: k for k, name in enumerate(spec.nodes)}
        self.network = Network(self.engine, None, len(spec.nodes), [
            (node_id[link.a], node_id[link.b], link.bandwidth, link.delay, link.qdisc)
            for link in spec.links
        ])

        # Each udp directive creates its source agent and its own sink
        # monitor; ports fall out of creation order, agent then sink.
        # Packet uids come from one counter shared by every agent.
        next_uid = itertools.count().__next__
        for agent_spec in spec.agents:
            src = node_id[agent_spec.src]
            src_port = self.network.allot_port(src)
            sink_node = node_id[agent_spec.sink]
            sink = SinkMonitor(sink_node, self.network.allot_port(sink_node))
            self.network.bind_sink(sink)
            agent = UdpAgent(self.network, src, src_port, agent_spec.fid, next_uid,
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

    # -- execution ---------------------------------------------------------

    def run(self) -> RunResult:
        try:
            self.engine.run_until(self.spec.duration)
        finally:
            if self.tracer is not None:
                self.tracer.close_flush()
        return self._result()

    def _result(self) -> RunResult:
        duration = self.spec.duration
        sink_node = self.sinks[0].node if self.sinks else None
        # Quoted against the first declared link touching the primary
        # sink's node (its last hop), so only that node's bytes count.
        into = self.network.links_into[sink_node] if self.sinks else []
        if duration > 0 and into:
            node_bytes = sum(s.bytes for s in self.sinks if s.node == sink_node)
            util = utilization(node_bytes, duration / 1e9, float(into[0].bandwidth))
        else:
            util = 0.0
        return RunResult(
            duration=duration,
            npkts=sum(s.npkts for s in self.sinks),
            bytes=sum(s.bytes for s in self.sinks),
            nlost=sum(s.nlost for s in self.sinks),
            utilization_pct=util,
            sink_node=sink_node,
            sink_nodes=len({s.node for s in self.sinks}),
        )


def run_scenario(spec: ScenarioSpec, trace_path: str | None = None,
                 seed: int | None = None) -> RunResult:
    """Build the scenario, run to its configured duration, return stats."""
    return Simulation(spec, trace_path=trace_path, seed=seed).run()
