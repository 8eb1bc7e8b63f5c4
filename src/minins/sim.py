"""Scenario execution: build the model, run it, collect statistics.

A run's only input is its parsed `ScenarioSpec`, which also holds the
seed and the trace path (`minins run --seed/--trace` replace them with
`spec._replace` before the build). A run is a pure function of its
spec: equal specs give byte identical trace files and statistics
blocks. Each traffic generator draws from its own substream keyed by
its position in the scenario, so adding a generator does not disturb
the streams of earlier ones.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .engine import EventEngine
from .netmodel import Network
from .rng import SplitMix64
from .scenario import ScenarioSpec
from .traffic import CbrGenerator, ExpOnOffGenerator, SinkMonitor, UdpAgent
from .units import format_time_short


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


class RunResult(NamedTuple):
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

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.engine = EventEngine()
        self.tracer = None
        if spec.trace_path is not None:
            # Imported here: an untraced run never loads the trace codec.
            from .trace import TraceWriter

            self.tracer = TraceWriter(spec.trace_path)
        self.sinks: list[SinkMonitor] = []
        self.agents: dict[str, UdpAgent] = {}
        self.generators: list = []
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        spec = self.spec
        node_id = {name: k for k, name in enumerate(spec.nodes)}
        self.network = Network(self.engine, self.tracer, len(spec.nodes), [
            (node_id[link.a], node_id[link.b], link.bandwidth, link.delay, link.qdisc)
            for link in spec.links
        ])

        # Each udp directive creates its source agent and its own sink
        # monitor; each node's ports count from 0 in creation order, agent
        # then sink. Packet uids come from one counter shared by every agent.
        next_uid = itertools.count().__next__
        ports = [itertools.count() for _ in spec.nodes]
        for agent_spec in spec.agents:
            src = node_id[agent_spec.src]
            src_port = next(ports[src])
            sink_node = node_id[agent_spec.sink]
            sink = SinkMonitor(sink_node, next(ports[sink_node]))
            self.network.route_to(sink_node)
            agent = UdpAgent(self.network, src, src_port, agent_spec.fid, next_uid, sink)
            self.agents[agent_spec.name] = agent
            self.sinks.append(sink)

        for ordinal, gen_spec in enumerate(spec.generators):
            agent = self.agents[gen_spec.agent]
            if gen_spec.kind == "cbr":
                gen = CbrGenerator(self.engine, agent, gen_spec)
            else:
                rng = SplitMix64.substream(spec.seed, ordinal)
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
        # sink's node (its last hop), so only bytes that crossed a link
        # into that node count: not those of an agent on the node itself.
        into = self.network.links_into[sink_node] if self.sinks else []
        if duration > 0 and into:
            node_bytes = sum(agent.sink.bytes for agent in self.agents.values()
                             if agent.sink.node == sink_node != agent.node)
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

