"""Declarative scenario files: topology, traffic, schedule, outputs.

One directive per line, `#` starts a comment, options are key=value:

    sim duration=500s seed=42
    node n0
    duplex-link n0 n2 bw=10Mb delay=10ms queue=droptail [limit=50]
    udp exp0 src=n0 sink=n3 fid=1 [color=Green]
    cbr agent=udp1 size=1000 interval=5ms start=1s stop=499s
    exp agent=exp0 size=1000 burst=800ms idle=2ms rate=5Mb start=0s stop=499s
    trace file=out.tr

Every construct maps one-to-one onto a simulation object; there is no
embedded scripting. The color attribute is accepted and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ScenarioError
from .netmodel import tx_time
from .qdisc import (
    DROPTAIL_DEFAULT_LIMIT,
    SFQ_DEFAULT_BUCKETS,
    SFQ_DEFAULT_LIMIT,
    QdiscConfig,
)
from .units import parse_bandwidth, parse_time, render_bandwidth, render_time


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    bandwidth: int  # bits/s
    delay: int  # ns
    qdisc: QdiscConfig


@dataclass(frozen=True)
class AgentSpec:
    name: str
    src: str
    sink: str
    fid: int
    color: str | None = None


@dataclass(frozen=True)
class CbrSpec:
    agent: str
    size: int
    interval: int
    start: int
    stop: int

    kind = "cbr"


@dataclass(frozen=True)
class ExpSpec:
    agent: str
    size: int
    burst: int
    idle: int
    rate: int
    start: int
    stop: int

    kind = "exp"


@dataclass
class ScenarioSpec:
    duration: int  # ns
    seed: int = 0
    nodes: list[str] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)
    agents: list[AgentSpec] = field(default_factory=list)
    generators: list = field(default_factory=list)  # CbrSpec | ExpSpec, file order
    trace_path: str | None = None


def _split_options(tokens: list[str], lineno: int) -> dict[str, str]:
    options = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key or not value:
            raise ScenarioError(f"line {lineno}: expected key=value, got {token!r}")
        if key in options:
            raise ScenarioError(f"line {lineno}: duplicate option {key!r}")
        options[key] = value
    return options


class _Directive:
    """Option accounting for one tokenized scenario line."""

    def __init__(self, lineno: int, options: dict[str, str]):
        self.lineno = lineno
        self._options = options
        self._used = set()

    def opt(self, key: str, required: bool = True) -> str | None:
        if key not in self._options:
            if required:
                raise ScenarioError(f"line {self.lineno}: missing option {key}=")
            return None
        self._used.add(key)
        return self._options[key]

    def check_no_extras(self) -> None:
        extras = set(self._options) - self._used
        if extras:
            raise ScenarioError(
                f"line {self.lineno}: unknown option(s) {', '.join(sorted(extras))}"
            )

    def time(self, key: str) -> int:
        return self._fail_with_line(parse_time, self.opt(key))

    def bandwidth(self, key: str) -> int:
        return self._fail_with_line(parse_bandwidth, self.opt(key))

    def integer(self, key: str, required: bool = True, default: int | None = None) -> int | None:
        raw = self.opt(key, required)
        if raw is None:
            return default
        if not (raw.isascii() and raw.isdigit()):
            raise ScenarioError(
                f"line {self.lineno}: {key}= wants a non-negative integer, got {raw!r}"
            )
        return int(raw)

    def _fail_with_line(self, parser, raw):
        try:
            return parser(raw)
        except ScenarioError as exc:
            raise ScenarioError(f"line {self.lineno}: {exc}") from None


def _components(nodes: list[str], links: list[LinkSpec]) -> dict[str, str]:
    """Map each node to a representative of its connected component."""
    parent = {node: node for node in nodes}

    def root(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]  # path halving
            node = parent[node]
        return node

    for link in links:
        parent[root(link.a)] = root(link.b)
    return {node: root(node) for node in nodes}


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate scenario text; all errors carry line numbers."""
    sim_directive = None
    nodes: list[str] = []
    links: list[LinkSpec] = []
    agents: list[AgentSpec] = []
    generators: list = []
    trace_path = None
    node_set: set[str] = set()
    agent_names: dict[str, AgentSpec] = {}
    link_pairs: set[frozenset] = set()
    agent_lines: list[int] = []
    gen_lines: list[int] = []

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name, args = tokens[0], tokens[1:]

        if name == "sim":
            if sim_directive is not None:
                raise ScenarioError(f"line {lineno}: duplicate sim directive")
            d = _Directive(lineno, _split_options(args, lineno))
            duration = d.time("duration")
            seed = d.integer("seed", required=False, default=0)
            if not 0 <= seed < (1 << 64):
                raise ScenarioError(f"line {lineno}: seed must fit in 64 bits")
            d.check_no_extras()
            sim_directive = (duration, seed)

        elif name == "node":
            if len(args) != 1:
                raise ScenarioError(f"line {lineno}: usage: node <name>")
            if args[0] in node_set:
                raise ScenarioError(f"line {lineno}: duplicate node name {args[0]!r}")
            node_set.add(args[0])
            nodes.append(args[0])

        elif name == "duplex-link":
            if len(args) < 2:
                raise ScenarioError(f"line {lineno}: usage: duplex-link <a> <b> ...")
            a, b = args[0], args[1]
            for n in (a, b):
                if n not in node_set:
                    raise ScenarioError(f"line {lineno}: undeclared node {n!r}")
            if a == b:
                raise ScenarioError(f"line {lineno}: self-link on {a!r}")
            if frozenset((a, b)) in link_pairs:
                raise ScenarioError(f"line {lineno}: duplicate link {a!r} {b!r}")
            d = _Directive(lineno, _split_options(args[2:], lineno))
            kind = d.opt("queue")
            if kind not in ("droptail", "sfq"):
                raise ScenarioError(f"line {lineno}: queue= must be droptail or sfq")
            default_limit = DROPTAIL_DEFAULT_LIMIT if kind == "droptail" else SFQ_DEFAULT_LIMIT
            limit = d.integer("limit", required=False, default=default_limit)
            if limit < 1:
                raise ScenarioError(f"line {lineno}: queue limit must be >= 1")
            buckets = d.integer("buckets", required=False, default=None)
            if buckets is not None and kind != "sfq":
                raise ScenarioError(f"line {lineno}: buckets= only applies to sfq queues")
            if buckets is None:
                buckets = SFQ_DEFAULT_BUCKETS
            elif buckets < 1:
                raise ScenarioError(f"line {lineno}: bucket count must be >= 1")
            qdisc = QdiscConfig(kind, limit, buckets)
            bw = d.bandwidth("bw")
            delay = d.time("delay")
            d.check_no_extras()
            link_pairs.add(frozenset((a, b)))
            links.append(LinkSpec(a, b, bw, delay, qdisc))

        elif name == "udp":
            if len(args) < 1:
                raise ScenarioError(f"line {lineno}: usage: udp <name> ...")
            agent_name = args[0]
            if agent_name in agent_names:
                raise ScenarioError(f"line {lineno}: duplicate agent name {agent_name!r}")
            d = _Directive(lineno, _split_options(args[1:], lineno))
            src = d.opt("src")
            sink = d.opt("sink")
            for n in (src, sink):
                if n not in node_set:
                    raise ScenarioError(f"line {lineno}: undeclared node {n!r}")
            fid = d.integer("fid")
            color = d.opt("color", required=False)  # nam legacy, ignored
            d.check_no_extras()
            spec = AgentSpec(agent_name, src, sink, fid, color)
            agent_names[agent_name] = spec
            agents.append(spec)
            agent_lines.append(lineno)

        elif name == "cbr":
            d = _Directive(lineno, _split_options(args, lineno))
            agent = d.opt("agent")
            if agent not in agent_names:
                raise ScenarioError(f"line {lineno}: undeclared agent {agent!r}")
            spec = CbrSpec(
                agent=agent,
                size=d.integer("size"),
                interval=d.time("interval"),
                start=d.time("start"),
                stop=d.time("stop"),
            )
            d.check_no_extras()
            if spec.size < 1:
                raise ScenarioError(f"line {lineno}: packet size must be >= 1 byte")
            if spec.interval <= 0:
                raise ScenarioError(f"line {lineno}: interval must be positive")
            if spec.start > spec.stop:
                raise ScenarioError(f"line {lineno}: start exceeds stop")
            generators.append(spec)
            gen_lines.append(lineno)

        elif name == "exp":
            d = _Directive(lineno, _split_options(args, lineno))
            agent = d.opt("agent")
            if agent not in agent_names:
                raise ScenarioError(f"line {lineno}: undeclared agent {agent!r}")
            spec = ExpSpec(
                agent=agent,
                size=d.integer("size"),
                burst=d.time("burst"),
                idle=d.time("idle"),
                rate=d.bandwidth("rate"),
                start=d.time("start"),
                stop=d.time("stop"),
            )
            d.check_no_extras()
            if spec.size < 1:
                raise ScenarioError(f"line {lineno}: packet size must be >= 1 byte")
            if tx_time(spec.size, spec.rate) == 0:
                raise ScenarioError(
                    f"line {lineno}: rate too high for size: zero gap between sends"
                )
            if spec.burst <= 0 or spec.idle <= 0:
                raise ScenarioError(f"line {lineno}: burst and idle must be positive")
            if spec.start > spec.stop:
                raise ScenarioError(f"line {lineno}: start exceeds stop")
            generators.append(spec)
            gen_lines.append(lineno)

        elif name == "trace":
            if trace_path is not None:
                raise ScenarioError(f"line {lineno}: duplicate trace directive")
            d = _Directive(lineno, _split_options(args, lineno))
            trace_path = d.opt("file")
            d.check_no_extras()

        else:
            raise ScenarioError(f"line {lineno}: unknown directive {name!r}")

    if sim_directive is None:
        raise ScenarioError("missing sim directive")
    duration, seed = sim_directive
    for lineno, gen in zip(gen_lines, generators):
        if gen.stop > duration:
            raise ScenarioError(
                f"line {lineno}: generator stop exceeds simulation duration"
            )
    # Links may be declared after the udp lines that use them, so
    # reachability is checked once the whole topology is known.
    component = _components(nodes, links)
    for lineno, agent in zip(agent_lines, agents):
        if component[agent.src] != component[agent.sink]:
            raise ScenarioError(
                f"line {lineno}: udp {agent.name}: sink {agent.sink} is unreachable "
                f"from src {agent.src}"
            )
    return ScenarioSpec(
        duration=duration,
        seed=seed,
        nodes=nodes,
        links=links,
        agents=agents,
        generators=generators,
        trace_path=trace_path,
    )


def render_scenario(spec: ScenarioSpec) -> str:
    """Canonical text for a spec; parse_scenario(render_scenario(s)) == s."""
    out = [f"sim duration={render_time(spec.duration)} seed={spec.seed}"]
    for node in spec.nodes:
        out.append(f"node {node}")
    for link in spec.links:
        line = (
            f"duplex-link {link.a} {link.b} bw={render_bandwidth(link.bandwidth)}"
            f" delay={render_time(link.delay)} queue={link.qdisc.kind}"
            f" limit={link.qdisc.limit}"
        )
        if link.qdisc.kind == "sfq":
            line += f" buckets={link.qdisc.buckets}"
        out.append(line)
    for agent in spec.agents:
        line = f"udp {agent.name} src={agent.src} sink={agent.sink} fid={agent.fid}"
        if agent.color is not None:
            line += f" color={agent.color}"
        out.append(line)
    for gen in spec.generators:
        if gen.kind == "cbr":
            out.append(
                f"cbr agent={gen.agent} size={gen.size}"
                f" interval={render_time(gen.interval)}"
                f" start={render_time(gen.start)} stop={render_time(gen.stop)}"
            )
        else:
            out.append(
                f"exp agent={gen.agent} size={gen.size}"
                f" burst={render_time(gen.burst)} idle={render_time(gen.idle)}"
                f" rate={render_bandwidth(gen.rate)}"
                f" start={render_time(gen.start)} stop={render_time(gen.stop)}"
            )
    if spec.trace_path is not None:
        out.append(f"trace file={spec.trace_path}")
    return "\n".join(out) + "\n"
