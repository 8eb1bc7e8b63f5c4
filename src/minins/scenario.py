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

from typing import NamedTuple

from .errors import ScenarioError
from .netmodel import tx_time
from .qdisc import (
    DROPTAIL_DEFAULT_LIMIT,
    SFQ_DEFAULT_BUCKETS,
    SFQ_DEFAULT_LIMIT,
    QdiscConfig,
)
from .units import MAX_VALUE, bounded_int, parse_bandwidth, parse_time


class LinkSpec(NamedTuple):
    a: str
    b: str
    bandwidth: int  # bits/s
    delay: int  # ns
    qdisc: QdiscConfig


class AgentSpec(NamedTuple):
    name: str
    src: str
    sink: str
    fid: int


class CbrSpec(NamedTuple):
    agent: str
    size: int
    interval: int
    start: int
    stop: int

    kind = "cbr"


class ExpSpec(NamedTuple):
    agent: str
    size: int
    burst: int
    idle: int
    rate: int
    start: int
    stop: int

    kind = "exp"


class ScenarioSpec(NamedTuple):
    duration: int  # ns
    seed: int
    nodes: list[str]
    links: list[LinkSpec]
    agents: list[AgentSpec]
    generators: list  # CbrSpec | ExpSpec, file order
    trace_path: str | None = None


SEED_MAX = 2**64 - 1


def _split_options(tokens: list[str]) -> dict[str, str]:
    """key=value tokens as a dict. Each read pops its key; what stays is unknown."""
    options = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key or not value:
            raise ScenarioError(f"expected key=value, got {token!r}")
        if key in options:
            raise ScenarioError(f"duplicate option {key!r}")
        options[key] = value
    return options


def _take(options: dict[str, str], key: str) -> str:
    if key not in options:
        raise ScenarioError(f"missing option {key}=")
    return options.pop(key)


def _unit(options: dict[str, str], key: str, parse=parse_time) -> int:
    raw = _take(options, key)
    try:
        return parse(raw)
    except ScenarioError as exc:
        raise ScenarioError(f"{key}: {exc}") from None


def parse_integer(key: str, raw: str, maximum: int = MAX_VALUE) -> int:
    """Plain decimal digits no larger than `maximum`, as every integer option is."""
    if not (raw.isascii() and raw.isdigit()):
        raise ScenarioError(f"{key}= wants a non-negative integer, got {raw!r}")
    return bounded_int(raw, f"{key}: value", maximum)


def _integer(options: dict[str, str], key: str, default: int | None = None,
             maximum: int = MAX_VALUE) -> int:
    if default is not None and key not in options:
        return default
    return parse_integer(key, _take(options, key), maximum)


def _no_extras(options: dict[str, str]) -> None:
    if options:
        raise ScenarioError(f"unknown option(s) {', '.join(sorted(options))}")


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
    duration = seed = None
    nodes: dict[str, None] = {}  # an ordered set: names in file order
    links: list[LinkSpec] = []
    agents: list[AgentSpec] = []
    generators: list = []
    trace_path = None
    link_pairs: set[frozenset] = set()
    agent_lines: dict[str, int] = {}  # udp name -> its line
    gen_lines: list[int] = []

    # Lines end at LF, CRLF or a lone CR only; str.splitlines() also breaks at \f etc.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        name, *args = line.split()
        try:
            if name == "sim":
                if duration is not None:
                    raise ScenarioError("duplicate sim directive")
                opts = _split_options(args)
                duration = _unit(opts, "duration")
                seed = _integer(opts, "seed", 0, SEED_MAX)
                _no_extras(opts)

            elif name == "node":
                if len(args) != 1:
                    raise ScenarioError("usage: node <name>")
                if args[0] in nodes:
                    raise ScenarioError(f"duplicate node name {args[0]!r}")
                nodes[args[0]] = None

            elif name == "duplex-link":
                if len(args) < 2:
                    raise ScenarioError("usage: duplex-link <a> <b> ...")
                a, b = args[0], args[1]
                for n in (a, b):
                    if n not in nodes:
                        raise ScenarioError(f"undeclared node {n!r}")
                if a == b:
                    raise ScenarioError(f"self-link on {a!r}")
                if frozenset((a, b)) in link_pairs:
                    raise ScenarioError(f"duplicate link {a!r} {b!r}")
                opts = _split_options(args[2:])
                kind = _take(opts, "queue")
                if kind not in ("droptail", "sfq"):
                    raise ScenarioError("queue= must be droptail or sfq")
                default_limit = DROPTAIL_DEFAULT_LIMIT if kind == "droptail" else SFQ_DEFAULT_LIMIT
                limit = _integer(opts, "limit", default_limit)
                if limit < 1:
                    raise ScenarioError("queue limit must be >= 1")
                buckets_given = "buckets" in opts
                buckets = _integer(opts, "buckets", SFQ_DEFAULT_BUCKETS)
                if buckets_given and kind != "sfq":
                    raise ScenarioError("buckets= only applies to sfq queues")
                if buckets < 1:
                    raise ScenarioError("bucket count must be >= 1")
                links.append(LinkSpec(a, b, _unit(opts, "bw", parse_bandwidth),
                                      _unit(opts, "delay"), QdiscConfig(kind, limit, buckets)))
                _no_extras(opts)
                link_pairs.add(frozenset((a, b)))

            elif name == "udp":
                if not args:
                    raise ScenarioError("usage: udp <name> ...")
                agent_name = args[0]
                if agent_name in agent_lines:
                    raise ScenarioError(f"duplicate agent name {agent_name!r}")
                opts = _split_options(args[1:])
                src, sink = _take(opts, "src"), _take(opts, "sink")
                for n in (src, sink):
                    if n not in nodes:
                        raise ScenarioError(f"undeclared node {n!r}")
                fid = _integer(opts, "fid")
                opts.pop("color", None)  # nam legacy, ignored
                _no_extras(opts)
                agents.append(AgentSpec(agent_name, src, sink, fid))
                agent_lines[agent_name] = lineno

            elif name == "cbr" or name == "exp":
                opts = _split_options(args)
                agent = _take(opts, "agent")
                if agent not in agent_lines:
                    raise ScenarioError(f"undeclared agent {agent!r}")
                if name == "cbr":
                    spec = CbrSpec(agent, _integer(opts, "size"), _unit(opts, "interval"),
                                   _unit(opts, "start"), _unit(opts, "stop"))
                else:
                    spec = ExpSpec(agent, _integer(opts, "size"), _unit(opts, "burst"),
                                   _unit(opts, "idle"), _unit(opts, "rate", parse_bandwidth),
                                   _unit(opts, "start"), _unit(opts, "stop"))
                _no_extras(opts)
                if spec.size < 1:
                    raise ScenarioError("packet size must be >= 1 byte")
                if name == "cbr" and spec.interval <= 0:
                    raise ScenarioError("interval must be positive")
                if name == "exp" and tx_time(spec.size, spec.rate) == 0:
                    raise ScenarioError("rate too high for size: zero gap between sends")
                if name == "exp" and (spec.burst <= 0 or spec.idle <= 0):
                    raise ScenarioError("burst and idle must be positive")
                if spec.start > spec.stop:
                    raise ScenarioError("start exceeds stop")
                generators.append(spec)
                gen_lines.append(lineno)

            elif name == "trace":
                if trace_path is not None:
                    raise ScenarioError("duplicate trace directive")
                opts = _split_options(args)
                trace_path = _take(opts, "file")
                _no_extras(opts)

            else:
                raise ScenarioError(f"unknown directive {name!r}")
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None

    if duration is None:
        raise ScenarioError("missing sim directive")
    for lineno, gen in zip(gen_lines, generators):
        if gen.stop > duration:
            raise ScenarioError(
                f"line {lineno}: generator stop exceeds simulation duration"
            )
    # Links may be declared after the udp lines that use them, so
    # reachability is checked once the whole topology is known.
    component = _components(list(nodes), links)
    for agent in agents:
        if component[agent.src] != component[agent.sink]:
            raise ScenarioError(
                f"line {agent_lines[agent.name]}: udp {agent.name}: sink {agent.sink} "
                f"is unreachable from src {agent.src}"
            )
    return ScenarioSpec(
        duration=duration,
        seed=seed,
        nodes=list(nodes),
        links=links,
        agents=agents,
        generators=generators,
        trace_path=trace_path,
    )
