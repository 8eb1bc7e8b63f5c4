"""Declarative scenario files: topology, traffic, schedule, outputs.

One directive per line, `#` starts a comment, options are key=value;
OPTIONS lists each directive's options. Every construct maps one-to-one
onto a simulation object; there is no embedded scripting. The color
attribute is accepted and ignored.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ScenarioError
from .netmodel import tx_time
from .qdisc import QdiscConfig
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
QUEUE_LIMITS = {"droptail": 50, "sfq": 40}  # each queue kind's default limit, in packets
SFQ_BUCKETS = 16  # an sfq queue's default bucket count
REQUIRED = ...  # the default of an option that must be given

# Each directive's options in the order they are read, so a line reports
# its first fault in this order. A default of None leaves the option to
# the directive's own rules.
OPTIONS = {
    "sim": {"duration": REQUIRED, "seed": 0},
    "duplex-link": {"bw": REQUIRED, "delay": REQUIRED, "queue": REQUIRED,
                    "limit": None, "buckets": None},
    "udp": {"src": REQUIRED, "sink": REQUIRED, "fid": REQUIRED, "color": None},
    "cbr": dict.fromkeys(CbrSpec._fields, REQUIRED),
    "exp": dict.fromkeys(ExpSpec._fields, REQUIRED),
    "trace": {"file": REQUIRED},
}


def parse_integer(key: str, raw: str, maximum: int = MAX_VALUE) -> int:
    """Plain decimal digits no larger than `maximum`, as every integer option is."""
    if not (raw.isascii() and raw.isdigit()):
        raise ScenarioError(f"{key}= wants a non-negative integer, got {raw!r}")
    return bounded_int(raw, f"{key}: value", maximum)


def _unit(parse):
    """A reader of a time or bandwidth: `parse`'s message, after the key."""
    def read(key: str, raw: str) -> int:
        try:
            return parse(raw)
        except ScenarioError as exc:
            raise ScenarioError(f"{key}: {exc}") from None
    return read


def _queue_kind(key: str, raw: str) -> str:
    if raw not in QUEUE_LIMITS:
        raise ScenarioError("queue= must be droptail or sfq")
    return raw


# How each option's value is read; an option named nowhere here is a word.
_READERS = {
    **dict.fromkeys(("duration", "delay", "interval", "burst", "idle", "start", "stop"),
                    _unit(parse_time)),
    **dict.fromkeys(("bw", "rate"), _unit(parse_bandwidth)),
    **dict.fromkeys(("size", "fid", "limit", "buckets"), parse_integer),
    "seed": lambda key, raw: parse_integer(key, raw, SEED_MAX),
    "queue": _queue_kind,
}


def _read_options(directive: str, tokens: list[str]) -> list:
    """The directive's option values from its key=value tokens, in OPTIONS order."""
    given = {}
    for token in tokens:
        key, eq, raw = token.partition("=")
        if not eq or not key or not raw:
            raise ScenarioError(f"expected key=value, got {token!r}")
        if key in given:
            raise ScenarioError(f"duplicate option {key!r}")
        given[key] = raw
    values = []
    for key, default in OPTIONS[directive].items():
        if key in given:
            read = _READERS.get(key)
            raw = given.pop(key)
            values.append(read(key, raw) if read else raw)
        elif default is REQUIRED:
            raise ScenarioError(f"missing option {key}=")
        else:
            values.append(default)
    if given:
        raise ScenarioError(f"unknown option(s) {', '.join(sorted(given))}")
    return values


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
                duration, seed = _read_options(name, args)

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
                bw, delay, kind, limit, buckets = _read_options(name, args[2:])
                limit = QUEUE_LIMITS[kind] if limit is None else limit
                if limit < 1:
                    raise ScenarioError("queue limit must be >= 1")
                if kind == "sfq":
                    buckets = SFQ_BUCKETS if buckets is None else buckets
                    if buckets < 1:
                        raise ScenarioError("bucket count must be >= 1")
                elif buckets is not None:
                    raise ScenarioError("buckets= only applies to sfq queues")
                links.append(LinkSpec(a, b, bw, delay, QdiscConfig(kind, limit, buckets)))
                link_pairs.add(frozenset((a, b)))

            elif name == "udp":
                if not args:
                    raise ScenarioError("usage: udp <name> ...")
                agent_name = args[0]
                if agent_name in agent_lines:
                    raise ScenarioError(f"duplicate agent name {agent_name!r}")
                src, sink, fid, _color = _read_options(name, args[1:])  # color: nam legacy
                for n in (src, sink):
                    if n not in nodes:
                        raise ScenarioError(f"undeclared node {n!r}")
                agents.append(AgentSpec(agent_name, src, sink, fid))
                agent_lines[agent_name] = lineno

            elif name == "cbr" or name == "exp":
                spec = (CbrSpec if name == "cbr" else ExpSpec)(*_read_options(name, args))
                if spec.agent not in agent_lines:
                    raise ScenarioError(f"undeclared agent {spec.agent!r}")
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
                (trace_path,) = _read_options(name, args)

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
