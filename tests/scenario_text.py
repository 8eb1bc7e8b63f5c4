"""Canonical scenario text for a parsed spec, for round-trip tests.

parse_scenario(render_scenario(spec)) == spec for every valid spec.
"""

from minins.scenario import OPTIONS, ScenarioSpec


def render_time(ns: int) -> str:
    """Compact exact scenario-file spelling: largest unit with integer value."""
    for suffix, factor in (("s", 1_000_000_000), ("ms", 1_000_000), ("us", 1_000)):
        if ns % factor == 0:
            return f"{ns // factor}{suffix}"
    return f"{ns}ns"


def render_bandwidth(bps: int) -> str:
    for suffix, factor in (("Mb", 1_000_000), ("kb", 1_000)):
        if bps % factor == 0:
            return f"{bps // factor}{suffix}"
    return f"{bps}b"


# How each option's value is spelled; every other option prints as str().
SPELLINGS = {
    **dict.fromkeys(("duration", "delay", "interval", "burst", "idle", "start", "stop"),
                    render_time),
    "bw": render_bandwidth,
    "rate": render_bandwidth,
}


def render_line(directive: str, positional: list[str], values: dict) -> str:
    """One directive line: its positional words, then each OPTIONS key that
    `values` holds (None leaves it out), in OPTIONS order."""
    words = [directive, *positional]
    for key in OPTIONS[directive]:
        if values.get(key) is not None:
            words.append(f"{key}={SPELLINGS.get(key, str)(values[key])}")
    return " ".join(words)


def render_scenario(spec: ScenarioSpec) -> str:
    """Canonical text for a spec; parse_scenario(render_scenario(s)) == s."""
    out = [render_line("sim", [], spec._asdict())]
    out += [f"node {node}" for node in spec.nodes]
    for link in spec.links:
        qdisc = link.qdisc
        out.append(render_line("duplex-link", [link.a, link.b], {
            "bw": link.bandwidth, "delay": link.delay, "queue": qdisc.kind,
            "limit": qdisc.limit, "buckets": qdisc.buckets}))
    out += [render_line("udp", [agent.name], agent._asdict()) for agent in spec.agents]
    out += [render_line(gen.kind, [], gen._asdict()) for gen in spec.generators]
    if spec.trace_path is not None:
        out.append(render_line("trace", [], {"file": spec.trace_path}))
    return "\n".join(out) + "\n"
