"""Canonical scenario text for a parsed spec, for round-trip tests.

parse_scenario(render_scenario(spec)) == spec for every valid spec.
"""

from minins.scenario import ScenarioSpec


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
        out.append(f"udp {agent.name} src={agent.src} sink={agent.sink} fid={agent.fid}")
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
