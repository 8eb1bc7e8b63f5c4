"""Traced and untraced runs of random whole scenarios move the same packets.

An untraced run takes its own path through the network: no tracer, and
a packet whose last hop will end by the run's limit is credited to its
sink when that hop's transmission starts. The golden scenarios pin the
traced path; here a fixed seeded loop of small random scenarios checks
that both paths agree, that the analyzer finds every trace well formed,
and that it counts what the sinks count.
"""

import itertools
import math
import random

import pytest

from minins.analyze import analyze_trace
from minins.scenario import parse_scenario
from minins.sim import Simulation

from test_sim import _observed

SCENARIOS = 60
MIN_GAP_NS = 100_000  # every generator sends at most one packet per 100 us


def random_scenario(rng):
    """Scenario text for one simulated second: 2-6 nodes on a random tree
    plus up to 3 extra links, and 1-5 udp flows, each with one generator."""
    node_count = rng.randint(2, 6)
    pairs = [(rng.randrange(k), k) for k in range(1, node_count)]
    others = [pair for pair in itertools.combinations(range(node_count), 2)
              if pair not in pairs]
    pairs += rng.sample(others, min(len(others), rng.randint(0, 3)))
    lines = [f"sim duration=1s seed={rng.randrange(2**64)}"]
    lines += [f"node n{k}" for k in range(node_count)]
    for a, b in pairs:
        # 125 kb/s to 10**12 b/s, even on a log scale: the fastest links
        # serialize a small packet in 0 ns.
        bandwidth = round(10 ** rng.uniform(math.log10(125_000), 12))
        queue = rng.choice(["droptail", "sfq"])
        line = (f"duplex-link n{a} n{b} bw={bandwidth}b delay={rng.randint(0, 10_000_000)}ns"
                f" queue={queue} limit={rng.randint(1, 6)}")
        if queue == "sfq":
            line += f" buckets={rng.randint(1, 8)}"
        lines.append(line)
    for k in range(rng.randint(1, 5)):
        src, sink = rng.sample(range(node_count), 2)
        if rng.random() < 0.1:
            sink = src  # delivered at its own node, with no link events
        fid = 0 if rng.random() < 0.2 else rng.randint(1, 4)
        lines.append(f"udp f{k} src=n{src} sink=n{sink} fid={fid}")
        size = rng.randint(1, 40) if rng.random() < 0.3 else rng.randint(41, 1500)
        start = rng.randint(0, 900_000_000)
        # Some stop exactly at the end, so packets are in flight at the limit.
        stop = 1_000_000_000 if rng.random() < 0.5 else rng.randint(start, 1_000_000_000)
        when = f"start={start}ns stop={stop}ns"
        if rng.random() < 0.5:
            interval = rng.randint(MIN_GAP_NS, 20_000_000)
            lines.append(f"cbr agent=f{k} size={size} interval={interval}ns {when}")
        else:
            # The send gap is size * 8 * 10**9 // rate ns, so this rate keeps it >= 100 us.
            rate = rng.randint(1_000, size * 8 * 10**9 // MIN_GAP_NS)
            lines.append(f"exp agent=f{k} size={size} burst={rng.randint(1, 300)}ms"
                         f" idle={rng.randint(1, 300)}ms rate={rate}b {when}")
    return "\n".join(lines) + "\n"


def conserves_packets(sim):
    return all(link.enqueued == link.dequeued + link.drops + link.qdisc.held()
               for link in sim.network.links)


@pytest.mark.parametrize("seed", range(SCENARIOS))
def test_traced_and_untraced_runs_agree(tmp_path, seed):
    spec = parse_scenario(random_scenario(random.Random(seed)))
    trace = tmp_path / "run.tr"
    traced = Simulation(spec._replace(trace_path=str(trace)))
    untraced = Simulation(spec)
    assert untraced.tracer is None
    traced_result, untraced_result = traced.run(), untraced.run()
    assert _observed(untraced, untraced_result) == _observed(traced, traced_result)
    assert conserves_packets(traced) and conserves_packets(untraced)

    lines = trace.read_text(encoding="ascii").splitlines()
    assert analyze_trace(lines).violations == []
    fids = [agent.fid for agent in spec.agents]
    for agent, sink in zip(spec.agents, untraced.sinks, strict=True):
        if fids.count(agent.fid) > 1:  # the trace cannot tell flows that share a fid apart
            continue
        flow = (agent.fid, spec.nodes.index(agent.src), sink.node)
        stats = analyze_trace(lines, flow).flow
        assert (stats.received, stats.bytes_received, stats.dropped) == (
            sink.npkts, sink.bytes, sink.nlost)
