import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minins import sim as sim_module
from minins.engine import EventEngine
from minins.errors import ScenarioError
from minins.golden import golden_dir
from minins.scenario import parse_scenario
from minins.sim import Simulation

SHORT_PAPER = """\
sim duration=20s seed=77
node n0
node n1
node n2
node n3
duplex-link n0 n2 bw=10Mb delay=10ms queue=droptail
duplex-link n1 n2 bw=10Mb delay=10ms queue=droptail
duplex-link n2 n3 bw=10Mb delay=10ms queue=sfq
udp exp0 src=n0 sink=n3 fid=1 color=Green
udp udp1 src=n1 sink=n3 fid=2
exp agent=exp0 size=1000 burst=800ms idle=2ms rate=5Mb start=0s stop=19s
cbr agent=udp1 size=1000 interval=5ms start=1s stop=19s
"""


def test_cbr_golden_statistics(cbr_run):
    result = cbr_run.result
    assert result.npkts == 99_600
    assert result.bytes == 99_600_000
    assert result.nlost == 0
    assert result.utilization_pct == 15.936
    assert result.duration == 500_000_000_000
    (sink,) = cbr_run.sim.sinks
    assert sink.npkts == 99_600 and sink.nlost == 0


def test_run_result_cannot_be_assigned(cbr_run):
    with pytest.raises(AttributeError):
        cbr_run.result.npkts = 0


def test_cbr_golden_stats_block_text(cbr_run):
    assert cbr_run.result.stats_block() == (
        "Estatisticas:\n"
        "Tempo Simulacao: 500 s\n"
        "Pacotes recebidos no nodo 3: 99600\n"
        "Bytes recebidos no nodo 3: 99600000\n"
        "Utilizacao do link: 15.936%\n"
        "tempo_simulacao_s=500\n"
        "pacotes_recebidos=99600\n"
        "bytes_recebidos=99600000\n"
        "utilizacao_link_pct=15.936\n"
    )


class CountingEngine(EventEngine):
    """An EventEngine that counts the events it dispatches."""

    dispatched = 0

    def schedule(self, time, action, *args):
        def counted():
            self.dispatched += 1
            action()

        super().schedule(time, counted, *args)


def run_counted_cbr_golden(monkeypatch, trace_path=None):
    """Run cbr_golden on a CountingEngine; its events dispatched."""
    monkeypatch.setattr(sim_module, "EventEngine", CountingEngine)
    text = (golden_dir() / "cbr_golden.scn").read_text()
    sim = Simulation(parse_scenario(text)._replace(trace_path=trace_path))
    assert sim.run().npkts == 99_600
    return sim.engine.dispatched


def test_cbr_golden_untraced_costs_two_events_per_packet(monkeypatch):
    # No packet waits anywhere in cbr_golden, so no transmit-complete
    # event is ever pushed. Untraced, each of its 99,600 packets costs
    # its send and the arrival at the middle node; the delivery is
    # credited when the last hop's transmission starts. The one more
    # event opens the generator's ON period. An event added back to the
    # per-packet path fails here.
    assert run_counted_cbr_golden(monkeypatch) == 1 + 2 * 99_600


def test_cbr_golden_traced_costs_three_events_per_packet(monkeypatch, tmp_path):
    # Traced, the last hop keeps its arrival event, which writes the
    # 'r' line: a send and one arrival per hop (two hops) per packet.
    trace = tmp_path / "cbr.tr"
    assert run_counted_cbr_golden(monkeypatch, str(trace)) == 1 + 3 * 99_600


def test_zero_duration_run_is_valid(tmp_path):
    spec = parse_scenario(
        "sim duration=0s\nnode a\nnode b\n"
        "duplex-link a b bw=1Mb delay=1ms queue=droptail\n"
        "udp f src=a sink=b fid=1\n"
        "cbr agent=f size=100 interval=1ms start=0s stop=0s\n"
    )
    trace = tmp_path / "zero.tr"
    result = Simulation(spec._replace(trace_path=str(trace))).run()
    assert trace.exists() and trace.read_text() == ""
    assert result.npkts == result.bytes == 0
    assert result.duration == 0
    assert result.utilization_pct == 0.0
    assert "tempo_simulacao_s=0\n" in result.stats_block()


def test_empty_trace_path_is_an_os_error():
    # Only None means untraced: an empty path must not drop the trace silently.
    spec = parse_scenario((golden_dir() / "cbr_golden.scn").read_text())
    with pytest.raises(OSError):
        Simulation(spec._replace(trace_path=""))


def test_repeat_runs_byte_identical(tmp_path):
    spec = parse_scenario(SHORT_PAPER)
    blocks, texts = [], []
    for i in range(2):
        path = tmp_path / f"run{i}.tr"
        result = Simulation(spec._replace(trace_path=str(path))).run()
        blocks.append(result.stats_block())
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert blocks[0] == blocks[1]


def test_different_seed_changes_exponential_flow(tmp_path):
    spec = parse_scenario(SHORT_PAPER)
    a = Simulation(spec._replace(trace_path=str(tmp_path / "a.tr"), seed=1))
    b = Simulation(spec._replace(trace_path=str(tmp_path / "b.tr"), seed=2))
    a.run()
    b.run()
    assert a.sinks[0].npkts != b.sinks[0].npkts  # exp flow differs
    # cbr counts are seed-independent (timing may shift via shared queue)
    assert (a.sinks[1].npkts, a.sinks[1].bytes) == (b.sinks[1].npkts, b.sinks[1].bytes)


def test_generator_substreams_keyed_by_position(tmp_path):
    # Same seed, same generator, different ordinal: different schedule.
    one = parse_scenario(SHORT_PAPER)
    swapped = parse_scenario(SHORT_PAPER.replace(
        "exp agent=exp0 size=1000 burst=800ms idle=2ms rate=5Mb start=0s stop=19s\n"
        "cbr agent=udp1 size=1000 interval=5ms start=1s stop=19s\n",
        "cbr agent=udp1 size=1000 interval=5ms start=1s stop=19s\n"
        "exp agent=exp0 size=1000 burst=800ms idle=2ms rate=5Mb start=0s stop=19s\n",
    ))
    s1 = Simulation(one)
    s2 = Simulation(swapped)
    s1.run()
    s2.run()
    assert s1.sinks[0].npkts != s2.sinks[0].npkts


def test_paper_scenario_first_cbr_enqueue_line(paper_run):
    # Flow 2's first packet: queued at node 1 toward node 2 at t=1 s,
    # addressed 1.0 -> 3.1 (the cbr sink took the second port on node 3).
    for line in paper_run.trace_lines():
        if line.startswith("+") and " cbr " in line:
            assert re.fullmatch(
                r"\+ 1\.000000000 1 2 cbr 1000 ------- 2 1\.0 3\.1 0 \d+", line
            )
            break
    else:
        raise AssertionError("no cbr enqueue line found")


def test_paper_scenario_port_allocation(paper_run):
    sim = paper_run.sim
    assert sim.agents["exp0"].port == 0  # first agent on node 0
    assert sim.agents["udp1"].port == 0  # first agent on node 1
    assert [s.port for s in sim.sinks] == [0, 1]  # both sinks on node 3


def test_utilization_uses_first_link_at_sink_node():
    # sink sits on node b; its only link is the 2 Mb one, so 100 bytes
    # over 1 s is 100*8/2e6*100 = 0.04 percent.
    spec = parse_scenario(
        "sim duration=1s\nnode a\nnode b\n"
        "duplex-link a b bw=2Mb delay=1ms queue=droptail\n"
        "udp f src=a sink=b fid=1\n"
        "cbr agent=f size=100 interval=500ms start=0s stop=600ms\n"
    )
    result = Simulation(spec).run()
    assert result.npkts == 2
    assert result.utilization_pct == 200 * 8.0 / (2e6 * 1.0) * 100.0


def test_utilization_counts_only_the_reported_sink_node():
    # Flows end at b and c. The figure is quoted against b's first
    # declared link (a-b, 2 Mb), so only b's 200 bytes count: c's 10000
    # bytes crossed other links. The packet and byte lines stay totals,
    # labelled as received at both sink nodes, not at b.
    spec = parse_scenario(
        "sim duration=1s\nnode a\nnode b\nnode c\n"
        "duplex-link a b bw=2Mb delay=1ms queue=droptail\n"
        "duplex-link a c bw=1Mb delay=1ms queue=droptail\n"
        "duplex-link b c bw=10Mb delay=1ms queue=droptail\n"
        "udp f1 src=a sink=b fid=1\n"
        "udp f2 src=a sink=c fid=2\n"
        "cbr agent=f1 size=100 interval=500ms start=0s stop=600ms\n"
        "cbr agent=f2 size=1000 interval=100ms start=0s stop=1s\n"
    )
    result = Simulation(spec).run()
    assert (result.sink_node, result.npkts, result.bytes) == (1, 12, 10_200)
    assert repr(result.utilization_pct) == "0.08"
    block = result.stats_block()
    assert "Utilizacao do link: 0.08%\n" in block
    assert "Pacotes recebidos em 2 nodos: 12\n" in block
    assert "Bytes recebidos em 2 nodos: 10200\n" in block
    assert "pacotes_recebidos=12\nbytes_recebidos=10200\n" in block


def test_shared_fid_agents_number_packets_independently(tmp_path):
    # Two agents with the same fid and different sinks: each numbers its
    # own packets from 0, and nothing is lost.
    spec = parse_scenario(
        "sim duration=2s\nnode a\nnode b\nnode c\n"
        "duplex-link a b bw=10Mb delay=1ms queue=droptail\n"
        "duplex-link a c bw=10Mb delay=1ms queue=droptail\n"
        "udp f1 src=a sink=b fid=1\n"
        "udp f2 src=a sink=c fid=1\n"
        "cbr agent=f1 size=100 interval=10ms start=0s stop=1s\n"
        "cbr agent=f2 size=100 interval=10ms start=0s stop=1s\n"
    )
    trace = tmp_path / "fid.tr"
    sim = Simulation(spec._replace(trace_path=str(trace)))
    result = sim.run()
    assert result.npkts == 200
    assert result.nlost == 0
    assert [sink.nlost for sink in sim.sinks] == [0, 0]
    seqs = {}  # receiving node -> sequence numbers delivered there
    for line in trace.read_text().splitlines():
        fields = line.split()
        if fields[0] == "r":
            seqs.setdefault(fields[3], []).append(int(fields[10]))
    assert seqs == {"1": list(range(100)), "2": list(range(100))}


@st.composite
def udp_scenarios(draw):
    """Scenario text: 2-7 nodes, a random subset of the links between
    them, and 1-4 udp flows between random nodes, so some flows may
    have no path."""
    node_count = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(node_count), 2))
    links = draw(st.lists(st.sampled_from(pairs), unique=True))
    flows = draw(st.lists(st.tuples(st.integers(0, node_count - 1),
                                    st.integers(0, node_count - 1)), min_size=1, max_size=4))
    lines = ["sim duration=1s"]
    lines += [f"node n{k}" for k in range(node_count)]
    lines += [f"duplex-link n{a} n{b} bw=1Mb delay=1ms queue=droptail" for a, b in links]
    lines += [f"udp f{k} src=n{src} sink=n{dst} fid={k}" for k, (src, dst) in enumerate(flows)]
    return "\n".join(lines) + "\n"


@given(udp_scenarios())
def test_parsed_scenarios_route_every_flow_to_its_sink(text):
    # Forwarding does not check for a missing next hop: a scenario that
    # parses has one at every node on the way from each source to its
    # sink, and the parser rejects every other scenario.
    try:
        spec = parse_scenario(text)
    except ScenarioError as exc:
        assert "is unreachable from src" in str(exc)
        return
    sim = Simulation(spec)
    for agent, sink in zip(sim.agents.values(), sim.sinks, strict=True):
        column = sim.network.compute_routes(sink.node)
        node, hops = agent.node, 0
        while node != sink.node:
            link = column[node]
            assert link is not None and link.from_node == node
            node, hops = link.to_node, hops + 1
            assert hops < len(spec.nodes)


def test_same_instant_events_keep_schedule_order(tmp_path):
    # At 13 ms flow 1's far-end arrival and flow 2's send fall due
    # together, and same-instant events run in the order they were
    # scheduled. A hop's arrival is scheduled when its transmission
    # starts (at 0 ms here, as ns-2's LinkDelay does), so it runs before
    # the send that flow 2's 3 ms send scheduled. The golden digests do
    # not pin this order: scheduling the arrival when the transmission
    # ends flips it and still passes all four.
    spec = parse_scenario(
        "sim duration=50ms\nnode a\nnode b\n"
        "duplex-link a b bw=1Mb delay=5ms queue=droptail\n"
        "udp f1 src=a sink=b fid=1\n"
        "udp f2 src=a sink=b fid=2\n"
        "cbr agent=f1 size=1000 interval=20ms start=0s stop=50ms\n"
        "cbr agent=f2 size=1 interval=10ms start=3ms stop=50ms\n"
    )
    trace = tmp_path / "tie.tr"
    Simulation(spec._replace(trace_path=str(trace))).run()
    at_13ms = [line for line in trace.read_text().splitlines() if " 0.013000000 " in line]
    assert at_13ms == [
        "r 0.013000000 0 1 cbr 1000 ------- 1 0.0 1.0 0 0",
        "+ 0.013000000 0 1 cbr 1 ------- 2 0.1 1.1 1 2",
        "- 0.013000000 0 1 cbr 1 ------- 2 0.1 1.1 1 2",
    ]


def test_huge_sfq_bucket_count_runs_and_conserves_packets():
    # A billion buckets is a valid scenario: SFQ keeps only the buckets
    # its two flows use, so the run neither hangs nor exhausts memory.
    text = (golden_dir() / "sfq_pair.scn").read_text()
    assert text.count("queue=sfq") == 1
    spec = parse_scenario(text.replace("queue=sfq", "queue=sfq buckets=1000000000"))
    sim = Simulation(spec)
    result = sim.run()
    assert result.npkts > 0
    sfq_links = [link for link in sim.network.links if link.qdisc.kind == "sfq"]
    assert len(sfq_links) == 2 and sfq_links[0].qdisc.buckets == 10**9
    for link in sim.network.links:
        assert link.enqueued == link.dequeued + link.drops + link.qdisc.held()


def _observed(sim, result):
    """What a run reports: stats block, per-sink and per-link counters."""
    return (result.stats_block(),
            [(sink.npkts, sink.bytes, sink.nlost) for sink in sim.sinks],
            [(link.enqueued, link.dequeued, link.drops, link.qdisc.held())
             for link in sim.network.links])


@pytest.mark.parametrize("name", sorted(path.stem for path in golden_dir().glob("*.scn")))
def test_untraced_run_matches_traced_run(name, golden_runs):
    # The golden digests only see traced runs; a run without a trace file
    # takes its own path (no tracer at all) and must move the same packets.
    traced = golden_runs(name)
    spec, traced_sim, traced_result = traced.spec, traced.sim, traced.result
    assert traced_sim.network.tracer is not None
    untraced_sim = Simulation(spec)  # the bundled scenarios ask for no trace
    assert untraced_sim.network.tracer is None
    untraced_result = untraced_sim.run()
    assert _observed(untraced_sim, untraced_result) == _observed(traced_sim, traced_result)
