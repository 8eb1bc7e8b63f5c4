"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test finishes by printing a PASS line (visible with pytest -s);
a failed assertion means the criterion itself failed.
"""

import hashlib
import json
import multiprocessing
import random
import shutil
from concurrent.futures import ProcessPoolExecutor

import pytest

from minins.analyze import analyze_trace
from minins.engine import EventEngine
from minins.golden import compare_golden, golden_dir, run_validate
from minins.netmodel import Network
from minins.qdisc import QdiscConfig, sfq_bucket
from minins.scenario import parse_scenario
from minins.sim import Simulation, utilization
from minins.traffic import SinkMonitor

from net_helpers import ListTracer, StandInOrigin, link_between, seconds
from reference_model import MicroLink, MicroScenario, reference_outcome

EXP_BYTES_EXPECTED = 5e6 * (800 / 802) * 499 / 8  # duty-cycle analysis
GOLDEN_NAMES = sorted(path.stem for path in golden_dir().glob("*.scn"))


def test_criterion_1_utilization_formula_fidelity():
    value = utilization(334_576_500, 500, 1e7)
    assert abs(value - 53.532239999999994) <= 1e-9
    assert repr(value) == "53.532239999999994"
    print("\nPASS criterion 1: utilization formula reproduces the published figure")


def test_criterion_2_deterministic_cbr_golden(cbr_run):
    result = cbr_run.result
    assert result.npkts == 99_600
    assert result.bytes == 99_600_000
    assert result.nlost == 0
    assert result.utilization_pct == 15.936
    assert result.duration == seconds(500)
    # every packet takes exactly 21.6 ms end to end
    first_plus = {}
    delays = set()
    with open(cbr_run.trace_path, encoding="ascii") as trace:
        for line in trace:
            fields = line.split()
            op, t, uid = fields[0], fields[1], fields[11]
            ns = int(t.replace(".", ""))
            if op == "+" and uid not in first_plus:
                first_plus[uid] = ns
            elif op == "r":
                delays.add(ns - first_plus[uid])
    assert delays == {21_600_000}
    print("PASS criterion 2: cbr golden exact (99600 pkts, 21.6 ms, 15.936%)")


def paper_seed_totals(seed):
    """(exp sink bytes, utilization %, bottleneck drops) of one paper.scn seed."""
    spec = parse_scenario((golden_dir() / "paper.scn").read_text())
    sim = Simulation(spec._replace(seed=seed))  # trace-free: bands are about totals
    result = sim.run()
    return sim.sinks[0].bytes, result.utilization_pct, link_between(sim.network, 2, 3).drops


def test_criterion_3_paper_scenario_bands_over_ten_seeds():
    seeds = range(1, 11)  # each run is a pure function of its seed, so they run in parallel
    with ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn")) as pool:
        totals = list(pool.map(paper_seed_totals, seeds))
    for seed, (exp_bytes, utilization_pct, bottleneck_drops) in zip(seeds, totals):
        assert abs(exp_bytes - EXP_BYTES_EXPECTED) / EXP_BYTES_EXPECTED <= 0.05, seed
        assert 62.0 <= utilization_pct <= 69.0, seed
        assert bottleneck_drops == 0, seed
    print("PASS criterion 3: 10 seeds inside +-5% byte band, util in [62,69], 0 drops")


def test_criterion_4_equal_seed_runs_byte_identical(cbr_run, paper_run, tmp_path):
    for prior in (cbr_run, paper_run):
        again = tmp_path / f"{prior.name}.tr"
        result = Simulation(prior.spec._replace(trace_path=str(again))).run()
        assert again.read_bytes() == prior.trace_path.read_bytes()
        assert result.stats_block() == prior.result.stats_block()
    print("PASS criterion 4: reruns byte-identical (trace and statistics)")


def test_criterion_5_conservation(golden_runs, tmp_path):
    for name in GOLDEN_NAMES:
        assert golden_runs(name).report.violations == [], name

    rng = random.Random(505)
    for trial in range(6):
        limit = rng.randint(2, 10)
        size = rng.choice([500, 1000, 1500])
        bw = rng.choice([1_000_000, 2_000_000])
        interval = size * 8 * 1_000_000_000 // (2 * bw)  # 2x capacity
        text = (
            f"sim duration=4s seed={trial}\n"
            "node a\nnode b\nnode c\n"
            f"duplex-link a b bw={bw}b delay=2ms queue=droptail limit={limit}\n"
            f"duplex-link b c bw={bw}b delay=2ms queue=droptail limit={limit}\n"
            "udp f src=a sink=c fid=1\n"
            f"cbr agent=f size={size} interval={interval}ns start=0s stop=3s\n"
        )
        trace = tmp_path / f"overload{trial}.tr"
        sim = Simulation(parse_scenario(text)._replace(trace_path=str(trace)))
        sim.run()
        lines = trace.read_text().splitlines()
        assert analyze_trace(lines).violations == []
        counts = {}
        for line in lines:
            fields = line.split()
            key = (fields[0], int(fields[2]), int(fields[3]))
            counts[key] = counts.get(key, 0) + 1
        for link in sim.network.links:
            pair = (link.from_node, link.to_node)
            plus = counts.get(("+",) + pair, 0)
            minus = counts.get(("-",) + pair, 0)
            drops = counts.get(("d",) + pair, 0)
            assert plus == minus + drops + link.qdisc.held(), pair
            assert link.drops == drops and link.enqueued == plus
    print("PASS criterion 5: zero violations; per-link conservation under overload")


def _fair_pair_scenario(queue: str) -> str:
    return (
        "sim duration=100s seed=9\n"
        "node n0\nnode n1\nnode n2\nnode n3\n"
        "duplex-link n0 n2 bw=10Mb delay=10ms queue=droptail\n"
        "duplex-link n1 n2 bw=10Mb delay=10ms queue=droptail\n"
        f"duplex-link n2 n3 bw=10Mb delay=10ms queue={queue}\n"
        "udp f1 src=n0 sink=n3 fid=1\n"
        "udp f2 src=n1 sink=n3 fid=2\n"
        "cbr agent=f1 size=1000 interval=800us start=0s stop=99s\n"
        "cbr agent=f2 size=1000 interval=800us start=0s stop=99s\n"
    )


def test_criterion_6_sfq_fairness_vs_droptail_fifo(tmp_path):
    assert sfq_bucket(1, 16) != sfq_bucket(2, 16)  # flows land in distinct buckets
    sim = Simulation(parse_scenario(_fair_pair_scenario("sfq")))
    sim.run()
    got1, got2 = sim.sinks[0].bytes, sim.sinks[1].bytes
    assert abs(got1 - got2) / max(got1, got2) <= 0.05
    # both flows actually saturated the bottleneck
    assert got1 + got2 >= 0.97 * 10e6 * 99 / 8

    trace = tmp_path / "droptail_pair.tr"
    spec = parse_scenario(_fair_pair_scenario("droptail"))
    Simulation(spec._replace(trace_path=str(trace))).run()
    plus, minus, received, dropped = [], [], [], set()
    for line in trace.read_text().splitlines():
        fields = line.split()
        op, frm, to, uid = fields[0], int(fields[2]), int(fields[3]), int(fields[11])
        if (frm, to) != (2, 3):
            continue
        if op == "+":
            plus.append(uid)
        elif op == "-":
            minus.append(uid)
        elif op == "d":
            dropped.add(uid)
        elif op == "r":
            received.append(uid)
    assert received == minus == [uid for uid in plus if uid not in dropped]
    print("PASS criterion 6: sfq split within 5%; droptail preserves FIFO order")


def test_criterion_7_online_offline_equivalence(golden_runs):
    assert GOLDEN_NAMES == ["cbr_golden", "overload_droptail", "paper", "sfq_pair"]
    for name in GOLDEN_NAMES:
        run = golden_runs(name)
        report = run.report  # one pass counts every flow
        node_id = {node: k for k, node in enumerate(run.spec.nodes)}
        online = {}  # flow key -> (npkts, bytes, nlost) summed over its sinks
        # one sink per udp directive, in directive order
        for agent, sink in zip(run.spec.agents, run.sim.sinks, strict=True):
            key = (agent.fid, node_id[agent.src], node_id[agent.sink])
            npkts, nbytes, nlost = online.get(key, (0, 0, 0))
            online[key] = (npkts + sink.npkts, nbytes + sink.bytes, nlost + sink.nlost)
        offline = {key: (stats.received, stats.bytes_received, stats.dropped)
                   for key, stats in report.flows.items()}
        assert offline == online, name
        assert sum(stats.dropped for stats in report.flows.values()) == sum(
            link.drops for link in run.sim.network.links), name
    print("PASS criterion 7: analyzer equals loss monitors and link drops on every golden run")


TOPOLOGIES = [
    {(0, 1), (1, 2)},
    {(0, 1), (0, 2)},
    {(0, 2), (1, 2)},
    {(0, 1), (0, 2), (1, 2)},
]


def _random_micro_scenario(rng: random.Random) -> MicroScenario:
    links = {}
    for a, b in rng.choice(TOPOLOGIES):
        link = MicroLink(
            limit=rng.randint(1, 6),
            bandwidth=rng.choice([125_000, 1_000_000, 2_500_000, 10_000_000]),
            delay=rng.choice([0, 1_000_000, 5_000_000, 10_000_000]),
        )
        links[(a, b)] = link
        links[(b, a)] = MicroLink(link.limit, link.bandwidth, link.delay)
    injections = []
    for uid in range(rng.randint(1, 20)):
        src = rng.randrange(3)
        dst = rng.randrange(3)  # occasionally src == dst: self delivery
        injections.append((
            rng.randrange(0, 40_000_000), uid, src, dst, rng.randint(40, 1500), uid,
        ))
    return MicroScenario(node_count=3, links=links, injections=injections)


def _random_sfq_micro_scenario(rng: random.Random) -> MicroScenario:
    """Criterion 8's shapes with SFQ in the mix: each duplex link is
    DropTail or SFQ with 1-4 buckets, and up to 40 packets share fids
    0-5, so flows share buckets and an SFQ drop may evict a queued
    packet of another flow. Fewer packets or fids leave some SFQ
    mistakes (a round robin that forgets its position) unseen."""
    links = {}
    for a, b in rng.choice(TOPOLOGIES):
        links[(a, b)] = links[(b, a)] = MicroLink(
            limit=rng.randint(1, 6),
            bandwidth=rng.choice([125_000, 1_000_000, 2_500_000, 10_000_000]),
            delay=rng.choice([0, 1_000_000, 5_000_000, 10_000_000]),
            buckets=rng.choice([None, 1, 2, 3, 4]),
        )
    injections = [
        (rng.randrange(0, 40_000_000), uid, rng.randrange(3), rng.randrange(3),
         rng.randint(40, 1500), rng.randrange(6))
        for uid in range(rng.randint(1, 40))
    ]
    return MicroScenario(node_count=3, links=links, injections=injections)


class _UidSink(SinkMonitor):
    """Sink that also remembers the uids delivered to it."""

    def __init__(self, node, port):
        super().__init__(node, port)
        self.uids = set()

    def on_receive(self, pkt):
        super().on_receive(pkt)
        self.uids.add(pkt.uid)


def _run_micro(scenario: MicroScenario, tracer):
    """Runs `scenario` to the end; returns one sink per node, port 0."""
    eng = EventEngine()
    duplex_links = [
        (a, b, link.bandwidth, link.delay,
         QdiscConfig("droptail" if link.buckets is None else "sfq", link.limit, link.buckets))
        for (a, b), link in scenario.links.items() if a < b
    ]
    net = Network(eng, tracer, scenario.node_count, duplex_links)
    sinks = [_UidSink(node, 0) for node in range(scenario.node_count)]
    for node in range(scenario.node_count):
        net.route_to(node)
    for time, uid, src, dst, size, fid in scenario.injections:
        pkt = StandInOrigin(sinks[dst], size=size, fid=fid, src=src).packet(uid, uid, time)
        eng.schedule(time, lambda s=src, p=pkt: net.forward(s, p))
    eng.run_until(10 ** 15)
    return sinks


def _traced_outcome(scenario: MicroScenario):
    """(delivered uid -> time, dropped uids, every record) of a traced run."""
    tracer = ListTracer()
    _run_micro(scenario, tracer)
    return ({uid: time for _, time, _, _, uid in tracer.ops("r")},
            {uid for *_, uid in tracer.ops("d")}, tracer.events)


def _untraced_outcome(scenario: MicroScenario):
    """(delivered uids, drops per destination node) of a run with no
    tracer, which credits deliveries early and skips the queue of an
    idle link."""
    sinks = _run_micro(scenario, None)
    return set().union(*(sink.uids for sink in sinks)), [sink.nlost for sink in sinks]


def _reference_untraced(scenario: MicroScenario):
    delivered, dropped, _ = reference_outcome(scenario)
    lost = [0] * scenario.node_count
    for _, uid, _, dst, _, _ in scenario.injections:
        if uid in dropped:
            lost[dst] += 1
    return set(delivered), lost


def _zero_tx_micro_scenario(rng: random.Random) -> MicroScenario:
    # At 10**12 b/s a packet under 125 B serializes in 0 ns, so a burst
    # injected at one instant is sent, and with delay 0 also arrives, at
    # that same instant.
    links = {}
    for a, b in rng.choice(TOPOLOGIES):
        link = MicroLink(limit=rng.randint(1, 3), bandwidth=10**12,
                         delay=rng.choice([0, 0, 1_000]))
        links[(a, b)] = link
        links[(b, a)] = MicroLink(link.limit, link.bandwidth, link.delay)
    injections = [
        (rng.randrange(2) * 1_000, uid, rng.randrange(3), rng.randrange(3), rng.randint(1, 124),
         uid)
        for uid in range(rng.randint(1, 16))
    ]
    return MicroScenario(node_count=3, links=links, injections=injections)


# (scenario drawer, seed, trials): criterion 8, then SFQ in the mix, then
# zero-transmit-time links
MICRO_ORACLES = [
    pytest.param(_random_micro_scenario, 88, 1000, id="criterion_8"),
    pytest.param(_random_sfq_micro_scenario, 89, 1000, id="sfq"),
    pytest.param(_zero_tx_micro_scenario, 808, 300, id="zero_transmit_time"),
]


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("draw, seed, trials", MICRO_ORACLES)
def test_micro_oracle(draw, seed, trials, traced):
    # traced: delivery times, drops and every record in order; untraced:
    # the same scenarios, delivered uids and losses per destination node
    outcome, want = ((_traced_outcome, reference_outcome) if traced
                     else (_untraced_outcome, _reference_untraced))
    rng = random.Random(seed)
    for trial in range(trials):
        scenario = draw(rng)
        assert outcome(scenario) == want(scenario), f"trial {trial}: {scenario}"
    print(f"PASS micro oracle: {trials} {draw.__name__} scenarios, traced={traced}, "
          "match the brute-force model exactly")


def test_criterion_9_validate_passes_clean_and_fails_perturbed(golden_runs, tmp_path, capsys):
    # Pristine: the session's traced golden runs against their fixtures,
    # through the comparison `minins validate` makes after rerunning each.
    assert len(GOLDEN_NAMES) == 4
    for name in GOLDEN_NAMES:
        run = golden_runs(name)
        fixture = json.loads((golden_dir() / f"{name}.expected.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256(run.trace_path.read_bytes()).hexdigest()
        assert compare_golden(run.result.stats_block().splitlines(), digest, fixture) == [], name

    # Perturbed: a link delay edited in one golden scenario. The edited
    # queue limit is test_cli's test_validate_flags_tampered_queue_limit.
    name = "cbr_golden"
    text = (golden_dir() / f"{name}.scn").read_text()
    assert "delay=10ms" in text
    (tmp_path / f"{name}.scn").write_text(text.replace("delay=10ms", "delay=11ms"))
    shutil.copy(golden_dir() / f"{name}.expected.json", tmp_path)
    assert run_validate(tmp_path) is False
    assert any(m.startswith("FAIL") for m in capsys.readouterr().out.splitlines())
    print("PASS criterion 9: validate green when pristine, red when perturbed")
