import re

from minins.scenario import parse_scenario
from minins.sim import run_scenario

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
    (monitor,) = result.monitors
    assert monitor.npkts == 99_600 and monitor.nlost == 0


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


def test_zero_duration_run_is_valid(tmp_path):
    spec = parse_scenario(
        "sim duration=0s\nnode a\nnode b\n"
        "duplex-link a b bw=1Mb delay=1ms queue=droptail\n"
        "udp f src=a sink=b fid=1\n"
        "cbr agent=f size=100 interval=1ms start=0s stop=0s\n"
    )
    trace = tmp_path / "zero.tr"
    result = run_scenario(spec, trace_path=str(trace))
    assert trace.exists() and trace.read_text() == ""
    assert result.npkts == result.bytes == 0
    assert result.duration == 0
    assert result.utilization_pct == 0.0
    assert "tempo_simulacao_s=0\n" in result.stats_block()


def test_repeat_runs_byte_identical(tmp_path):
    spec = parse_scenario(SHORT_PAPER)
    blocks, texts = [], []
    for i in range(2):
        path = tmp_path / f"run{i}.tr"
        result = run_scenario(spec, trace_path=str(path))
        blocks.append(result.stats_block())
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert blocks[0] == blocks[1]


def test_different_seed_changes_exponential_flow(tmp_path):
    spec = parse_scenario(SHORT_PAPER)
    a = run_scenario(spec, trace_path=str(tmp_path / "a.tr"), seed=1)
    b = run_scenario(spec, trace_path=str(tmp_path / "b.tr"), seed=2)
    assert a.monitors[0].npkts != b.monitors[0].npkts  # exp flow differs
    # cbr counts are seed-independent (timing may shift via shared queue)
    assert (a.monitors[1].npkts, a.monitors[1].bytes) == \
        (b.monitors[1].npkts, b.monitors[1].bytes)


def test_generator_substreams_keyed_by_position(tmp_path):
    # Same seed, same generator, different ordinal: different schedule.
    one = parse_scenario(SHORT_PAPER)
    swapped = parse_scenario(SHORT_PAPER.replace(
        "exp agent=exp0 size=1000 burst=800ms idle=2ms rate=5Mb start=0s stop=19s\n"
        "cbr agent=udp1 size=1000 interval=5ms start=1s stop=19s\n",
        "cbr agent=udp1 size=1000 interval=5ms start=1s stop=19s\n"
        "exp agent=exp0 size=1000 burst=800ms idle=2ms rate=5Mb start=0s stop=19s\n",
    ))
    r1 = run_scenario(one)
    r2 = run_scenario(swapped)
    assert r1.monitors[0].npkts != r2.monitors[0].npkts


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


def test_trace_path_precedence(tmp_path):
    text = (
        "sim duration=1s\nnode a\nnode b\n"
        "duplex-link a b bw=1Mb delay=1ms queue=droptail\n"
        "udp f src=a sink=b fid=1\n"
        "cbr agent=f size=100 interval=100ms start=0s stop=1s\n"
        f"trace file={tmp_path / 'from_spec.tr'}\n"
    )
    spec = parse_scenario(text)
    run_scenario(spec)
    assert (tmp_path / "from_spec.tr").exists()

    override = tmp_path / "override.tr"
    run_scenario(spec, trace_path=str(override))
    assert override.exists()


def test_utilization_uses_first_link_at_sink_node():
    # sink sits on node b; its only link is the 2 Mb one, so 100 bytes
    # over 1 s is 100*8/2e6*100 = 0.04 percent.
    spec = parse_scenario(
        "sim duration=1s\nnode a\nnode b\n"
        "duplex-link a b bw=2Mb delay=1ms queue=droptail\n"
        "udp f src=a sink=b fid=1\n"
        "cbr agent=f size=100 interval=500ms start=0s stop=600ms\n"
    )
    result = run_scenario(spec)
    assert result.npkts == 2
    assert result.utilization_pct == 200 * 8.0 / (2e6 * 1.0) * 100.0


def test_shared_fid_agents_number_packets_independently():
    # Two agents with the same fid and different sinks: each sink sees
    # one gap-free sequence, so nothing counts as lost.
    spec = parse_scenario(
        "sim duration=2s\nnode a\nnode b\nnode c\n"
        "duplex-link a b bw=10Mb delay=1ms queue=droptail\n"
        "duplex-link a c bw=10Mb delay=1ms queue=droptail\n"
        "udp f1 src=a sink=b fid=1\n"
        "udp f2 src=a sink=c fid=1\n"
        "cbr agent=f1 size=100 interval=10ms start=0s stop=1s\n"
        "cbr agent=f2 size=100 interval=10ms start=0s stop=1s\n"
    )
    result = run_scenario(spec)
    assert result.npkts == 200
    assert result.nlost == 0
    assert [m.nlost for m in result.monitors] == [0, 0]

