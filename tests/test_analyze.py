import random

import pytest

import minins.analyze
from minins.analyze import analyze_trace, flow_stats, throughput_bps
from minins.errors import TraceError
from minins.scenario import parse_scenario
from minins.sim import Simulation, utilization
from minins.trace import open_trace, parse_line


def trace(*lines):
    return [l + "\n" for l in lines]


GOOD = trace(
    "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
    "- 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
    "+ 1.010800000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
    "- 1.010800000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
    "r 1.021600000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
)


def violations_of(lines):
    return analyze_trace(lines).violations


def series_of(lines, fid, sink, bin_ns):
    return throughput_bps(analyze_trace(lines, bin_ns).flow((fid, 1, sink)).bins, bin_ns)


# -- parsing -------------------------------------------------------------------


def test_parse_rejects_wrong_field_count():
    with pytest.raises(TraceError) as err:
        parse_line("+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0", lineno=17)
    assert "line 17" in str(err.value)
    assert err.value.lineno == 17


def test_parse_rejects_unknown_op():
    with pytest.raises(TraceError):
        parse_line("x 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7")


def test_parse_rejects_sloppy_timestamps():
    with pytest.raises(TraceError):
        parse_line("+ 1.0 1 2 cbr 1000 ------- 2 1.0 3.1 0 7")


def test_parse_rejects_non_ascii():
    for bad in ("７", "²", "\udcff"):  # full-width digit, superscript, undecodable byte
        line = f"+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 {bad}"
        with pytest.raises(TraceError) as err:
            parse_line(line, lineno=4)
        assert err.value.lineno == 4
        assert str(err.value) == "line 4: non-ASCII character"
        with pytest.raises(TraceError) as in_trace:
            analyze_trace(["\n"] * 3 + [line])
        assert str(in_trace.value) == "line 4: non-ASCII character"


def test_parse_rejects_whitespace_the_writer_never_writes():
    good = "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7"
    assert parse_line(good + "\n", lineno=5)[-1] == "7"
    for bad in (
        good.replace(" ", "\x1c", 1),  # ASCII file separator
        good.replace(" ", "\t", 1),
        "  " + good,
        good.replace(" ", "  ", 1),
        good.replace(" cbr ", "  "),  # doubled space in place of the ptype
        good + "\r\n",
        good + "\n\n",
    ):
        with pytest.raises(TraceError) as err:
            parse_line(bad, lineno=5)
        assert err.value.lineno == 5 and str(err.value).startswith("line 5: ")
        # the analyzer's own head and tail checks reject it too, with the same reason
        with pytest.raises(TraceError) as in_trace:
            analyze_trace(["\n"] * 4 + [bad])
        assert str(in_trace.value) == str(err.value), repr(bad)


def test_parse_rejects_leading_zeros():
    good = "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7"
    assert parse_line(good.replace(" 1 2 ", " 0 2 "), lineno=6)[2] == "0"  # zero itself
    for bad in (
        good.replace(" 1 2 ", " 01 2 "),  # from
        good.replace(" 0 7", " 0 007"),  # uid
        good.replace(" 1.000000000 ", " 01.000000000 "),  # the time's whole part
        good.replace(" 1.000000000 ", " 00.000000000 "),
    ):
        with pytest.raises(TraceError) as err:
            parse_line(bad, lineno=6)
        assert err.value.lineno == 6 and str(err.value).startswith("line 6: ")


def test_parse_rejects_numbers_too_long_to_convert():
    with pytest.raises(TraceError):
        parse_line("+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 " + "9" * 5000)


def test_parse_line_returns_none_only_for_lines_of_spaces():
    for blank in ("", " ", "  \n"):
        assert parse_line(blank, lineno=8) is None
    for bad in ("\t\n", "\r\n", "\x0c\n"):
        with pytest.raises(TraceError) as err:
            parse_line(bad, lineno=8)
        assert err.value.lineno == 8


def test_analyze_trace_reports_first_bad_line():
    lines = GOOD[:2] + ["garbage\n"] + GOOD[2:]
    with pytest.raises(TraceError) as err:
        analyze_trace(lines)
    assert err.value.lineno == 3


def test_analyze_trace_rejects_non_ascii_blank_line():
    with pytest.raises(TraceError) as err:
        analyze_trace(GOOD[:1] + ["\n", "\u3000\n"] + GOOD[1:])
    assert err.value.lineno == 3


def test_analyze_trace_skips_only_lines_of_spaces():
    report = analyze_trace(GOOD[:1] + ["\n", "   \n", "  ", ""] + GOOD[1:])
    assert report.violations == [] and report.flow((2, 1, 3)).received == 1
    # whitespace to str.isspace(), but a tab or other control character
    # makes a line malformed: a blank CRLF line is one
    for blank in ("\t\n", "\r\n", "\x0b\n", "\x0c\n", "\x1c\n", "\x1d\n", "\x1e\n",
                  "\x1f\n", " \t \n", "\r"):
        with pytest.raises(TraceError) as err:
            analyze_trace(GOOD[:1] + ["\n", blank] + GOOD[1:])
        assert err.value.lineno == 3 and str(err.value).startswith("line 3: "), repr(blank)


def test_analyze_trace_hands_parse_line_only_the_lines_its_halves_reject(monkeypatch):
    calls = []

    def counting_parse(text, lineno=None):
        calls.append(lineno)
        return parse_line(text, lineno)

    # the module global analyze_trace calls, which perfbench's parse hook patches
    monkeypatch.setattr(minins.analyze, "parse_line", counting_parse)
    report = analyze_trace(GOOD[:2] + ["\n"] + GOOD[2:], 10**9)
    assert calls == [3]  # the blank line; the analyzer accepts every other line itself
    assert report.flow((2, 1, 3)).received == 1 and report.flows[2, 1, 3].bins
    assert report.violations == []


def test_a_packets_later_line_has_its_tail_checked():
    # The analyzer checks a packet's tail once and reuses it for the
    # packet's later lines, but only for the very same text: a later line
    # whose constant fields differ is checked afresh, and raises when bad.
    lines = list(GOOD)
    lines[1] = lines[1].replace(" 1000 ", " 01 ")
    with pytest.raises(TraceError) as err:
        analyze_trace(lines)
    assert err.value.lineno == 2 and str(err.value) == "line 2: bad size field '01'"


@pytest.mark.parametrize("index, old, new, reason", [
    (1, " 1 2 ", " 02 2 ", "bad from field '02'"),  # a '-' line, now unlike its '+'
    (2, " 2 3 ", " 02 3 ", "bad from field '02'"),
    (3, " 2 3 ", " 2 03 ", "bad to field '03'"),
    (2, " 1.010800000 ", " 1.01080000 ", "bad time field '1.01080000'"),
    (4, " 1.021600000 ", " 1.021600000x ", "bad time field '1.021600000x'"),
])
def test_a_later_line_has_its_head_checked(index, old, new, reason):
    # Each distinct time, from and to text is checked once, when a line
    # first holds it: a later line with a new, bad one still raises.
    lines = list(GOOD)
    lines[index] = lines[index].replace(old, new, 1)
    with pytest.raises(TraceError) as err:
        analyze_trace(lines)
    assert str(err.value) == f"line {index + 1}: {reason}"


def test_analyze_trace_raises_at_the_first_line_parse_line_rejects(golden_runs):
    # Seeded mutations of windows of a golden trace with drops: the
    # analyzer raises at the first line parse_line rejects, with its
    # message, and never when parse_line rejects none.
    with open_trace(golden_runs("overload_droptail").trace_path) as f:
        golden = f.readlines()
    rng = random.Random(32)
    corrupt = "0129 .-+rdx\t\n\r\u00e9"

    def mutate(window):
        k = rng.randrange(len(window))
        line = window[k]
        kind = rng.randrange(8)
        if kind == 0:
            del window[k]
        elif kind == 1:
            window.insert(k, line)
        elif kind == 2:  # swapped with the line before it
            window[k - 1], window[k] = line, window[k - 1]
        elif kind == 3:
            window[k] = rng.choice("+-rdx") + line[1:]
        elif kind == 4:  # the time of a line up to ten before it
            earlier = window[max(0, k - rng.randrange(1, 11))]
            window[k] = " ".join(line.split(" ")[:1] + earlier.split(" ")[1:2]
                                 + line.split(" ")[2:])
        elif kind == 5:
            i = rng.randrange(len(line) + 1)  # at the end of an empty line too
            window[k] = line[:i] + rng.choice(corrupt) + line[i + 1:]
        elif kind == 6:
            window[k] = line.removesuffix("\n")
        else:
            window[k] = rng.choice(("", "\n", "   \n"))

    for _ in range(400):
        start = rng.randrange(len(golden) - 100)
        window = golden[start:start + 100]
        for _ in range(rng.randrange(4)):
            mutate(window)
        expected = None
        for lineno, line in enumerate(window, start=1):
            try:
                parse_line(line, lineno)
            except TraceError as err:
                expected = str(err)
                break
        try:
            analyze_trace(window)
            got = None
        except TraceError as err:
            got = str(err)
        assert got == expected, window


def test_analyze_trace_reports_every_flow_and_bins_only_when_asked():
    report = analyze_trace(GOOD)
    assert list(report.flows) == [(2, 1, 3)] and report.violations == []
    assert report.flows[2, 1, 3].bins == {}
    assert analyze_trace(GOOD, 10**9).flows[2, 1, 3].bins == {1: 1000}
    # a flow the trace never names counts nothing
    assert report.flow((2, 1, 4)) == (0, 0, 0, 0, None, None, {})
    # a packet's record takes its flow at its first line, of any op: in a
    # trace cut just before a '-', that '-' names its flow before (9, 1, 3)
    cut = GOOD[3:4] + trace("+ 1.010800000 1 2 cbr 1000 ------- 9 1.0 3.1 0 8") + GOOD[4:]
    assert list(analyze_trace(cut).flows) == [(2, 1, 3), (9, 1, 3)]
    # a flow seen only on a '-' line is listed, and counts nothing
    only_dequeue = analyze_trace(GOOD[3:4], 10**9)
    assert only_dequeue.flows == {(2, 1, 3): (0, 0, 0, 0, None, None, {})}


# -- utilization ----------------------------------------------------------------


def test_utilization_reproduces_published_value():
    assert utilization(334_576_500, 500, 1e7) == 53.532239999999994


def test_utilization_simple_cases():
    assert utilization(0, 500, 1e7) == 0.0
    assert utilization(99_600_000, 500, 1e7) == 15.936


def test_utilization_rejects_bad_inputs():
    with pytest.raises(ValueError):
        utilization(1, 0, 1e7)
    with pytest.raises(ValueError):
        utilization(1, 500, 0)


def test_utilization_scaling_properties():
    rng = random.Random(1)
    for _ in range(50):
        b = rng.randrange(1, 10**9)
        d = rng.uniform(0.001, 1000)
        bw = rng.uniform(1e3, 1e9)
        u = utilization(b, d, bw)
        assert utilization(2 * b, d, bw) == 2 * u  # linear in bytes
        assert utilization(b, 2 * d, bw) == pytest.approx(u / 2, rel=1e-12)
        assert utilization(b, d, 2 * bw) == pytest.approx(u / 2, rel=1e-12)


# -- flow stats -------------------------------------------------------------------


def test_flow_stats_single_packet():
    stats = flow_stats(GOOD, fid=2, source=1, sink=3)
    assert (stats.sent, stats.received, stats.dropped) == (1, 1, 0)
    assert stats.bytes_received == 1000
    assert stats.mean_delay == stats.max_delay == 0.0216


def test_flow_stats_time_only_deliveries_whose_first_send_the_trace_shows():
    # cut after uid 7's first hop: its delivery counts, but has no delay
    cut = GOOD[3:]
    stats = analyze_trace(cut).flow((2, 1, 3))
    assert (stats.received, stats.mean_delay, stats.max_delay) == (1, None, None)
    whole = trace(
        "+ 2.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 1 8",
        "- 2.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 1 8",
        "+ 2.010800000 2 3 cbr 1000 ------- 2 1.0 3.1 1 8",
        "- 2.010800000 2 3 cbr 1000 ------- 2 1.0 3.1 1 8",
        "r 2.021600000 2 3 cbr 1000 ------- 2 1.0 3.1 1 8",
    )
    stats = analyze_trace(cut + whole).flow((2, 1, 3))
    assert (stats.received, stats.mean_delay, stats.max_delay) == (2, 0.0216, 0.0216)


def test_flow_stats_empty_trace():
    stats = flow_stats([], fid=2, source=1, sink=3)
    assert (stats.sent, stats.received, stats.dropped) == (0, 0, 0)
    assert stats.mean_delay is None and stats.max_delay is None


def test_flow_stats_counts_drop_mid_path():
    lines = trace(
        "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
        "- 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
        "+ 1.005000000 1 2 cbr 1000 ------- 2 1.0 3.1 1 8",
        "- 1.005000000 1 2 cbr 1000 ------- 2 1.0 3.1 1 8",
        "+ 1.010800000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
        "d 1.010800000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
        "+ 1.015800000 2 3 cbr 1000 ------- 2 1.0 3.1 1 8",
        "- 1.015800000 2 3 cbr 1000 ------- 2 1.0 3.1 1 8",
        "r 1.026600000 2 3 cbr 1000 ------- 2 1.0 3.1 1 8",
    )
    stats = flow_stats(lines, fid=2, source=1, sink=3)
    assert (stats.sent, stats.received, stats.dropped) == (2, 1, 1)


def test_flow_stats_counts_a_packet_sent_once_when_it_leaves_its_source_again():
    # uid 7 leaves node 1, is routed back to it, leaves again and is
    # received: one packet sent, its delay timed from the first '+'.
    lines = trace(
        "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
        "- 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
        "+ 1.010800000 2 1 cbr 1000 ------- 2 1.0 3.1 0 7",
        "- 1.010800000 2 1 cbr 1000 ------- 2 1.0 3.1 0 7",
        "+ 1.021600000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
        "- 1.021600000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7",
        "+ 1.032400000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
        "- 1.032400000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
        "r 1.043200000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7",
    )
    report = analyze_trace(lines)
    assert report.violations == []
    stats = report.flow((2, 1, 3))
    assert (stats.sent, stats.received, stats.dropped) == (1, 1, 0)
    assert stats.max_delay == pytest.approx(0.0432)


def test_flow_stats_counts_a_packet_delivered_at_its_own_source_as_sent():
    # uid 7 is delivered at node 1, its source, so its only line is 'r 1 1'
    lines = trace(
        "r 1.000000000 1 1 cbr 1000 ------- 2 1.0 1.1 0 7",
        "r 1.000000000 3 3 cbr 1000 ------- 2 3.0 3.1 0 8",  # at another node
    )
    report = analyze_trace(lines)
    assert report.violations == []
    stats = report.flow((2, 1, 1))
    assert (stats.sent, stats.received, stats.dropped) == (1, 1, 0)
    assert stats.mean_delay == stats.max_delay == 0.0
    # addressed to node 1, so not a packet of a flow to node 3
    assert flow_stats(lines, fid=2, source=1, sink=3).sent == 0


def test_flow_stats_match_the_run_for_own_source_and_multi_hop_flows(tmp_path):
    path = tmp_path / "own.tr"
    spec = parse_scenario(
        "sim duration=1s\nnode a\nnode b\nnode c\n"
        "duplex-link a b bw=1Mb delay=1ms queue=droptail\n"
        "duplex-link b c bw=1Mb delay=1ms queue=droptail\n"
        "udp self src=a sink=a fid=1\nudp far src=a sink=c fid=2\n"
        "cbr agent=self size=100 interval=100ms start=0s stop=1s\n"
        "cbr agent=far size=100 interval=100ms start=0s stop=1s\n")
    sim = Simulation(spec._replace(trace_path=str(path)))
    sim.run()
    lines = path.read_text().splitlines()
    node_id = {node: k for k, node in enumerate(spec.nodes)}
    for agent, gen, sink in zip(spec.agents, sim.generators, sim.sinks, strict=True):
        stats = flow_stats(lines, agent.fid, node_id[agent.src], node_id[agent.sink])
        assert (stats.sent, stats.received, stats.dropped, stats.bytes_received) == (
            gen.emitted, sink.npkts, sink.nlost, sink.bytes)
        assert stats.sent == 10
    assert flow_stats(lines, 1, 0, 0).max_delay == 0.0


# Two agents on fid 1 into sink node n2: a from n0, and b from n1, which
# is on a's path. The n1-n2 link is overloaded and drops some of b's packets.
SHARED_FID_CHAIN = """\
sim duration=2s
node n0
node n1
node n2
duplex-link n0 n1 bw=1Mb delay=1ms queue=droptail
duplex-link n1 n2 bw=1Mb delay=1ms queue=droptail limit=2
udp a src=n0 sink=n2 fid=1
udp b src=n1 sink=n2 fid=1
cbr agent=a size=1000 interval=10ms start=0s stop=1s
cbr agent=b size=1000 interval=20ms start=0s stop=1s
"""


def test_flow_stats_count_flows_that_share_a_fid_apart(tmp_path):
    path = tmp_path / "chain.tr"
    sim = Simulation(parse_scenario(SHARED_FID_CHAIN)._replace(trace_path=str(path)))
    sim.run()
    lines = path.read_text().splitlines()
    for source, gen, sink in zip((0, 1), sim.generators, sim.sinks, strict=True):
        stats = flow_stats(lines, fid=1, source=source, sink=2)
        assert (stats.sent, stats.received, stats.bytes_received, stats.dropped) == (
            gen.emitted, sink.npkts, sink.bytes, sink.nlost)
    assert [sink.nlost > 0 for sink in sim.sinks] == [False, True]


def test_flow_stats_ignores_other_flows():
    other = [l.replace(" 2 1.0", " 9 1.0") for l in GOOD]
    stats = flow_stats(GOOD + other, fid=2, source=1, sink=3)
    assert stats.sent == stats.received == 1


def test_flow_stats_on_golden_run(cbr_run):
    stats = cbr_run.report.flow((2, 1, 3))
    assert stats.sent == stats.received == 99_600
    assert stats.dropped == 0
    assert stats.bytes_received == 99_600_000
    assert stats.mean_delay == stats.max_delay == 0.0216


# -- conservation -------------------------------------------------------------------


def test_conservation_clean_trace_has_no_violations():
    assert violations_of(GOOD) == []
    # a last line without its LF is the same packet's line
    assert violations_of(GOOD[:-1] + [GOOD[-1].removesuffix("\n")]) == []


def test_conservation_catches_receive_before_enqueue():
    corrupted = [GOOD[4]] + GOOD[:4]
    violations = violations_of(corrupted)
    assert len(violations) >= 1
    assert any("upstream" in v for v in violations)


def test_conservation_catches_duplicate_receive():
    violations = violations_of(GOOD + [GOOD[4]])
    assert len(violations) == 1


def test_conservation_catches_backwards_time():
    swapped = [GOOD[0], GOOD[2], GOOD[1], GOOD[3], GOOD[4]]
    # times no longer sorted and '-' precedes its '+' on link 1->2
    assert violations_of(swapped)


def test_conservation_catches_each_line_that_stays_at_an_earlier_instant():
    # back from 1.0108 s to 1.0 s for two lines that share one time text,
    # then 1.005 s: each of the three is behind 1.0108 s
    def enqueue(time, uid):
        return f"+ {time} 1 2 cbr 1000 ------- 2 1.0 3.1 0 {uid}\n"

    # then the last one's '-', the same line but for its op
    lines = GOOD[:3] + [enqueue("1.000000000", 8), enqueue("1.000000000", 9),
                        enqueue("1.005000000", 10), "-" + enqueue("1.005000000", 10)[1:]]
    assert violations_of(lines) == [
        "line 4: time goes backwards",
        "line 5: time goes backwards",
        "line 6: time goes backwards",
        "line 7: time goes backwards",
    ]


def test_conservation_catches_a_duplicated_dequeue():
    # an idle hop's '+' and '-', then that '-' again
    lines = GOOD[:2] + GOOD[1:]
    assert violations_of(lines) == ["line 3: '-' for uid 7 without matching '+'"]


def test_conservation_accepts_unfinished_packets():
    assert violations_of(GOOD[:3]) == []  # still queued on 2->3


def test_conservation_catches_enqueue_away_from_last_hop():
    lines = GOOD[:2] + [GOOD[2].replace(" 2 3 ", " 5 6 ", 1)]
    violations = violations_of(lines)
    assert violations == ["line 3: uid 7 enqueued at node 5, but its last hop ended at node 2"]


def test_conservation_accepts_drop_then_silence():
    lines = GOOD[:2] + [GOOD[2], GOOD[2].replace("+ ", "d ", 1)]
    assert violations_of(lines) == []


def test_conservation_catches_a_delivery_away_from_the_destination():
    lines = GOOD[:2] + [GOOD[4].replace(" 2 3 ", " 1 2 ", 1)]  # 'r' at node 2, to 3.1
    assert violations_of(lines) == [
        "line 3: 'r' for uid 7 at node 2, not its destination node 3"]


def test_every_delivery_retires_the_packet():
    # uid 7 of flow (1, 0, 2) is delivered, then sent again: two packets
    # sent, whether the first one ended at node 2, its destination, or not
    def run(t, node):
        return [f"{op} {t}.000000000 0 {node} cbr 1000 ------- 1 0.0 2.0 0 7\n"
                for op in "+-r"]

    for node in (2, 1):
        assert analyze_trace(run(1, node) + run(2, node)).flow((1, 0, 2)).sent == 2, node


def test_conservation_catches_a_line_that_changes_its_packets_constant_fields():
    # A packet is its eight constant fields, so a '-' whose size differs
    # from its '+' line's dequeues another packet, one never enqueued,
    # and the packet's next '+' finds it still queued on 1->2.
    lines = list(GOOD)
    lines[1] = lines[1].replace(" 1000 ", " 999 ")
    assert violations_of(lines) == ["line 2: '-' for uid 7 without matching '+'",
                                    "line 3: uid 7 enqueued while queued"]


def test_conservation_catches_a_reused_uid():
    # uids are given out in send order, so a packet that starts at its
    # source, by its first '+' there or by an 'r' there, must have a uid
    # above every earlier one's: 3, 8 (after 8) and 5 (an 'r') are not.
    def send(time, uid):
        return [f"{op} {time}.000000000 1 2 cbr 1000 ------- 2 1.0 2.1 0 {uid}\n"
                for op in "+-r"]

    lines = (send(1, 7) + send(2, 8) + send(3, 3) + send(4, 8)
             + ["r 5.000000000 1 1 cbr 1000 ------- 3 1.0 1.1 0 5\n"] + send(6, 9))
    assert violations_of(lines) == [
        "line 7: uid 3 reused", "line 10: uid 8 reused", "line 13: uid 5 reused"]


# -- throughput -------------------------------------------------------------------


def test_throughput_series_on_golden_run(cbr_run):
    series = throughput_bps(cbr_run.report.flows[2, 1, 3].bins, 10**9)
    interior = series[2:-1]
    assert interior and all(bps == 1_600_000.0 for bps in interior)


def test_throughput_series_empty_trace():
    assert series_of([], fid=2, sink=3, bin_ns=10**9) == []


def test_throughput_series_single_giant_bin():
    series = series_of(GOOD, fid=2, sink=3, bin_ns=1000 * 10**9)
    assert series == [1000 * 8 / 1000.0]


def test_throughput_is_taken_over_the_rounded_bin_width():
    # `--bin 1.5e-9` rounds to 2 ns bins, which is what the analyzer is
    # given: the 1000 bytes delivered at 3 ns fall in the second bin,
    # whose rate is over 2 ns, not the 1.5 ns asked.
    lines = trace(
        "+ 0.000000000 1 3 cbr 1000 ------- 2 1.0 3.1 0 7",
        "- 0.000000000 1 3 cbr 1000 ------- 2 1.0 3.1 0 7",
        "r 0.000000003 1 3 cbr 1000 ------- 2 1.0 3.1 0 7",
    )
    series = series_of(lines, fid=2, sink=3, bin_ns=2)
    assert series == [0.0, pytest.approx(4e12)]


def test_throughput_series_stops_at_the_bin_limit():
    # One delivery in bin 2**20 - 1 makes the longest series allowed;
    # one in bin 2**20 asks for one bin more, which is refused.
    def delivered_at(ns):  # under 1 s
        return trace("+ 0.000000000 1 3 cbr 1000 ------- 2 1.0 3.1 0 7",
                     "- 0.000000000 1 3 cbr 1000 ------- 2 1.0 3.1 0 7",
                     f"r 0.{ns:09d} 1 3 cbr 1000 ------- 2 1.0 3.1 0 7")

    assert len(series_of(delivered_at(2**20 - 1), fid=2, sink=3, bin_ns=1)) == 2**20
    with pytest.raises(ValueError, match=f"^{2**20 + 1} throughput bins of 1 ns;"):
        series_of(delivered_at(2**20), fid=2, sink=3, bin_ns=1)


# -- streaming robustness ------------------------------------------------------------


def test_results_do_not_depend_on_chunking(cbr_run):
    # the whole report of a list, a generator and the session's pass
    # streamed from the file object
    as_list = cbr_run.trace_path.read_text().splitlines()
    assert analyze_trace(as_list, 10**9) == cbr_run.report
    assert analyze_trace((line for line in as_list), 10**9) == cbr_run.report
