import random

import pytest

import minins.analyze
from minins.analyze import analyze_trace, flow_stats, utilization
from minins.errors import TraceError
from minins.trace import parse_event, parse_line


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


def series_of(lines, fid, sink, bin_seconds):
    return analyze_trace(lines, (fid, 1, sink), bin_seconds).series


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


def test_parse_rejects_whitespace_the_writer_never_writes():
    good = "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7"
    assert parse_line(good + "\n", lineno=5)[-1] == 7
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


def test_parse_rejects_numbers_too_long_to_convert():
    with pytest.raises(TraceError):
        parse_line("+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 " + "9" * 5000)


def test_analyze_trace_reports_first_bad_line():
    lines = GOOD[:2] + ["garbage\n"] + GOOD[2:]
    with pytest.raises(TraceError) as err:
        analyze_trace(lines)
    assert err.value.lineno == 3


def test_analyze_trace_rejects_non_ascii_blank_line():
    with pytest.raises(TraceError) as err:
        analyze_trace(GOOD[:1] + ["\n", "\u3000\n"] + GOOD[1:])
    assert err.value.lineno == 3


def test_analyze_trace_parses_each_line_once(monkeypatch):
    calls = []

    def counting_parse(text, lineno=None):
        calls.append(lineno)
        return parse_event(text, lineno)

    monkeypatch.setattr(minins.analyze, "parse_event", counting_parse)
    report = analyze_trace(GOOD[:2] + ["\n"] + GOOD[2:], (2, 1, 3), 1.0)
    assert calls == [1, 2, 4, 5, 6]
    assert report.flow.received == 1 and report.series and report.violations == []


def test_analyze_trace_without_flow_reports_only_violations():
    report = analyze_trace(GOOD)
    assert report.flow is None and report.series == [] and report.violations == []
    with pytest.raises(ValueError):
        analyze_trace(GOOD, bin_seconds=1.0)  # bins need a flow


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


def test_flow_stats_ignores_other_flows():
    other = [l.replace(" 2 1.0", " 9 1.0") for l in GOOD]
    stats = flow_stats(GOOD + other, fid=2, source=1, sink=3)
    assert stats.sent == stats.received == 1


def test_flow_stats_on_golden_run(cbr_run):
    stats = flow_stats(cbr_run.trace_lines(), fid=2, source=1, sink=3)
    assert stats.sent == stats.received == 99_600
    assert stats.dropped == 0
    assert stats.bytes_received == 99_600_000
    assert stats.mean_delay == stats.max_delay == 0.0216


# -- conservation -------------------------------------------------------------------


def test_conservation_clean_trace_has_no_violations():
    assert violations_of(GOOD) == []


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


def test_conservation_accepts_unfinished_packets():
    assert violations_of(GOOD[:3]) == []  # still queued on 2->3


def test_conservation_catches_enqueue_away_from_last_hop():
    lines = GOOD[:2] + [GOOD[2].replace(" 2 3 ", " 5 6 ", 1)]
    violations = violations_of(lines)
    assert violations == ["line 3: uid 7 enqueued at node 5, but its last hop ended at node 2"]


def test_conservation_accepts_drop_then_silence():
    lines = GOOD[:2] + [GOOD[2], GOOD[2].replace("+ ", "d ", 1)]
    assert violations_of(lines) == []


# -- throughput -------------------------------------------------------------------


def test_throughput_series_on_golden_run(cbr_run):
    series = series_of(cbr_run.trace_lines(), fid=2, sink=3, bin_seconds=1.0)
    assert series[0][0] == 0.0
    interior = [bps for start, bps in series[2:-1]]
    assert interior and all(bps == 1_600_000.0 for bps in interior)


def test_throughput_series_empty_trace():
    assert series_of([], fid=2, sink=3, bin_seconds=1.0) == []


def test_throughput_series_single_giant_bin():
    series = series_of(GOOD, fid=2, sink=3, bin_seconds=1000.0)
    assert series == [(0.0, 1000 * 8 / 1000.0)]


def test_throughput_rejects_nonpositive_bin():
    for bad in (0, -1, float("nan"), float("inf"), 1e-12, 1e300):
        with pytest.raises(ValueError):
            series_of(GOOD, fid=2, sink=3, bin_seconds=bad)


# -- streaming robustness ------------------------------------------------------------


def test_results_do_not_depend_on_chunking(cbr_run):
    text = cbr_run.trace_path.read_text()
    as_list = text.splitlines()

    def generator_form():
        yield from as_list

    a = flow_stats(as_list, fid=2, source=1, sink=3)
    b = flow_stats(generator_form(), fid=2, source=1, sink=3)
    assert a == b
