import pytest

from minins.errors import ScenarioError
from minins.golden import golden_dir
from minins.scenario import CbrSpec, ExpSpec, parse_scenario, render_scenario
from minins.units import (
    format_time_short,
    parse_bandwidth,
    parse_time,
    render_bandwidth,
    render_time,
)

MINIMAL = """\
sim duration=10s seed=3
node a
node b
duplex-link a b bw=1Mb delay=5ms queue=droptail
udp f src=a sink=b fid=1
cbr agent=f size=100 interval=10ms start=0s stop=10s
trace file=out.tr
"""


# -- units ----------------------------------------------------------------------


@pytest.mark.parametrize("text,ns", [
    ("500s", 500_000_000_000),
    ("0.005s", 5_000_000),
    ("5ms", 5_000_000),
    ("800ms", 800_000_000),
    ("2us", 2_000),
    ("7ns", 7),
    ("0s", 0),
])
def test_parse_time(text, ns):
    assert parse_time(text) == ns


@pytest.mark.parametrize("bad", ["5", "5min", "x ms", "1.5ns", "-1s"])
def test_parse_time_rejects(bad):
    with pytest.raises(ScenarioError):
        parse_time(bad)


@pytest.mark.parametrize("text,bps", [
    ("10Mb", 10_000_000),
    ("1kb", 1_000),
    ("500b", 500),
])
def test_parse_bandwidth(text, bps):
    assert parse_bandwidth(text) == bps


@pytest.mark.parametrize("bad", ["10", "10MB", "2.5Mb", "-1Mb", "0b"])
def test_parse_bandwidth_rejects(bad):
    with pytest.raises(ScenarioError):
        parse_bandwidth(bad)


def test_render_round_trips_units():
    for ns in (0, 1, 999, 1_000, 5_000_000, 800_000_000, 500_000_000_000, 123_456_789):
        assert parse_time(render_time(ns)) == ns
    for bps in (1, 999, 1_000, 10_000_000, 2_500_000):
        assert parse_bandwidth(render_bandwidth(bps)) == bps


def test_format_time_short():
    assert format_time_short(500_000_000_000) == "500"
    assert format_time_short(0) == "0"
    assert format_time_short(500_000_000) == "0.5"
    assert format_time_short(21_600_000) == "0.0216"


# -- parsing ----------------------------------------------------------------------


def test_parse_bundled_paper_scenario():
    spec = parse_scenario((golden_dir() / "paper.scn").read_text())
    assert spec.duration == 500_000_000_000
    assert spec.seed == 42
    assert spec.nodes == ["n0", "n1", "n2", "n3"]
    assert len(spec.links) == 3
    assert [l.qdisc.kind for l in spec.links] == ["droptail", "droptail", "sfq"]
    assert all(l.bandwidth == 10_000_000 and l.delay == 10_000_000 for l in spec.links)
    assert [a.fid for a in spec.agents] == [1, 2]
    assert len(spec.generators) == 2
    exp, cbr = spec.generators
    assert isinstance(exp, ExpSpec) and isinstance(cbr, CbrSpec)
    assert exp.burst == 800_000_000 and exp.idle == 2_000_000 and exp.rate == 5_000_000
    assert cbr.interval == 5_000_000 and cbr.start == 1_000_000_000


def test_parse_minimal_scenario():
    spec = parse_scenario(MINIMAL)
    assert spec.trace_path == "out.tr"
    assert spec.links[0].qdisc.limit == 50  # droptail default
    assert spec.generators[0].size == 100


def test_empty_input_needs_sim_directive():
    with pytest.raises(ScenarioError, match="sim"):
        parse_scenario("")


def test_seed_defaults_to_zero():
    assert parse_scenario("sim duration=1s\n").seed == 0


GEN_HEAD = "sim duration=1s\nnode a\nnode b\nudp f src=a sink=b fid=1\n"


def test_errors_carry_line_numbers():
    cases = [
        ("sim duration=1s\nnode a\nnode a\n", "line 3"),
        ("sim duration=1s\nbogus x\n", "line 2"),
        ("sim duration=1s\nnode a\nduplex-link a zz bw=1Mb delay=0s queue=droptail\n", "line 3"),
        ("sim duration=1s\nnode a\nnode b\nduplex-link a b bw=1Mb delay=0s queue=red\n", "line 4"),
        ("sim duration=1s\nudp f src=a sink=b fid=1\n", "line 2"),
        ("sim duration=1s\ncbr agent=f size=1 interval=1ms start=0s stop=1s\n", "line 2"),
        ("sim duration=1s\nnode a\nduplex-link a a bw=1Mb delay=0s queue=droptail\n", "line 3"),
        ("sim duration=2s\nsim duration=1s\n", "line 2"),
        ("sim duration=1s\nnode a\nnode b\nduplex-link a b bw=1Mb delay=0s queue=droptail\n"
         "duplex-link b a bw=1Mb delay=0s queue=droptail\n", "line 5"),
        (GEN_HEAD + "cbr agent=f size=0 interval=1ms start=0s stop=1s\n", "line 5"),
        (GEN_HEAD + "exp agent=f size=0 burst=1ms idle=1ms rate=1Mb start=0s stop=1s\n",
         "line 5"),
        (GEN_HEAD + "exp agent=f size=1 burst=1ms idle=1ms rate=100000Mb start=0s stop=1s\n",
         "line 5"),
        ("sim duration=1s\nnode a\nnode b\nudp f src=a sink=b fid=-1\n", "line 4"),
        ("sim duration=1s\nnode a\nnode b\n"
         "duplex-link a b bw=1Mb delay=0s queue=droptail limit=0\n", "line 4"),
        ("sim duration=1s\nnode a\nnode b\n"
         "duplex-link a b bw=1Mb delay=0s queue=sfq buckets=0\n", "line 4"),
    ]
    for text, fragment in cases:
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(text)


def test_unknown_unit_and_option_errors():
    base = "sim duration=1s\nnode a\nnode b\n"
    with pytest.raises(ScenarioError, match="line 4"):
        parse_scenario(base + "duplex-link a b bw=1Gb delay=0s queue=droptail\n")
    with pytest.raises(ScenarioError, match="line 4"):
        parse_scenario(base + "duplex-link a b bw=1Mb delay=0s queue=droptail frobnicate=1\n")
    with pytest.raises(ScenarioError, match="buckets"):
        parse_scenario(base + "duplex-link a b bw=1Mb delay=0s queue=droptail buckets=4\n")


def test_generator_stop_must_fit_duration():
    text = MINIMAL.replace("stop=10s", "stop=11s")
    with pytest.raises(ScenarioError, match="duration"):
        parse_scenario(text)


def test_comments_and_blank_lines_ignored():
    spec = parse_scenario("# header\n\nsim duration=1s seed=9 # trailing\n")
    assert spec.seed == 9


def test_color_accepted_and_kept():
    spec = parse_scenario(
        "sim duration=1s\nnode a\nnode b\nudp f src=a sink=b fid=1 color=Green\n"
    )
    assert spec.agents[0].color == "Green"


# -- render round trip ---------------------------------------------------------------


def test_render_parse_round_trip():
    for name in ("paper.scn", "cbr_golden.scn", "overload_droptail.scn", "sfq_pair.scn"):
        spec = parse_scenario((golden_dir() / name).read_text())
        assert parse_scenario(render_scenario(spec)) == spec


def test_render_round_trip_minimal():
    spec = parse_scenario(MINIMAL)
    assert parse_scenario(render_scenario(spec)) == spec
