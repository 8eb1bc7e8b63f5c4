import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minins.errors import ScenarioError
from minins.golden import golden_dir
from minins.netmodel import tx_time
from minins.qdisc import QdiscConfig
from minins.scenario import (
    OPTIONS,
    REQUIRED,
    AgentSpec,
    CbrSpec,
    ExpSpec,
    LinkSpec,
    ScenarioSpec,
    parse_scenario,
    read_scenario,
)
from minins.units import MAX_VALUE, format_time_short, parse_bandwidth, parse_time

from scenario_text import render_bandwidth, render_scenario, render_time

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


@pytest.mark.parametrize("bad", ["5", "5min", "x ms", "1.5ns", "-1s", "+1s", ".5s", "5.s",
                                 "1e3s", "1/2s", "1_000s", " 1s", "\uff17s"])
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


@pytest.mark.parametrize("bad", ["10", "10MB", "2.5Mb", "-1Mb", "0b", "\u00b2Mb", "1e3b"])
def test_parse_bandwidth_rejects(bad):
    with pytest.raises(ScenarioError):
        parse_bandwidth(bad)


def test_numbers_are_bounded():
    assert parse_time(f"{MAX_VALUE}ns") == MAX_VALUE
    assert parse_time(f"000{MAX_VALUE}.000ns") == MAX_VALUE
    assert parse_bandwidth(f"{MAX_VALUE}b") == MAX_VALUE
    for text in (f"{MAX_VALUE + 1}ns", "9223372037s", "1" + "0" * 5000 + "s"):
        with pytest.raises(ScenarioError, match="exceeds the maximum"):
            parse_time(text)
    for text in (f"{MAX_VALUE + 1}b", "9223372036855Mb", "9" * 400 + "b"):
        with pytest.raises(ScenarioError, match="exceeds the maximum"):
            parse_bandwidth(text)


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
    spec = read_scenario(golden_dir() / "paper.scn")
    assert spec.duration == 500_000_000_000
    assert spec.seed == 42
    assert spec.nodes == ["n0", "n1", "n2", "n3"]
    assert len(spec.links) == 3
    # each queue at its kind's defaults; a DropTail link has no bucket count
    assert [l.qdisc for l in spec.links] == [("droptail", 50, None), ("droptail", 50, None),
                                             ("sfq", 40, 16)]
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
UNREACHABLE = (
    "sim duration=1s\nnode a\nnode b\nnode c\n"
    "udp linked src=a sink=b fid=1\n"
    "udp lonely src=a sink=c fid=2\n"
    "duplex-link a b bw=1Mb delay=1ms queue=droptail\n"
)


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
        (UNREACHABLE, "line 6: udp lonely: sink c is unreachable from src a"),
        # Numbers are plain decimals no larger than MAX_VALUE, checked before use.
        ("sim duration=1e5000s\n", "line 1: duration: bad time value"),
        ("sim duration=1e1000000s\n", "line 1: duration: bad time value"),
        ("sim duration=1e1000000000000s\n", "line 1: duration: bad time value"),
        (f"sim duration={MAX_VALUE + 1}ns\n", "line 1: duration: .*exceeds the maximum"),
        ("sim duration=1s seed=18446744073709551616\n", "line 1: seed: .*exceeds the maximum"),
        ("sim duration=1s\nnode a\nnode b\n"
         f"duplex-link a b bw={'9' * 400}b delay=0s queue=droptail\n",
         "line 4: bw: .*exceeds the maximum"),
        ("sim duration=1s\nnode a\nnode b\n"
         f"duplex-link a b bw=1Mb delay=0s queue=droptail limit={MAX_VALUE + 1}\n",
         "line 4: limit: .*exceeds the maximum"),
        (GEN_HEAD + f"cbr agent=f size={'7' * 5000} interval=1ms start=0s stop=1s\n",
         "line 5: size: .*exceeds the maximum"),
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


TWO = "sim duration=1s\nnode a\nnode b\n"
LINK = "duplex-link a b bw=1Mb delay=0s queue=droptail"
FLOW = TWO + LINK + "\nudp f src=a sink=b fid=1\n"  # a generator goes on line 6
CBR = "cbr agent=f size=1 interval=1ms start=0s stop=1s"
EXP = "exp agent=f size=1 burst=1ms idle=1ms rate=1Mb start=0s stop=1s"

# One bad scenario per message parse_scenario can raise, with its full text.
# Where a line has several faults, the case pins which one is reported.
ERROR_TEXTS = [
    ("node a\n", "missing sim directive"),
    ("sim duration=1s\nbogus x=1 x=2\n", "line 2: unknown directive 'bogus'"),
    ("sim duration=2s\nsim bogus\n", "line 2: duplicate sim directive"),
    ("sim duration=1s seed\n", "line 1: expected key=value, got 'seed'"),
    ("sim duration=1s =1\n", "line 1: expected key=value, got '=1'"),
    ("sim duration=1s duration=2s\n", "line 1: duplicate option 'duration'"),
    ("sim seed=1\n", "line 1: missing option duration="),
    ("sim frob=1\n", "line 1: missing option duration="),
    ("sim duration=1s frob=1 abc=2\n", "line 1: unknown option(s) abc, frob"),
    ("sim duration=1s seed=-1\n", "line 1: seed= wants a non-negative integer, got '-1'"),
    ("sim duration=1s seed=18446744073709551616\n",
     "line 1: seed: value exceeds the maximum 18446744073709551615"),
    ("sim duration=1x\n",
     "line 1: duration: unknown time unit in '1x' (expected s, ms, us or ns)"),
    ("sim duration=1e5s\n", "line 1: duration: bad time value '1e5s'"),
    ("sim duration=1.5ns\n",
     "line 1: duration: time '1.5ns' is not a whole number of nanoseconds"),
    (f"sim duration={MAX_VALUE + 1}ns\n",
     f"line 1: duration: time in ns exceeds the maximum {MAX_VALUE}"),
    ("sim duration=1s\nnode\n", "line 2: usage: node <name>"),
    ("sim duration=1s\nnode a b\n", "line 2: usage: node <name>"),
    ("sim duration=1s\nnode a\nnode a\n", "line 3: duplicate node name 'a'"),
    ("sim duration=1s\nduplex-link a\n", "line 2: usage: duplex-link <a> <b> ..."),
    (TWO + "duplex-link a zz bw=1Mb\n", "line 4: undeclared node 'zz'"),
    (TWO + "duplex-link a a bw=1Mb\n", "line 4: self-link on 'a'"),
    (TWO + LINK + "\nduplex-link b a frob\n", "line 5: duplicate link 'b' 'a'"),
    (TWO + "duplex-link a b bw=1Mb delay=0s\n", "line 4: missing option queue="),
    (TWO + "duplex-link a b bw=1Mb delay=0s queue=red frob=1\n",
     "line 4: queue= must be droptail or sfq"),
    (TWO + LINK + " limit=0\n", "line 4: queue limit must be >= 1"),
    (TWO + "\n" + LINK.replace("droptail", "sfq") + " limit=0\n",
     "line 5: queue limit must be >= 1"),
    (TWO + LINK + " limit=x\n", "line 4: limit= wants a non-negative integer, got 'x'"),
    (TWO + LINK + f" limit={MAX_VALUE + 1}\n",
     f"line 4: limit: value exceeds the maximum {MAX_VALUE}"),
    (TWO + LINK + " buckets=4\n", "line 4: buckets= only applies to sfq queues"),
    (TWO + LINK.replace("droptail", "sfq") + " buckets=0\n",
     "line 4: bucket count must be >= 1"),
    (TWO + "duplex-link a b bw=1G delay=0s queue=droptail\n",
     "line 4: bw: unknown bandwidth unit in '1G' (expected Mb, kb or b)"),
    (TWO + "duplex-link a b bw=2.5Mb delay=0s queue=droptail\n",
     "line 4: bw: bad bandwidth value '2.5Mb' (integer required)"),
    (TWO + "duplex-link a b bw=0Mb delay=0s queue=droptail\n",
     "line 4: bw: bandwidth '0Mb' must be positive"),
    (TWO + f"duplex-link a b bw={'9' * 400}b delay=0s queue=droptail\n",
     f"line 4: bw: bandwidth in b/s exceeds the maximum {MAX_VALUE}"),
    (TWO + "duplex-link a b bw=1Mb delay=5 queue=droptail\n",
     "line 4: delay: unknown time unit in '5' (expected s, ms, us or ns)"),
    (TWO + LINK + " frob=1\n", "line 4: unknown option(s) frob"),
    ("sim duration=1s\nudp\n", "line 2: usage: udp <name> ..."),
    (FLOW + "udp f src=zz\n", "line 6: duplicate agent name 'f'"),
    (TWO + "udp g src=zz fid=1\n", "line 4: missing option sink="),
    (TWO + "udp g src=a sink=c fid=1\n", "line 4: undeclared node 'c'"),
    (TWO + "udp g src=a sink=b fid=x\n", "line 4: fid= wants a non-negative integer, got 'x'"),
    (TWO + "udp g src=a sink=b\n", "line 4: missing option fid="),
    (TWO + "udp g src=a sink=b fid=1 colour=Green\n", "line 4: unknown option(s) colour"),
    (FLOW + "cbr size=0\n", "line 6: missing option agent="),
    (FLOW + CBR.replace("agent=f", "agent=g"), "line 6: undeclared agent 'g'"),
    (FLOW + CBR.replace("size=1", "size=x"),
     "line 6: size= wants a non-negative integer, got 'x'"),
    (FLOW + CBR.replace("interval=1ms", "interval=1"),
     "line 6: interval: unknown time unit in '1' (expected s, ms, us or ns)"),
    (FLOW + CBR.replace("stop=1s", "stop=1.0000000001s"),
     "line 6: stop: time '1.0000000001s' is not a whole number of nanoseconds"),
    (FLOW + CBR.replace("size=1", "size=0") + " frob=1\n", "line 6: unknown option(s) frob"),
    (FLOW + CBR.replace("size=1", "size=0").replace("start=0s", "start=2s"),
     "line 6: packet size must be >= 1 byte"),
    (FLOW + CBR.replace("interval=1ms", "interval=0s").replace("start=0s", "start=2s"),
     "line 6: interval must be positive"),
    (FLOW + CBR.replace("start=0s", "start=2s"), "line 6: start exceeds stop"),
    (FLOW + CBR.replace("stop=1s", "stop=2s"),
     "line 6: generator stop exceeds simulation duration"),
    (FLOW + EXP.replace("agent=f", "agent=g"), "line 6: undeclared agent 'g'"),
    (FLOW + EXP.replace("rate=1Mb", "rate=1Gb"),
     "line 6: rate: bad bandwidth value '1Gb' (integer required)"),
    (FLOW + EXP.replace("idle=1ms", "idle=1e3ms"), "line 6: idle: bad time value '1e3ms'"),
    (FLOW + EXP + " frob=1\n", "line 6: unknown option(s) frob"),
    (FLOW + EXP.replace("size=1", "size=0").replace("rate=1Mb", "rate=100000Mb"),
     "line 6: packet size must be >= 1 byte"),
    (FLOW + EXP.replace("rate=1Mb", "rate=100000Mb").replace("burst=1ms", "burst=0s"),
     "line 6: rate too high for size: zero gap between sends"),
    (FLOW + EXP.replace("idle=1ms", "idle=0s").replace("start=0s", "start=2s"),
     "line 6: burst and idle must be positive"),
    (FLOW + "\n" + EXP.replace("burst=1ms", "burst=0s"),
     "line 7: burst and idle must be positive"),
    (FLOW + EXP.replace("start=0s", "start=2s"), "line 6: start exceeds stop"),
    (FLOW + EXP.replace("stop=1s", "stop=2s") + "\n" + CBR.replace("stop=1s", "stop=3s"),
     "line 6: generator stop exceeds simulation duration"),
    ("sim duration=1s\ntrace\n", "line 2: missing option file="),
    ("sim duration=1s\ntrace file=a\ntrace file=b x\n", "line 3: duplicate trace directive"),
    ("sim duration=1s\ntrace file=a x=1\n", "line 2: unknown option(s) x"),
    (UNREACHABLE, "line 6: udp lonely: sink c is unreachable from src a"),
    # The duration check comes before the reachability check.
    (UNREACHABLE + "cbr agent=linked size=1 interval=1ms start=0s stop=2s\n",
     "line 8: generator stop exceeds simulation duration"),
]


@pytest.mark.parametrize("text,message", ERROR_TEXTS, ids=[m for _, m in ERROR_TEXTS])
def test_error_texts(text, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


# Lines with two faults: the one reported follows the order that README's
# "Scenario directives" states, the same for every directive.
FAULT_ORDER = [
    (TWO + "udp g src=zz sink=b fid=x\n", "line 4: fid= wants a non-negative integer, got 'x'"),
    (FLOW + "cbr agent=g size=x interval=1ms start=0s stop=1s\n",
     "line 6: size= wants a non-negative integer, got 'x'"),
    (TWO + LINK + " limit=0 frob=1\n", "line 4: unknown option(s) frob"),
    (FLOW + EXP.replace("agent=f", "agent=g") + " frob=1\n", "line 6: unknown option(s) frob"),
]


@pytest.mark.parametrize("text,message", FAULT_ORDER, ids=[m for _, m in FAULT_ORDER])
def test_a_line_reports_its_first_fault_in_option_table_order(text, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


def test_readme_directive_table_matches_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario directives", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| ([a-z-]+) \| `(.*)` \|$", section, re.MULTILINE))
    assert set(rows) == set(OPTIONS) | {"node"}
    for directive, form in rows.items():
        found = re.findall(r"(\[?)([a-z]+)=", form)
        options = OPTIONS.get(directive, {})
        assert [key for _, key in found] == list(options), directive
        assert [bool(bracket) for bracket, _ in found] == [
            default is not REQUIRED for default in options.values()], directive


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                  "\u2029"])
def test_only_lf_cr_and_crlf_end_a_line(char):
    # str.splitlines() breaks at these too; inside a line they are whitespace.
    text = f"sim duration=1s{char}seed=2\n# a{char}b\r\nnode a{char}\rbogus\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == "line 4: unknown directive 'bogus'"
    assert parse_scenario(text.replace("bogus", "")).seed == 2


def test_generator_stop_must_fit_duration():
    text = MINIMAL.replace("stop=10s", "stop=11s")
    with pytest.raises(ScenarioError, match="duration"):
        parse_scenario(text)


def test_comments_and_blank_lines_ignored():
    spec = parse_scenario("# header\n\nsim duration=1s seed=9 # trailing\n")
    assert spec.seed == 9


def test_color_accepted_and_ignored():
    text = ("sim duration=1s\nnode a\nnode b\nduplex-link a b bw=1Mb delay=0s queue=droptail\n"
            "udp f src=a sink=b fid=1{}\n")
    assert parse_scenario(text.format(" color=Green")) == parse_scenario(text.format(""))


# -- render round trip ---------------------------------------------------------------


def test_render_parse_round_trip():
    for name in ("paper.scn", "cbr_golden.scn", "overload_droptail.scn", "sfq_pair.scn"):
        spec = read_scenario(golden_dir() / name)
        assert parse_scenario(render_scenario(spec)) == spec


def test_render_round_trip_minimal():
    spec = parse_scenario(MINIMAL)
    assert parse_scenario(render_scenario(spec)) == spec


def test_specs_cannot_be_assigned():
    spec = parse_scenario(MINIMAL)
    link = spec.links[0]
    for record, name in ((spec, "seed"), (spec, "nodes"), (link, "delay"),
                         (link.qdisc, "limit"), (spec.agents[0], "fid"),
                         (spec.generators[0], "size")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_parsed_specs_share_no_list():
    first, second = parse_scenario(MINIMAL), parse_scenario(MINIMAL)
    lists = [value for spec in (first, second) for value in spec if isinstance(value, list)]
    assert len(lists) == 8
    assert len({id(value) for value in lists}) == 8


positive_ns = st.integers(1, 10**12)


@st.composite
def random_specs(draw):
    """Valid specs on 2-6 nodes with a random subset of links, so some
    flows have no path; every generator respects its parse-time bounds."""
    nodes = [f"n{k}" for k in range(draw(st.integers(2, 6)))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    links = []
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
        if draw(st.booleans()):
            a, b = b, a
        kind = draw(st.sampled_from(["droptail", "sfq"]))
        buckets = draw(st.integers(1, 64)) if kind == "sfq" else None
        qdisc = QdiscConfig(kind, draw(st.integers(1, 100)), buckets)
        links.append(LinkSpec(a, b, draw(st.integers(1, 10**10)),
                              draw(st.integers(0, 10**10)), qdisc))
    agents = [
        AgentSpec(f"f{k}", draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)),
                  draw(st.integers(0, 2**32)))
        for k in range(draw(st.integers(1, 3)))
    ]
    duration = draw(st.integers(0, 10**12))
    generators = []
    for _ in range(draw(st.integers(0, 3))):
        agent = draw(st.sampled_from(agents)).name
        stop = draw(st.integers(0, duration))
        start = draw(st.integers(0, stop))
        size = draw(st.integers(1, 65_535))
        if draw(st.booleans()):
            generators.append(CbrSpec(agent, size, draw(positive_ns), start, stop))
        else:
            rate = draw(st.integers(1, size * 8 * 10**9))  # a gap of at least 1 ns
            assert tx_time(size, rate) > 0
            generators.append(ExpSpec(agent, size, draw(positive_ns), draw(positive_ns),
                                      rate, start, stop))
    return ScenarioSpec(duration, draw(st.integers(0, 2**64 - 1)), nodes, links, agents,
                        generators, draw(st.sampled_from([None, "out.tr"])))


def _reachable_from(node, links):
    seen, frontier = {node}, [node]
    while frontier:
        here = frontier.pop()
        for link in links:
            for a, b in ((link.a, link.b), (link.b, link.a)):
                if a == here and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen


@given(random_specs())
def test_random_specs_round_trip_or_name_first_unreachable_flow(spec):
    text = render_scenario(spec)
    cut = [i for i, agent in enumerate(spec.agents)
           if agent.sink not in _reachable_from(agent.src, spec.links)]
    if not cut:
        assert parse_scenario(text) == spec
        return
    agent = spec.agents[cut[0]]
    lineno = 2 + len(spec.nodes) + len(spec.links) + cut[0]  # sim, nodes, links, udp
    assert text.splitlines()[lineno - 1].startswith(f"udp {agent.name} ")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == (
        f"line {lineno}: udp {agent.name}: sink {agent.sink} is unreachable from src {agent.src}"
    )
