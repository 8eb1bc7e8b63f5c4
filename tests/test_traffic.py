import itertools
import math
import random

import pytest

from minins.engine import EventEngine
from minins.errors import ScenarioError
from minins.golden import golden_dir
from minins.netmodel import Network, Packet
from minins.qdisc import QdiscConfig
from minins.rng import SplitMix64
from minins.scenario import CbrSpec, ExpSpec, parse_scenario
from minins.traffic import (
    CbrGenerator,
    ExpOnOffGenerator,
    SinkMonitor,
    UdpAgent,
    exp_variate,
)

from net_helpers import link_between, seconds, sink_at
from reference_model import reference_onoff

MS = 1_000_000


class StubAgent:
    """Counts sends without touching any network."""

    def __init__(self):
        self.sends = []  # (time filled by caller is not known; store sizes)

    def send(self, size, ptype):
        self.sends.append((size, ptype))


class TimedAgent(StubAgent):
    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.times = []

    def send(self, size, ptype):
        super().send(size, ptype)
        self.times.append(self.engine.now)


class FixedRng:
    """Feeds a preset list of uniforms, then repeats the last one."""

    def __init__(self, *us):
        self.us = list(us)

    def uniform(self):
        return self.us.pop(0) if len(self.us) > 1 else self.us[0]


# -- rng ----------------------------------------------------------------------


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_substreams_differ_by_ordinal():
    s0 = SplitMix64.substream(99, 0)
    s1 = SplitMix64.substream(99, 1)
    assert [s0.next_u64() for _ in range(10)] != [s1.next_u64() for _ in range(10)]


def test_uniform_in_unit_interval():
    rng = SplitMix64(7)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


# -- exp_variate ---------------------------------------------------------------


def test_exp_variate_zero_at_u_zero():
    assert exp_variate(800 * MS, FixedRng(0.0)) == 0


def test_exp_variate_identity_point():
    # u = 1 - 1/e makes -ln(1-u) = 1, so the draw equals the mean
    # (up to one ns of floating error before the floor).
    mean = 800 * MS
    draw = exp_variate(mean, FixedRng(1 - math.exp(-1)))
    assert abs(draw - mean) <= 1


def test_exp_variate_sample_mean_near_true_mean():
    mean = 800 * MS
    rng = SplitMix64(2024)
    n = 1_000_000
    total = sum(exp_variate(mean, rng) for _ in range(n))
    assert abs(total / n - mean) / mean < 0.01


def test_duty_cycle_of_renewal_oracle():
    # 1e6 ON/OFF pairs: empirical duty factor of the 800ms/2ms process.
    rng = SplitMix64(5)
    on = off = 0
    for _ in range(100_000):
        on += exp_variate(800 * MS, rng)
        off += exp_variate(2 * MS, rng)
    duty = on / (on + off)
    assert abs(duty - 800 / 802) < 0.001


class RecordingRng:
    """Passes a stream's uniforms through and keeps each one."""

    def __init__(self, rng):
        self.rng = rng
        self.us = []

    def uniform(self):
        u = self.rng.uniform()
        self.us.append(u)
        return u


def exp_draws(spec, seed):
    """(mean, u, draw) of every draw of `spec`'s one exp generator at `seed`.

    Replays ExpOnOffGenerator's ON/OFF loop on its substream without
    the sends: from start, ON and OFF durations alternate, and the
    generator stops drawing once a period ends at or past stop.
    """
    ((ordinal, gen),) = [(k, g) for k, g in enumerate(spec.generators)
                         if isinstance(g, ExpSpec)]
    rng = RecordingRng(SplitMix64.substream(seed, ordinal))
    means = itertools.cycle((gen.burst, gen.idle))
    draws = []
    t = gen.start
    while t < gen.stop:
        mean = next(means)
        draw = exp_variate(mean, rng)
        draws.append((mean, rng.us[-1], draw))
        t += draw
    return draws


def test_paper_exp_draws_keep_a_margin_from_integer_boundaries():
    # A draw is int(-mean * log1p(-u)), and libm's log1p need not round
    # correctly: a platform whose log1p is a few ulps off would floor a
    # draw next to an integer differently and move the trace. Every draw
    # of the paper scenario at its own seed and at seeds 1-10 (acceptance
    # criterion 3) stays at least 4 ulps away from the nearest integer.
    spec = parse_scenario((golden_dir() / "paper.scn").read_text())
    for seed in (spec.seed, *range(1, 11)):
        draws = exp_draws(spec, seed)
        assert len(draws) > 1000, seed
        for mean, u, draw in draws:
            assert u * 2**53 == int(u * 2**53)  # u = k / 2**53
            x = -mean * math.log1p(-u)
            assert int(x) == draw
            margin = min(x - math.floor(x), math.ceil(x) - x) / math.ulp(x)
            assert margin >= 4, (seed, mean, u)


# -- CBR ------------------------------------------------------------------------


def cbr_emitted(size, interval, start, stop, run_to=None):
    eng = EventEngine()
    agent = TimedAgent(eng)
    gen = CbrGenerator(eng, agent, CbrSpec("f", size, interval, start, stop))
    gen.install()
    eng.run_until(run_to if run_to is not None else stop + seconds(1))
    return gen, agent


def enumerate_cbr_sends(interval, start, stop):
    # Independent oracle: instants start + k*interval strictly before stop.
    times, k = [], 0
    while start + k * interval < stop:
        times.append(start + k * interval)
        k += 1
    return times


def test_cbr_send_count_paper_parameters():
    expected = enumerate_cbr_sends(5 * MS, seconds(1), seconds(499))
    assert len(expected) == 99_600
    gen, agent = cbr_emitted(1000, 5 * MS, seconds(1), seconds(499))
    assert gen.emitted == 99_600
    assert agent.times == expected


def test_cbr_start_equals_stop_sends_nothing():
    gen, _ = cbr_emitted(1000, seconds(1), seconds(5), seconds(5))
    assert gen.emitted == 0


def test_cbr_fractional_stop():
    gen, agent = cbr_emitted(1000, seconds(1), 0, seconds(2.5))
    assert agent.times == [0, seconds(1), seconds(2)]
    assert gen.emitted == 3


def test_cbr_send_exactly_at_stop_instant_is_cancelled():
    gen, agent = cbr_emitted(1000, seconds(1), 0, seconds(2))
    assert agent.times == [0, seconds(1)]  # the k=2 send is never scheduled


# -- exponential on-off -----------------------------------------------------------


def u_for_length(mean, length):
    # uniform that makes exp_variate(mean) come out as `length` (+-1 ns)
    return 1 - math.exp(-length / mean)


def test_expoo_spacing_within_bursts_is_size_by_rate():
    # paper call: 1000 B at 5 Mb/s -> 1.6 ms spacing while ON. Scripted
    # periods: ON 5 ms (4 sends, fifth deferred), OFF 10 ms, ON 4 ms
    # (3 sends), OFF far beyond the horizon.
    eng = EventEngine()
    agent = TimedAgent(eng)
    cfg = ExpSpec("f", 1000, 800 * MS, 2 * MS, 5_000_000, 0, seconds(20))
    rng = FixedRng(
        u_for_length(800 * MS, 5 * MS),
        u_for_length(2 * MS, 10 * MS),
        u_for_length(800 * MS, 4 * MS),
        u_for_length(2 * MS, 50 * MS),
    )
    gen = ExpOnOffGenerator(eng, agent, cfg, rng)
    gen.install()
    eng.run_until(seconds(0.030))
    assert gen.gap == 1_600_000
    assert agent.times[:4] == [0, 1_600_000, 3_200_000, 4_800_000]
    assert len(agent.times) == 7
    burst2 = agent.times[4:]
    assert abs(burst2[0] - 15 * MS) <= 3  # 5 ms ON + 10 ms OFF, floor slack
    assert [b - a for a, b in zip(burst2, burst2[1:])] == [gen.gap, gen.gap]


def test_expoo_spacing_statistics_under_real_rng():
    eng = EventEngine()
    agent = TimedAgent(eng)
    cfg = ExpSpec("f", 1000, 800 * MS, 2 * MS, 5_000_000, 0, seconds(20))
    gen = ExpOnOffGenerator(eng, agent, cfg, SplitMix64.substream(42, 0))
    gen.install()
    eng.run_until(seconds(20))
    gaps = [b - a for a, b in zip(agent.times, agent.times[1:])]
    assert gaps.count(gen.gap) / len(gaps) > 0.9  # OFF periods are rare


def test_expoo_schedule_bit_identical_for_equal_seed():
    def times(seed):
        eng = EventEngine()
        agent = TimedAgent(eng)
        cfg = ExpSpec("f", 1000, 800 * MS, 2 * MS, 5_000_000, 0, seconds(30))
        ExpOnOffGenerator(eng, agent, cfg, SplitMix64.substream(seed, 0)).install()
        eng.run_until(seconds(30))
        return agent.times

    assert times(7) == times(7)
    assert times(7) != times(8)


def test_expoo_zero_length_on_period_sends_nothing_that_period():
    # First ON draw is zero, OFF is tiny, second ON is long: the first
    # period contributes no packet, the second opens with one.
    eng = EventEngine()
    agent = TimedAgent(eng)
    cfg = ExpSpec("f", 1000, 10 * MS, 10 * MS, 8_000_000, 0, seconds(1))
    rng = FixedRng(0.0, 0.5, 1 - math.exp(-1), 0.9)
    gen = ExpOnOffGenerator(eng, agent, cfg, rng)
    gen.install()
    eng.run_until(seconds(0.02))
    assert agent.times  # sends exist
    assert agent.times[0] > 0  # but none at t=0: that ON period was empty


def test_expoo_duty_cycle_over_long_run():
    eng = EventEngine()
    agent = TimedAgent(eng)
    cfg = ExpSpec("f", 1000, 800 * MS, 2 * MS, 5_000_000, 0, seconds(400))
    ExpOnOffGenerator(eng, agent, cfg, SplitMix64.substream(11, 0)).install()
    eng.run_until(seconds(400))
    # each send occupies one gap slot of ON time
    duty = len(agent.times) * 1_600_000 / seconds(400)
    assert abs(duty - 800 / 802) < 0.02


def test_expoo_stop_cancels_everything():
    # Nothing is left to dispatch at or after stop: running far past it
    # leaves the clock on the generator's last event, before stop.
    eng = EventEngine()
    agent = TimedAgent(eng)
    stop = seconds(1)
    cfg = ExpSpec("f", 1000, 800 * MS, 2 * MS, 5_000_000, 0, stop)
    ExpOnOffGenerator(eng, agent, cfg, SplitMix64.substream(1, 0)).install()
    eng.run_until(seconds(10))
    assert agent.times and all(t < stop for t in agent.times)
    assert eng.now < stop


U_MEAN = 1 - math.exp(-1)  # every draw comes out at its mean, floored


def run_exp_past_stop(burst, idle, stop):
    """Run an exp generator drawing U_MEAN each time until far past
    `stop`; (engine, number of uniforms drawn)."""
    eng = EventEngine()
    rng = RecordingRng(FixedRng(U_MEAN))
    cfg = ExpSpec("f", 1000, burst, idle, 8_000_000, 0, stop)
    ExpOnOffGenerator(eng, TimedAgent(eng), cfg, rng).install()
    eng.run_until(10 * stop)
    return eng, len(rng.us)


def test_expoo_on_period_ending_at_stop_opens_no_off_period():
    # The first ON period ends exactly at stop: no OFF period follows,
    # so nothing runs at stop and the OFF length is never drawn.
    burst = 10 * MS
    stop = exp_variate(burst, FixedRng(U_MEAN))
    eng, draws = run_exp_past_stop(burst, 4 * MS, stop)
    assert eng.now < stop
    assert draws == 1


def test_expoo_off_period_ending_at_stop_opens_no_on_period():
    # ON then OFF end exactly at stop: no second ON period opens there.
    burst, idle = 10 * MS, 4 * MS
    stop = exp_variate(burst, FixedRng(U_MEAN)) + exp_variate(idle, FixedRng(U_MEAN))
    eng, draws = run_exp_past_stop(burst, idle, stop)
    assert eng.now < stop
    assert draws == 2


def run_exp_recorded(seed, ordinal, spec):
    """Run one exp generator alone, far past its stop, on its substream:
    (send times, [(time, "on" or "off")], number of draws)."""
    eng = EventEngine()
    agent = TimedAgent(eng)
    rng = RecordingRng(SplitMix64.substream(seed, ordinal))
    gen = ExpOnOffGenerator(eng, agent, spec, rng)
    switches = []
    for kind in ("on", "off"):  # the generator schedules its switches by attribute
        begin = getattr(gen, f"_begin_{kind}")

        def recorded(begin=begin, kind=kind):
            switches.append((eng.now, kind))
            begin()

        setattr(gen, f"_begin_{kind}", recorded)
    gen.install()
    eng.run_until(2 * spec.stop + seconds(1))
    return agent.times, switches, len(rng.us)


def test_exp_generator_matches_the_on_off_reference():
    # Random sources, each run to a far stop and then to stops placed on
    # that reference schedule's switch and send instants. ON means span
    # a tenth of a gap to twenty gaps, so many ON periods are shorter
    # than one gap.
    rng = random.Random(24)
    stopped_at = {"on": 0, "off": 0, "send": 0}
    short_on_periods = 0
    for _ in range(400):
        seed, ordinal = rng.randrange(2**64), rng.randrange(8)
        size = rng.randint(1, 1500)
        rate = rng.randint(size * 8_000 // 5, size * 8_000_000)  # a gap of 1 us to 5 ms
        gap = size * 8 * 10**9 // rate
        burst = rng.randint(max(1, gap // 10), 20 * gap)
        idle = rng.randint(1, 10 * MS)
        start = rng.randint(0, 5 * MS)
        far = start + rng.randint(1, 30) * (burst + idle)
        sends, switches, _ = reference_onoff(seed, ordinal, burst, idle, gap, start, far)
        short_on_periods += sum(kind == "on" and t2 - t < gap
                                for (t, kind), (t2, _) in zip(switches, switches[1:]))
        stops = [(far, None)] + rng.sample(switches, min(3, len(switches)))
        stops += [(t, "send") for t in rng.sample(sends, min(2, len(sends)))]
        for stop, at in stops:
            expected = reference_onoff(seed, ordinal, burst, idle, gap, start, stop)
            spec = ExpSpec("f", size, burst, idle, rate, start, stop)
            assert run_exp_recorded(seed, ordinal, spec) == expected, (seed, ordinal, spec)
            if at is not None and stop > start:
                stopped_at[at] += 1
    assert min(stopped_at.values()) >= 400 and short_on_periods >= 800, (
        stopped_at, short_on_periods)


# -- sink monitor -------------------------------------------------------------------


def rx_packet(seq, sink):
    return Packet(uid=seq, fid=1, ptype="cbr", size=1000, src=0, sport=0,
                  seq=seq, birth=0, sink=sink)


def sink_flow(net, src, sink_node):
    """An agent on port 0 of `src` sending flow 1 to a new sink on port 0
    of `sink_node`."""
    sink = sink_at(net, sink_node)
    uid_counter = iter(range(10**9))
    agent = UdpAgent(net, src, 0, 1, lambda: next(uid_counter), sink)
    return agent, sink


def test_sink_counts_packets_and_bytes():
    sink = SinkMonitor(3, 0)
    sink.on_receive(rx_packet(0, sink))
    assert (sink.npkts, sink.bytes, sink.nlost) == (1, 1000, 0)


def test_sink_counts_every_drop_even_after_its_last_delivery():
    # 1000 cbr packets, one per ms, into a 1 Mb/s link (8 ms per packet)
    # with room for 2: most are dropped, the last few after the last
    # one that gets through. nlost counts each drop, so it equals the
    # 'd' lines.
    eng = EventEngine()
    drops = []

    class DropTracer:
        def record(self, op, time, link, pkt):
            if op == "d":
                drops.append(pkt.uid)

    net = Network(eng, DropTracer(), 2, [(0, 1, 1_000_000, MS, QdiscConfig("droptail", 2))])
    agent, sink = sink_flow(net, 0, 1)
    gen = CbrGenerator(eng, agent, CbrSpec("f", 1000, MS, 0, seconds(1)))
    gen.install()
    eng.run_until(seconds(2))
    assert gen.emitted == 1000
    assert sink.npkts == 127
    assert sink.nlost == len(drops) == 873
    assert max(drops) == 999  # the last packet sent was dropped
    assert link_between(net, 0, 1).drops == 873


def test_fresh_sink_reports_zeros():
    sink = SinkMonitor(3, 0)
    assert (sink.npkts, sink.bytes, sink.nlost) == (0, 0, 0)


# -- generator over a real network ------------------------------------------------


def test_exp_generator_drives_flow_over_network():
    eng = EventEngine()
    n0, n1 = 0, 1
    net = Network(eng, None, 2, [(n0, n1, 10_000_000, MS, QdiscConfig("droptail", 50))])
    agent, sink = sink_flow(net, n0, n1)
    cfg = ExpSpec("f", 1000, 800 * MS, 2 * MS, 5_000_000, 0, seconds(2))
    gen = ExpOnOffGenerator(eng, agent, cfg, SplitMix64.substream(3, 0))
    gen.install()
    eng.run_until(seconds(3))
    assert gen.agent.port == 0
    assert sink.npkts == gen.emitted > 0
    assert sink.bytes == 1000 * gen.emitted
    assert sink.nlost == 0


def test_config_validation():
    # Generator parameters are validated once, where the scenario is parsed.
    head = "sim duration=1s\nnode a\nnode b\nudp f src=a sink=b fid=1\n"
    cases = [
        ("cbr agent=f size=1000 interval=0ms start=0s stop=1ms", "interval"),
        ("cbr agent=f size=1000 interval=1ms start=2ms stop=1ms", "start exceeds stop"),
        ("cbr agent=f size=0 interval=1ms start=0s stop=1ms", "size"),
        ("exp agent=f size=1000 burst=0s idle=1ms rate=1Mb start=0s stop=1ms",
         "burst and idle"),
        ("exp agent=f size=0 burst=1ms idle=1ms rate=1Mb start=0s stop=1ms", "size"),
        ("exp agent=f size=1 burst=1ms idle=1ms rate=100000Mb start=0s stop=1ms",
         "zero gap"),
    ]
    for line, fragment in cases:
        with pytest.raises(ScenarioError, match=f"line 5: .*{fragment}"):
            parse_scenario(head + line + "\n")
