import itertools
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minins.engine import EventEngine
from minins.netmodel import Network, Packet, tx_time
from minins.qdisc import QdiscConfig
from minins.traffic import SinkMonitor

from net_helpers import link_between, seconds, sink_at
from reference_model import MicroLink, MicroScenario, next_hop

DT = QdiscConfig("droptail", 50)


class ListTracer:
    def __init__(self):
        self.events = []  # (op, time, from, to, uid)

    def record(self, op, time, link, pkt):
        # link None: a delivery at the packet's own node
        ends = (pkt.sink.node, pkt.sink.node) if link is None else (link.from_node, link.to_node)
        self.events.append((op, time, *ends, pkt.uid))

    def close_flush(self):
        pass

    def ops(self, op):
        return [e for e in self.events if e[0] == op]

    def deliveries(self, node):
        """(uid, time) of every 'r' at `node`, in delivery order."""
        return [(uid, time) for op, time, _, to, uid in self.events if op == "r" and to == node]


def make_packet(uid, src, sink, size=1000, fid=1, birth=0):
    """A packet from `src` addressed to, and carrying, `sink`."""
    return Packet(uid=uid, fid=fid, ptype="cbr", size=size, src=src, sport=0,
                  seq=uid, birth=birth, sink=sink)


def star_network():
    """The four-node topology: 0 and 1 feed 2, which feeds 3."""
    eng = EventEngine()
    tracer = ListTracer()
    net = Network(eng, tracer, 4, [
        (0, 2, 10_000_000, seconds(0.010), DT),
        (1, 2, 10_000_000, seconds(0.010), DT),
        (2, 3, 10_000_000, seconds(0.010), DT),
    ])
    return eng, tracer, net


def test_packet_repr_names_its_fields():
    assert repr(make_packet(7, 0, SinkMonitor(3, 0), birth=5)) == (
        "Packet(uid=7, fid=1, ptype='cbr', size=1000, src=0, sport=0, dst=3, dport=0, "
        "seq=7, birth=5)")


def test_duplex_link_is_two_simplex_links_with_own_qdiscs():
    net = Network(EventEngine(), ListTracer(), 2, [(0, 1, 10_000_000, seconds(0.010), DT)])
    fwd, rev = net.links
    assert (fwd.from_node, fwd.to_node) == (0, 1)
    assert (rev.from_node, rev.to_node) == (1, 0)
    assert fwd.bandwidth == rev.bandwidth == 10_000_000
    assert fwd.delay == rev.delay == 10_000_000
    assert fwd.qdisc is not rev.qdisc


def test_routes_on_star_topology():
    _, _, net = star_network()
    toward_3 = net.compute_routes(3)
    assert toward_3[0] is link_between(net, 0, 2)  # via node 2
    assert toward_3[2] is link_between(net, 2, 3)  # direct
    assert net.compute_routes(0)[3] is link_between(net, 3, 2)


def test_equal_cost_tie_breaks_toward_smaller_next_hop():
    # square: 0-1-3 and 0-2-3 both two hops
    net = Network(EventEngine(), ListTracer(), 4, [
        (0, 1, 1000, 0, DT), (0, 2, 1000, 0, DT), (1, 3, 1000, 0, DT), (2, 3, 1000, 0, DT),
    ])
    assert net.compute_routes(3)[0].to_node == 1


def test_unreachable_pairs_absent_from_table():
    net = Network(EventEngine(), ListTracer(), 3, [(0, 1, 1000, 0, DT)])
    assert net.compute_routes(2) == [None, None, None]  # nothing reaches 2
    assert net.compute_routes(0)[2] is None and net.compute_routes(1)[2] is None


@st.composite
def random_topologies(draw):
    """A node count and a random subset of its possible duplex links."""
    node_count = draw(st.integers(min_value=2, max_value=7))
    pairs = list(itertools.combinations(range(node_count), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return node_count, chosen


@given(random_topologies())
def test_routes_match_exhaustive_reference(topology):
    node_count, pairs = topology
    net = Network(EventEngine(), ListTracer(), node_count,
                  [(a, b, 1000, 0, DT) for a, b in pairs])
    links = {}
    for a, b in pairs:
        links[(a, b)] = links[(b, a)] = MicroLink(50, 1000, 0)
    micro = MicroScenario(node_count, links, [])
    for dst in range(node_count):
        column = net.compute_routes(dst)
        assert column[dst] is None
        for src in range(node_count):
            if src == dst:
                continue
            expected = next_hop(micro, src, dst)
            if expected is None:
                assert column[src] is None
            else:
                assert column[src] is link_between(net, src, expected)


@pytest.mark.parametrize("size,bw,expected", [
    (1000, 10_000_000, 800_000),
    (1000, 1_000_000_000, 8_000),
    (125, 1_000_000_000, 1_000),
])
def test_tx_time_exact(size, bw, expected):
    assert tx_time(size, bw) == expected


def test_single_packet_two_hops_takes_21_6_ms():
    eng, tracer, net = star_network()
    sink = sink_at(net, 3)
    pkt = make_packet(0, src=0, sink=sink)
    eng.schedule(0, lambda: net.forward(0, pkt))
    eng.run_until(seconds(1))
    assert tracer.deliveries(3) == [(0, 21_600_000)]  # 2 * (0.8 ms + 10 ms)


def test_delivery_at_own_node_has_no_link_events():
    eng, tracer, net = star_network()
    sink = sink_at(net, 2)
    pkt = make_packet(0, src=2, sink=sink)
    eng.schedule(0, lambda: net.forward(2, pkt))
    eng.run_until(seconds(1))
    assert tracer.deliveries(2) == [(0, 0)]
    assert [e[0] for e in tracer.events] == ["r"]


def test_link_transmits_one_packet_at_a_time():
    # Burst of 5 packets lands at once; '-' events must be spaced by the
    # 0.8 ms transmission time.
    eng, tracer, net = star_network()
    sink = sink_at(net, 3)
    for uid in range(5):
        pkt = make_packet(uid, src=0, sink=sink)
        eng.schedule(0, lambda pkt=pkt: net.forward(0, pkt))
    eng.run_until(seconds(1))
    dequeues = [t for op, t, frm, to, uid in tracer.events if op == "-" and (frm, to) == (0, 2)]
    assert len(dequeues) == 5
    for earlier, later in itertools.pairwise(dequeues):
        assert later - earlier >= tx_time(1000, 10_000_000)


def test_fifo_per_link_preserves_receive_order():
    eng, tracer, net = star_network()
    sink = sink_at(net, 3)
    for uid in range(10):
        pkt = make_packet(uid, src=1, sink=sink, size=500 + 100 * uid)
        eng.schedule(uid * 1000, lambda pkt=pkt: net.forward(1, pkt))
    eng.run_until(seconds(1))
    enqueue_order = [uid for op, t, f, to, uid in tracer.events if op == "+" and (f, to) == (1, 2)]
    assert [uid for uid, _ in tracer.deliveries(3)] == enqueue_order


def test_arrival_follows_dequeue_by_tx_plus_delay():
    eng, tracer, net = star_network()
    sink = sink_at(net, 3)
    pkt = make_packet(0, src=2, sink=sink, size=250)
    eng.schedule(7, lambda: net.forward(2, pkt))
    eng.run_until(seconds(1))
    (minus_t,) = [t for op, t, *_ in tracer.events if op == "-"]
    (r_t,) = [t for op, t, *_ in tracer.events if op == "r"]
    assert r_t - minus_t == tx_time(250, 10_000_000) + seconds(0.010)


def test_link_is_busy_until_its_transmit_complete_key():
    # A transmission ends at 8 ms under a key reserved when it starts at
    # 0 ms. An event due at 8 ms but scheduled before that start comes
    # first, so the link is still busy for it: of its two packets the
    # first queues and the second drops (limit=1), and only then does
    # the transmit-complete event send the first.
    eng = EventEngine()
    tracer = ListTracer()
    net = Network(eng, tracer, 2, [(0, 1, 1_000_000, 1_000_000, QdiscConfig("droptail", 1))])
    sink = sink_at(net, 1)
    burst = [make_packet(uid, src=0, sink=sink) for uid in (1, 2)]
    eng.schedule(8_000_000, lambda: [net.forward(0, pkt) for pkt in burst])
    eng.schedule(0, lambda: net.forward(0, make_packet(0, src=0, sink=sink)))
    eng.run_until(seconds(1))
    at_8ms = [(op, uid) for op, t, _, _, uid in tracer.events if t == 8_000_000]
    assert at_8ms == [("+", 1), ("+", 2), ("d", 2), ("-", 1)]
    assert tracer.deliveries(1) == [(0, 9_000_000), (1, 17_000_000)]
    link = link_between(net, 0, 1)
    assert (link.enqueued, link.dequeued, link.drops) == (3, 2, 1)


def test_per_link_counters_obey_conservation():
    # slam 100 packets into a tight queue, then stop time mid-drain
    eng = EventEngine()
    net = Network(eng, ListTracer(), 2, [(0, 1, 1_000_000, 0, QdiscConfig("droptail", 5))])
    sink = sink_at(net, 1)
    for uid in range(100):
        pkt = make_packet(uid, src=0, sink=sink)
        eng.schedule(uid * 100, lambda pkt=pkt: net.forward(0, pkt))
    eng.run_until(seconds(0.01))  # cut off while queue still holds packets
    link = link_between(net, 0, 1)
    assert link.enqueued == 100
    assert link.enqueued == link.dequeued + link.drops + link.qdisc.held()
    assert link.drops > 0 and link.qdisc.held() > 0


@st.composite
def mixed_queue_runs(draw):
    """A connected topology of DropTail and SFQ links with small queues,
    bursts of random packets injected at a few instants, and a time to
    stop the run at, often while queues still hold packets."""
    node_count = draw(st.integers(2, 6))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, node_count)}  # a tree
    pairs |= set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(node_count), 2))),
                               max_size=4)))
    duplex_links = []
    for a, b in sorted(pairs):
        if draw(st.booleans()):
            qdisc = QdiscConfig("sfq", draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        else:
            qdisc = QdiscConfig("droptail", draw(st.integers(1, 4)))
        duplex_links.append((a, b, draw(st.sampled_from([125_000, 1_000_000, 10**12])),
                             draw(st.sampled_from([0, 1_000, 1_000_000])), qdisc))
    nodes = st.integers(0, node_count - 1)
    injections = draw(st.lists(
        st.tuples(st.sampled_from([0, 1_000, 2_000_000]), nodes, nodes,
                  st.integers(1, 1500), st.integers(0, 5), st.integers(1, 8)),
        min_size=1, max_size=12))
    return node_count, duplex_links, injections, draw(st.integers(0, 30_000_000))


def run_mixed(case, tracer):
    """Run `case`; returns the network and its sink on port 0 of every node."""
    node_count, duplex_links, injections, stop = case
    eng = EventEngine()
    net = Network(eng, tracer, node_count, duplex_links)
    sinks = [sink_at(net, node) for node in range(node_count)]
    uids = itertools.count()
    for time, src, dst, size, fid, burst in injections:
        for uid in itertools.islice(uids, burst):
            pkt = make_packet(uid, src, sinks[dst], size=size, fid=fid, birth=time)
            eng.schedule(time, partial(net.forward, src, pkt))
    eng.run_until(stop)
    return net, sinks


@settings(deadline=None)
@given(mixed_queue_runs())
def test_links_conserve_packets_in_counters_and_trace(case):
    # Each link's counters and its +/-/d trace lines obey
    # '+' = '-' + 'd' + held(), which is how a link knows a packet is
    # waiting; an untraced run moves exactly the same packets. Every
    # packet injected toward a node is delivered to its sink, counted
    # lost there, or still queued or in flight: a drop always finds the
    # victim's sink.
    tracer = ListTracer()
    traced, sinks = run_mixed(case, tracer)
    untraced, bare_sinks = run_mixed(case, None)
    for link, bare in zip(traced.links, untraced.links):
        ops = Counter(op for op, _, frm, to, _ in tracer.events
                      if (frm, to) == (link.from_node, link.to_node))
        assert (ops["+"], ops["-"], ops["d"]) == (link.enqueued, link.dequeued, link.drops)
        assert ops["+"] == ops["-"] + ops["d"] + link.qdisc.held()
        assert link.enqueued == link.dequeued + link.drops + link.qdisc.held()
        assert (bare.enqueued, bare.dequeued, bare.drops, bare.qdisc.held()) == \
            (link.enqueued, link.dequeued, link.drops, link.qdisc.held())

    node_count, _, injections, stop = case
    dst_of = {}  # uid -> destination, of every packet injected by `stop`
    uids = itertools.count()
    for time, _, dst, _, _, burst in injections:
        for uid in itertools.islice(uids, burst):
            if time <= stop:
                dst_of[uid] = dst
    last_op = {}
    for op, _, _, _, uid in tracer.events:
        last_op[uid] = op
    # queued ('+') or in flight ('-'): its last event is not 'r' or 'd'
    pending = Counter(dst_of[uid] for uid, op in last_op.items() if op in "+-")
    assert sum(pending.values()) == sum(link.qdisc.held() + len(link.in_flight)
                                        for link in traced.links)
    injected = Counter(dst_of.values())
    for dst in range(node_count):
        sink = sinks[dst]
        assert injected[dst] == sink.npkts + sink.nlost + pending[dst]
        assert (sink.npkts, sink.nlost) == (bare_sinks[dst].npkts, bare_sinks[dst].nlost)


def one_hop_untraced():
    """An untraced 1 Mb/s, 1 ms link 0 -> 1 and a sink on node 1: a
    1000-byte packet sent at t arrives at t + 9 ms."""
    eng = EventEngine()
    net = Network(eng, None, 2, [(0, 1, 1_000_000, 1_000_000, DT)])
    return eng, net, link_between(net, 0, 1), sink_at(net, 1)


def test_untraced_delivery_due_by_the_limit_is_credited_when_the_last_hop_starts():
    for limit, credited in ((9_000_000, 1), (8_999_999, 0)):
        eng, net, link, sink = one_hop_untraced()
        seen = []

        def send():
            net.forward(0, make_packet(0, src=0, sink=sink))
            seen.append((sink.npkts, sink.bytes, len(link.in_flight)))

        eng.schedule(0, send)
        # The send is the only event dispatched: a credited delivery has
        # no arrival event, so the clock stops at 0 though it is due at 9 ms.
        assert eng.run_until(limit) == 0
        assert seen == [(credited, 1000 * credited, 1 - credited)]
        eng.run_until(seconds(1))
        assert (sink.npkts, len(link.in_flight)) == (1, 0)


def test_packet_sent_between_runs_is_not_counted_before_the_next_run():
    eng, net, link, sink = one_hop_untraced()
    eng.run_until(0)
    net.forward(0, make_packet(0, src=0, sink=sink))  # outside a run: no limit
    assert eng.limit == -1
    assert (sink.npkts, len(link.in_flight)) == (0, 1)
    eng.run_until(8_999_999)
    assert sink.npkts == 0
    eng.run_until(9_000_000)
    assert (sink.npkts, len(link.in_flight)) == (1, 0)


def line_size(uid):
    return 200 + 100 * uid


def line_packet(uid, sinks):
    """Packet `uid` of `line_run`: from node 0 to `sinks[uid % 2]`, on
    node 1 or 2, `line_size(uid)` bytes."""
    return make_packet(uid, src=0, sink=sinks[uid % 2], size=line_size(uid),
                       birth=uid * 3_000_000)


def line_run(cuts, tracer=None):
    """Packets from node 0 to nodes 1 and 2 over the line 0 - 1 - 2, so
    link 0 -> 1 carries terminating and transit packets, run to each of
    `cuts` in turn. Returns the counters after each cut: every sink's
    (npkts, bytes) and every link's counters."""
    eng = EventEngine()
    net = Network(eng, tracer, 3, [
        (0, 1, 1_000_000, seconds(0.005), DT), (1, 2, 1_000_000, seconds(0.005), DT),
    ])
    sinks = [sink_at(net, node) for node in (1, 2)]
    for uid in range(12):
        pkt = line_packet(uid, sinks)
        eng.schedule(pkt.birth, partial(net.forward, 0, pkt))
    snapshots = []
    for cut in cuts:
        eng.run_until(cut)
        snapshots.append(([(s.npkts, s.bytes) for s in sinks],
                          [(link.enqueued, link.dequeued, link.drops, link.qdisc.held())
                           for link in net.links]))
    return snapshots


def test_untraced_runs_cut_anywhere_credit_the_deliveries_due_by_the_cut():
    # A traced run keeps every arrival event, so its 'r' records hold the
    # true arrival times. Untraced sinks are credited when the last hop
    # starts; cut at every 0.5 ms, often while a last hop is in flight,
    # they still count exactly the deliveries due by the cut, and a run
    # cut once and resumed ends as one uncut run does.
    tracer = ListTracer()
    line_run([seconds(1)], tracer)
    deliveries = [(to, line_size(uid), time) for op, time, _, to, uid in tracer.ops("r")]
    assert len(deliveries) == 12

    def due_by(cut):
        return [(sum(1 for n, _, t in deliveries if n == node and t <= cut),
                 sum(size for n, size, t in deliveries if n == node and t <= cut))
                for node in (1, 2)]

    stop = seconds(0.060)
    assert 0 < sum(npkts for npkts, _ in due_by(stop)) < 12  # some still on the way
    (whole,) = line_run([stop])
    assert whole[0] == due_by(stop)
    for cut in range(0, stop + 1, 500_000):
        first, second = line_run([cut, stop])
        assert first[0] == due_by(cut)
        assert second == whole
