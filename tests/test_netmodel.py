import itertools

import pytest

from minins.engine import EventEngine, seconds
from minins.errors import SimulationError
from minins.netmodel import Network, Packet, tx_time
from minins.qdisc import QdiscConfig

DT = QdiscConfig("droptail", 50)


class ListTracer:
    def __init__(self):
        self.events = []  # (op, time, from, to, uid)

    def record(self, op, time, from_node, to_node, pkt):
        self.events.append((op, time, from_node, to_node, pkt.uid))

    def close_flush(self):
        pass

    def ops(self, op):
        return [e for e in self.events if e[0] == op]


def make_packet(uid, src, dst, size=1000, fid=1, birth=0):
    return Packet(uid=uid, fid=fid, ptype="cbr", size=size, src=src, sport=0,
                  dst=dst, dport=0, seq=uid, birth=birth)


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


def bind_collector(net, node, clock):
    deliveries = []
    net.bind_receiver(node, 0, lambda pkt: deliveries.append((pkt.uid, clock())))
    return deliveries


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
    routes = net.compute_routes()
    assert routes[0][3] is net.link(0, 2)  # via node 2
    assert routes[2][3] is net.link(2, 3)  # direct
    assert routes[3][0] is net.link(3, 2)


def test_equal_cost_tie_breaks_toward_smaller_next_hop():
    # square: 0-1-3 and 0-2-3 both two hops
    net = Network(EventEngine(), ListTracer(), 4, [
        (0, 1, 1000, 0, DT), (0, 2, 1000, 0, DT), (1, 3, 1000, 0, DT), (2, 3, 1000, 0, DT),
    ])
    routes = net.compute_routes()
    assert routes[0][3].to_node == 1


def test_unreachable_pairs_absent_from_table():
    net = Network(EventEngine(), ListTracer(), 3, [(0, 1, 1000, 0, DT)])
    routes = net.compute_routes()
    assert 2 not in routes[0]
    assert routes[2] == {}


@pytest.mark.parametrize("size,bw,expected", [
    (1000, 10_000_000, 800_000),
    (1000, 1_000_000_000, 8_000),
    (125, 1_000_000_000, 1_000),
])
def test_tx_time_exact(size, bw, expected):
    assert tx_time(size, bw) == expected


def test_single_packet_two_hops_takes_21_6_ms():
    eng, _, net = star_network()
    deliveries = bind_collector(net, 3, eng.now)
    pkt = make_packet(0, src=0, dst=3)
    eng.schedule(0, lambda: net.forward(0, pkt))
    eng.run_until(seconds(1))
    assert deliveries == [(0, 21_600_000)]  # 2 * (0.8 ms + 10 ms)


def test_delivery_at_own_node_has_no_link_events():
    eng, tracer, net = star_network()
    deliveries = bind_collector(net, 2, eng.now)
    pkt = make_packet(0, src=2, dst=2)
    eng.schedule(0, lambda: net.forward(2, pkt))
    eng.run_until(seconds(1))
    assert deliveries == [(0, 0)]
    assert [e[0] for e in tracer.events] == ["r"]


def test_forward_without_route_raises():
    net = Network(EventEngine(), ListTracer(), 3, [(0, 1, 1000, 0, DT)])
    with pytest.raises(SimulationError):
        net.forward(0, make_packet(0, src=0, dst=2))


def test_link_transmits_one_packet_at_a_time():
    # Burst of 5 packets lands at once; '-' events must be spaced by the
    # 0.8 ms transmission time.
    eng, tracer, net = star_network()
    bind_collector(net, 3, eng.now)
    for uid in range(5):
        pkt = make_packet(uid, src=0, dst=3)
        eng.schedule(0, lambda pkt=pkt: net.forward(0, pkt))
    eng.run_until(seconds(1))
    dequeues = [t for op, t, frm, to, uid in tracer.events if op == "-" and (frm, to) == (0, 2)]
    assert len(dequeues) == 5
    for earlier, later in itertools.pairwise(dequeues):
        assert later - earlier >= tx_time(1000, 10_000_000)


def test_fifo_per_link_preserves_receive_order():
    eng, tracer, net = star_network()
    deliveries = bind_collector(net, 3, eng.now)
    for uid in range(10):
        pkt = make_packet(uid, src=1, dst=3, size=500 + 100 * uid)
        eng.schedule(uid * 1000, lambda pkt=pkt: net.forward(1, pkt))
    eng.run_until(seconds(1))
    enqueue_order = [uid for op, t, f, to, uid in tracer.events if op == "+" and (f, to) == (1, 2)]
    assert [uid for uid, _ in deliveries] == enqueue_order


def test_arrival_follows_dequeue_by_tx_plus_delay():
    eng, tracer, net = star_network()
    bind_collector(net, 3, eng.now)
    pkt = make_packet(0, src=2, dst=3, size=250)
    eng.schedule(7, lambda: net.forward(2, pkt))
    eng.run_until(seconds(1))
    (minus_t,) = [t for op, t, *_ in tracer.events if op == "-"]
    (r_t,) = [t for op, t, *_ in tracer.events if op == "r"]
    assert r_t - minus_t == tx_time(250, 10_000_000) + seconds(0.010)


def test_per_link_counters_obey_conservation():
    # slam 100 packets into a tight queue, then stop time mid-drain
    eng = EventEngine()
    net = Network(eng, ListTracer(), 2, [(0, 1, 1_000_000, 0, QdiscConfig("droptail", 5))])
    net.bind_receiver(1, 0, lambda pkt: None)
    for uid in range(100):
        pkt = make_packet(uid, src=0, dst=1)
        eng.schedule(uid * 100, lambda pkt=pkt: net.forward(0, pkt))
    eng.run_until(seconds(0.01))  # cut off while queue still holds packets
    link = net.link(0, 1)
    assert link.enqueued == 100
    assert link.enqueued == link.dequeued + link.drops + link.qdisc.held()
    assert link.drops > 0 and link.qdisc.held() > 0
