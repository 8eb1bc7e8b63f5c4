"""Small helpers the network tests share."""

from types import SimpleNamespace

from minins.netmodel import Packet
from minins.traffic import SinkMonitor
from minins.units import NS_PER_SEC


def seconds(x: float | int) -> int:
    """Seconds as integer nanoseconds."""
    return round(x * NS_PER_SEC)


def link_between(net, from_node: int, to_node: int):
    """The simplex link `from_node -> to_node` of `net`."""
    (link,) = [link for link in net.links
               if (link.from_node, link.to_node) == (from_node, to_node)]
    return link


def sink_at(net, node: int) -> SinkMonitor:
    """A sink on port 0 of `node`, with the routes of `net` toward `node` computed."""
    net.route_to(node)
    return SinkMonitor(node, 0)


class ListTracer:
    """A tracer that keeps every record, in order, as (op, time, from, to,
    uid); a delivery at the packet's own node is from and to that node."""

    def __init__(self):
        self.events = []

    def record(self, op, time, link, pkt):
        ends = (pkt.sink.node, pkt.sink.node) if link is None else (link.from_node, link.to_node)
        self.events.append((op, time, *ends, pkt.uid))

    def close_flush(self):
        pass

    def ops(self, op):
        return [e for e in self.events if e[0] == op]

    def deliveries(self, node):
        """(uid, time) of every 'r' at `node`, in delivery order."""
        return [(uid, time) for op, time, _, to, uid in self.events if op == "r" and to == node]


class StandInOrigin:
    """What a packet's sender holds for the trace writer and
    `Packet.__repr__`, without an engine or a network: a generator of
    `ptype` and `size` driving an agent on `src`, port `sport`, that
    sends flow `fid` to `sink`."""

    def __init__(self, sink, ptype="cbr", size=1000, fid=1, src=0, sport=0):
        self.ptype = ptype
        self.size = size
        self.agent = SimpleNamespace(fid=fid, node=src, port=sport, sink=sink)
        self.trace_prefix = None

    def packet(self, uid, seq, birth=0):
        """A packet as `UdpAgent.send` makes it for this origin."""
        return Packet(uid, self.agent.fid, self.size, seq, birth, self.agent.sink, self)
