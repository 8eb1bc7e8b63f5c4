"""Small helpers the network tests share."""

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


class RecordingSink(SinkMonitor):
    """A SinkMonitor that also hands every delivered packet to `record`."""

    def __init__(self, node: int, port: int, record):
        super().__init__(node, port)
        self.record = record

    def on_receive(self, pkt) -> None:
        super().on_receive(pkt)
        self.record(pkt)
