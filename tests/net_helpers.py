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


def sink_at(net, node: int) -> SinkMonitor:
    """A sink on port 0 of `node`, with the routes of `net` toward `node` computed."""
    net.route_to(node)
    return SinkMonitor(node, 0)
