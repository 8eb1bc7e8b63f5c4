"""Small helpers the network tests share."""

from minins.units import NS_PER_SEC


def seconds(x: float | int) -> int:
    """Seconds as integer nanoseconds."""
    return round(x * NS_PER_SEC)


def link_between(net, from_node: int, to_node: int):
    """The simplex link `from_node -> to_node` of `net`."""
    (link,) = [link for link in net.links
               if (link.from_node, link.to_node) == (from_node, to_node)]
    return link

