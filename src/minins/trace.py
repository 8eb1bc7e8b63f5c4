"""Per-event trace file: the simulation's durable output.

One line per packet event in global dispatch order, 12 space-separated
fields, LF-terminated ASCII:

    op time from to ptype size flags fid src_addr dst_addr seq uid

op is one of + (enqueue), - (dequeue), r (receive), d (drop); +/-/d are
link events (from = queueing node, to = next hop) and r is delivery at
`to`. Time is decimal seconds with exactly 9 fractional digits so equal
runs produce byte-identical files. Addresses are node.port. The flags
field is reserved and always "-------".

This module is the only one that knows the format: `TraceWriter`
writes it and `parse_line` reads it back.
"""

from __future__ import annotations

from .errors import TraceError
from .units import NS_PER_SEC, format_time_fixed

FLAGS = "-------"
OPS = ("+", "-", "r", "d")


class TraceWriter:
    """Single-owner trace file writer; one line per record() call."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w", encoding="ascii", newline="\n")

    def record(self, op: str, time: int, from_node: int, to_node: int, pkt) -> None:
        self._file.write(
            f"{op} {format_time_fixed(time)} {from_node} {to_node} {pkt.ptype} {pkt.size}"
            f" {FLAGS} {pkt.fid} {pkt.src}.{pkt.sport} {pkt.dst}.{pkt.dport} {pkt.seq} {pkt.uid}\n"
        )

    def close_flush(self) -> None:
        """Flush and close; idempotent. Recording afterwards is an error."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()


class NullTracer:
    """Tracer stand-in when no trace file was requested."""

    path = None

    def record(self, op, time, from_node, to_node, pkt) -> None:
        pass

    def close_flush(self) -> None:
        pass


def _parse_addr(field: str, lineno, what: str) -> tuple[int, int]:
    node, dot, port = field.partition(".")
    if not dot or not node.isdigit() or not port.isdigit():
        raise TraceError(f"bad {what} address {field!r}", lineno)
    return int(node), int(port)


def parse_line(text: str, lineno: int | None = None) -> tuple:
    """Strict parse of one 12-field trace line.

    Returns the 14-tuple (op, time_ns, from_node, to_node, ptype, size,
    flags, fid, src_node, src_port, dst_node, dst_port, seq, uid) in
    written order. Anything else, non-ASCII text included, raises
    TraceError naming `lineno`.
    """
    if not text.isascii():
        raise TraceError("non-ASCII character", lineno)
    fields = text.split()
    if len(fields) != 12:
        raise TraceError(f"expected 12 fields, got {len(fields)}", lineno)
    op, time_s, frm, to, ptype, size, flags, fid, src, dst, seq, uid = fields
    if op not in OPS:
        raise TraceError(f"unknown event type {op!r}", lineno)
    whole, dot, frac = time_s.partition(".")
    if not dot or len(frac) != 9 or not whole.isdigit() or not frac.isdigit():
        raise TraceError(f"bad timestamp {time_s!r} (want 9 fractional digits)", lineno)
    if len(flags) != 7:
        raise TraceError(f"bad flags field {flags!r}", lineno)
    for name, value in (("from", frm), ("to", to), ("size", size),
                        ("fid", fid), ("seq", seq), ("uid", uid)):
        if not value.isdigit():
            raise TraceError(f"bad {name} field {value!r}", lineno)
    try:
        src_node, src_port = _parse_addr(src, lineno, "source")
        dst_node, dst_port = _parse_addr(dst, lineno, "destination")
        return (op, int(whole) * NS_PER_SEC + int(frac), int(frm), int(to), ptype,
                int(size), flags, int(fid), src_node, src_port, dst_node, dst_port,
                int(seq), int(uid))
    except ValueError:  # more digits than int() will convert
        raise TraceError("number too long", lineno) from None
