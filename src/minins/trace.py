"""Per-event trace file: the simulation's durable output.

One line per packet event in global dispatch order, 12 space-separated
fields, LF-terminated ASCII:

    op time from to ptype size flags fid src_addr dst_addr seq uid

op is one of + (enqueue), - (dequeue), r (receive), d (drop); +/-/d are
link events (from = queueing node, to = next hop) and r is delivery at
`to`. Time is decimal seconds with exactly 9 fractional digits so equal
runs produce byte-identical files. Addresses are node.port. The flags
field is reserved and always "-------". Every number is canonical
decimal: 0, or at most 20 digits with no leading zero, so equal text is
equal value. 2**64 - 1 has 20 digits, and no number that short reaches
a digit limit of `int()`.

This module is the only one that knows the format: `TraceWriter`
writes it, `format_time_fixed` and `parse_time_fixed` are its time
text, `open_trace` opens a trace for reading and `parse_line` reads a
line back. The writer formats each part of a line once for all the
lines that repeat it, in four caches: the six fields from ptype to the
destination address once per generator, a packet's eight constant
fields once per packet, a link's from and to once per link, and the
time once per instant. One table of field
patterns, `_FIELDS`, is the grammar, and each pattern is compiled
once, into `_MATCHERS`, the only acceptor of a field. `parse_line`
splits a line at its spaces and runs the matchers one field at a time,
in table order, so the first field its matcher rejects names the
fault. No field admits a space, so a line splits one way only. The analyzer checks a
line's op, time, from and to with the same matchers, once per distinct
text, and its other eight fields, which are the same on every line of
a packet, once per packet with `_TAIL`, those eight patterns joined
into one. `parse_line` returns the nine fields the analyzer reads as
the text it checked, which the analyzer compares as text and converts
only where it needs a number.
"""

from __future__ import annotations

import re

from .errors import TraceError

FLAGS = "-------"


def format_time_fixed(ns: int) -> str:
    """Non-negative nanoseconds as decimal seconds with exactly 9
    fractional digits: '0.000000001', '500.000000000'."""
    digits = str(ns).zfill(10)
    return f"{digits[:-9]}.{digits[-9:]}"


def parse_time_fixed(text: str) -> int:
    """Nanoseconds from `format_time_fixed`'s text; its inverse.

    Does not check the text: `parse_line` has checked every time it
    returns.
    """
    return int(text.replace(".", ""))


class TraceWriter:
    """Single-owner trace file writer; one line per record() call.

    It keeps four caches. The six fields from ptype to the destination
    address are the same on every packet a generator sends, so they are
    formatted once, on its first packet's first line, into
    `origin.trace_prefix`. A packet's last eight fields never change
    during its life, so they are formatted once, on its first line, as
    that prefix plus its seq and uid, into `pkt.tail`. A link's
    " from to" fields are formatted once, on its first line, into
    `link.ends`. The time field is formatted once per instant.
    """

    def __init__(self, path):
        self._file = open(path, "w", encoding="ascii", newline="\n")
        self._time = -1  # no valid time, so the first record formats its own
        self._time_text = ""

    def record(self, op: str, time: int, link, pkt) -> None:
        """One line for `pkt` on `link`; for 'r', the link it arrived on,
        or None for a delivery at its own node (from and to are its sink's)."""
        tail = pkt.tail
        if tail is None:
            origin = pkt.origin
            prefix = origin.trace_prefix
            if prefix is None:
                agent = origin.agent
                prefix = origin.trace_prefix = (
                    f" {origin.ptype} {origin.size} {FLAGS} {agent.fid} {agent.node}.{agent.port}"
                    f" {agent.sink.node}.{agent.sink.port} ")
            tail = pkt.tail = f"{prefix}{pkt.seq} {pkt.uid}\n"
        if link is None:
            ends = f" {pkt.sink.node} {pkt.sink.node}"
        else:
            ends = link.ends
            if ends is None:
                ends = link.ends = f" {link.from_node} {link.to_node}"
        if time != self._time:
            self._time = time
            self._time_text = format_time_fixed(time)
        self._file.write(f"{op} {self._time_text}{ends}{tail}")

    def close_flush(self) -> None:
        """Flush and close; idempotent. Recording afterwards is an error."""
        self._file.close()


# Canonical decimal: 0, or at most _MAX_DIGITS digits with no leading zero.
_MAX_DIGITS = 20
_NUM = f"(?:[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}|0)"
_ADDR = rf"{_NUM}\.{_NUM}"
# The line grammar, written once: each field's name, its pattern, and
# whether parse_line returns it (all but ptype, flags and seq).
_FIELDS = (
    ("event type", "[-+rd]", True),
    ("time", rf"{_NUM}\.[0-9]{{9}}", True),
    ("from", _NUM, True),
    ("to", _NUM, True),
    ("ptype", "[!-~]+", False),
    ("size", _NUM, True),
    ("flags", "[!-~]{7}", False),
    ("fid", _NUM, True),
    ("source address", _ADDR, True),
    ("destination address", _ADDR, True),
    ("seq", _NUM, False),
    ("uid", _NUM, True),
)


# Each field's pattern, compiled once: the only acceptor of a field.
_MATCHERS = tuple(re.compile(pattern, re.ASCII).fullmatch for _, pattern, _ in _FIELDS)
# The eight fields after op, time, from and to, which every line of a
# packet repeats, and the optional LF, grouped where parse_line returns
# the field: the analyzer's once-per-packet check.
_TAIL = re.compile(" ".join(f"({pattern})" if returned else pattern
                            for _, pattern, returned in _FIELDS[4:]) + r"\n?", re.ASCII)


def open_trace(path):
    """The trace at `path`, opened for reading as `parse_line` needs it.

    Undecodable bytes reach `parse_line` as surrogates, which it rejects
    by line; LF is the only line end, so a CR stays in its line and is
    rejected.
    """
    return open(path, encoding="ascii", errors="surrogateescape", newline="\n")


def parse_line(text: str, lineno: int | None = None) -> tuple[str, ...] | None:
    """Strict parse of one 12-field trace line, as `TraceWriter` writes it:
    single spaces between fields, canonical decimal numbers of at most 20
    digits and at most one trailing LF.

    Returns (op, time, from, to, size, fid, src_addr, dst_addr, uid) as
    the text checked, all str: time as written ('1.000000000', see
    `parse_time_fixed`), each address as `node.port`, the rest as
    canonical decimal, which `int()` converts. ptype, flags and seq are
    checked but not returned. Returns None for a blank line: empty, or
    only spaces before an optional LF. Anything else, non-ASCII text
    included, raises TraceError naming `lineno` and the first fault
    found: a non-ASCII character, then a non-printable one (a tab, CR
    or other control character), then a field count other than 12, then
    the first field, in line order, that its pattern rejects.
    """
    line = text.removesuffix("\n")
    if not line.strip(" "):
        return None
    if not text.isascii():
        raise TraceError("non-ASCII character", lineno)
    if not line.isprintable():
        raise TraceError("non-printable character", lineno)
    fields = line.split(" ")
    if len(fields) != len(_FIELDS):
        raise TraceError(f"expected {len(_FIELDS)} fields, got {len(fields)}", lineno)
    for (name, _, _), match, value in zip(_FIELDS, _MATCHERS, fields):
        if match(value) is None:
            raise TraceError(f"bad {name} field {value!r}", lineno)
    return tuple(value for (_, _, returned), value in zip(_FIELDS, fields) if returned)
