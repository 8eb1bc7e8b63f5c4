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
text, and `parse_line` reads a line back. One compiled pattern is the
only acceptor of a line, whatever its length. `parse_line` returns the
seven fields the analyzer reads as the text it checked, which the
analyzer compares as text and converts only where it needs a number.
One table of fields states the grammar: it builds that pattern, and,
for a line the pattern rejects, names the first field that breaks it.
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

    The last eight fields never change during a packet's life, so they
    are formatted once, on the packet's first line, into `pkt.tail`.
    A link's " from to" fields are formatted once, on its first line,
    into `link.ends`. The time field is formatted once per instant.
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
            tail = pkt.tail = (
                f" {pkt.ptype} {pkt.size} {FLAGS} {pkt.fid} {pkt.src}.{pkt.sport}"
                f" {pkt.sink.node}.{pkt.sink.port} {pkt.seq} {pkt.uid}\n")
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
# whether parse_line returns it (op, time, from, to, size, fid and uid).
_FIELDS = (
    ("event type", "[-+rd]", True),
    ("time", rf"{_NUM}\.[0-9]{{9}}", True),
    ("from", _NUM, True),
    ("to", _NUM, True),
    ("ptype", "[!-~]+", False),
    ("size", _NUM, True),
    ("flags", "[!-~]{7}", False),
    ("fid", _NUM, True),
    ("source address", _ADDR, False),
    ("destination address", _ADDR, False),
    ("seq", _NUM, False),
    ("uid", _NUM, True),
)
_EVENT = re.compile(" ".join(f"({pattern})" if returned else pattern
                             for _, pattern, returned in _FIELDS) + r"\n?", re.ASCII)


def _fault(text: str) -> str:
    """What is wrong with a line `_EVENT` rejects: a whole-line check it
    fails, or else the first field whose pattern rejects it."""
    if not text.isascii():
        return "non-ASCII character"
    line = text.removesuffix("\n")
    if not line.isprintable():  # tabs, CR and other control characters
        return "non-printable character"
    fields = line.split(" ")
    if len(fields) != len(_FIELDS):
        return f"expected {len(_FIELDS)} fields, got {len(fields)}"
    for (name, pattern, _), value in zip(_FIELDS, fields):
        if re.fullmatch(pattern, value, re.ASCII) is None:
            return f"bad {name} field {value!r}"
    return "malformed line"  # unreachable: twelve matching fields match _EVENT


def parse_line(text: str, lineno: int | None = None) -> tuple[str, ...] | None:
    """Strict parse of one 12-field trace line, as `TraceWriter` writes it:
    single spaces between fields, canonical decimal numbers of at most 20
    digits and at most one trailing LF.

    Returns (op, time, from, to, size, fid, uid) as the text checked,
    all str: time as written ('1.000000000', see `parse_time_fixed`),
    the rest as canonical decimal, which `int()` converts. ptype, flags,
    addresses and seq are checked but not returned. Returns None for a
    blank line: empty, or only spaces before an optional LF. Anything
    else, non-ASCII text included, raises TraceError naming `lineno`.
    """
    match = _EVENT.fullmatch(text)
    if match is not None:
        return match.groups()
    if text.removesuffix("\n").strip(" "):
        raise TraceError(_fault(text), lineno)
    return None
