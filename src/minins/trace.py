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
Field-by-field checks only name what is wrong with a line the pattern
rejects.
"""

from __future__ import annotations

import re

from .errors import TraceError

FLAGS = "-------"
OPS = ("+", "-", "r", "d")


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
# The fields parse_line returns: op, time, from, to, size, fid and uid.
# ptype, flags, addresses and seq are only checked.
_EVENT = re.compile(
    rf"([-+rd]) ({_NUM}\.[0-9]{{9}}) ({_NUM}) ({_NUM}) [!-~]+ ({_NUM}) [!-~]{{7}} ({_NUM})"
    rf" {_NUM}\.{_NUM} {_NUM}\.{_NUM} {_NUM} ({_NUM})\n?",
    re.ASCII,
)


def _is_number(text: str) -> bool:
    """Whether ASCII `text` is a number as `_NUM` matches it."""
    return text.isdigit() and (text[0] != "0" or text == "0") and len(text) <= _MAX_DIGITS


def _fault(text: str) -> str:
    """What is wrong with a line `_EVENT` rejects: the first field check
    it fails, or 'malformed line' if it fails none."""
    if not text.isascii():
        return "non-ASCII character"
    line = text.removesuffix("\n")
    if not line.isprintable():  # tabs, CR and other control characters
        return "non-printable character"
    fields = line.split(" ")
    if len(fields) != 12:
        return f"expected 12 fields, got {len(fields)}"
    op, time_s, frm, to, ptype, size, flags, fid, src, dst, seq, uid = fields
    if op not in OPS:
        return f"unknown event type {op!r}"
    if not ptype:
        return "empty ptype field"
    whole, dot, frac = time_s.partition(".")
    if not dot or len(frac) != 9 or not _is_number(whole) or not frac.isdigit():
        return f"bad timestamp {time_s!r} (want canonical seconds and 9 fractional digits)"
    if len(flags) != 7:
        return f"bad flags field {flags!r}"
    for name, value in (("from", frm), ("to", to), ("size", size),
                        ("fid", fid), ("seq", seq), ("uid", uid)):
        if not _is_number(value):
            return f"bad {name} field {value!r}"
    for what, addr in (("source", src), ("destination", dst)):
        node, dot, port = addr.partition(".")
        if not dot or not _is_number(node) or not _is_number(port):
            return f"bad {what} address {addr!r}"
    return "malformed line"


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
