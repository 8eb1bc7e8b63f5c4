"""Per-event trace file: the simulation's durable output.

One line per packet event in global dispatch order, 12 space-separated
fields, LF-terminated ASCII:

    op time from to ptype size flags fid src_addr dst_addr seq uid

op is one of + (enqueue), - (dequeue), r (receive), d (drop); +/-/d are
link events (from = queueing node, to = next hop) and r is delivery at
`to`. Time is decimal seconds with exactly 9 fractional digits so equal
runs produce byte-identical files. Addresses are node.port. The flags
field is reserved and always "-------". Every number is canonical
decimal: 0, or digits with no leading zero, so equal text is equal
value.

This module is the only one that knows the format: `TraceWriter`
writes it, and `parse_line` reads it back: it checks every field and
returns the seven the analyzer reads as the text it checked, which the
analyzer compares as text and converts only where it needs a number. A
short line is matched by one compiled pattern; a long one, or one the
pattern misses, goes through field-by-field checks, which accept the
same lines and name what is wrong with the others.
"""

from __future__ import annotations

import re

from .errors import TraceError
from .units import format_time_fixed

FLAGS = "-------"
OPS = ("+", "-", "r", "d")


class TraceWriter:
    """Single-owner trace file writer; one line per record() call.

    The last eight fields never change during a packet's life, so they
    are formatted once, on the packet's first line, into `pkt.tail`.
    A link's " from to" fields are formatted once, on its first line,
    into `link.ends`. The time field is formatted once per instant.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w", encoding="ascii", newline="\n")
        self._time = -1  # no valid time, so the first record formats its own
        self._time_text = ""

    def record(self, op: str, time: int, link, pkt) -> None:
        """One line for `pkt` on `link`; for 'r', the link it arrived on,
        or None for a delivery at its own node (from and to are pkt.dst)."""
        tail = pkt.tail
        if tail is None:
            tail = pkt.tail = (
                f" {pkt.ptype} {pkt.size} {FLAGS} {pkt.fid} {pkt.src}.{pkt.sport}"
                f" {pkt.dst}.{pkt.dport} {pkt.seq} {pkt.uid}\n")
        if link is None:
            ends = f" {pkt.dst} {pkt.dst}"
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
        if not self._file.closed:
            self._file.flush()
            self._file.close()


# Canonical decimal: 0, or digits with no leading zero.
_NUM = "(?:[1-9][0-9]*|0)"
# The fields parse_line returns: op, time, from, to, size, fid and uid.
# ptype, flags, addresses and seq are only checked.
_EVENT = re.compile(
    rf"([-+rd]) ({_NUM}\.[0-9]{{9}}) ({_NUM}) ({_NUM}) [!-~]+ ({_NUM}) [!-~]{{7}} ({_NUM})"
    rf" {_NUM}\.{_NUM} {_NUM}\.{_NUM} {_NUM} ({_NUM})\n?",
    re.ASCII,
)
# Shorter lines hold no number int() can refuse: 640 is the lowest digit
# limit it can be set to (sys.int_info.str_digits_check_threshold).
_FAST_LEN = 640


def _is_number(text: str) -> bool:
    """Whether ASCII `text` is canonical decimal, as `_NUM` matches."""
    return text.isdigit() and (text[0] != "0" or text == "0")


def _check_addr(field: str, lineno, what: str) -> None:
    node, dot, port = field.partition(".")
    if not dot or not _is_number(node) or not _is_number(port):
        raise TraceError(f"bad {what} address {field!r}", lineno)
    int(node)  # ValueError if too long for int(), as for every number field
    int(port)


def parse_line(text: str, lineno: int | None = None) -> tuple[str, ...]:
    """Strict parse of one 12-field trace line, as `TraceWriter` writes it:
    single spaces between fields, canonical decimal numbers and at most
    one trailing LF.

    Returns (op, time, from, to, size, fid, uid) as the text checked,
    all str: time as written ('1.000000000', see
    `units.parse_time_fixed`), the rest as canonical decimal, which
    `int()` converts. ptype, flags, addresses and seq are checked but not
    returned. Anything else, non-ASCII text included, raises TraceError
    naming `lineno`. A line shorter than `_FAST_LEN` that `_EVENT`
    matches returns its groups; every other line goes through the field
    checks, which raise the error. On short lines they accept exactly
    what `_EVENT` matches.
    """
    match = _EVENT.fullmatch(text) if len(text) < _FAST_LEN else None
    if match is not None:
        return match.groups()
    if not text.isascii():
        raise TraceError("non-ASCII character", lineno)
    line = text.removesuffix("\n")
    if not line.isprintable():  # tabs, CR and other control characters
        raise TraceError("non-printable character", lineno)
    fields = line.split(" ")
    if len(fields) != 12:
        raise TraceError(f"expected 12 fields, got {len(fields)}", lineno)
    op, time_s, frm, to, ptype, size, flags, fid, src, dst, seq, uid = fields
    if op not in OPS:
        raise TraceError(f"unknown event type {op!r}", lineno)
    if not ptype:
        raise TraceError("empty ptype field", lineno)
    whole, dot, frac = time_s.partition(".")
    if not dot or len(frac) != 9 or not _is_number(whole) or not frac.isdigit():
        raise TraceError(f"bad timestamp {time_s!r} (want canonical seconds and 9 fractional"
                         " digits)", lineno)
    if len(flags) != 7:
        raise TraceError(f"bad flags field {flags!r}", lineno)
    for name, value in (("from", frm), ("to", to), ("size", size),
                        ("fid", fid), ("seq", seq), ("uid", uid)):
        if not _is_number(value):
            raise TraceError(f"bad {name} field {value!r}", lineno)
    try:
        _check_addr(src, lineno, "source")
        _check_addr(dst, lineno, "destination")
        for value in (whole + frac, frm, to, size, fid, seq, uid):
            int(value)
    except ValueError:  # more digits than int() will convert
        raise TraceError("number too long", lineno) from None
    return op, time_s, frm, to, size, fid, uid
