"""Unit parsing and formatting at the text boundaries.

Internally everything is integer nanoseconds and integer bits/second;
decimal unit suffixes exist only in scenario files, trace files, and
printed statistics. Parsing is exact (no float round-trips) so that
"0.005s" means precisely 5_000_000 ns.
"""

from __future__ import annotations

import re

from .errors import ScenarioError

NS_PER_SEC = 1_000_000_000
# Largest time (ns), bandwidth (b/s) or integer option a scenario may give.
MAX_VALUE = 2**63 - 1

_DECIMAL = re.compile(r"([0-9]+)(?:\.([0-9]+))?", re.ASCII)  # README's <number>
_TIME_DIGITS = {"s": 9, "ms": 6, "us": 3, "ns": 0}  # unit as a power of ten ns
_BW_DIGITS = {"Mb": 6, "kb": 3, "b": 0}  # unit as a power of ten b/s


def bounded_int(digits: str, what: str, maximum: int = MAX_VALUE) -> int:
    """int() of a string of ASCII digits, or ScenarioError above `maximum`.

    The length is checked first, so no digit string is too long to check.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(maximum)) or int(digits) > maximum:
        raise ScenarioError(f"{what} exceeds the maximum {maximum}")
    return int(digits)


def parse_time(text: str) -> int:
    """Parse '<number>s|ms|us|ns' to integer nanoseconds, exactly.

    <number> is plain decimal, <digits>[.<digits>]; the result must be a
    whole number of nanoseconds no larger than MAX_VALUE.
    """
    for suffix in ("ms", "us", "ns", "s"):  # longest suffixes first
        if text.endswith(suffix):
            match = _DECIMAL.fullmatch(text[: -len(suffix)])
            if match is None:
                raise ScenarioError(f"bad time value {text!r}")
            whole, frac = match.group(1), (match.group(2) or "").rstrip("0")
            places = _TIME_DIGITS[suffix]
            if len(frac) > places:
                raise ScenarioError(f"time {text!r} is not a whole number of nanoseconds")
            return bounded_int(whole + frac.ljust(places, "0"), "time in ns")
    raise ScenarioError(f"unknown time unit in {text!r} (expected s, ms, us or ns)")


def parse_bandwidth(text: str) -> int:
    """Parse '<int>Mb|kb|b' (decimal) to integer bits/second, at most MAX_VALUE."""
    for suffix in ("Mb", "kb", "b"):
        if text.endswith(suffix):
            number = text[: -len(suffix)]
            if not (number.isascii() and number.isdigit()):
                raise ScenarioError(f"bad bandwidth value {text!r} (integer required)")
            value = bounded_int(number + "0" * _BW_DIGITS[suffix], "bandwidth in b/s")
            if value <= 0:
                raise ScenarioError(f"bandwidth {text!r} must be positive")
            return value
    raise ScenarioError(f"unknown bandwidth unit in {text!r} (expected Mb, kb or b)")


def format_time_short(ns: int) -> str:
    """Nanoseconds as decimal seconds, trailing zeros trimmed ('500', '0.5')."""
    whole, frac = divmod(ns, NS_PER_SEC)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:09d}".rstrip("0")
