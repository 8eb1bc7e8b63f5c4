#!/usr/bin/env python3
"""Apply hand-made mutants of `src/minins` one at a time and check that
the tests named for each one kill it.

Usage: python tools/mutants.py

Each entry of MUTANTS names a file under `src/minins`, a piece of its
text that must occur exactly once, the text that replaces it, and
either the tests that must fail once it is replaced or
"equivalent: <why>". For each entry that names tests, the package is
copied to a temporary directory, the entry is applied to the copy, and
only those tests run, in one pytest process, with that copy as
PYTHONPATH. An equivalent entry is only checked to still match its
file. Before any mutant, every named test runs once on an unchanged
copy, and must pass there.

Prints one line per entry: killed, survived or equivalent. Exits 1 if
any mutant survives, an entry's text is not found exactly once, or a
run errs (a pytest exit code other than 0 or 1).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minins"

# `Network._start_tx`: reserving the end-of-transmission number, then
# crediting or scheduling the arrival
_RESERVE = "        free_seq = link.free_seq = engine.reserve()\n"
_ARRIVAL = (
    "        arrive_at = free_at + link.delay\n"
    "        if tracer is None and pkt.sink.node == link.to_node and arrive_at <= engine.limit:\n"
    "            pkt.sink.on_receive(pkt)  # due by the limit: credit it now\n"
    "        else:\n"
    "            link.in_flight.append(pkt)\n"
    "            engine.schedule(arrive_at, link.arrive)\n")

_ORACLE = "tests/test_acceptance.py::test_micro_oracle"

# (file under src/minins, exact old text, new text, killing tests | "equivalent: why")
MUTANTS = [
    ("analyze.py", "if nbins > _MAX_BINS:", "if nbins >= _MAX_BINS:",
     ["tests/test_analyze.py::test_throughput_series_stops_at_the_bin_limit"]),
    ("netmodel.py", "pkt.sink.node == link.to_node and arrive_at <= engine.limit:",
     "pkt.sink.node == link.to_node:",
     ["tests/test_differential.py"]),
    ("qdisc.py", "        self._rr = idx\n", "",
     ["tests/test_qdisc.py::test_serve_leaves_what_enqueue_then_dequeue_leaves",
      f"{_ORACLE}[sfq-untraced]"]),
    ("traffic.py", "if on_end < self.spec.stop:", "if on_end <= self.spec.stop:",
     ["tests/test_traffic.py::test_exp_generator_matches_the_on_off_reference"]),
    ("traffic.py", "if on_at < self.spec.stop:", "if on_at <= self.spec.stop:",
     ["tests/test_traffic.py::test_exp_generator_matches_the_on_off_reference"]),
    ("qdisc.py", "if len(self._q) < self.limit:", "if len(self._q) <= self.limit:",
     ["tests/test_qdisc.py::test_droptail_accepts_until_limit_then_drops_arrival"]),
    # a flow found by fid and sink node alone: agents that share both merge
    ("analyze.py", "names = (fid, src, dst)", 'names = (fid, dst.partition(".")[0])',
     ["tests/test_differential.py"]),
    # the arrival scheduled before the transmit-complete number is reserved
    ("netmodel.py", _RESERVE + _ARRIVAL, _ARRIVAL + _RESERVE,
     [f"{_ORACLE}[criterion_8-traced]", f"{_ORACLE}[sfq-traced]",
      f"{_ORACLE}[zero_transmit_time-traced]"]),
    # a generator whose start equals its stop, or whose stop equals the duration
    ("scenario.py", "if spec.start > spec.stop:", "if spec.start >= spec.stop:",
     ["tests/test_sim.py::test_zero_duration_run_is_valid"]),
    ("scenario.py", "if gen.stop > duration:", "if gen.stop >= duration:",
     ["tests/test_scenario.py::test_parse_minimal_scenario"]),
    ("scenario.py", "if limit < 1:", "if limit < 0:",
     ["tests/test_scenario.py::test_error_texts[line 4: queue limit must be >= 1]",
      "tests/test_qdisc.py::test_config_validation"]),
    ("scenario.py", "if component[agent.src] != component[agent.sink]:", "if False:",
     ["tests/test_scenario.py::test_error_texts[line 6: udp lonely: sink c is unreachable "
      "from src a]",
      "tests/test_cli.py::test_run_unreachable_sink_leaves_no_trace"]),
    # SFQ evicting from the lowest-indexed of the longest buckets, not the highest
    ("qdisc.py", "max(self._busy, key=", "max(reversed(self._busy), key=",
     ["tests/test_qdisc.py::test_sfq_matches_plain_list_reference",
      "tests/test_sim.py::test_traced_mesh_overload_keeps_its_trace"]),
    ("engine.py", "if time < self.now:", "if time < self.now - 1:",
     ["tests/test_engine.py::test_scheduling_in_the_past_rejected"]),
    # a reserved number equal to the dispatched event's, at its time, accepted
    ("engine.py", "seq <= self.seq:", "seq < self.seq:",
     ["tests/test_engine.py::test_reserved_key_must_come_after_the_dispatched_event"]),
    # a packet's record retired only by a delivery at its destination
    ("analyze.py", "    del live[tail_text]\n            if frm == to == flow.source:",
     "    if to == flow.sink:\n                del live[tail_text]\n"
     "            if frm == to == flow.source:",
     ["tests/test_analyze.py::test_every_delivery_retires_the_packet"]),
    # a packet that starts at its source with a uid not above an earlier one's, accepted
    ("analyze.py", 'violations.append(f"line {lineno}: uid {uid} reused")', "pass",
     ["tests/test_analyze.py::test_conservation_catches_a_reused_uid"]),
    # a CBR send due exactly at the generator's stop instant still made
    ("traffic.py", "if nxt < self._send_until:", "if nxt <= self._send_until:",
     ["tests/test_traffic.py::test_cbr_send_exactly_at_stop_instant_is_cancelled"]),
    # a busy link's transmit-complete event scheduled again for each packet
    # that joins a non-empty queue, not only for the first one waiting
    ("netmodel.py", "elif link.enqueued - link.drops == link.dequeued + 1:",
     "elif link.enqueued - link.drops >= link.dequeued + 1:",
     ["tests/test_netmodel.py::test_per_link_counters_obey_conservation"]),
    # a trace line that ends in more than one newline accepted
    ("trace.py", r'" ".join(_groups(_FIELDS[_HEAD_FIELDS:])) + r"\n?"',
     r'" ".join(_groups(_FIELDS[_HEAD_FIELDS:])) + r"\n*"',
     ["tests/test_analyze.py::test_parse_rejects_whitespace_the_writer_never_writes"]),
    # a packet's checked tail found by its uid field alone, so a later
    # line of the packet with other constant fields goes unchecked
    ("analyze.py", "tail_text = line[head.end():]", 'tail_text = line.rpartition(" ")[2]',
     ["tests/test_analyze.py::test_a_packets_later_line_has_its_tail_checked"]),
    ("netmodel.py", "engine.seq < link.free_seq", "engine.seq <= link.free_seq",
     "equivalent: free_seq is only ever the number of the link's own transmit-complete "
     "event, which never calls forward, so engine.seq never equals it there"),
]


def run_tests(src: Path, tests: list[str]) -> int:
    """Exit code of one pytest process over `tests`, importing minins from `src`."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def copy_package(tmp: Path) -> Path:
    """A copy of src/minins under `tmp`; returns the directory to put on PYTHONPATH."""
    src = tmp / "src"
    shutil.copytree(PACKAGE, src / "minins", ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    began = time.monotonic()
    failures = 0
    for file, old, _, _ in MUTANTS:
        if (PACKAGE / file).read_text(encoding="utf-8").count(old) != 1:
            print(f"error: {file}: {old!r} does not occur exactly once")
            failures += 1
    if failures:
        return 1
    named = sorted({test for *_, tests in MUTANTS if not isinstance(tests, str) for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        code = run_tests(copy_package(Path(tmp)), named)
    if code != 0:
        print(f"error: the named tests do not pass on the unchanged package (pytest exit {code})")
        return 1
    for file, old, new, tests in MUTANTS:
        label = f"{file}: {old.strip()!r} -> {new.strip()!r}"
        if isinstance(tests, str):
            print(f"equivalent  {label}  ({tests.removeprefix('equivalent: ')})")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_package(Path(tmp))
            path = src / "minins" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            code = run_tests(src, tests)
        if code == 1:
            print(f"killed      {label}")
        else:
            print(f"{'survived' if code == 0 else f'error {code}':<11} {label}")
            failures += 1
    print(f"{len(MUTANTS)} mutants, {failures} not killed, {time.monotonic() - began:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
