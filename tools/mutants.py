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
      "tests/test_scenario.py::test_error_texts[line 5: queue limit must be >= 1]"]),
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
    ("analyze.py", "    del live[tail_text]\n            if to != flow.sink:",
     "    if to == flow.sink:\n                del live[tail_text]\n"
     "            if to != flow.sink:",
     ["tests/test_analyze.py::test_every_delivery_retires_the_packet"]),
    # a delivery at the packet's own source not counted as its start
    ("analyze.py", '(op == "+" or op == "r" and frm == to) and frm == flow.source',
     'op == "+" and frm == flow.source',
     ["tests/test_analyze.py::test_flow_stats_match_the_run_for_own_source_and_multi_hop_flows"]),
    # a packet's start that leaves its first-send time unset, so no delay is known
    ("analyze.py", "                pkt.birth = time\n", "",
     ["tests/test_analyze.py::test_flow_stats_on_golden_run"]),
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
    ("trace.py", r'for _, pattern, returned in _FIELDS[4:]) + r"\n?"',
     r'for _, pattern, returned in _FIELDS[4:]) + r"\n*"',
     ["tests/test_analyze.py::test_parse_rejects_whitespace_the_writer_never_writes"]),
    # parse_line's field loop passing a bad seq
    ("trace.py", "        if match(value) is None:\n",
     '        if match(value) is None and name != "seq":\n',
     ["tests/test_trace.py::test_each_field_names_itself[seq]"]),
    # the analyzer checking the time with ptype's looser matcher; a stricter
    # one would be masked, as parse_line then accepts the line
    ("analyze.py", "match_time, match_from, match_to = _MATCHERS[1:4]",
     "match_time, match_from, match_to = _MATCHERS[4], *_MATCHERS[2:4]",
     ["tests/test_analyze.py::test_a_later_line_has_its_head_checked"]),
    # a trace read with universal newlines, so CR and CRLF end a line; the
    # writer's open also ends in newline=, so the old text starts at errors=
    ("trace.py", 'errors="surrogateescape", newline="\\n")', 'errors="surrogateescape")',
     ["tests/test_cli.py::test_analyze_rejects_a_trace_with_cr_line_ends"]),
    # a trace's undecodable bytes raising UnicodeDecodeError, not a line's TraceError
    ("trace.py", ', errors="surrogateescape"', "",
     ["tests/test_cli.py::test_analyze_non_ascii_trace_exits_2"]),
    # a scenario file read as Latin-1, so bytes that are not UTF-8 parse
    ("scenario.py", 'encoding="utf-8"', 'encoding="latin-1"',
     ["tests/test_cli.py::test_run_non_utf8_scenario_is_an_error_line"]),
    # a packet's record found by its uid alone when its tail text is new,
    # so a later line of the packet with other constant fields goes unchecked
    ("analyze.py", "pkt = live.get(tail_text)\n",
     "pkt = live.get(tail_text) or next(\n"
     "            (p for p in live.values() if p.uid == tail_text.split()[-1]), None)\n",
     ["tests/test_analyze.py::test_a_packets_later_line_has_its_tail_checked"]),
    # parse_line's whole-line checks, each one skipped
    ("trace.py", "if not text.isascii():", "if False:",
     ["tests/test_analyze.py::test_parse_rejects_non_ascii"]),
    ("trace.py", "if not line.isprintable():", "if False:",
     ["tests/test_cli.py::test_analyze_rejects_a_trace_with_cr_line_ends"]),
    ("trace.py", "if len(fields) != len(_FIELDS):", "if False:",
     ["tests/test_analyze.py::test_parse_rejects_wrong_field_count"]),
    # a generator's constant trace fields cached on its agent, so every
    # generator of one agent writes the first one's ptype and size
    ("trace.py",
     "            prefix = origin.trace_prefix\n"
     "            if prefix is None:\n"
     "                agent = origin.agent\n"
     "                prefix = origin.trace_prefix = (\n",
     '            prefix = getattr(origin.agent, "trace_prefix", None)\n'
     "            if prefix is None:\n"
     "                agent = origin.agent\n"
     "                prefix = agent.trace_prefix = (\n",
     ["tests/test_sim.py::test_one_agent_driven_by_two_generators"]),
    # every generator's ptype the CBR word, whatever its directive
    ("traffic.py", "self.ptype = spec.kind", 'self.ptype = "cbr"',
     ["tests/test_sim.py::test_one_agent_driven_by_two_generators"]),
    # from and to never checked
    ("analyze.py", "if frm not in nodes or to not in nodes:", "if False:",
     ["tests/test_analyze.py::test_a_later_line_has_its_head_checked",
      "tests/test_analyze.py::test_analyze_trace_raises_at_the_first_line_parse_line_rejects"]),
    # a drop credited to the arriving packet's sink, not to the victim's
    ("netmodel.py", "victim.sink.nlost += 1", "pkt.sink.nlost += 1",
     ["tests/test_acceptance.py::test_criterion_7_online_offline_equivalence"]),
    # a generator whose start equals its stop still opens its on period
    ("traffic.py", "if self.spec.start < self.spec.stop:", "if self.spec.start <= self.spec.stop:",
     ["tests/test_sim.py::test_zero_duration_run_is_valid"]),
    # a CBR generator's first send made inline when its on period opens,
    # not as an event of its own; none of the four golden digests moves,
    # but the events per packet do, and so does the traced mesh_overload
    ("traffic.py", "self.engine.schedule(self.engine.now, self._send)", "self._send()",
     ["tests/test_sim.py::test_cbr_golden_untraced_costs_two_events_per_packet",
      "tests/test_sim.py::test_cbr_golden_traced_costs_three_events_per_packet"]),
    # a traced idle hop sent without queue calls: its '+' and '-' lines
    # are the same, but no enqueue or dequeue records them
    ("netmodel.py", "        if idle and tracer is None:\n",
     "        if idle and tracer is not None:\n"
     '            tracer.record("+", now, link, pkt)\n'
     "            link.qdisc.serve(pkt)\n"
     '            tracer.record("-", now, link, pkt)\n'
     "            self._start_tx(link, pkt)\n"
     "            return\n"
     "        if idle and tracer is None:\n",
     ["tests/test_netmodel.py::test_links_conserve_packets_in_counters_and_trace"]),
    # a link still busy for an event at the transmit-complete time that
    # comes after its key
    ("netmodel.py", "now < free_at or", "now <= free_at or",
     ["tests/test_netmodel.py::test_link_is_idle_from_its_transmit_complete_key"]),
    # a transmit-complete event pushed when nothing waits
    ("netmodel.py", "if link.enqueued - link.drops > link.dequeued:",
     "if link.enqueued - link.drops >= link.dequeued:",
     ["tests/test_netmodel.py::test_link_transmits_one_packet_at_a_time"]),
    # a packet queued on an idle link never started
    ("netmodel.py", "        elif idle:\n            self._start_tx(link)\n", "",
     ["tests/test_netmodel.py::test_single_packet_two_hops_takes_21_6_ms"]),
    # an untraced delivery due exactly at the limit left to an arrival event
    ("netmodel.py", "arrive_at <= engine.limit", "arrive_at < engine.limit",
     ["tests/test_netmodel.py::"
      "test_untraced_delivery_due_by_the_limit_is_credited_when_the_last_hop_starts"]),
    # a drop the link does not count
    ("netmodel.py", "            link.drops += 1\n", "",
     ["tests/test_netmodel.py::test_per_link_counters_obey_conservation"]),
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
