import gc
import hashlib
import json
import shutil
import warnings

import pytest

from minins.cli import main
from minins.golden import golden_dir

from test_analyze import SHARED_FID_CHAIN

TINY = """\
sim duration=2s seed=5
node a
node b
duplex-link a b bw=1Mb delay=1ms queue=droptail
udp f src=a sink=b fid=1
cbr agent=f size=125 interval=100ms start=0s stop=1s
"""


@pytest.fixture
def tiny_scn(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY)
    return path


def test_run_prints_stats_block(tiny_scn, tmp_path, capsys):
    trace = tmp_path / "tiny.tr"
    assert main(["run", str(tiny_scn), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "Estatisticas:" in out
    assert "pacotes_recebidos=10" in out
    assert "tempo_simulacao_s=2" in out
    assert trace.exists()


def test_run_seed_override_changes_nothing_for_pure_cbr(tiny_scn, tmp_path, capsys):
    main(["run", str(tiny_scn), "--trace", str(tmp_path / "a.tr")])
    first = capsys.readouterr().out
    main(["run", str(tiny_scn), "--trace", str(tmp_path / "b.tr"), "--seed", "99"])
    second = capsys.readouterr().out
    assert first == second
    assert (tmp_path / "a.tr").read_bytes() == (tmp_path / "b.tr").read_bytes()


@pytest.mark.parametrize("seed,message", [
    ("-1", "--seed= wants a non-negative integer, got '-1'"),
    ("+5", "--seed= wants a non-negative integer, got '+5'"),
    ("0x5", "--seed= wants a non-negative integer, got '0x5'"),
    ("18446744073709551621", "--seed: value exceeds the maximum 18446744073709551615"),
])
def test_run_seed_follows_the_scenario_seed_rule(tiny_scn, tmp_path, capsys, seed, message):
    trace = tmp_path / "t.tr"
    assert main(["run", str(tiny_scn), "--trace", str(trace), "--seed", seed]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not trace.exists()
    assert main(["run", str(tiny_scn), "--trace", str(trace),
                 "--seed", "0018446744073709551615"]) == 0


EXP_TINY = """\
sim duration=5s seed={seed}
node a
node b
duplex-link a b bw=1Mb delay=1ms queue=droptail
udp f src=a sink=b fid=1
exp agent=f size=125 burst=50ms idle=50ms rate=500kb start=0s stop=5s
"""


def _run_output(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_run_seed_override_equals_seed_in_file(tmp_path, capsys):
    own = tmp_path / "own.scn"
    own.write_text(EXP_TINY.format(seed=5))
    seeded = tmp_path / "seeded.scn"
    seeded.write_text(EXP_TINY.format(seed=9))
    runs = {}
    for name, argv in (("own", [str(own)]), ("override", [str(own), "--seed", "9"]),
                       ("in_file", [str(seeded)])):
        trace = tmp_path / f"{name}.tr"
        out = _run_output(capsys, ["run", *argv, "--trace", str(trace)])
        runs[name] = (out, trace.read_bytes())
    assert runs["override"] == runs["in_file"]
    # stats and trace both move with the seed, so the override is applied
    assert all(own != other for own, other in zip(runs["own"], runs["override"]))


def test_run_trace_override_replaces_the_scenario_trace(tmp_path, capsys):
    in_file = tmp_path / "in_file.tr"
    scn = tmp_path / "traced.scn"
    scn.write_text(TINY + f"trace file={in_file}\n")
    override = tmp_path / "override.tr"
    overridden = _run_output(capsys, ["run", str(scn), "--trace", str(override)])
    assert override.exists() and not in_file.exists()
    assert _run_output(capsys, ["run", str(scn)]) == overridden
    assert in_file.read_bytes() == override.read_bytes()


def test_run_rejects_an_empty_trace_path(tmp_path, capsys, monkeypatch):
    scn = tmp_path / "traced.scn"
    scn.write_text(TINY + f"trace file={tmp_path / 'in_file.tr'}\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(scn), "--trace", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --trace needs a file path\n"
    assert list(tmp_path.iterdir()) == [scn]


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("sim duration=1s\nnode a\nnode a\n")
    assert main(["run", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["duration=1e5000s", f"duration={'9' * 5000}s"])
def test_run_rejects_unbounded_number_before_running(tmp_path, capsys, option):
    bad = tmp_path / "huge.scn"
    bad.write_text(f"sim {option}\nnode a\nnode b\n"
                   "duplex-link a b bw=1Mb delay=1ms queue=droptail\n"
                   "trace file=" + str(tmp_path / "huge.tr") + "\n")
    assert main(["run", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 1: duration: ") and err.count("\n") == 1
    assert not (tmp_path / "huge.tr").exists()


def test_run_closes_scenario_file(tiny_scn, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(tiny_scn), "--trace", str(tmp_path / "t.tr")]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_run_non_utf8_scenario_is_an_error_line(tmp_path, capsys):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(b"sim duration=1s\nnode \xff\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario:") and err.count("\n") == 1


def test_run_unreachable_sink_leaves_no_trace(tmp_path, capsys):
    scn = tmp_path / "lonely.scn"
    trace = tmp_path / "lonely.tr"
    scn.write_text(
        "sim duration=1s\nnode a\nnode b\nnode c\n"
        "duplex-link a b bw=1Mb delay=1ms queue=droptail\n"
        "udp lonely src=a sink=c fid=1\n"
        "cbr agent=lonely size=100 interval=10ms start=0s stop=1s\n"
        f"trace file={trace}\n"
    )
    assert main(["run", str(scn)]) == 1
    assert capsys.readouterr().err == (
        "error: line 6: udp lonely: sink c is unreachable from src a\n"
    )
    assert not trace.exists()


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent.scn"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_analyze_flow_and_check(tiny_scn, tmp_path, capsys):
    trace = tmp_path / "tiny.tr"
    main(["run", str(tiny_scn), "--trace", str(trace)])
    capsys.readouterr()
    code = main(["analyze", str(trace), "--fid", "1", "--src", "0", "--sink", "1",
                 "--bin", "1", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sent=10\n" in out
    assert "received=10\n" in out
    assert "dropped=0\n" in out
    assert "bytes_received=1250\n" in out
    assert "mean_delay_s=0.002\n" in out  # 1 ms tx + 1 ms propagation
    assert "throughput_0s_bps=" in out
    assert "violations=0\n" in out


def test_analyze_counts_flows_that_share_a_fid_apart(tmp_path, capsys):
    scn, trace = tmp_path / "chain.scn", tmp_path / "chain.tr"
    scn.write_text(SHARED_FID_CHAIN)
    main(["run", str(scn), "--trace", str(trace)])
    capsys.readouterr()
    # each agent's own sink: a sends 100 and loses none, b sends 50 and loses 23
    for src, counts in (("0", "sent=100\nreceived=100\ndropped=0\nbytes_received=100000\n"),
                        ("1", "sent=50\nreceived=27\ndropped=23\nbytes_received=27000\n")):
        assert main(["analyze", str(trace), "--fid", "1", "--src", src, "--sink", "2"]) == 0
        assert capsys.readouterr().out.startswith(counts)


# sha256 of `minins analyze TRACE --fid F --src S --sink K --bin 0.5 --check`'s
# stdout on a golden scenario's trace: every count, delay, bin and the
# violation count, byte for byte.
ANALYZE_SHA256 = {
    ("overload_droptail", "1", "0", "1"):
        "ed6cc4aad338099f393ee1e73ac265b60a8d547ec7397e41327c6121943b1bc7",
    ("sfq_pair", "1", "0", "3"): "0aea3cb0c014b8d57f25a70bb62ee5ba8d28d71fd6acfcceba264586cd1bed30",
    ("sfq_pair", "2", "1", "3"): "24bb168512d92108de052cb8eb757c99c1675e92c37968920878af26646344b4",
}


@pytest.mark.parametrize("name, fid, src, sink", sorted(ANALYZE_SHA256))
def test_analyze_keeps_its_output_on_golden_traces(golden_runs, capsys, name, fid, src, sink):
    trace = golden_runs(name).trace_path
    assert main(["analyze", str(trace), "--fid", fid, "--src", src, "--sink", sink,
                 "--bin", "0.5", "--check"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ANALYZE_SHA256[name, fid, src, sink]


def test_analyze_requires_complete_flow_selector(tiny_scn, tmp_path, capsys):
    trace = tmp_path / "tiny.tr"
    main(["run", str(tiny_scn), "--trace", str(trace)])
    assert main(["analyze", str(trace), "--fid", "1"]) == 1
    assert main(["analyze", str(trace)]) == 1


BIN_NEEDS_FLOW = "--bin needs --fid, --src and --sink"
INCOMPLETE_FLOW = "flow statistics need --fid, --src and --sink together"


@pytest.mark.parametrize("extra,message", [
    ([], BIN_NEEDS_FLOW),
    (["--check"], BIN_NEEDS_FLOW),
    (["--fid", "1", "--sink", "1"], INCOMPLETE_FLOW),
])
def test_analyze_bin_without_a_flow_names_every_flow_flag(tiny_scn, tmp_path, capsys,
                                                          extra, message):
    trace = tmp_path / "tiny.tr"
    main(["run", str(tiny_scn), "--trace", str(trace)])
    capsys.readouterr()
    assert main(["analyze", str(trace), "--bin", "1", *extra]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flag,value,message", [
    ("--fid", "-1", "--fid= wants a non-negative integer, got '-1'"),
    ("--fid", "0_1", "--fid= wants a non-negative integer, got '0_1'"),
    ("--fid", "+1", "--fid= wants a non-negative integer, got '+1'"),
    ("--src", "\u0660", "--src= wants a non-negative integer, got '\u0660'"),  # Arabic-Indic 0
    ("--sink", str(2**63), "--sink: value exceeds the maximum 9223372036854775807"),
], ids=["negative", "underscore", "plus-sign", "non-ascii-digit", "above-fid-bound"])
def test_analyze_flow_numbers_follow_the_scenario_integer_rule(tiny_scn, tmp_path, capsys,
                                                                flag, value, message):
    trace = tmp_path / "tiny.tr"
    main(["run", str(tiny_scn), "--trace", str(trace)])
    capsys.readouterr()
    flow = {"--fid": "1", "--src": "0", "--sink": "1", flag: value}
    argv = [arg for pair in flow.items() for arg in pair]
    assert main(["analyze", str(trace), *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # Rejected before the trace is opened: a missing file would exit 2.
    assert main(["analyze", str(tmp_path / "missing.tr"), *argv]) == 1


def _delivery_lines(*deliveries):
    """A trace of fid 1 from node 0 to node 1: (uid, enqueue time, receive
    time) per packet, all on one link, in time order by construction."""
    events = []
    for uid, sent, received in deliveries:
        events += [(sent, "+", uid), (sent, "-", uid), (received, "r", uid)]
    return "".join(f"{op} {time} 0 1 cbr 1000 ------- 1 0.0 1.0 {uid} {uid}\n"
                   for time, op, uid in sorted(events))


def _throughput_keys(out):
    return [line.partition("=")[0] for line in out.splitlines() if line.startswith("throughput_")]


def test_analyze_prints_each_bin_start_exactly(tmp_path, capsys):
    # 1 us bins: two deliveries 1 us apart fall in bins that start at
    # 1.000000 s and 1.000001 s, which 6 significant digits cannot tell apart.
    trace = tmp_path / "hand.tr"
    trace.write_text(_delivery_lines((0, "1.000000000", "1.000000500"),
                                     (1, "1.000000000", "1.000001500")))
    code = main(["analyze", str(trace), "--fid", "1", "--src", "0", "--sink", "1",
                 "--bin", "1e-6", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    keys = _throughput_keys(out)
    assert len(keys) == len(set(keys)) == 1_000_002
    assert keys[-2:] == ["throughput_1s_bps", "throughput_1.000001s_bps"]
    assert out.count("_bps=8000000000.0\n") == 2


@pytest.mark.parametrize("received,width,nbins", [
    ("1.048576000", "1e-6", 2**20 + 1),  # one bin over the limit
    ("0.999999999", "1e-9", 10**9),  # refused at once; the series would need tens of GB
])
def test_analyze_refuses_too_many_bins(tmp_path, capsys, received, width, nbins):
    trace = tmp_path / "hand.tr"
    trace.write_text(_delivery_lines((0, "0.000000000", received)))
    assert main(["analyze", str(trace), "--fid", "1", "--src", "0", "--sink", "1",
                 "--bin", width, "--check"]) == 1
    ns = {"1e-6": 1000, "1e-9": 1}[width]
    assert capsys.readouterr() == (
        "", f"error: --bin: {nbins} throughput bins of {ns} ns; the limit is 1048576\n")


@pytest.mark.parametrize("width", ["1.5e-9", "2.5e-9"])
def test_analyze_bin_width_ties_round_to_even(tmp_path, capsys, width):
    # Both widths make 2 ns bins, so a delivery at 2**21 ns lands in bin
    # 2**20, one past the limit; 3 ns bins would stay under it.
    trace = tmp_path / "hand.tr"
    trace.write_text(_delivery_lines((0, "0.000000000", "0.002097152")))
    assert main(["analyze", str(trace), "--fid", "1", "--src", "0", "--sink", "1",
                 "--bin", width]) == 1
    assert capsys.readouterr().err == (
        "error: --bin: 1048577 throughput bins of 2 ns; the limit is 1048576\n")


@pytest.mark.parametrize("width,received,starts", [
    ("1", "2.500000000", ["0", "1", "2"]),
    ("0.5", "2.500000000", ["0", "0.5", "1", "1.5", "2", "2.5"]),
    ("0.7", "2.500000000", ["0", "0.7", "1.4", "2.1"]),
    ("1e-5", "0.000020000", ["0", "0.00001", "0.00002"]),  # not 1e-05
])
def test_analyze_bin_starts_are_plain_decimal_seconds(tmp_path, capsys, width, received,
                                                      starts):
    trace = tmp_path / "hand.tr"
    trace.write_text(_delivery_lines((0, "0.000000000", received)))
    assert main(["analyze", str(trace), "--fid", "1", "--src", "0", "--sink", "1",
                 "--bin", width]) == 0
    assert _throughput_keys(capsys.readouterr().out) == [f"throughput_{s}s_bps" for s in starts]


def test_analyze_corrupted_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "corrupt.tr"
    trace.write_text("+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7\nnot a line\n")
    assert main(["analyze", str(trace), "--check"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_analyze_lifecycle_violations_exit_2(tmp_path, capsys):
    trace = tmp_path / "bad.tr"
    trace.write_text("r 1.000000000 2 3 cbr 1000 ------- 2 1.0 3.1 0 7\n")
    assert main(["analyze", str(trace), "--check"]) == 2
    captured = capsys.readouterr()
    assert "violations=1" in captured.out


@pytest.mark.parametrize("width", ["0", "-1", "nan", "inf", "1e-12", "1e300"])
def test_analyze_rejects_bad_bin_before_output(tiny_scn, tmp_path, capsys, width):
    trace = tmp_path / "tiny.tr"
    main(["run", str(tiny_scn), "--trace", str(trace)])
    capsys.readouterr()
    code = main(["analyze", str(trace), "--fid", "1", "--src", "0", "--sink", "1",
                 "--bin", width, "--check"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--bin" in captured.err and "Traceback" not in captured.err


def test_analyze_non_ascii_trace_exits_2(tmp_path, capsys):
    good = b"+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7\n"
    for bad in (b"\xff", "\uff17".encode(), "\u00b2".encode()):  # raw byte, full-width 7, superscript 2
        trace = tmp_path / "bad.tr"
        trace.write_bytes(good + good.replace(b" 7\n", b" " + bad + b"\n"))
        assert main(["analyze", str(trace), "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err


@pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_analyze_rejects_a_trace_with_cr_line_ends(cbr_run, tmp_path, capsys, line_end):
    # LF is a trace's only line end: a CR is a control character in its line.
    text = cbr_run.trace_path.read_text(encoding="ascii")
    assert main(["analyze", str(cbr_run.trace_path), "--check"]) == 0
    capsys.readouterr()
    trace = tmp_path / "cr.tr"
    trace.write_bytes(text.replace("\n", line_end).encode("ascii"))
    assert main(["analyze", str(trace), "--check"]) == 2
    assert capsys.readouterr() == ("", "error: line 1: non-printable character\n")


def test_analyze_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent.tr", "--check"]) == 2


def test_validate_directory_with_passing_fixture(tmp_path, capsys):
    name = "overload_droptail"
    shutil.copy(golden_dir() / f"{name}.scn", tmp_path)
    shutil.copy(golden_dir() / f"{name}.expected.json", tmp_path)
    assert main(["validate", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == f"PASS {name}"


def test_validate_flags_tampered_queue_limit(tmp_path, capsys):
    name = "overload_droptail"
    text = (golden_dir() / f"{name}.scn").read_text(encoding="utf-8")
    assert "limit=10" in text
    (tmp_path / f"{name}.scn").write_text(text.replace("limit=10", "limit=12"), encoding="utf-8")
    shutil.copy(golden_dir() / f"{name}.expected.json", tmp_path)
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_flags_tampered_link_delay(tmp_path, capsys):
    # counts survive a delay change here; the trace digest must not
    name = "overload_droptail"
    text = (golden_dir() / f"{name}.scn").read_text(encoding="utf-8")
    assert "delay=5ms" in text
    (tmp_path / f"{name}.scn").write_text(text.replace("delay=5ms", "delay=6ms"), encoding="utf-8")
    shutil.copy(golden_dir() / f"{name}.expected.json", tmp_path)
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "digest" in out


def test_validate_missing_fixture_fails(tmp_path, capsys):
    shutil.copy(golden_dir() / "overload_droptail.scn", tmp_path)
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    assert "missing fixture" in capsys.readouterr().out


def test_validate_reports_every_broken_scenario_and_goes_on(tmp_path, capsys):
    good = "overload_droptail"
    fixture = json.loads((golden_dir() / f"{good}.expected.json").read_text())
    broken_fixtures = {
        "c_no_digest": {"stats": fixture["stats"]},
        "d_digest_not_string": {**fixture, "trace_sha256": 1},
        "e_no_stats": {"trace_sha256": fixture["trace_sha256"]},
        "f_stats_not_list": {**fixture, "stats": "\n".join(fixture["stats"])},
        "g_stats_line_not_string": {**fixture, "stats": fixture["stats"][:-1] + [90.8]},
    }
    for name in ("a_bad_scenario", "b_not_json", *broken_fixtures, good):
        shutil.copy(golden_dir() / f"{good}.scn", tmp_path / f"{name}.scn")
        shutil.copy(golden_dir() / f"{good}.expected.json", tmp_path / f"{name}.expected.json")
    (tmp_path / "a_bad_scenario.scn").write_text("sim duration=1s\nnode a\nnode a\n")
    (tmp_path / "b_not_json.expected.json").write_text("{not json")
    for name, broken in broken_fixtures.items():
        (tmp_path / f"{name}.expected.json").write_text(json.dumps(broken))
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "FAIL a_bad_scenario: line 3: duplicate node name 'a'"
    assert lines[1].startswith("FAIL b_not_json: b_not_json.expected.json is not valid JSON: ")
    assert lines[2:] == [
        "FAIL c_no_digest: c_no_digest.expected.json has no trace_sha256",
        "FAIL d_digest_not_string: d_digest_not_string.expected.json: "
        "trace_sha256 must be a string",
        "FAIL e_no_stats: e_no_stats.expected.json: stats must be a list of strings",
        "FAIL f_stats_not_list: f_stats_not_list.expected.json: "
        "stats must be a list of strings",
        "FAIL g_stats_line_not_string: g_stats_line_not_string.expected.json: "
        "stats must be a list of strings",
        f"PASS {good}",
    ]
    assert err == ""


def test_validate_quotes_the_expected_and_actual_stats_line(tmp_path, capsys):
    name = "overload_droptail"
    shutil.copy(golden_dir() / f"{name}.scn", tmp_path)
    fixture = json.loads((golden_dir() / f"{name}.expected.json").read_text())
    row = fixture["stats"].index("pacotes_recebidos=1135")
    fixture["stats"][row] = "pacotes_recebidos=1136"
    (tmp_path / f"{name}.expected.json").write_text(json.dumps(fixture))
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL {name}: stats line {row + 1}: "
        "expected 'pacotes_recebidos=1136', got 'pacotes_recebidos=1135'\n"
    )


def test_validate_empty_directory_fails(tmp_path, capsys):
    assert main(["validate", "--dir", str(tmp_path)]) == 1
