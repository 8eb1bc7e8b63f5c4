import gc
import shutil
import warnings

import pytest

from minins.cli import main
from minins.golden import golden_dir

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


def test_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("sim duration=1s\nnode a\nnode a\n")
    assert main(["run", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


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


def test_analyze_requires_complete_flow_selector(tiny_scn, tmp_path, capsys):
    trace = tmp_path / "tiny.tr"
    main(["run", str(tiny_scn), "--trace", str(trace)])
    assert main(["analyze", str(trace), "--fid", "1"]) == 1
    assert main(["analyze", str(trace)]) == 1


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
    text = (golden_dir() / f"{name}.scn").read_text()
    assert "limit=10" in text
    (tmp_path / f"{name}.scn").write_text(text.replace("limit=10", "limit=12"))
    shutil.copy(golden_dir() / f"{name}.expected.json", tmp_path)
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_flags_tampered_link_delay(tmp_path, capsys):
    # counts survive a delay change here; the trace digest must not
    name = "overload_droptail"
    text = (golden_dir() / f"{name}.scn").read_text()
    assert "delay=5ms" in text
    (tmp_path / f"{name}.scn").write_text(text.replace("delay=5ms", "delay=6ms"))
    shutil.copy(golden_dir() / f"{name}.expected.json", tmp_path)
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "digest" in out


def test_validate_missing_fixture_fails(tmp_path, capsys):
    shutil.copy(golden_dir() / "overload_droptail.scn", tmp_path)
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    assert "missing fixture" in capsys.readouterr().out


def test_validate_empty_directory_fails(tmp_path, capsys):
    assert main(["validate", "--dir", str(tmp_path)]) == 1
