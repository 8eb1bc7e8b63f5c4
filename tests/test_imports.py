"""What importing the package and running it load: counted in a fresh
interpreter, not timed.

Every `minins` process pays for its imports before it simulates
anything, so the package keeps heavy standard modules off that path,
and an untraced run keeps off it the trace codec and the analyzer,
which only traced runs and `minins analyze` need.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import minins

SRC = str(Path(minins.__file__).resolve().parents[1])


def modules_loaded_by(statement):
    """Names that `statement` adds to sys.modules in a new interpreter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_import_minins_loads_no_heavy_standard_modules():
    loaded = modules_loaded_by("import minins")
    assert "minins.sim" in loaded  # the statement really imported the package
    # Each of these costs milliseconds that every run pays before simulating.
    assert not loaded & {"dataclasses", "inspect", "ast", "argparse", "json", "hashlib",
                         "tempfile"}


def test_import_cli_leaves_golden_to_validate():
    loaded = modules_loaded_by("import minins.cli")
    assert "minins.cli" in loaded
    assert "minins.golden" not in loaded


# One small untraced scenario: two nodes, one CBR flow, one simulated second.
SCENARIO = """sim duration=1s seed=1
node a
node b
duplex-link a b bw=1Mb delay=1ms queue=droptail
udp u src=a sink=b fid=1
cbr agent=u size=100 interval=10ms start=0s stop=1s
"""

OFFLINE = {"minins.analyze", "minins.trace"}


def test_untraced_run_loads_neither_analyzer_nor_trace_codec():
    loaded = modules_loaded_by(
        "import minins\n"
        f"assert minins.Simulation(minins.parse_scenario({SCENARIO!r})).run().npkts == 100")
    assert "minins.sim" in loaded
    assert not loaded & OFFLINE


def test_cli_run_untraced_loads_neither_analyzer_nor_trace_codec(tmp_path):
    scn = tmp_path / "untraced.scn"
    scn.write_text(SCENARIO, encoding="utf-8")
    loaded = modules_loaded_by(
        "import contextlib, io, minins.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert minins.cli.main(['run', {str(scn)!r}]) == 0")
    assert "minins.cli" in loaded
    assert not loaded & OFFLINE


def test_traced_run_loads_trace_codec_but_not_analyzer(tmp_path):
    trace = tmp_path / "run.tr"
    loaded = modules_loaded_by(
        "import minins\n"
        f"spec = minins.parse_scenario({SCENARIO!r})._replace(trace_path={str(trace)!r})\n"
        "minins.Simulation(spec).run()")
    assert "minins.trace" in loaded
    assert "minins.analyze" not in loaded
    assert trace.stat().st_size > 0


@pytest.mark.parametrize("statement, module", [
    ("import minins\nassert minins.trace.TraceWriter", "minins.trace"),
    ("import minins\nassert minins.analyze.parse_line", "minins.analyze"),
    ("from minins import analyze_trace, flow_stats, utilization\n"
     "assert analyze_trace.__module__ == flow_stats.__module__ == 'minins.analyze'\n"
     "assert utilization.__module__ == 'minins.sim'", "minins.analyze"),
], ids=["trace", "analyze", "package"])
def test_lazy_names_resolve_in_a_fresh_interpreter(statement, module):
    assert module in modules_loaded_by(statement)
