from functools import cached_property

import pytest

from minins.analyze import analyze_trace
from minins.golden import golden_dir
from minins.scenario import parse_scenario
from minins.sim import Simulation


class GoldenRun:
    """One executed golden scenario with everything tests want to poke at."""

    def __init__(self, name, tmp_dir):
        self.name = name
        self.spec = parse_scenario((golden_dir() / f"{name}.scn").read_text())
        self.trace_path = tmp_dir / f"{name}.tr"
        self.sim = Simulation(self.spec._replace(trace_path=str(self.trace_path)))
        self.result = self.sim.run()

    @cached_property
    def report(self):
        """One analyzer pass over the trace with 1 s bins, streamed from the
        file as `minins analyze` reads it; made on first use. Each flow's
        `FlowStats` holds its bins."""
        with open(self.trace_path, encoding="ascii", errors="surrogateescape",
                  newline="\n") as f:
            return analyze_trace(f, 10**9)


@pytest.fixture(scope="session")
def golden_runs(tmp_path_factory):
    """`golden_runs(name)`: that bundled scenario, run traced once per session."""
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = GoldenRun(name, tmp_path_factory.mktemp(name))
        return runs[name]

    return get


@pytest.fixture(scope="session")
def cbr_run(golden_runs):
    """The deterministic CBR-only golden scenario, run once per session."""
    return golden_runs("cbr_golden")


@pytest.fixture(scope="session")
def paper_run(golden_runs):
    """The full two-generator scenario at its bundled seed, run once."""
    return golden_runs("paper")
