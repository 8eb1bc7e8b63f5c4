"""minins: a small deterministic packet-level network simulator.

Scenario files describe a topology (nodes, duplex links with DropTail or
SFQ output queues), UDP flows driven by CBR or exponential on-off
generators, and a schedule. Runs produce an event trace plus a
statistics block (duration, packets and bytes received, last-hop
utilization); the analyzer reads back from the trace alone every
flow's sent, received, dropped and delivered bytes, its delay and
per-bin throughput, and checks every packet's lifecycle.

Importing the package loads only what an untraced run needs. The
analyzer loads on first use of `minins.analyze`, `analyze_trace` or
`flow_stats`; the trace codec on first use of `minins.trace`, or when
a run writes a trace.
"""

import importlib

from .engine import EventEngine
from .errors import (
    MininsError,
    ScenarioError,
    SimulationError,
    TraceError,
)
from .netmodel import Network, Packet, SimplexLink, tx_time
from .qdisc import DropTail, QdiscConfig, Sfq, sfq_bucket
from .rng import SplitMix64
from .scenario import ScenarioSpec, parse_scenario
from .sim import RunResult, Simulation, utilization
from .traffic import (
    CbrGenerator,
    ExpOnOffGenerator,
    SinkMonitor,
    UdpAgent,
    exp_variate,
)

__version__ = "0.1.0"


def __getattr__(name):
    """Load `analyze`, `trace` and the analyzer's names on first use."""
    if name in ("analyze", "trace"):
        # import_module, not `from . import`, which would call back here
        # through hasattr before the submodule is bound.
        return importlib.import_module(f"{__name__}.{name}")
    if name in ("analyze_trace", "flow_stats"):
        return getattr(importlib.import_module(f"{__name__}.analyze"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
