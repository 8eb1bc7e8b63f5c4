"""minins: a small deterministic packet-level network simulator.

Scenario files describe a topology (nodes, duplex links with DropTail or
SFQ output queues), UDP flows driven by CBR or exponential on-off
generators, and a schedule. Runs produce an event trace plus a
statistics block (duration, packets and bytes received, last-hop
utilization); the analyzer reads back from the trace alone every
flow's sent, received, dropped and delivered bytes, its delay and
per-bin throughput, and checks every packet's lifecycle.
"""

from .analyze import analyze_trace, flow_stats, utilization
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
from .sim import RunResult, Simulation
from .traffic import (
    CbrGenerator,
    ExpOnOffGenerator,
    SinkMonitor,
    UdpAgent,
    exp_variate,
)

__version__ = "0.1.0"
