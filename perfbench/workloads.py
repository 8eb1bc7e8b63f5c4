"""Scenario text for each benchmark workload, made from the seed alone.

The program under test only ever sees the text built here. Nothing in
this module imports minins, so a change to the simulator can never
change the inputs it is measured on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MASK64 = (1 << 64) - 1

PAPER_SECONDS = 50  # `paper`: the per-packet fast path, no trace
PAPER_TRACE_SECONDS = 10  # `paper_trace`: trace written, then analyzed
MESH_SECONDS = 3  # `mesh_overload`: drop path and multi-hop forwarding
MESH_PROBE_SECONDS = 1  # trace-and-analyze probe of the mesh

MESH_ROUTERS = 24  # r0, the cores, then the edge routers
MESH_CORES = 4
MESH_HOSTS = 300
MESH_FLOWS = 48
MESH_TO_SINK = 32  # the rest go host to host across the tree
MESH_PPS = 250  # mean packets per second of every flow


@dataclass(frozen=True)
class Job:
    """One fresh-process run of the simulator, as the worker executes it.

    `trace` names the trace file the scenario writes (relative to the
    work directory) or is None; `analyze` holds `minins analyze`
    arguments to run on that trace after the simulation.
    """

    scenario: str
    trace: str | None = None
    analyze: tuple[str, ...] | None = None


def paper_text(seed: int, seconds: int, trace: str | None = None) -> str:
    """The four-node star of the bundled paper scenario at `seconds`.

    An exp on-off flow (fid 1, node 0) and a CBR flow (fid 2, node 1)
    meet at node 2 and share the SFQ last hop to node 3.
    """
    lines = [
        f"sim duration={seconds}s seed={seed & MASK64}",
        "node n0",
        "node n1",
        "node n2",
        "node n3",
        "duplex-link n0 n2 bw=10Mb delay=10ms queue=droptail",
        "duplex-link n1 n2 bw=10Mb delay=10ms queue=droptail",
        "duplex-link n2 n3 bw=10Mb delay=10ms queue=sfq",
        "udp exp0 src=n0 sink=n3 fid=1",
        "udp udp1 src=n1 sink=n3 fid=2",
        f"exp agent=exp0 size=1000 burst=800ms idle=2ms rate=5Mb start=0s stop={seconds - 1}s",
        f"cbr agent=udp1 size=1000 interval=5ms start=1s stop={seconds - 1}s",
    ]
    if trace is not None:
        lines.append(f"trace file={trace}")
    return "\n".join(lines) + "\n"


PAPER_ANALYZE = ("--fid", "1", "--src", "0", "--sink", "3", "--bin", "1", "--check")


def paper_trace_job(seed: int) -> Job:
    trace = "paper_trace.tr"
    return Job(paper_text(seed, PAPER_TRACE_SECONDS, trace),
               trace, ("analyze", trace) + PAPER_ANALYZE)


@dataclass(frozen=True)
class MeshFlow:
    name: str
    src: str
    sink: str
    fid: int
    size: int
    kind: str  # "cbr" | "exp"
    start_ms: int


@dataclass(frozen=True)
class Mesh:
    """A seeded router tree with hosts, an SFQ egress and many flows."""

    nodes: list[str]
    links: list[str]  # duplex-link directive bodies after the node names
    flows: list[MeshFlow]

    def node_id(self, name: str) -> int:
        return self.nodes.index(name)


def make_mesh(seed: int) -> Mesh:
    """Draw the topology and flows of `mesh_overload` from `seed`.

    A three-level router tree: r0 at the root, MESH_CORES core routers
    below it on 10 Mb/s DropTail links (the router bottlenecks), and the
    remaining edge routers shuffled round-robin under the cores on
    20 Mb/s DropTail links. Hosts are shuffled round-robin onto the edge
    routers over 100 Mb/s DropTail access links, and r0 reaches the sink
    over a 20 Mb/s SFQ link.

    Each of MESH_FLOWS flows starts at its own random host and offers
    MESH_PPS packets/s on average. Packet sizes are spread evenly from
    64 to 1500 bytes and dealt out at random, as are the kinds (half
    CBR, half exp). MESH_TO_SINK flows go to the sink; the rest go to a
    random host under another core, so they cross the root. The offered
    load is about twice what the core links and the sink link carry.
    Fids 1..MESH_FLOWS exceed SFQ's 16 buckets.

    Only the wiring and the dealing are random; the shape, the sizes
    on offer and the load stay the same for every seed, which keeps the
    work per seed close to constant.
    """
    rng = random.Random(seed)
    routers = [f"r{i}" for i in range(MESH_ROUTERS)]
    cores = routers[1:1 + MESH_CORES]
    edges = routers[1 + MESH_CORES:]
    hosts = [f"h{i}" for i in range(MESH_HOSTS)]
    links = [(core, "r0", "bw=10Mb delay=2ms queue=droptail limit=50") for core in cores]
    core_of: dict[str, str] = {}
    for k, edge in enumerate(rng.sample(edges, len(edges))):
        core_of[edge] = cores[k % MESH_CORES]
        links.append((edge, core_of[edge],
                      f"bw=20Mb delay={rng.randint(1, 5)}ms queue=droptail limit=30"))
    for k, host in enumerate(rng.sample(hosts, len(hosts))):
        edge = edges[k % len(edges)]
        core_of[host] = core_of[edge]
        links.append((host, edge, "bw=100Mb delay=1ms queue=droptail"))
    links.append(("r0", "sink", "bw=20Mb delay=2ms queue=sfq"))

    step = (1500 - 64) / (MESH_FLOWS - 1)
    sizes = rng.sample([64 + round(k * step) for k in range(MESH_FLOWS)], MESH_FLOWS)
    kinds = rng.sample(["cbr", "exp"] * (MESH_FLOWS // 2), MESH_FLOWS)
    flows = []
    for k, src in enumerate(rng.sample(hosts, MESH_FLOWS)):
        if k < MESH_TO_SINK:
            sink = "sink"
        else:
            sink = rng.choice([h for h in hosts if core_of[h] != core_of[src]])
        flows.append(MeshFlow(f"f{k + 1}", src, sink, k + 1, sizes[k], kinds[k],
                              rng.randrange(500)))
    return Mesh(routers + hosts + ["sink"],
                [f"{a} {b} {opts}" for a, b, opts in links], flows)


def mesh_text(mesh: Mesh, seed: int, seconds: int, trace: str | None = None) -> str:
    stop_ms = seconds * 1000 - 1
    lines = [f"sim duration={seconds}s seed={seed & MASK64}"]
    lines += [f"node {name}" for name in mesh.nodes]
    lines += [f"duplex-link {body}" for body in mesh.links]
    for f in mesh.flows:
        lines.append(f"udp {f.name} src={f.src} sink={f.sink} fid={f.fid}")
    for f in mesh.flows:
        start = min(f.start_ms, stop_ms)
        if f.kind == "cbr":
            interval_us = 1_000_000 // MESH_PPS
            lines.append(f"cbr agent={f.name} size={f.size} interval={interval_us}us"
                         f" start={start}ms stop={stop_ms}ms")
        else:
            # ON and OFF means are equal, so the ON rate is twice the mean.
            rate = f.size * 8 * MESH_PPS * 2
            lines.append(f"exp agent={f.name} size={f.size} burst=100ms idle=100ms"
                         f" rate={rate}b start={start}ms stop={stop_ms}ms")
    if trace is not None:
        lines.append(f"trace file={trace}")
    return "\n".join(lines) + "\n"


def mesh_analyze(mesh: Mesh, trace: str) -> tuple[str, ...]:
    first = mesh.flows[0]
    return ("analyze", trace, "--fid", str(first.fid),
            "--src", str(mesh.node_id(first.src)),
            "--sink", str(mesh.node_id(first.sink)), "--bin", "1", "--check")


@dataclass(frozen=True)
class Workload:
    name: str
    job: Job  # the timed job
    probe: Job  # the job that supplies trace-file and analyzer figures


def workload(name: str, seed: int) -> Workload:
    if name == "paper":
        return Workload(name, Job(paper_text(seed, PAPER_SECONDS)), paper_trace_job(seed))
    if name == "paper_trace":
        job = paper_trace_job(seed)
        return Workload(name, job, job)
    if name == "mesh_overload":
        mesh = make_mesh(seed)
        trace = "mesh_probe.tr"
        probe = Job(mesh_text(mesh, seed, MESH_PROBE_SECONDS, trace),
                    trace, mesh_analyze(mesh, trace))
        return Workload(name, Job(mesh_text(mesh, seed, MESH_SECONDS)), probe)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper", "paper_trace", "mesh_overload")
