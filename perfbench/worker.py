"""Run one benchmark job in a fresh interpreter and report it as JSON.

    python3 worker.py SRC_DIR SCENARIO_FILE JOB_FILE plain|hooks

SRC_DIR holds the `minins` package to measure. The worker imports it,
parses the scenario text, builds the `Simulation`, and writes `built`
on a line of its own, so the parent can time set-up from process start;
nothing else is imported before that line. It then reads the job (a
JSON object with `trace`, `analyze`, `fid_stats` and `micro`), runs the
simulation, runs `minins analyze` on the trace if the job asks for it,
and prints one line `result <json>` holding the timings, the outputs
that must repeat exactly, and, in `hooks` mode, the span statistics.
Files are read and written in the current directory only.
"""

import sys


def build(src_dir, scenario_file, mode):
    """Import minins, parse and build: the set-up a `minins run` user pays."""
    sys.path.insert(0, src_dir)
    spans = None
    if mode == "hooks":
        import hooks
        import minins
        spans = hooks.Spans()
        hooks.install_scenario(spans, minins)
        hooks.install_sim(spans, minins)
    else:
        import minins
    with open(scenario_file, encoding="utf-8") as f:
        text = f.read()
    if spans is None:
        sim = minins.Simulation(minins.parse_scenario(text))
    else:
        sim = spans.call("sim.Simulation", minins.Simulation, minins.parse_scenario(text))
    return minins, sim, spans


def trace_digest(path):
    """sha256, size, line count and per-op line counts of a trace file."""
    import hashlib
    import os

    digest = hashlib.sha256()
    ops = {}
    lines = 0
    with open(path, "rb") as f:
        for line in f:
            digest.update(line)
            lines += 1
            op = line[:1].decode("ascii")
            ops[op] = ops.get(op, 0) + 1
    return {"sha256": digest.hexdigest(), "bytes": os.path.getsize(path),
            "lines": lines, "ops": ops}


def outputs(sim, result):
    """Everything a run must reproduce exactly for one scenario and seed."""
    gens = [{"fid": gen.agent.fid, "emitted": gen.emitted} for gen in sim.generators]
    sinks = [{"fid": agent_spec.fid, "npkts": sink.npkts, "bytes": sink.bytes,
              "nlost": sink.nlost}
             for agent_spec, sink in zip(sim.spec.agents, sim.sinks)]
    links = [{"from": link.from_node, "to": link.to_node, "kind": link.qdisc.kind,
              "enqueued": link.enqueued, "dequeued": link.dequeued,
              "drops": link.drops, "held": link.qdisc.held()}
             for link in sim.network.links]
    return {"npkts": result.npkts, "bytes": result.bytes, "nlost": result.nlost,
            "generators": gens, "sinks": sinks, "links": links}


def fid_stats(minins, sim, trace_path):
    """The analyzer's counts for every flow of the scenario."""
    flow_stats = getattr(minins.analyze.flow_stats, "__wrapped__", minins.analyze.flow_stats)
    node_id = {name: k for k, name in enumerate(sim.spec.nodes)}
    per_fid = {}
    for agent_spec in sim.spec.agents:
        with open(trace_path, encoding="ascii") as f:
            stats = flow_stats(f, agent_spec.fid, node_id[agent_spec.src],
                               node_id[agent_spec.sink])
        per_fid[agent_spec.fid] = {"sent": stats.sent, "received": stats.received,
                                   "dropped": stats.dropped,
                                   "bytes_received": stats.bytes_received}
    return per_fid


def micro(minins, trace_path):
    """Bare read+split of the trace, and strict parsing of every line."""
    import time

    parse_line = getattr(minins.analyze.parse_line, "__wrapped__", minins.analyze.parse_line)
    start = time.perf_counter()
    with open(trace_path, encoding="ascii") as f:
        for line in f:
            line.split()
    read_split_s = time.perf_counter() - start
    with open(trace_path, encoding="ascii") as f:
        lines = f.readlines()
    start = time.perf_counter()
    for lineno, line in enumerate(lines, start=1):
        parse_line(line, lineno)
    parse_s = time.perf_counter() - start
    return {"read_split_s": read_split_s, "parse_s": parse_s, "lines": len(lines)}


def run(minins, sim, spans, job):
    import contextlib
    import io
    import resource
    import time

    report = {}
    start = time.perf_counter()
    if spans is None:
        result = sim.run()
    else:
        spans.set_phase("run")
        result = spans.call("sim.Simulation.run", sim.run)
    report["run_s"] = time.perf_counter() - start

    if job["analyze"]:
        import minins.cli
        if spans is not None:
            spans.set_phase("analyze")
            import hooks
            hooks.install_analyze(spans, minins)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            if spans is None:
                code = minins.cli.main(job["analyze"])
            else:
                code = spans.call("cli.main", minins.cli.main, job["analyze"])
            report["analyze_s"] = time.perf_counter() - start
        report["analyze_exit"] = code
        report["analyze_out"] = dict(
            line.split("=", 1) for line in captured.getvalue().splitlines() if "=" in line)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report["outputs"] = outputs(sim, result)
    if job["trace"]:
        report["outputs"]["trace"] = trace_digest(job["trace"])
        if job["fid_stats"]:
            report["fid_stats"] = fid_stats(minins, sim, job["trace"])
        if job["micro"]:
            report["micro"] = micro(minins, job["trace"])
    if spans is not None:
        report["spans"] = {"by_phase": spans.by_phase, "counts": spans.counts,
                           "kept": spans.kept, "absent": spans.absent}
    return report


def main(argv):
    src_dir, scenario_file, job_file, mode = argv
    minins, sim, spans = build(src_dir, scenario_file, mode)
    sys.stdout.write("built\n")
    sys.stdout.flush()

    import json

    with open(job_file, encoding="utf-8") as f:
        job = json.load(f)
    report = run(minins, sim, spans, job)
    sys.stdout.write("result " + json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
