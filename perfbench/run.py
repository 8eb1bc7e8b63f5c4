"""minins benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload paper|paper_trace|mesh_overload \\
        --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the `minins` package in `src/` next
to this directory and keeps its scratch files in `.bench_build/` there.

`--trace 0` times the workload end to end. Every iteration is a fresh
interpreter that imports minins, parses the generated scenario text,
builds the `Simulation` (set-up), runs it, and on `paper_trace` runs
`minins analyze` on the trace it wrote. The report gives the median of
each metric over the iterations that fit in `--seconds`. Times are
wall-clock times rescaled to a reference machine speed (see
`speed_loop`); the raw wall-clock medians are printed beside them.

`--trace 1` gives per-layer figures instead: it alternates plain and
hooked iterations (see hooks.py) and reports counts, self times and the
tracing overhead. Workloads that write no trace take the trace-file and
analyzer figures from a probe, the `paper_trace` job for `paper` and a
short traced run of the same mesh for `mesh_overload`.

Both modes first check every bundled golden scenario (once per source
tree; the verdict is kept in `.bench_build/`), then check each
iteration's outputs: they must repeat exactly for the seed, every link
must conserve packets, and the analyzer must agree with the run. The
human-readable report comes first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# Wall time of `speed_loop` that defines the reference machine speed.
REFERENCE_LOOP_S = 0.075
MIN_ITERATIONS = 3  # per plain run; a trace run makes at least 2 pairs
WORKER_TIMEOUT_S = 150
STOP_STARTING_AFTER_S = 120  # no new iteration starts later than this

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("pkts_per_s", "pkt/s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Checks:
    """Correctness checks of one benchmark run, counted as they happen."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def source_digest() -> str:
    """sha256 over every file of the measured package, by relative path."""
    digest = hashlib.sha256()
    pkg = SRC / "minins"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def golden_gate(digest: str, checks: Checks) -> None:
    """`minins.golden.check_golden` on every bundled scenario, untimed.

    The verdict depends only on the source tree, so it is computed once
    per digest and kept in the work directory.
    """
    cache = WORK / f"golden-{digest[:16]}.json"
    if cache.exists():
        verdict = json.loads(cache.read_text())
    else:
        code = (
            "import json, sys, tempfile\n"
            "from pathlib import Path\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from minins.golden import check_golden, golden_dir\n"
            "verdict = {}\n"
            "with tempfile.TemporaryDirectory(dir='.') as tmp:\n"
            "    for scn in sorted(golden_dir().glob('*.scn')):\n"
            "        fixture = json.loads(scn.with_suffix('.expected.json').read_text())\n"
            "        verdict[scn.stem] = check_golden(scn, fixture, Path(tmp))\n"
            "print(json.dumps(verdict))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], cwd=WORK, capture_output=True,
                             text=True, timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            verdict = {"golden gate": [f"exit {out.returncode}"]}
        else:
            verdict = json.loads(out.stdout)
            cache.write_text(json.dumps(verdict, indent=1, sort_keys=True))
    checks.expect(len(verdict) > 0, "golden: no bundled scenarios")
    for name, problems in sorted(verdict.items()):
        checks.expect(not problems, f"golden {name}: {'; '.join(problems)}")


class Worker:
    """Spawns worker.py for one job and collects its report."""

    def __init__(self, tag: str, job: workloads.Job):
        self.tag = tag
        self.job = job
        self.scenario = WORK / f"{tag}.scn"
        self.scenario.write_text(job.scenario)

    def run(self, mode: str, micro: bool = False, fid_stats: bool = False) -> dict | None:
        job_file = WORK / f"{self.tag}.{mode}.json"
        job_file.write_text(json.dumps({"trace": self.job.trace, "analyze": self.job.analyze,
                                        "fid_stats": fid_stats, "micro": micro}))
        argv = [sys.executable, str(HERE / "worker.py"), str(SRC), str(self.scenario),
                str(job_file), mode]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            if proc.poll() is None and first != "built\n":
                proc.kill()
            code = proc.wait()
            proc.stdout.close()
            if self.job.trace:
                (WORK / self.job.trace).unlink(missing_ok=True)
        lines = rest.splitlines()
        if code != 0 or first != "built\n" or not lines or not lines[-1].startswith("result "):
            sys.stderr.write(f"worker {mode} {self.scenario.name} failed with exit {code}\n")
            return None
        report = json.loads(lines[-1][len("result "):])
        report["setup_s"] = setup_s
        return report


def check_report(report: dict, checks: Checks, reference: dict, job: workloads.Job) -> None:
    """Per-iteration checks: exact repeat, link conservation, analyzer."""
    out = report["outputs"]
    if "outputs" not in reference:
        reference["outputs"] = out
    checks.expect(out == reference["outputs"], "outputs differ between runs of one seed")
    bad = [link for link in out["links"]
           if link["enqueued"] != link["dequeued"] + link["drops"] + link["held"]]
    checks.expect(not bad, f"link conservation broken on {len(bad)} links")
    if "analyze_out" in report:
        kv = report["analyze_out"]
        checks.expect(report["analyze_exit"] == 0, f"analyze exit {report['analyze_exit']}")
        checks.expect(kv.get("violations") == "0", f"analyze violations={kv.get('violations')}")
        fid = int(job.analyze[job.analyze.index("--fid") + 1])
        online = online_counts(out, fid)
        offline = {key: int(kv.get(key, -1)) for key in online}
        checks.expect(offline == online,
                      f"fid {fid}: analyzer {offline} != run {online}")
    if "fid_stats" in report:
        total_dropped = 0
        for fid, stats in report["fid_stats"].items():
            online = online_counts(out, int(fid))
            offline = {key: stats[key] for key in online}
            checks.expect(offline == online, f"fid {fid}: analyzer {offline} != run {online}")
            total_dropped += stats["dropped"]
        drops = sum(link["drops"] for link in out["links"])
        checks.expect(total_dropped == drops,
                      f"analyzer drops {total_dropped} != link drops {drops}")


def online_counts(out: dict, fid: int) -> dict:
    """The run's own per-flow counts, as the analyzer names them."""
    return {
        "sent": sum(g["emitted"] for g in out["generators"] if g["fid"] == fid),
        "received": sum(s["npkts"] for s in out["sinks"] if s["fid"] == fid),
        "bytes_received": sum(s["bytes"] for s in out["sinks"] if s["fid"] == fid),
    }


def cross_session_check(tag: str, digest: str, reference: dict, checks: Checks) -> None:
    """Outputs must also match every earlier run of this seed and source."""
    if "outputs" not in reference:
        return
    path = WORK / f"outputs-{digest[:16]}-{tag}.json"
    if path.exists():
        checks.expect(json.loads(path.read_text()) == reference["outputs"],
                      "outputs differ from an earlier run of this seed")
    else:
        path.write_text(json.dumps(reference["outputs"]))


def speed_loop() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    The host this benchmark was sized on is a shared VM whose speed
    drifts by up to a quarter over minutes, far more than the
    run-to-run noise of the simulator itself. Every timed iteration is
    bracketed by two runs of this loop, and its times are multiplied by
    REFERENCE_LOOP_S over their mean, which cancels the drift. The loop
    uses what the simulator spends its time on (heap operations, dict
    updates, tuple unpacking, string formatting) and no minins code, so
    no change to the program can move it.
    """
    start = time.perf_counter()
    heap = []
    table: dict[int, int] = {}
    chars = 0
    for i in range(40000):
        heapq.heappush(heap, [(i * 7919) % 10007, i, (i, i + 1)])
        table[i & 1023] = table.get(i & 1023, 0) + 1
        if len(heap) > 64:
            t, k, pair = heapq.heappop(heap)
            chars += len(f"{t} {k} {pair[0]}.{pair[1]}")
    return time.perf_counter() - start


def summarize(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def measure_end_to_end(wl: workloads.Workload, tag: str, digest: str, checks: Checks,
                       deadline: float, started: float) -> tuple[dict, dict, int]:
    """Plain iterations until the deadline: rescaled and raw samples."""
    worker = Worker(tag, wl.job)
    reference: dict = {}
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    raw: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    raw["speed_loop_s"] = []
    n = 0
    while n < MIN_ITERATIONS or time.perf_counter() < deadline:
        if time.perf_counter() - started > STOP_STARTING_AFTER_S:
            break
        before = speed_loop()
        report = worker.run("plain", fid_stats=(n == 0 and wl.job.trace is not None))
        loop_s = (before + speed_loop()) / 2
        n += 1
        if not checks.expect(report is not None, "worker failed"):
            break
        check_report(report, checks, reference, wl.job)
        sent = sum(g["emitted"] for g in report["outputs"]["generators"])
        job_s = report["setup_s"] + report["run_s"] + report.get("analyze_s", 0.0)
        raw["speed_loop_s"].append(loop_s)
        for into, scale in ((raw, 1.0), (samples, REFERENCE_LOOP_S / loop_s)):
            into["setup_s"].append(report["setup_s"] * scale)
            into["run_s"].append(report["run_s"] * scale)
            into["pkts_per_s"].append(sent / (report["run_s"] * scale))
            into["job_s"].append(job_s * scale)
            into["peak_rss_mb"].append(report["peak_rss_mb"])
    cross_session_check(tag, digest, reference, checks)
    return samples, raw, n


def measure_layers(wl: workloads.Workload, tag: str, digest: str, checks: Checks,
                   deadline: float, started: float) -> tuple[dict, int]:
    """Alternate plain and hooked iterations; add the probe and self-test."""
    selftest = workloads.Job(
        (SRC / "minins" / "golden" / "overload_droptail.scn").read_text()
        + "trace file=selftest.tr\n", "selftest.tr", None)
    report = Worker("selftest", selftest).run("hooks")
    if checks.expect(report is not None, "hook self-test worker failed"):
        layers.check_hooks(report, checks)

    job = Worker(tag, wl.job)
    reference: dict = {}
    plain, hooked = [], []
    pairs = 0
    while pairs < 2 or time.perf_counter() < deadline:
        if time.perf_counter() - started > STOP_STARTING_AFTER_S:
            break
        pairs += 1
        for mode, into in (("plain", plain), ("hooks", hooked)):
            report = job.run(mode, micro=(mode == "hooks" and wl.job is wl.probe))
            if checks.expect(report is not None, f"{mode} worker failed"):
                check_report(report, checks, reference, wl.job)
                into.append(report)
    cross_session_check(tag, digest, reference, checks)
    if wl.probe is wl.job:
        probe_plain, probe_hooked = plain, hooked
    else:
        probe = Worker(f"{tag}-probe", wl.probe)
        probe_reference: dict = {}
        probe_plain, probe_hooked = [], []
        for mode, into in (("plain", probe_plain), ("hooks", probe_hooked)):
            report = probe.run(mode, micro=(mode == "hooks"))
            if checks.expect(report is not None, f"probe {mode} worker failed"):
                check_report(report, checks, probe_reference, wl.probe)
                into.append(report)
    for report in hooked + probe_hooked:
        if "trace" in report["outputs"]:
            layers.check_hooks(report, checks)
    if not (plain and hooked and probe_plain and probe_hooked):
        return {}, pairs
    samples = layers.layer_samples(plain, hooked, probe_plain, probe_hooked, checks)
    spans_path = WORK / f"spans-{tag}.json"
    spans_path.write_text(json.dumps({"job": hooked[-1]["spans"]["kept"],
                                      "probe": probe_hooked[-1]["spans"]["kept"],
                                      "absent": hooked[-1]["spans"]["absent"]}))
    return samples, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "minins" / "__init__.py").is_file():
        print(f"error: no minins package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    digest = source_digest()
    checks = Checks()
    golden_gate(digest, checks)

    wl = workloads.workload(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}"
    deadline = time.perf_counter() + args.seconds
    raw: dict[str, list[float]] = {}
    if args.trace:
        samples, n = measure_layers(wl, tag, digest, checks, deadline, started)
        units = layers.UNITS
        what = "hooked+plain pairs"
    else:
        samples, raw, n = measure_end_to_end(wl, tag, digest, checks, deadline, started)
        units = dict(END_TO_END)
        what = "iterations"

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" {platform.platform()}")
    print(f"samples: {n} {what}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'raw median':>14}"
          f" {'n':>3}  unit")
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            checks.expect(False, f"metric {name} not measured")
            continue
        median, q1, q3 = summarize(values)
        wall = f"{statistics.median(raw[name]):14.6g}" if name in raw else f"{'':14}"
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} {wall} {len(values):3}  {unit}")
        metrics[name] = {"value": median, "unit": unit}
    if raw:
        print(f"speed loop: median {statistics.median(raw['speed_loop_s']):.6g} s,"
              f" reference {REFERENCE_LOOP_S} s")
    print(f"checks: attempted={checks.attempted} failed={len(checks.failures)}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
