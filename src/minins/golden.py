"""Golden-scenario regression: rerun bundled scenarios, compare fixtures.

Each bundled `<name>.scn` has a `<name>.expected.json` holding the
statistics it must reproduce and the sha256 of its trace file. Stats
listed under "exact" must match to the byte; stats under "bands" (used
for the stochastic scenario) must fall inside [lo, hi]. Scenarios run
independently, so a failure in one never hides another.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from importlib import resources
from pathlib import Path

from .errors import MininsError
from .scenario import parse_scenario
from .sim import Simulation


def golden_dir() -> Path:
    return Path(resources.files("minins") / "golden")


def run_golden(scn_path: Path, workdir: Path) -> tuple[dict, str]:
    """Run one golden scenario traced into `workdir`.

    Returns the run's machine-readable stats keys, which fixtures
    compare, and the sha256 of its trace file.
    """
    spec = parse_scenario(scn_path.read_text(encoding="utf-8"))
    trace_path = workdir / (scn_path.stem + ".tr")
    result = Simulation(spec._replace(trace_path=str(trace_path))).run()
    values = {
        "tempo_simulacao_s": result.duration / 1e9,
        "pacotes_recebidos": result.npkts,
        "bytes_recebidos": result.bytes,
        "utilizacao_link_pct": result.utilization_pct,
    }
    return values, hashlib.sha256(trace_path.read_bytes()).hexdigest()


def check_golden(scn_path: Path, fixture: dict, workdir: Path) -> list[str]:
    """Run one golden scenario; return a list of mismatch descriptions."""
    values, digest = run_golden(scn_path, workdir)
    problems = []
    for key, expected in fixture.get("exact", {}).items():
        if values[key] != expected:
            problems.append(f"{key}: expected {expected!r}, got {values[key]!r}")
    for key, (lo, hi) in fixture.get("bands", {}).items():
        if not lo <= values[key] <= hi:
            problems.append(f"{key}: {values[key]!r} outside [{lo}, {hi}]")
    if digest != fixture["trace_sha256"]:
        problems.append(f"trace digest {digest[:12]}.. != expected {fixture['trace_sha256'][:12]}..")
    return problems


def _load_fixture(path: Path) -> dict:
    """The fixture at `path`, or MininsError saying why it is unusable."""
    if not path.exists():
        raise MininsError(f"missing fixture {path.name}")
    try:
        fixture = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also undecodable bytes
        raise MininsError(f"{path.name} is not valid JSON: {exc}") from None
    if not isinstance(fixture, dict):
        raise MininsError(f"{path.name} is not a JSON object")
    if "trace_sha256" not in fixture:
        raise MininsError(f"{path.name} has no trace_sha256")
    return fixture


def run_validate(scenario_dir: Path | None = None) -> bool:
    """Validate every golden scenario; prints PASS/FAIL per scenario."""
    base = Path(scenario_dir) if scenario_dir is not None else golden_dir()
    scn_paths = sorted(base.glob("*.scn"))
    if not scn_paths:
        print(f"FAIL no golden scenarios found in {base}")
        return False
    all_pass = True
    with tempfile.TemporaryDirectory(prefix="minins-validate-") as tmp:
        for scn_path in scn_paths:
            try:
                fixture = _load_fixture(scn_path.with_suffix(".expected.json"))
                problems = check_golden(scn_path, fixture, Path(tmp))
            except (MininsError, OSError, UnicodeDecodeError) as exc:
                problems = [str(exc)]
            if problems:
                all_pass = False
                print(f"FAIL {scn_path.stem}: " + "; ".join(problems))
            else:
                print(f"PASS {scn_path.stem}")
    return all_pass
