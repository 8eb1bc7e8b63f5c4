"""Golden-scenario regression: rerun bundled scenarios, compare fixtures.

Each bundled `<name>.scn` has a `<name>.expected.json` holding two
things its traced run must reproduce exactly: `stats`, the statistics
block `minins run` prints, as a list of lines, and `trace_sha256`, the
sha256 of its trace file. Scenarios run independently, so a failure in
one never hides another.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from importlib import resources
from itertools import zip_longest
from pathlib import Path

from .errors import MininsError
from .scenario import read_scenario
from .sim import Simulation


def golden_dir() -> Path:
    return Path(resources.files("minins") / "golden")


def run_golden(scn_path: Path, workdir: Path) -> tuple[list[str], str]:
    """Run one golden scenario traced into `workdir`.

    Returns the lines of its printed statistics block and the sha256 of
    its trace file.
    """
    spec = read_scenario(scn_path)
    trace_path = workdir / (scn_path.stem + ".tr")
    result = Simulation(spec._replace(trace_path=str(trace_path))).run()
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    return result.stats_block().splitlines(), digest


def compare_golden(stats: list[str], digest: str, fixture: dict) -> list[str]:
    """Mismatches between one run's statistics lines and trace sha256 and
    its fixture, as descriptions; empty when both match exactly."""
    problems = [
        f"stats line {n}: expected {want!r}, got {got!r}"
        for n, (want, got) in enumerate(zip_longest(fixture["stats"], stats), 1)
        if want != got
    ]
    if digest != fixture["trace_sha256"]:
        problems.append(f"trace digest {digest[:12]}.. != expected {fixture['trace_sha256'][:12]}..")
    return problems


def check_golden(scn_path: Path, fixture: dict, workdir: Path) -> list[str]:
    """Run one golden scenario; return a list of mismatch descriptions."""
    return compare_golden(*run_golden(scn_path, workdir), fixture)


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
    if not isinstance(fixture["trace_sha256"], str):
        raise MininsError(f"{path.name}: trace_sha256 must be a string")
    stats = fixture.get("stats")
    if not isinstance(stats, list) or not all(isinstance(line, str) for line in stats):
        raise MininsError(f"{path.name}: stats must be a list of strings")
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
