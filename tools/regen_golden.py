#!/usr/bin/env python3
"""Regenerate the golden-scenario fixtures next to the bundled .scn files.

Each fixture holds its scenario's printed statistics block, as a list
of lines under `stats`, and the sha256 of its trace file under
`trace_sha256`; `minins validate` compares both exactly. Run after any
intentional behavior change, then review the diff.
"""

import json
import sys
import tempfile
from pathlib import Path

from minins.golden import golden_dir, run_golden, run_validate


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for scn_path in sorted(golden_dir().glob("*.scn")):
            stats, digest = run_golden(scn_path, Path(tmp))
            out = scn_path.with_suffix(".expected.json")
            fixture = {"stats": stats, "trace_sha256": digest}
            out.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {out.name}")
    if not run_validate():
        sys.exit(1)


if __name__ == "__main__":
    main()
