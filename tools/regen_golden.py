#!/usr/bin/env python3
"""Regenerate the golden-scenario fixtures next to the bundled .scn files.

Deterministic scenarios freeze their exact statistics; the stochastic
paper scenario freezes analytic tolerance bands (seed-independent) plus
the digest of its fixed-seed trace. Run after any intentional behavior
change, then review the diff.
"""

import json
import tempfile
from pathlib import Path

from minins.golden import check_golden, golden_dir, run_golden

# exp flow expectation: rate * burst/(burst+idle) * active_time / 8, +-5 pct
EXP_BYTES = 5e6 * (800 / 802) * 499 / 8
CBR_BYTES = 99_600_000

BANDS = {
    "paper": {
        "pacotes_recebidos": [
            int((0.95 * EXP_BYTES + CBR_BYTES) / 1000),
            int((1.05 * EXP_BYTES + CBR_BYTES) / 1000) + 1,
        ],
        "bytes_recebidos": [
            int(0.95 * EXP_BYTES + CBR_BYTES),
            int(1.05 * EXP_BYTES + CBR_BYTES) + 1,
        ],
        "utilizacao_link_pct": [62.0, 69.0],
    },
}


def main():
    base = golden_dir()
    with tempfile.TemporaryDirectory() as tmp:
        for scn_path in sorted(base.glob("*.scn")):
            values, digest = run_golden(scn_path, Path(tmp))
            bands = BANDS.get(scn_path.stem, {})
            fixture = {
                "exact": {k: v for k, v in values.items() if k not in bands},
                "trace_sha256": digest,
            }
            if bands:
                fixture["bands"] = bands
            out = scn_path.with_suffix(".expected.json")
            out.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {out.name}: {values}")

    # sanity: a fresh validate pass must succeed against what we just wrote
    with tempfile.TemporaryDirectory() as tmp:
        for scn_path in sorted(base.glob("*.scn")):
            fixture_text = scn_path.with_suffix(".expected.json").read_text(encoding="utf-8")
            problems = check_golden(scn_path, json.loads(fixture_text), Path(tmp))
            assert not problems, f"{scn_path.stem}: {problems}"
    print("self-check ok")


if __name__ == "__main__":
    main()
