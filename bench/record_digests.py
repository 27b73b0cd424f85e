#!/usr/bin/env python3
"""Record the digest of every rendered document of the default-seed pools.

    python3 bench/record_digests.py

Writes ``bench/digests.json``.  ``run.py`` compares each operation's document
against it when run with the default seed, which pins the optimum, the
tie-broken triple, the infeasibility cause and the statistics.  Re-record
only when a change of those outputs is intended.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, DEFAULT_SEED, DIGESTS, SRC

sys.path[:0] = [str(SRC), str(BENCH)]

import workloads  # noqa: E402


def main() -> int:
    recorded = {}
    for name, spec in workloads.WORKLOADS.items():
        items = spec.build(DEFAULT_SEED, spec.sizes["full"])
        recorded[name] = [workloads.digest(spec.op(item.text).text) for item in items]
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {DIGESTS}: " + ", ".join(f"{k} {len(v)}" for k, v in recorded.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
