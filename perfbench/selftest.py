#!/usr/bin/env python3
"""Check that every exact count repeats between two runs with one seed.

    python3 perfbench/selftest.py [--seed N]

Each workload runs twice, each time in a fresh process, through
``run.py --counts``; the two sets of counts (words per length, a-only and
b-only words, search nodes, calls per subcommand, DFA sizes) must be equal.
Exits 1 and names the differing counts otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("blocks", "regular", "interactive")


def counts(workload: str, seed: int) -> dict[str, int]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--counts", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ok &= not differing
        status = "ok" if not differing else "DIFFER: " + ", ".join(differing)
        print(f"{workload}: {len(first)} counts, {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
