#!/usr/bin/env python3
"""Desk-scale sweeps over the shipped corpus.

Three experiments, all bounded-length differential tests against brute
force oracles, each defined in ``wkautomata.sweeps``:

* regular: the (a+b)*a machine and a batch of seeded random DFAs against
  their compiled two-strand machines.
* blocks: the fixed block-language machine against direct membership,
  split into the sound direction and the restricted-completeness
  direction (pairs whose blocks both sit at index >= 2), plus the known
  discrepancy probe for pairs involving block 1.
* twohead: the round trip between the two-head sample and its two-strand
  twin.

Each experiment ends with its wall time and the words it decided per
second.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wkautomata import (
    existential_acceptor,
    mfa2_to_swk,
    swk_to_mfa2,
    theorem2_machine,
    theorem2_member,
)
from wkautomata.samples import example1_dfa, twohead_anbn1_mfa
from wkautomata.sweeps import block_language, compiled_dfa, seeded_dfas, strands_vs_heads

MAX_LEN_EXAMPLE, MAX_LEN_RANDOM = 12, 8
MAX_BLOCK_LEN, MAX_BLOCKS = 12, 3


def report_regular(args) -> tuple[bool, int]:
    report = compiled_dfa(example1_dfa(), MAX_LEN_EXAMPLE)
    print(f"(a+b)*a vs compiled machine, length <= {MAX_LEN_EXAMPLE}:")
    print(report.to_text())
    randoms = [
        compiled_dfa(dfa, MAX_LEN_RANDOM) for dfa in seeded_dfas(args.seed, args.random_dfas)
    ]
    mismatches = sum(r.total_mismatches for r in randoms)
    print(
        f"{args.random_dfas} random DFAs (seed {args.seed}), length <= {MAX_LEN_RANDOM}: "
        f"{mismatches} mismatches"
    )
    words = report.total_words + sum(r.total_words for r in randoms)
    return report.total_mismatches == 0 and mismatches == 0, words


def report_blocks(args) -> tuple[bool, int]:
    machine = theorem2_machine()
    counts = block_language(machine, MAX_BLOCK_LEN, MAX_BLOCKS)
    probe = tuple("ab*a%ab*b")
    print(f"block words (len <= {MAX_BLOCK_LEN}, blocks <= {MAX_BLOCKS}): {counts.words}")
    print(f"  sound: {counts.unsound} machine-accepted non-members")
    print(
        f"  complete on index >= 2 witnesses: {counts.missed} missed of {counts.detectable}"
    )
    print(
        f"  known discrepancy: {counts.block1_rejected} of {counts.block1_only} members "
        f"detectable only via block 1 are machine-rejected (probe {''.join(probe)}: member="
        f"{theorem2_member(probe)}, machine={existential_acceptor(machine)(probe)})"
    )
    return not counts.unsound and not counts.missed, counts.words


def report_twohead(args) -> tuple[bool, int]:
    mfa = twohead_anbn1_mfa()
    wk = mfa2_to_swk(mfa)
    identical = swk_to_mfa2(wk) == mfa
    report = strands_vs_heads(wk, mfa, MAX_LEN_RANDOM)
    print(
        f"two-head round trip identical: {identical}; "
        f"language agreement <= {MAX_LEN_RANDOM}: {report.total_mismatches} mismatches"
    )
    return identical and report.total_mismatches == 0, report.total_words


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--random-dfas", type=int, default=30)
    parser.add_argument("experiments", nargs="*", help="regular | blocks | twohead")
    args = parser.parse_args()
    reports = {"regular": report_regular, "blocks": report_blocks, "twohead": report_twohead}
    experiments = args.experiments or list(reports)
    unknown = [name for name in experiments if name not in reports]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    all_ok = True
    for name in experiments:
        print(f"=== {name} ===")
        started = time.perf_counter()
        ok, words = reports[name](args)
        elapsed = time.perf_counter() - started
        print(
            f"=== {name}: {'ok' if ok else 'MISMATCH'} "
            f"({elapsed:.1f}s, {words / elapsed / 1000:.0f}k words/s)\n"
        )
        all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
