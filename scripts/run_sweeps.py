#!/usr/bin/env python3
"""Desk-scale sweeps over the shipped corpus.

Three experiments, all bounded-length differential tests against brute
force oracles:

* regular: the (a+b)*a machine and a batch of seeded random DFAs against
  their compiled two-strand machines.
* blocks: the fixed block-language machine against direct membership,
  split into the sound direction and the restricted-completeness
  direction (pairs whose blocks both sit at index >= 2), plus the known
  discrepancy probe for pairs involving block 1.
* twohead: the round trip between the two-head sample and its two-strand
  twin.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wkautomata import (
    accepts_existential,
    dfa_accepts,
    dfa_to_rwka,
    differential_compare,
    enumerate_block_strings,
    enumerate_words,
    existential_acceptor,
    mfa2_to_swk,
    run_mfa,
    swk_to_mfa2,
    theorem2_machine,
    theorem2_member,
)
from wkautomata.oracle import theorem2_witnesses
from wkautomata.samples import example1_dfa, random_dfa, twohead_anbn1_mfa


@dataclass
class SweepConfig:
    seed: int = 7
    random_dfas: int = 30
    max_len_example: int = 12
    max_len_random: int = 8
    max_block_len: int = 12
    max_blocks: int = 3


def sweep_regular(cfg: SweepConfig) -> bool:
    ok = True
    dfa = example1_dfa()
    compiled = dfa_to_rwka(dfa)
    report = differential_compare(
        lambda w: dfa_accepts(dfa, w),
        existential_acceptor(compiled),
        enumerate_words(dfa.alphabet, cfg.max_len_example),
    )
    print(f"(a+b)*a vs compiled machine, length <= {cfg.max_len_example}:")
    print(report.to_text())
    ok &= report.total_mismatches == 0

    rng = random.Random(cfg.seed)
    mismatches = 0
    for i in range(cfg.random_dfas):
        dfa = random_dfa(rng)
        compiled = dfa_to_rwka(dfa)
        report = differential_compare(
            lambda w: dfa_accepts(dfa, w),
            existential_acceptor(compiled),
            enumerate_words(dfa.alphabet, cfg.max_len_random),
        )
        mismatches += report.total_mismatches
    print(
        f"{cfg.random_dfas} random DFAs (seed {cfg.seed}), length <= {cfg.max_len_random}: "
        f"{mismatches} mismatches"
    )
    return ok and mismatches == 0


def sweep_blocks(cfg: SweepConfig) -> bool:
    machine = theorem2_machine()
    accept = existential_acceptor(machine)
    words = list(enumerate_block_strings(cfg.max_block_len, cfg.max_blocks))
    unsound, detectable, missed, block1_only = [], [], [], []
    for w in words:
        indices = [i for i, _ in theorem2_witnesses(w)]
        accepted = accept(w)
        if accepted and not indices:
            unsound.append(w)
        if any(i >= 2 for i in indices):
            detectable.append(w)
            if not accepted:
                missed.append(w)
        elif indices:
            block1_only.append(w)
    probe = tuple("ab*a%ab*b")
    print(
        f"block words (len <= {cfg.max_block_len}, blocks <= {cfg.max_blocks}): {len(words)}"
    )
    print(f"  sound: {len(unsound)} machine-accepted non-members")
    print(f"  complete on index >= 2 witnesses: {len(missed)} missed of {len(detectable)}")
    print(
        f"  known discrepancy: {len(block1_only)} members detectable only via block 1 "
        f"are machine-rejected (probe {''.join(probe)}: member="
        f"{theorem2_member(probe)}, machine={accept(probe)})"
    )
    return not unsound and not missed


def sweep_twohead(cfg: SweepConfig) -> bool:
    mfa = twohead_anbn1_mfa()
    wk = mfa2_to_swk(mfa)
    back = swk_to_mfa2(wk)
    identical = back == mfa
    report = differential_compare(
        lambda w: run_mfa(mfa, w).accepted,
        existential_acceptor(wk),
        enumerate_words(mfa.alphabet, cfg.max_len_random),
    )
    print(
        f"two-head round trip identical: {identical}; "
        f"language agreement <= {cfg.max_len_random}: {report.total_mismatches} mismatches"
    )
    return identical and report.total_mismatches == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--random-dfas", type=int, default=30)
    parser.add_argument("experiments", nargs="*", help="regular | blocks | twohead")
    args = parser.parse_args()
    cfg = SweepConfig(seed=args.seed, random_dfas=args.random_dfas)
    sweeps = {"regular": sweep_regular, "blocks": sweep_blocks, "twohead": sweep_twohead}
    experiments = args.experiments or list(sweeps)
    unknown = [name for name in experiments if name not in sweeps]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    all_ok = True
    for name in experiments:
        print(f"=== {name} ===")
        started = time.perf_counter()
        ok = sweeps[name](cfg)
        print(f"=== {name}: {'ok' if ok else 'MISMATCH'} ({time.perf_counter() - started:.1f}s)\n")
        all_ok &= ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
