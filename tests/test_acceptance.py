"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion carries its runtime budget; the budgets are part of
the assertions.
"""

import time
from collections import Counter
from contextlib import contextmanager

from wkautomata import (
    ComplementarityRelation,
    Verdict,
    WKAutomaton,
    accepts_existential,
    accepts_existential_bruteforce,
    check_reversibility_wk,
    dfa_accepts,
    dfa_to_rwka,
    enumerate_words,
    existential_acceptor,
    mfa2_to_swk,
    run_deterministic,
    swk_to_mfa2,
    theorem2_machine,
    theorem2_member,
)
from wkautomata.fileformat import parse_machine, serialize_machine
from wkautomata.samples import (
    example1_dfa,
    identity_rho_wk,
    stationary_loop_wk,
    twohead_anbn1_mfa,
)
from wkautomata.sweeps import (
    BlockCounts,
    block_language,
    compiled_dfa,
    seeded_dfas,
    strands_vs_heads,
)
from conftest import CORPUS_DIR, CORPUS_FILES, run_cli
from test_oracle import theorem2_witnesses

SEED = 7
RANDOM_DFA_COUNT = 30


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"criterion {number} [{name}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number} [{name}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"


def test_criterion_1_golden_construction():
    with criterion(1, "golden-construction", 1.0):
        machine = dfa_to_rwka(example1_dfa())
        assert len(machine.delta) == 6
        assert machine.rho.images == {"a": ("a_1", "a_2"), "b": ("b_1", "b_2")}
        assert machine.states == ("q0'", "q0", "q1", "qf")
        assert machine.finals == frozenset({"qf"})
        golden = (CORPUS_DIR / "example1-rwka.wk").read_text(encoding="utf-8")
        assert serialize_machine(machine) == golden


def test_criterion_2_bounded_equivalence():
    with criterion(2, "bounded-equivalence", 30.0):
        dfa = example1_dfa()
        report = compiled_dfa(dfa, 12)
        assert (report.total_words, report.total_mismatches) == (8191, 0)
        accepted = Counter(
            len(w) for w in enumerate_words(dfa.alphabet, 12) if dfa_accepts(dfa, w)
        )
        assert accepted == {n: 2 ** (n - 1) for n in range(1, 13)}

        for dfa in seeded_dfas(SEED, RANDOM_DFA_COUNT):
            report = compiled_dfa(dfa, 8)
            assert (report.total_words, report.total_mismatches) == (511, 0)


def test_criterion_3_reversibility_preservation():
    with criterion(3, "reversibility-preservation", 5.0):
        machines = [dfa_to_rwka(example1_dfa())]
        machines += [dfa_to_rwka(dfa) for dfa in seeded_dfas(SEED, RANDOM_DFA_COUNT)]
        assert all(check_reversibility_wk(m).passed for m in machines)
        multi_final = [m for m in machines if len(m.finals) > 1]
        assert multi_final, "the seeded batch must exercise the per-final-sink case"

        mutated = WKAutomaton(
            states=("q0", "q1", "qf"),
            upper_alphabet=("a",),
            start="q0",
            finals={"qf"},
            rho=ComplementarityRelation({"a": ("a_1",)}),
            delta={
                ("q0", "a", "a_1"): ("q1", 1, 1),
                ("q0", "$", "$"): ("qf", 0, 0),
                ("q1", "$", "$"): ("qf", 0, 0),
            },
        )
        report = check_reversibility_wk(mutated)
        assert not report.passed
        assert {v.rule for v in report.violations} == {"C2"}


def test_criterion_4_engine_oracle_equivalence():
    with criterion(4, "engine-oracle-equivalence", 60.0):
        machines = [
            dfa_to_rwka(example1_dfa()),
            theorem2_machine(),
            identity_rho_wk(),
            stationary_loop_wk(),
        ]
        for machine in machines:
            for word in enumerate_words(machine.upper_alphabet, 6):
                result = accepts_existential(machine, word)
                assert result.accepted == accepts_existential_bruteforce(machine, word)
                if result.accepted:
                    replay = run_deterministic(machine, word, result.witness_lower)
                    assert replay.verdict is Verdict.ACCEPT_HALT


def test_criterion_5_block_language_differential(theorem2_blocks_11_6):
    with criterion(5, "block-language-differential", 120.0):
        machine = theorem2_machine()
        assert block_language(machine, 12, 3) == BlockCounts(
            words=364_803, unsound=0, detectable=25_502, missed=0, block1_only=50_836,
            block1_rejected=50_836,
        )
        # Up to 6 blocks, where a later separator's spare marker could once
        # halt the final state and accept a non-member; the sweep is shared
        # with test_construct.py's copy of this check.
        assert theorem2_blocks_11_6() == BlockCounts(
            words=132_854, unsound=0, detectable=11_790, missed=0, block1_only=18_304,
            block1_rejected=18_304,
        )

        probe = tuple("ab*a%ab*b")
        assert theorem2_member(probe)
        assert theorem2_witnesses(probe) == ((1, 2),)
        assert not existential_acceptor(machine)(probe), "known block-1 discrepancy, not a failure"


def test_criterion_6_twohead_round_trip():
    with criterion(6, "twohead-round-trip", 30.0):
        mfa = twohead_anbn1_mfa()
        wk_twin = mfa2_to_swk(mfa)
        assert swk_to_mfa2(wk_twin) == mfa
        swk = identity_rho_wk()
        for wk, heads in ((wk_twin, mfa), (swk, swk_to_mfa2(swk))):
            report = strands_vs_heads(wk, heads, 8)
            assert (report.total_words, report.total_mismatches) == (511, 0)


def test_criterion_7_loop_handling():
    with criterion(7, "loop-handling", 1.0):
        machine = stationary_loop_wk()
        for word in ("", "a", "aaa"):
            outcome = run_deterministic(machine, word, word)
            assert outcome.verdict is Verdict.INFINITE_LOOP
            result = accepts_existential(machine, word)
            assert not result.accepted
            n = len(word)
            bound = (
                len(machine.states)
                * (n + 2) ** 2
                * (len(machine.lower_alphabet) + 2)
            )
            assert result.explored <= bound


def test_criterion_8_format_round_trip():
    with criterion(8, "format-round-trip", 5.0):
        for name in CORPUS_FILES:
            path = CORPUS_DIR / name
            text = path.read_text(encoding="utf-8")
            machine = parse_machine(text)
            assert parse_machine(serialize_machine(machine)) == machine
            assert serialize_machine(machine) == text
            code, _, _ = run_cli("compare", str(path), str(path), "--max-len", "8")
            assert code == 0
