"""Deterministic runs, existential search, k-head runs, and their oracles."""

import contextlib
import copy
import gc
import itertools
import pickle
import random
import sys
import threading
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wkautomata import (
    ClassicalDFA,
    ComplementarityRelation,
    MultiHeadAutomaton,
    Verdict,
    WKAutomaton,
    accepts_existential,
    accepts_existential_bruteforce,
    check_reversibility_mfa,
    check_reversibility_wk,
    check_strong_reversibility,
    complement_strands,
    dfa_to_rwka,
    existential_acceptor,
    mfa2_to_swk,
    run_deterministic,
    run_mfa,
    swk_to_mfa2,
    theorem2_machine,
)
from wkautomata import cli, engine, machines, oracle, sweeps
from wkautomata.engine import StrandMismatchError
from wkautomata.fileformat import parse_machine, serialize_machine
from wkautomata.machines import (
    InvalidMachineError,
    MachineError,
    UnknownSymbolError,
    WrongKindError,
    validate,
)
from wkautomata.oracle import (
    SearchBoundError,
    dfa_accepts,
    differential_compare,
    enumerate_block_strings,
    enumerate_words,
    sweep_verdicts,
)
from wkautomata.samples import random_dfa
from wkautomata.sweeps import compiled_dfa
from conftest import (
    CORPUS_DIR,
    CORPUS_FILES,
    VALIDATION_RULES,
    clear_caches,
    dense_wk_machines,
    dfas,
    kept_builds,
    mfa_machines,
    run_cli,
    wk_machines,
)


class TestComplementStrands:
    def test_eight_strands_for_aba(self, example1_rwka):
        strands = list(complement_strands(example1_rwka, "aba"))
        assert len(strands) == 8
        # Product order: later positions vary fastest, images in declared order.
        assert strands[0] == ("a_1", "b_1", "a_1")
        assert strands[1] == ("a_1", "b_1", "a_2")
        assert set(strands) == {
            ("a_1", "b_1", "a_1"),
            ("a_2", "b_1", "a_1"),
            ("a_1", "b_2", "a_1"),
            ("a_2", "b_2", "a_1"),
            ("a_1", "b_1", "a_2"),
            ("a_2", "b_1", "a_2"),
            ("a_1", "b_2", "a_2"),
            ("a_2", "b_2", "a_2"),
        }

    def test_empty_word_has_exactly_the_empty_strand(self, example1_rwka):
        assert list(complement_strands(example1_rwka, "")) == [()]

    def test_identity_rho_is_singleton(self, identity_rho):
        assert list(complement_strands(identity_rho, "ab")) == [("a", "b")]

    def test_unknown_symbol(self, example1_rwka):
        with pytest.raises(UnknownSymbolError):
            list(complement_strands(example1_rwka, "ax"))


class TestRunDeterministic:
    def test_accepting_run_on_aba(self, example1_rwka):
        outcome = run_deterministic(
            example1_rwka, "aba", ("a_1", "b_2", "a_1"), keep_trace=True
        )
        assert outcome.verdict is Verdict.ACCEPT_HALT
        assert outcome.final.state == "qf"
        assert outcome.final.positions == (4, 4)
        applied = [entry for _, entry in outcome.trace]
        assert applied == [
            ("q0'", ("#", "#"), "q0", (1, 1)),
            ("q0", ("a", "a_1"), "q1", (1, 1)),
            ("q1", ("b", "b_2"), "q0", (1, 1)),
            ("q0", ("a", "a_1"), "q1", (1, 1)),
            ("q1", ("$", "$"), "qf", (0, 0)),
        ]

    def test_wrong_guess_sticks_midway(self, example1_rwka):
        outcome = run_deterministic(example1_rwka, "aba", ("a_1", "b_1", "a_1"))
        assert outcome.verdict is Verdict.REJECT_HALT
        assert outcome.final.state == "q1"
        assert outcome.final.positions == (2, 2)

    def test_paper_style_third_guess_also_rejects(self, example1_rwka):
        # The third transition of the DFA run on aba fires from q0, so the
        # strand ending in a_2 strands the machine in q0.
        outcome = run_deterministic(example1_rwka, "aba", ("a_1", "b_2", "a_2"))
        assert outcome.verdict is Verdict.REJECT_HALT
        assert outcome.final.state == "q0"
        assert outcome.final.positions == (3, 3)

    def test_stationary_loop_is_detected(self, loop_machine):
        outcome = run_deterministic(loop_machine, "", "")
        assert outcome.verdict is Verdict.INFINITE_LOOP
        assert outcome.final.positions == (0, 0)

    def test_non_complementary_lower_is_a_precondition_error(self, example1_rwka):
        with pytest.raises(StrandMismatchError):
            run_deterministic(example1_rwka, "aba", ("a_1", "a_1", "a_1"))
        with pytest.raises(StrandMismatchError):
            run_deterministic(example1_rwka, "aba", ("a_1", "b_1"))


class TestAcceptsExistential:
    def test_aba_accepted_with_replayable_witness(self, example1_rwka):
        result = accepts_existential(example1_rwka, "aba")
        assert result.accepted
        replay = run_deterministic(example1_rwka, "aba", result.witness_lower)
        assert replay.verdict is Verdict.ACCEPT_HALT

    def test_ab_rejected(self, example1_rwka):
        assert not accepts_existential(example1_rwka, "ab").accepted

    def test_empty_word_rejected(self, example1_rwka):
        assert not accepts_existential(example1_rwka, "").accepted

    def test_block_machine_accepts_cross_block_witness(self, theorem2):
        result = accepts_existential(theorem2, "aa*a%ab*a%ab*b")
        assert result.accepted
        replay = run_deterministic(theorem2, "aa*a%ab*a%ab*b", result.witness_lower)
        assert replay.verdict is Verdict.ACCEPT_HALT

    def test_loop_machine_terminates_within_node_bound(self, loop_machine):
        for word in ("", "a", "aaaa"):
            result = accepts_existential(loop_machine, word)
            assert not result.accepted
            n = len(word)
            bound = (
                len(loop_machine.states)
                * (n + 2) ** 2
                * (len(loop_machine.lower_alphabet) + 2)
            )
            assert result.explored <= bound

    CORPUS_BOUNDS = [
        ("theorem2.wk", 5),
        ("example1-rwka.wk", 7),
        ("identity-rho.wk", 7),
        ("loop.wk", 7),
    ]

    def test_acceptor_closure_matches_rich_api(self):
        for name, max_len in self.CORPUS_BOUNDS:
            machine = parse_machine((CORPUS_DIR / name).read_text(encoding="utf-8"))
            assert_acceptor_matches(machine, max_len, random.Random(name))

    def test_acceptor_walks_on_past_a_full_memo(self, monkeypatch):
        # With a bound of one state the memo holds only the start state, so
        # every call that leaves the fast walk goes on through unlinked
        # states.
        monkeypatch.setattr(engine, "_MEMO_STATES", 1)
        for name, max_len in self.CORPUS_BOUNDS:
            machine = parse_machine((CORPUS_DIR / name).read_text(encoding="utf-8"))
            assert_acceptor_matches(machine, max_len, random.Random(name))

    @given(seed=st.integers(0, 10_000), order=st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_acceptor_closure_matches_rich_api_on_compiled_dfas(self, seed, order):
        machine = dfa_to_rwka(random_dfa(random.Random(seed)))
        assert_acceptor_matches(machine, 5, order)

    @given(
        machine=wk_machines(),
        order=st.randoms(use_true_random=False),
        memo_states=st.sampled_from([engine._MEMO_STATES, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_acceptor_matches_rich_api_on_arbitrary_machines(self, machine, order, memo_states):
        # Unlike compiled DFAs, these machines move one head at a time, so
        # the heads drift apart and frontiers are shifted before interning.
        with mock.patch.object(engine, "_MEMO_STATES", memo_states):
            assert_acceptor_matches(machine, 5, order)

    @given(
        machine=dense_wk_machines(),
        order=st.randoms(use_true_random=False),
        memo_states=st.sampled_from([engine._MEMO_STATES, 2]),
    )
    @settings(max_examples=100, deadline=None)
    def test_acceptor_matches_rich_api_on_dense_machines(self, machine, order, memo_states):
        # The property above on uniform dense machines, which Hypothesis's
        # own draws seldom give: a mixed strategy picks them too rarely.
        with mock.patch.object(engine, "_MEMO_STATES", memo_states):
            assert_acceptor_matches(machine, 5, order)

    @pytest.mark.parametrize("ahead", ["upper", "lower"])
    def test_acceptor_keeps_head_offsets_across_shifted_frontiers(self, ahead):
        # One head runs two symbols ahead, then both compare in lockstep, so
        # the machine accepts the words of length >= 2 with period 2.  The
        # images of a and b differ, so a frontier shifted by one position
        # more or less than its base compares the wrong pair of symbols.
        # With the upper head ahead the frontiers hand on heads only; with
        # the lower head ahead, commits only.
        images = {"a": ("x",), "b": ("y", "z")}  # z leaves the lockstep stuck
        lower = ("x", "y", "z")
        lead = (1, 0) if ahead == "upper" else (0, 1)
        delta = {("q0", "#", "#"): ("q1", *lead)}
        for q, t in (("q1", "q2"), ("q2", "run")):
            if ahead == "upper":
                reads = [(u, "#") for u in ("a", "b")]
            else:
                reads = [("#", l) for l in lower]
            for u, l in reads:
                delta[(q, u, l)] = (t, *lead) if q == "q1" else (t, 1, 1)
        for u, l in (("a", "x"), ("b", "y")):
            delta[("run", u, l)] = ("run", 1, 1)
            delta[("run", "$", l) if ahead == "upper" else ("run", u, "$")] = ("acc", 0, 0)
        machine = WKAutomaton(
            states=("q0", "q1", "q2", "run", "acc"),
            upper_alphabet=("a", "b"),
            start="q0",
            finals={"acc"},
            rho=ComplementarityRelation(images),
            delta=delta,
        )
        assert validate(machine).passed
        accept = existential_acceptor(machine)
        for word in enumerate_words(("a", "b"), 9):
            periodic = len(word) >= 2 and word[2:] == word[:-2]
            assert accept(word) == periodic, word
        assert_acceptor_matches(machine, 8, random.Random(ahead))

    def test_a_word_may_end_on_a_frontier_no_word_ended_on_yet(self):
        # The compiled machine of a DFA that accepts a* hands on the start
        # state's frontier again after each a, so the first call on "a"
        # finds its last frontier interned, with its end marker not yet run.
        dfa = ClassicalDFA(("s",), ("a",), "s", {"s"}, {("s", "a"): "s"})
        accept = existential_acceptor(dfa_to_rwka(dfa))
        assert [accept("a"), accept(""), accept("aa")] == [True, True, True]

    def test_acceptor_stage_work_does_not_depend_on_word_order(self):
        # Every frontier a stage hands on is interned, so each stage runs
        # once per memo: shortest first, longest first and shuffled, a
        # fresh predicate runs the same number of stages.
        rng = random.Random(5)
        for _ in range(100):
            machine = dfa_to_rwka(random_dfa(rng, max_states=8))
            words = list(enumerate_words(machine.upper_alphabet, 7))
            counts = []
            for order in (words, words[::-1], rng.sample(words, len(words))):
                accept = existential_acceptor.__wrapped__(machine)
                with counting_calls(_STAGE) as runs:
                    for word in order:
                        accept(word)
                counts.append(runs[0])
            assert counts[0] == counts[1] == counts[2], counts

    @pytest.mark.parametrize("memo_states", [engine._MEMO_STATES, 1])
    @pytest.mark.parametrize("name", ["example1-rwka.wk", "theorem2.wk", "identity-rho.wk", "loop.wk"])
    def test_acceptor_names_the_first_unknown_symbol_and_runs_no_stage(
        self, monkeypatch, name, memo_states
    ):
        # The fast walk looks symbols up as it goes; a failed lookup sends
        # the word to the careful walk, once, which checks the whole word
        # before it runs a stage.  loop.wk's start state is already a
        # verdict sink.  With a bound of one state, the careful walk goes
        # on through unlinked states.
        monkeypatch.setattr(engine, "_MEMO_STATES", memo_states)
        machine = parse_machine((CORPUS_DIR / name).read_text(encoding="utf-8"))
        words = list(enumerate_words(machine.upper_alphabet, 4))
        fresh, warm = (existential_acceptor.__wrapped__(machine) for _ in range(2))
        for word in words:
            warm(word)
        for accept in (fresh, warm):
            for word in words[1:]:
                for i in range(len(word)):
                    bad = (*word[:i], "?", *word[i + 1 :], "!")
                    for form in (bad, list(bad), iter(bad)):
                        with counting_calls(_WALK, _STAGE) as runs:
                            with pytest.raises(
                                UnknownSymbolError,
                                match=r"^symbol '\?' is not in the upper alphabet$",
                            ):
                                accept(form)
                        assert runs == [1, 0], (bad, runs)
        expected = existential_acceptor.__wrapped__(machine)
        for accept in (fresh, warm):
            for word in words:
                verdict = expected(word)
                assert accept(word) == accept(list(word)) == accept(iter(word)) == verdict

    @pytest.mark.parametrize("sweep", ["blocks", "compiled-dfa"])
    def test_a_warm_sweep_never_leaves_the_fast_walk(self, theorem2, sweep):
        # The first sweep fills every slot its words reach, and a verdict
        # reached early is a sink that every later symbol stays in, so the
        # second sweep only subscripts filled slots.
        if sweep == "blocks":
            machine, words = theorem2, list(enumerate_block_strings(8, 4))
        else:
            dfa = random_dfa(random.Random(0), max_states=8)
            assert len(dfa.delta) < len(dfa.states) * len(dfa.alphabet)  # some move is missing
            machine = dfa_to_rwka(dfa)
            words = list(enumerate_words(dfa.alphabet, 7))
        accept = existential_acceptor(machine)
        verdicts = [accept(word) for word in words]
        with counting_calls(_WALK, _STAGE) as runs:
            assert [accept(word) for word in words] == verdicts
        assert runs == [0, 0]

    def test_extensions_of_a_decided_word_stay_in_its_sink(self, theorem2):
        # theorem2.wk accepts *%*%*a at its last symbol, since the last two
        # blocks share w and differ in x; the compiled DFA has no move on b.
        missing_b = ClassicalDFA(("s",), ("a", "b"), "s", {"s"}, {("s", "a"): "s"})
        for machine, decided, verdict in (
            (theorem2, tuple("*%*%*a"), True),
            (dfa_to_rwka(missing_b), ("a", "b"), False),
        ):
            accept = existential_acceptor(machine)
            assert accept(decided) is verdict
            tails = list(enumerate_words(machine.upper_alphabet, 3))
            with counting_calls(_WALK, _STAGE) as runs:
                for tail in tails:
                    assert accept(decided + tail) is verdict, tail
            assert runs == [0, 0]
            for tail in tails:
                with counting_calls(_WALK, _STAGE) as runs:
                    with pytest.raises(
                        UnknownSymbolError, match=r"^symbol '\?' is not in the upper alphabet$"
                    ):
                        accept((*decided, *tail, "?", *tail))
                assert runs == [1, 0], tail

    def test_acceptor_decides_long_words_on_compiled_dfas(self):
        # Complete DFAs, so no word is rejected early by a missing move.
        rng = random.Random(1000)
        verdicts = []
        for _ in range(10):
            dfa = random_dfa(rng, max_states=8, density=1.0)
            accept = existential_acceptor(dfa_to_rwka(dfa))
            for _ in range(20):
                word = rng.choices(dfa.alphabet, k=1000)
                verdicts.append(dfa_accepts(dfa, word))
                assert accept(word) == verdicts[-1]
        assert 40 < sum(verdicts) < 160

    def test_acceptor_decides_long_block_words(self, theorem2):
        # The lower head lags a block behind, so with blocks of 601 symbols
        # windows, and the code points of their keys, run past 255.
        rng = random.Random(600)

        def part(n):
            return "".join(rng.choices("ab", k=n))

        accept = existential_acceptor(theorem2)
        verdicts = []
        for i in range(6):
            w = part(300)
            second = w if i % 2 else part(300)
            word = tuple(f"{part(5)}*{part(5)}%{w}*{part(300)}%{second}*{part(300)}")
            verdicts.append(accept(word))
            assert verdicts[-1] == accepts_existential(theorem2, word).accepted
        assert verdicts == [False, True] * 3

    def test_witness_gaps_take_the_first_declared_image(self):
        # A machine that halts immediately in a final state accepts every
        # word with the lower head still on the left marker; the witness is
        # filled entirely from first images and must still replay.
        from wkautomata import ComplementarityRelation, WKAutomaton

        machine = WKAutomaton(
            states=("s",),
            upper_alphabet=("a",),
            start="s",
            finals={"s"},
            rho=ComplementarityRelation({"a": ("x", "y")}),
            delta={},
        )
        result = accepts_existential(machine, "aa")
        assert result.accepted
        assert result.witness_lower == ("x", "x")
        assert run_deterministic(machine, "aa", result.witness_lower).accepted


def group_sweep(accept, source):
    """``accept``'s verdicts on ``source`` through ``oracle.sweep_verdicts``."""
    return [v for _, verdicts in sweep_verdicts(accept, source) for v in verdicts]


def _group_sweep_cases():
    """A machine and a function making a fresh enumeration, for each corpus
    WK machine, for the block words and for compiled random DFAs."""
    cases = []
    for name in [n for n in CORPUS_FILES if n.endswith(".wk")]:
        machine = parse_machine((CORPUS_DIR / name).read_text(encoding="utf-8"))
        max_len = 6 if len(machine.upper_alphabet) > 2 else 9
        source = lambda m=machine, n=max_len: enumerate_words(m.upper_alphabet, n)  # noqa: E731
        cases.append(pytest.param(machine, source, id=name))
    theorem2 = parse_machine((CORPUS_DIR / "theorem2.wk").read_text(encoding="utf-8"))
    cases.append(pytest.param(theorem2, lambda: enumerate_block_strings(9, 4), id="blocks"))
    rng = random.Random(32)
    for i in range(6):
        dfa = random_dfa(rng, max_states=8)
        source = lambda a=dfa.alphabet: enumerate_words(a, 7)  # noqa: E731
        cases.append(pytest.param(dfa_to_rwka(dfa), source, id=f"dfa{i}"))
    return cases


class TestGroupWalk:
    """A kept acceptor decides an enumeration's group with one walk, and
    hands every word whose walk ends without a verdict to the per-word
    predicate, in order."""

    @pytest.mark.parametrize("machine, source", _group_sweep_cases())
    def test_a_cold_group_sweep_runs_the_stages_of_a_cold_word_sweep(self, machine, source):
        stages, sizes, verdicts = [], [], []
        for sweep in (lambda a: [a(w) for w in source()], lambda a: group_sweep(a, source())):
            accept = existential_acceptor.__wrapped__(machine)
            with counting_calls(_STAGE) as runs:
                verdicts.append(sweep(accept))
            stages.append(runs[0])
            sizes.append(len(_acceptor_memo(accept)))
        assert verdicts[0] == verdicts[1]
        assert stages[0] == stages[1]  # none for loop.wk, whose start is a sink
        assert sizes[0] == sizes[1]
        # Warm, the group walk decides every word without a careful walk.
        with counting_calls(_WALK, _STAGE) as runs:
            assert group_sweep(accept, source()) == verdicts[0]
        assert runs == [0, 0]

    @pytest.mark.parametrize("sweep", ["words", "blocks", "compiled-dfa"])
    def test_a_full_memo_leaves_the_verdicts_unchanged(self, monkeypatch, theorem2, sweep):
        machine, source = theorem2, lambda: enumerate_words(theorem2.upper_alphabet, 5)
        if sweep == "blocks":
            source = lambda: enumerate_block_strings(7, 3)  # noqa: E731
        elif sweep == "compiled-dfa":
            dfa = random_dfa(random.Random(4), max_states=8)
            machine, source = dfa_to_rwka(dfa), lambda: enumerate_words(dfa.alphabet, 7)
        expected = [existential_acceptor.__wrapped__(machine)(w) for w in source()]
        monkeypatch.setattr(engine, "_MEMO_STATES", 1)
        accept = existential_acceptor.__wrapped__(machine)
        assert group_sweep(accept, source()) == expected
        assert group_sweep(accept, source()) == expected
        assert len(_acceptor_memo(accept)) <= 1

    def test_a_foreign_symbol_is_named_by_the_per_word_predicate(self, example1_rwka):
        accept = existential_acceptor(example1_rwka)
        for prefix, tails in ((("a",), ("a", "?")), (("?",), ("a", "b"))):  # table, prefix
            with pytest.raises(
                UnknownSymbolError, match=r"^symbol '\?' is not in the upper alphabet$"
            ):
                accept.walk_group(prefix, oracle._table(oracle._letters, 2, tails))
        # A sweep decides the groups before the first foreign symbol.
        runs = sweep_verdicts(accept, enumerate_words(("a", "b", "?"), 2))
        assert next(runs) == ([()], [accept(())])
        with pytest.raises(UnknownSymbolError):
            next(runs)

    def test_a_dropped_predicate_unlinks_its_memo_at_once(self, theorem2):
        # The group walk does not call the predicate, so the two form no
        # reference cycle: with the cyclic collector off, dropping the last
        # reference to a fresh predicate runs its finalizer at once.
        accept = existential_acceptor.__wrapped__(theorem2)
        expected = [accept(w) for w in enumerate_words(theorem2.upper_alphabet, 4)]
        assert group_sweep(accept, enumerate_words(theorem2.upper_alphabet, 4)) == expected
        memo = _acceptor_memo(accept)
        assert memo
        ref = weakref.ref(accept)
        gc.disable()
        try:
            del accept
            assert ref() is None
            assert not memo
        finally:
            gc.enable()


def per_word(accept):
    """``accept`` called word by word, in a group walk of a sweep too."""
    stub = lambda word: accept(word)  # noqa: E731
    stub.group_walker = lambda: lambda prefix, table: [accept(prefix + c) for c in table.words]
    return stub


def _memo_sweep_cases():
    """A machine and its enumerations for each corpus machine that the
    sweep memo is checked on.  Over two symbols a table holds ten, so
    words of up to 12 symbols give lengths of several groups."""
    cases = []
    for name, max_len in (("theorem2.wk", 6), ("identity-rho.wk", 12), ("example1-rwka.wk", 12)):
        machine = parse_machine((CORPUS_DIR / name).read_text(encoding="utf-8"))
        sources = [enumerate_words(machine.upper_alphabet, max_len)]
        if name == "theorem2.wk":
            sources += [enumerate_block_strings(9, blocks) for blocks in range(5)]
        cases.append(pytest.param(machine, sources, id=name))
    return cases


_MEMO_CONDITIONS = ["fresh", "warm", 1, 2]  # or a memo of that many states


def assert_memo_sweeps_agree(machine, sources, memo):
    """Each enumeration of ``sources`` swept by ``sweep_verdicts`` and by
    ``differential_compare`` gets the verdicts that a predicate of
    ``machine`` gives word by word, whether the sweep's predicate is
    fresh, warm or has room for only ``memo`` states."""
    reference = existential_acceptor.__wrapped__(machine)
    expected = [[reference(word) for word in source] for source in sources]
    cap = memo if isinstance(memo, int) else engine._MEMO_STATES
    with mock.patch.object(engine, "_MEMO_STATES", cap):
        for source, verdicts in zip(sources, expected):

            def predicate():
                accept = existential_acceptor.__wrapped__(machine)
                if memo == "warm":
                    for word in source:
                        accept(word)
                return accept

            assert group_sweep(predicate(), source) == verdicts
            report = differential_compare(predicate(), per_word(reference), source)
            assert (report.total_words, report.total_mismatches) == (len(verdicts), 0)


class TestSweepMemo:
    """Each sweep gives the kept acceptor's group walk a memo of its own:
    a group whose prefix reaches a DFA state that an earlier group with
    the same table reached takes that group's verdicts, unwalked."""

    @pytest.mark.parametrize("memo", _MEMO_CONDITIONS)
    @pytest.mark.parametrize("machine, sources", _memo_sweep_cases())
    def test_a_memo_sweep_gives_the_per_word_verdicts(self, machine, sources, memo):
        assert_memo_sweeps_agree(machine, sources, memo)

    @given(machine=dense_wk_machines(), memo=st.sampled_from(_MEMO_CONDITIONS))
    @settings(max_examples=20, deadline=None)
    def test_a_memo_sweep_gives_the_per_word_verdicts_on_dense_machines(self, machine, memo):
        assert_memo_sweeps_agree(machine, [enumerate_words(machine.upper_alphabet, 12)], memo)

    @pytest.mark.parametrize("memo", _MEMO_CONDITIONS)
    def test_block_language_counts_the_per_word_verdicts(self, monkeypatch, theorem2, memo):
        reference = per_word(existential_acceptor.__wrapped__(theorem2))
        monkeypatch.setattr(sweeps, "existential_acceptor", lambda machine: reference)
        expected = [sweeps.block_language(theorem2, 9, blocks) for blocks in range(5)]
        assert expected[4].words == 14_756
        if isinstance(memo, int):
            monkeypatch.setattr(engine, "_MEMO_STATES", memo)
        for blocks in range(5):
            accept = existential_acceptor.__wrapped__(theorem2)
            monkeypatch.setattr(sweeps, "existential_acceptor", lambda machine: accept)
            if memo == "warm":
                sweeps.block_language(theorem2, 9, blocks)
            assert sweeps.block_language(theorem2, 9, blocks) == expected[blocks]

    def test_a_memo_hit_hands_out_a_list_of_its_own(self, theorem2):
        # A walked group's list is the one kept, so only a hit copies; a
        # sweep that hands the lists on copies each one.
        accept = existential_acceptor.__wrapped__(theorem2)
        prefix, table = list(enumerate_block_strings(9, 4).groups)[-1]
        expected = [accept(prefix + completion) for completion in table.words]
        walk = accept.group_walker()
        lists = [walk(prefix, table)]
        for _ in range(2):
            verdicts = walk(prefix, table)
            assert verdicts == expected
            assert all(verdicts is not other for other in lists)
            lists.append(verdicts)
            verdicts.reverse()
        assert lists[0] == expected
        source = enumerate_block_strings(9, 4)
        swept = []
        for _, verdicts in sweep_verdicts(existential_acceptor.__wrapped__(theorem2), source):
            swept += verdicts
            verdicts.reverse()
        assert swept == [accept(word) for word in source]
        # The kept walk keeps no memo, and no two sweeps share one.
        assert accept.walk_group(prefix, table) == expected
        assert accept.group_walker() is not accept.group_walker()

    def test_a_warm_block_compare_walks_each_state_and_table_once(self, monkeypatch):
        # The (11, 6) words come in 1,097 groups whose prefixes reach 126
        # (state, table) pairs; a walked pair looks its plan up once.
        # These counts may only fall.
        accept = existential_acceptor.__wrapped__(theorem2_machine())
        words = enumerate_block_strings(11, 6)
        assert sum(1 for _ in words.groups) == 1_097
        report = differential_compare(accept, oracle.theorem2_member, words)
        plan, plans = engine._plan, []
        monkeypatch.setattr(engine, "_plan", lambda *args: plans.append(args) or plan(*args))
        assert differential_compare(accept, oracle.theorem2_member, words) == report
        assert len(plans) == 126

    def test_a_full_memo_reruns_fewer_stages(self, monkeypatch):
        # With room for 2,000 states, of the 17,341 these words intern, the
        # sweep memo spares the stages of every group it does not walk:
        # 40,776 and then 37,088 stages, against 68,880 and 65,192 without
        # it.  These counts may only fall.
        monkeypatch.setattr(engine, "_MEMO_STATES", 2_000)
        accept = existential_acceptor.__wrapped__(theorem2_machine())
        counts = []
        for _ in range(2):
            with counting_calls(_STAGE) as runs:
                differential_compare(accept, oracle.theorem2_member, enumerate_block_strings(11, 6))
            counts.append(runs[0])
        assert counts == [40_776, 37_088]


def _acceptor_code(name):
    """The code object of the function ``name`` nested in every acceptor."""
    return next(
        code
        for code in existential_acceptor.__wrapped__.__code__.co_consts
        if getattr(code, "co_name", None) == name
    )


_STAGE, _WALK = _acceptor_code("stage"), _acceptor_code("walk")


def _acceptor_memo(accept):
    """The memo of the predicate ``accept``, read through its closures."""

    def cell(function, name):
        return function.__closure__[function.__code__.co_freevars.index(name)].cell_contents

    return cell(cell(cell(accept, "walk"), "step"), "memo")


@contextlib.contextmanager
def counting_calls(*codes):
    """Count the calls of each of ``codes`` made inside the block, by every
    acceptor, in the list it yields: one item per code."""
    runs = [0] * len(codes)

    def count(frame, event, arg):
        if event == "call":
            for i, code in enumerate(codes):
                if frame.f_code is code:
                    runs[i] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def assert_acceptor_matches(machine, max_len, rng):
    """The acceptor carries a memo of the frontiers earlier calls reached;
    no call order may change a verdict.  Shortest first, a longer word
    walks through frontiers that its prefixes interned; longest first,
    words end on frontiers that longer words interned already."""
    words = list(enumerate_words(machine.upper_alphabet, max_len))
    expected = {
        word: accepts_existential(machine, word, want_witness=False).accepted
        for word in words
    }
    shuffled = rng.sample(words, len(words))
    for order in (words, words[::-1], shuffled):
        accept = existential_acceptor.__wrapped__(machine)
        for word in order:
            assert accept(word) == expected[word], word
    for word in shuffled:  # again, over a memo that holds every frontier
        assert accept(word) == expected[word], word
    for word, other in zip(shuffled[:40], shuffled[1:41]):
        assert accept(word) == expected[word]
        assert accept(word) == expected[word]  # the same word twice
        assert accept(iter(word)) == expected[word]
        for cut in reversed(range(len(word))):  # ever shorter proper prefixes
            assert accept(word[:cut]) == expected[word[:cut]]
        with pytest.raises(UnknownSymbolError):
            accept(word[:1] + ("?",) + word[1:])
        assert accept(other) == expected[other]


class TestInvalidMachines:
    # The upper head moves off the right end marker.
    MOVES_ON_END = WKAutomaton(
        states=("q0",),
        upper_alphabet=("a",),
        start="q0",
        finals=set(),
        rho=ComplementarityRelation.identity(("a",)),
        delta={
            ("q0", "#", "#"): ("q0", 1, 1),
            ("q0", "a", "a"): ("q0", 1, 1),
            ("q0", "$", "$"): ("q0", 1, 0),
        },
    )

    # Its two-head twin: head 1 moves off the right end marker.
    MFA_MOVES_ON_END = MultiHeadAutomaton(
        states=("q0",),
        alphabet=("a",),
        head_count=2,
        start="q0",
        finals=set(),
        delta={
            ("q0", ("#", "#")): ("q0", (1, 1)),
            ("q0", ("a", "a")): ("q0", (1, 1)),
            ("q0", ("$", "$")): ("q0", (1, 0)),
        },
    )

    def test_engines_refuse_a_machine_that_fails_validation(self):
        # Twice each: a refusal must not be cached as if it were a machine.
        for _ in range(2):
            with pytest.raises(InvalidMachineError, match="move-on-endmarker"):
                accepts_existential(self.MOVES_ON_END, "a")
            with pytest.raises(InvalidMachineError, match="move-on-endmarker"):
                existential_acceptor(self.MOVES_ON_END)
            with pytest.raises(InvalidMachineError, match="move-on-endmarker"):
                run_deterministic(self.MOVES_ON_END, "a", "a")
            with pytest.raises(InvalidMachineError, match="move-on-endmarker"):
                accepts_existential_bruteforce(self.MOVES_ON_END, "a")
            with pytest.raises(InvalidMachineError, match="move-on-endmarker"):
                run_mfa(self.MFA_MOVES_ON_END, "a")


@st.composite
def invalid_machines(draw):
    """WK machines, MFAs of 0-3 heads and DFAs, each built through its
    constructor from a valid machine with one to three validation rules
    broken on purpose."""
    machine = draw(st.one_of(wk_machines(), *map(mfa_machines, (1, 2, 3)), dfas()))
    cls = type(machine)
    fields = {name: getattr(machine, name) for name in cls._fields}
    fields["delta"] = delta = dict(machine.delta)
    symbols = "upper_alphabet" if cls is WKAutomaton else "alphabet"
    heads = {WKAutomaton: 2, ClassicalDFA: 1}.get(cls) or machine.head_count
    lower = machine.lower_alphabet if cls is WKAutomaton else ()
    rules = draw(st.lists(st.sampled_from(VALIDATION_RULES[cls]), min_size=1, max_size=3, unique=True))
    if "bad-head-count" in rules:  # a 0-head MFA, whose transitions read nothing
        heads = fields["head_count"] = 0
        fields["delta"] = delta = {(q, ()): (t, ()) for (q, _), (t, _) in delta.items()}

    def add(source="q0", target="q0", head=None, read=None, move=0):
        """Add a transition whose head ``head`` reads ``read`` and moves
        ``move``; every other head reads a valid symbol and stays."""
        reads = [draw(st.sampled_from(("#", "a", "$") if cls is not ClassicalDFA else ("a",)))]
        if cls is WKAutomaton:
            reads.append(draw(st.sampled_from(("#", *lower, "$"))))
        else:
            reads *= heads
        moves = [0] * len(reads)
        if head is not None and reads:
            head %= len(reads)
            reads[head], moves[head] = read, move
        if cls is WKAutomaton:
            delta[(source, *reads)] = (target, *moves)
        elif cls is MultiHeadAutomaton:
            delta[(source, tuple(reads))] = (target, tuple(moves))
        else:
            delta[(source, reads[0])] = target

    head = draw(st.integers(0, 2))
    for rule in rules:
        if rule == "bad-token":
            field = draw(st.sampled_from(("states", symbols)))
            fields[field] += (draw(st.sampled_from(("q 1", "b:", "->", "c$", "#x"))),)
        elif rule == "duplicate-state":
            fields["states"] += fields["states"][:1]
        elif rule == "duplicate-symbol":
            fields[symbols] += fields[symbols][:1]
        elif rule == "unknown-state":
            where = draw(st.sampled_from(("start", "final", "source", "target")))
            if where == "start":
                fields["start"] = "ghost"
            elif where == "final":
                fields["finals"] = fields["finals"] | {"ghost"}
            else:
                add(**{where: "ghost"})
        elif rule == "unknown-symbol":
            wrong = ("c", "#", "$") if cls is ClassicalDFA else ("c",)
            add(head=head, read=draw(st.sampled_from(wrong)))
        elif rule == "bad-displacement":
            add(head=head, read="a", move=draw(st.sampled_from((2, -1))))
        elif rule == "move-on-endmarker":
            add(head=head, read="$", move=1)
        elif rule == "head-count-mismatch":
            moves = (0,) * draw(st.sampled_from((heads, heads + 1)))
            delta[("q0", ("a",) * (heads + 1))] = ("q0", moves)
        elif rule == "rho-unknown-symbol":
            fields["rho"] = ComplementarityRelation({**machine.rho.images, "c": ("x",)})
        elif rule == "rho-not-total":
            fields[symbols] += ("d",)
    return cls(**fields)


# What refuses an invalid machine of each kind, called on one.
_REFUSERS = {
    WKAutomaton: (
        lambda m: run_deterministic(m, "a", "x"),
        lambda m: accepts_existential(m, "a"),
        existential_acceptor,
        lambda m: accepts_existential_bruteforce(m, "a"),
        swk_to_mfa2,
    ),
    MultiHeadAutomaton: (lambda m: run_mfa(m, "ab"), mfa2_to_swk),
    ClassicalDFA: (dfa_to_rwka,),
}


@given(machine=invalid_machines())
@settings(max_examples=100, deadline=None)
def test_invalid_machines_fail_validation_and_every_consumer_refuses_them(machine):
    assert not validate(machine).passed
    for refuse in _REFUSERS[type(machine)] + (serialize_machine,):
        for _ in range(2):  # a refusal is not kept on the machine
            with pytest.raises(MachineError):
                refuse(machine)
    assert "existential_acceptor" not in vars(machine)


# What takes one kind of machine only, with that kind.
_KIND_CONSUMERS = (
    (lambda m: run_deterministic(m, "a", "a"), WKAutomaton),
    (lambda m: accepts_existential(m, "a"), WKAutomaton),
    (existential_acceptor, WKAutomaton),
    (lambda m: accepts_existential_bruteforce(m, "a"), WKAutomaton),
    (lambda m: complement_strands(m, "a"), WKAutomaton),
    (swk_to_mfa2, WKAutomaton),
    (check_reversibility_wk, WKAutomaton),
    (check_strong_reversibility, WKAutomaton),
    (lambda m: run_mfa(m, "a"), MultiHeadAutomaton),
    (mfa2_to_swk, MultiHeadAutomaton),
    (check_reversibility_mfa, MultiHeadAutomaton),
    (dfa_to_rwka, ClassicalDFA),
    (lambda m: dfa_accepts(m, "a"), ClassicalDFA),
)


@pytest.mark.parametrize("consume,kind", _KIND_CONSUMERS)
def test_a_machine_of_another_kind_is_refused_by_name(consume, kind, example1, twohead):
    machines = (dfa_to_rwka(example1), twohead, example1)
    assert all(validate(m).passed for m in machines)
    for machine in machines:
        if isinstance(machine, kind):
            continue
        for _ in range(2):  # a refusal is not kept on the machine
            message = f"^expected a {kind.__name__}, got a {type(machine).__name__}$"
            with pytest.raises(WrongKindError, match=message):
                consume(machine)


class TestValidateOnce:
    def test_runs_on_one_machine_validate_once(self, example1_rwka, validations):
        for _ in range(100):
            run_deterministic(example1_rwka, "aba", ("a_1", "b_2", "a_1"))
        assert validations == [example1_rwka]

    def test_each_machine_object_validates_once(self, example1_rwka, validations):
        m = example1_rwka
        twin = WKAutomaton(m.states, m.upper_alphabet, m.start, m.finals, m.rho, m.delta)
        assert twin is not example1_rwka and twin == example1_rwka
        for _ in range(2):
            for machine in (example1_rwka, twin):
                assert accepts_existential(machine, "aba").accepted
                assert existential_acceptor(machine)("aba")
                assert run_deterministic(machine, "aba", ("a_1", "b_2", "a_1")).accepted
                assert accepts_existential_bruteforce(machine, "aba")
        assert validations == [example1_rwka, twin]
        assert validations[1] is twin

    @pytest.mark.parametrize(
        "copy_of",
        [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["deepcopy", "pickle"],
    )
    def test_kept_tables_leave_value_semantics_unchanged(
        self, example1_rwka, validations, copy_of
    ):
        m = example1_rwka
        twin = WKAutomaton(m.states, m.upper_alphabet, m.start, m.finals, m.rho, m.delta)
        before = (hash(m), repr(m))
        run_deterministic(m, "aba", ("a_1", "b_2", "a_1"))
        assert existential_acceptor(m)("aba")
        assert accepts_existential(m, "aba").accepted
        assert (hash(m), repr(m)) == before
        assert m == twin and twin == m and hash(twin) == hash(m)
        copied = copy_of(m)
        assert copied is not m and copied == m and hash(copied) == hash(m)
        assert repr(copied) == repr(m)
        assert validations == [m]
        assert accepts_existential(copied, "aba").accepted
        assert run_deterministic(copied, "aba", ("a_1", "b_2", "a_1")).accepted
        assert validations == [m, copied]
        assert validations[1] is copied


class TestOneBuildPerMachine:
    """The run loop and the C1/C2 report are each built once per machine
    object, whichever entry point or command asks first."""

    def test_one_run_loop_serves_every_deterministic_run(self, twohead):
        clear_caches()
        path = str(CORPUS_DIR / "example1-rwka.wk")
        parsed = cli._parse((CORPUS_DIR / "example1-rwka.wk").read_text())
        with kept_builds(engine._run_loop) as (builds,):
            for _ in range(3):
                assert run_deterministic(parsed, "aba", ("a_1", "b_2", "a_1")).accepted
                assert accepts_existential_bruteforce(parsed, "aba")
                assert run_cli("run", path, "aba", "--lower", "a_1,b_2,a_1")[0] == 0
                assert run_cli("run", path, "aba", "--lower", "a_1,b_2,a_1", "--trace")[0] == 0
                assert run_cli("run", path, "aba", "--trace")[0] == 0
                assert run_mfa(twohead, "abb").accepted
                assert not run_mfa(twohead, "aabb").accepted
        assert [id(m) for m in builds] == [id(parsed), id(twohead)]
        clear_caches()

    def test_one_reversibility_report_serves_every_check(self, tmp_path, example1_rwka):
        clear_caches()
        out = str(tmp_path / "out")
        commands = (("identity-rho.wk", "to-mfa"), ("twohead-anbn1.mfa", "from-mfa"))
        with kept_builds(machines._reversibility_report) as (builds,):
            for _ in range(3):
                assert check_reversibility_wk(example1_rwka).passed
                assert not check_strong_reversibility(example1_rwka).passed
            for _ in range(3):
                for name, translate in commands:
                    path = str(CORPUS_DIR / name)
                    assert run_cli("check", path)[0] == 0
                    assert run_cli(translate, path, "-o", out)[0] == 0
        parsed = [cli._parse((CORPUS_DIR / name).read_text()) for name, _ in commands]
        assert [id(m) for m in builds] == [id(example1_rwka), *map(id, parsed)]
        clear_caches()


class TestAcceptorTables:
    """The compiled tables and the acceptor are each built once per machine
    object.  A fresh predicate from ``__wrapped__`` shares the tables and
    keeps a memo of its own."""

    @pytest.mark.parametrize("name", [n for n in CORPUS_FILES if n.endswith(".wk")])
    def test_predicates_share_tables_but_not_memos(self, name):
        machine = parse_machine((CORPUS_DIR / name).read_text(encoding="utf-8"))
        # Every word up to length 8, at most the first 5,461: theorem2.wk's
        # words up to length 6.
        words = list(itertools.islice(enumerate_words(machine.upper_alphabet, 8), 5_461))
        verdicts, stages, tables = [], [], []
        for _ in range(2):
            # A predicate runs its first stage when it is made, so its
            # stages are counted from then on.
            with counting_calls(_STAGE) as runs:
                accept = existential_acceptor.__wrapped__(machine)
                verdicts.append([accept(word) for word in words])
            stages.append(runs[0])
            tables.append(vars(machine)["_compile_wk"])
        assert verdicts[0] == verdicts[1]
        assert stages[0] == stages[1] > 0
        assert tables[0] is tables[1]
        assert tables[0] == engine._compile_wk.__wrapped__(machine)
        # The kept predicate walks one DFA for every sweep of the machine.
        accept = existential_acceptor(machine)
        assert accept is existential_acceptor(machine)
        assert [accept(word) for word in words] == verdicts[0]
        with counting_calls(_STAGE) as runs:
            assert [accept(word) for word in words] == verdicts[0]
        assert runs == [0]

    def test_each_machine_object_keeps_its_own_predicate(self, example1_rwka):
        m = example1_rwka
        twin = WKAutomaton(m.states, m.upper_alphabet, m.start, m.finals, m.rho, m.delta)
        accept = existential_acceptor(m)
        assert twin == m and existential_acceptor(twin) is not accept
        assert existential_acceptor.__wrapped__(m) is not accept
        assert vars(m)["existential_acceptor"] is accept

    def test_a_full_memo_stops_interning_and_is_never_cleared(self, monkeypatch, theorem2):
        # Uncapped, the first sweep interns 2,023 frontiers and a repeat
        # sweep runs no stage.  With room for 1,000, the memo fills during
        # the first sweep and stays as it is; every later sweep re-runs the
        # same stages, those behind the frontiers it could not intern.  A
        # memo cleared when full would rebuild itself on every sweep, and
        # run more stages each time than the first sweep did.
        words = list(enumerate_block_strings(9, 4))
        assert len(words) == 14_756
        expected = None
        for cap, counts, size in ((engine._MEMO_STATES, [3_569, 0, 0], 2_023),
                                  (1_000, [3_569, 1_780, 1_780], 1_000)):
            monkeypatch.setattr(engine, "_MEMO_STATES", cap)
            accept = existential_acceptor.__wrapped__(theorem2)
            memo = _acceptor_memo(accept)
            runs_of, sizes = [], []
            for _ in range(3):
                with counting_calls(_STAGE) as runs:
                    verdicts = [accept(word) for word in words]
                runs_of.append(runs[0])
                sizes.append(len(memo))
                expected = expected or verdicts
                assert verdicts == expected
            assert runs_of == counts
            assert sizes == [size] * 3

    def test_four_threads_share_one_predicate(self, monkeypatch, theorem2):
        # With room for 200 states, of the 1,335 these words intern, the
        # threads race through unlinked states as well as through interned
        # ones they fill at once.
        monkeypatch.setattr(engine, "_MEMO_STATES", 200)
        words = list(enumerate_words(theorem2.upper_alphabet, 6))
        assert len(words) == 5_461
        expected = {
            word: accepts_existential(theorem2, word, want_witness=False).accepted
            for word in words
        }
        accept = existential_acceptor(theorem2)
        orders = [random.Random(i).sample(words, len(words)) for i in range(4)]
        results: list = [None] * 4

        def sweep(i):
            try:
                results[i] = [accept(word) for word in orders[i]]
            except Exception as exc:  # compared below, so the test names it
                results[i] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-call
        try:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for order, verdicts in zip(orders, results):
            assert verdicts == [expected[word] for word in order]

    def test_a_repeated_compiled_dfa_sweep_builds_nothing_again(self):
        builds = (
            dfa_to_rwka,
            machines.validate,
            engine._compile_wk,
            engine.existential_acceptor,
        )
        dfa = random_dfa(random.Random(3), max_states=8)
        with kept_builds(*builds) as runs:
            for _ in range(3):
                assert compiled_dfa(dfa, 6).total_mismatches == 0
        machine = dfa_to_rwka(dfa)
        assert [[id(m) for m in built] for built in runs] == [
            [id(dfa)], [id(dfa), id(machine)], [id(machine)], [id(machine)],
        ]

    def test_kept_tables_hold_no_machine_alive(self):
        # Nothing kept refers back to its machine, so dropping the DFA frees
        # it and its compiled machine at once, without a cycle collection.
        dfa = ClassicalDFA(("s",), ("a",), "s", {"s"}, {("s", "a"): "s"})
        machine = dfa_to_rwka(dfa)
        assert existential_acceptor(machine)("aa")
        refs = weakref.ref(dfa), weakref.ref(machine)
        gc.disable()
        try:
            del dfa, machine
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def reference_tables(machine):
    """``_compile_wk``'s tables by a plain numbering, one token at a time:
    symbols in first-seen order over the upper alphabet, the right and the
    left end marker and the lower alphabet, and states in declaration
    order.  So each upper symbol's number is its column.  The right end
    marker is its own image, and each live row lists the images of x, in
    their declared order, that ``delta`` reads in its cell, or all of them
    in a final state's row.  Dicts are returned as item lists, so their
    order is compared too."""
    sym, state = {}, {}
    upper = machine.upper_alphabet
    for token in (*upper, "$", "#", *machine.lower_alphabet):
        if token not in sym:
            sym[token] = len(sym)
    for q in machine.states:
        state[q] = len(state)
    finals = frozenset(state[q] for q in machine.finals)
    delta = [
        ((state[q], sym[u], sym[l]), (state[t], d1, d2))
        for (q, u, l), (t, d1, d2) in machine.delta.items()
    ]
    images = [(sym[x], tuple(sym[y] for y in machine.rho.image(x))) for x in upper]
    images.append((sym["$"], (sym["$"],)))

    def live_row(q, u, xs):
        if q in finals:
            return xs
        reads = {s for (p, v, s), _ in delta if (p, v) == (q, u)}
        return tuple(s for s in xs if s in reads)

    return {
        "start": state[machine.start],
        "finals": finals,
        "left": sym["#"],
        "right": sym["$"],
        "images": images,
        "delta": delta,
        "token_of": tuple(sym),
        "column": [(x, c) for c, x in enumerate(upper)],
        "live": [
            (x, [[live_row(q, u, xs) for u in range(len(upper) + 2)] for q in range(len(state))])
            for x, xs in images
        ],
    }


class TestCompiledTables:
    @staticmethod
    def assert_reference_numbering(machine):
        compiled = engine._compile_wk(machine)
        got = {
            name: list(value.items()) if isinstance(value, dict) else value
            for name in compiled._fields
            for value in (getattr(compiled, name),)
        }
        assert got == reference_tables(machine)

    @pytest.mark.parametrize("name", [n for n in CORPUS_FILES if n.endswith(".wk")])
    def test_corpus_machines(self, name):
        text = (CORPUS_DIR / name).read_text(encoding="utf-8")
        self.assert_reference_numbering(parse_machine(text))

    def test_compiled_random_dfas(self):
        rng = random.Random(21)
        for _ in range(200):
            alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
            dfa = random_dfa(rng, max_states=rng.randint(1, 12), alphabet=alphabet)
            self.assert_reference_numbering(dfa_to_rwka(dfa))

    @given(machine=wk_machines())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_machines(self, machine):
        # The corpus machines and compiled DFAs never have two live images
        # of one symbol in a cell whose delta order differs from their
        # declared order.  These machines list delta over the sorted lower
        # symbols but declare each symbol's images in drawn order, so a live
        # row in delta order fails here.
        self.assert_reference_numbering(machine)

    @given(machine=dense_wk_machines())
    @settings(max_examples=100, deadline=None)
    def test_dense_machines(self, machine):
        # As above, on uniform dense machines, which more often have two
        # live images of one symbol in a cell.
        self.assert_reference_numbering(machine)


# Each entry point of the run loop, called with a word none of the corpus
# machines can read.
_RUN_LOOP_ENTRIES = {
    "run_deterministic": (WKAutomaton, lambda m: run_deterministic(m, "x", "x")),
    "run_mfa": (MultiHeadAutomaton, lambda m: run_mfa(m, "x")),
    "accepts_existential_bruteforce": (WKAutomaton, lambda m: accepts_existential_bruteforce(m, "x")),
}


@pytest.mark.parametrize("entry", _RUN_LOOP_ENTRIES)
def test_run_loop_entries_refuse_kind_then_validity_then_symbols(entry, identity_rho, twohead):
    kind, call = _RUN_LOOP_ENTRIES[entry]
    wk, mfa = identity_rho, twohead
    valid = {WKAutomaton: wk, MultiHeadAutomaton: mfa}
    invalid = {
        WKAutomaton: WKAutomaton(wk.states, wk.upper_alphabet, "ghost", wk.finals, wk.rho, wk.delta),
        MultiHeadAutomaton: MultiHeadAutomaton(mfa.states, mfa.alphabet, 2, "ghost", mfa.finals, mfa.delta),
    }
    other = MultiHeadAutomaton if kind is WKAutomaton else WKAutomaton
    with pytest.raises(WrongKindError):
        call(invalid[other])
    with pytest.raises(InvalidMachineError, match="unknown-state"):
        call(invalid[kind])
    with pytest.raises(UnknownSymbolError, match="^symbol 'x' is not in the (upper )?alphabet$"):
        call(valid[kind])


class TestBruteForce:
    def test_aba_true(self, example1_rwka):
        assert accepts_existential_bruteforce(example1_rwka, "aba")

    def test_single_b_false(self, example1_rwka):
        assert not accepts_existential_bruteforce(example1_rwka, "b")

    def test_empty_word_matches_deterministic_run(self, example1_rwka, identity_rho):
        for machine in (example1_rwka, identity_rho):
            assert accepts_existential_bruteforce(machine, "") == (
                run_deterministic(machine, "", "").verdict is Verdict.ACCEPT_HALT
            )

    def test_bound_is_enforced(self, example1_rwka):
        with pytest.raises(SearchBoundError):
            accepts_existential_bruteforce(example1_rwka, "a" * 10, max_strands=100)


class TestRunMfa:
    def test_accepts_its_language(self, twohead):
        assert run_mfa(twohead, "b").verdict is Verdict.ACCEPT_HALT
        assert run_mfa(twohead, "abb").verdict is Verdict.ACCEPT_HALT
        assert run_mfa(twohead, "aabbb").verdict is Verdict.ACCEPT_HALT
        for word in ("", "a", "ab", "ba", "bb", "aabb", "abab"):
            assert run_mfa(twohead, word).verdict is Verdict.REJECT_HALT

    def test_agrees_with_two_strand_twin(self, twohead, identity_rho):
        accept = existential_acceptor(identity_rho)
        for word in enumerate_words(("a", "b"), 7):
            assert run_mfa(twohead, word).accepted == accept(word)

    def test_runs_repeat_on_an_equal_machine(self, twohead):
        twin = parse_machine(serialize_machine(twohead))
        assert twin is not twohead and twin == twohead
        for word in enumerate_words(("a", "b"), 7):
            first = run_mfa(twohead, word)
            assert run_mfa(twin, word, keep_trace=True).verdict is first.verdict
            assert run_mfa(twin, word).final == first.final
        with pytest.raises(UnknownSymbolError):
            run_mfa(twohead, "ac")
        with pytest.raises(UnknownSymbolError):
            run_mfa(twin, "ac")

    def test_no_transitions_rejects_at_start_unless_final(self):
        base = dict(
            states=("q0",), alphabet=("a",), head_count=2, start="q0", delta={}
        )
        rejecting = MultiHeadAutomaton(finals=set(), **base)
        accepting = MultiHeadAutomaton(finals={"q0"}, **base)
        for word in ("", "a", "aa"):
            assert run_mfa(rejecting, word).verdict is Verdict.REJECT_HALT
            assert run_mfa(accepting, word).verdict is Verdict.ACCEPT_HALT

    def test_stationary_self_loop(self):
        machine = MultiHeadAutomaton(
            states=("q0",),
            alphabet=("a",),
            head_count=2,
            start="q0",
            finals={"q0"},
            delta={("q0", ("#", "#")): ("q0", (0, 0))},
        )
        assert run_mfa(machine, "a").verdict is Verdict.INFINITE_LOOP


def assert_search_agrees_with_bruteforce(machine):
    """The search and the acceptor run one loop, so the brute force over
    whole lower strands is the independent side.  Every word up to length
    4, not one drawn word: a wrong position read in the loop shows on few
    words of a machine."""
    accept = existential_acceptor.__wrapped__(machine)
    for word in enumerate_words(machine.upper_alphabet, 4):
        result = accepts_existential(machine, word)
        assert result.accepted == accepts_existential_bruteforce(machine, word), word
        assert accept(word) == result.accepted, word
        if result.accepted:
            replay = run_deterministic(machine, word, result.witness_lower)
            assert replay.verdict is Verdict.ACCEPT_HALT, word


class TestEngineProperties:
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_search_agrees_with_bruteforce(self, seed, data):
        dfa = random_dfa(random.Random(seed))
        machine = dfa_to_rwka(dfa)
        word = tuple(
            data.draw(st.lists(st.sampled_from(dfa.alphabet), max_size=6))
        )
        result = accepts_existential(machine, word)
        assert result.accepted == accepts_existential_bruteforce(machine, word)
        if result.accepted:
            replay = run_deterministic(machine, word, result.witness_lower)
            assert replay.verdict is Verdict.ACCEPT_HALT

    @given(machine=wk_machines())
    @example(
        # It accepts "ba" only by moving both heads off b, into q1 on (a, y):
        # a loop that looked up the live images of y in q1 over b, where the
        # upper head was, not over a, where it goes, would reject it.  Few
        # drawn machines show that fault.
        machine=WKAutomaton(
            ("q0", "q1"), ("a", "b"), "q0", {"q0"},
            ComplementarityRelation({"a": ("y",), "b": ("x",)}),
            {("q0", "#", "#"): ("q0", 1, 1), ("q0", "b", "x"): ("q1", 1, 1),
             ("q1", "a", "y"): ("q0", 0, 0)},
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_search_and_acceptor_agree_with_bruteforce_on_arbitrary_machines(self, machine):
        assert_search_agrees_with_bruteforce(machine)

    @given(machine=dense_wk_machines())
    @settings(max_examples=200, deadline=None)
    def test_search_and_acceptor_agree_with_bruteforce_on_dense_machines(self, machine):
        # Without its example, the property above sees the fault that the
        # example pins in few runs, as Hypothesis's own draws lean to sparse
        # machines; uniform dense machines show it in nearly every run.
        assert_search_agrees_with_bruteforce(machine)

    def test_heads_are_monotone_along_traces(self, example1_rwka, theorem2):
        cases = [
            (example1_rwka, "aba", ("a_1", "b_2", "a_1")),
            (example1_rwka, "aba", ("a_1", "b_1", "a_1")),
            (theorem2, "a*a%a*b%a*b", tuple("a*a") + ("v_m1",) + tuple("a*b") + ("v_m2",) + tuple("a*b")),
        ]
        for machine, upper, lower in cases:
            outcome = run_deterministic(machine, upper, lower, keep_trace=True)
            positions = [config.positions for config, _ in outcome.trace]
            positions.append(outcome.final.positions)
            for before, after in zip(positions, positions[1:]):
                for p, q in zip(before, after):
                    assert 0 <= q - p <= 1

    def test_identity_rho_degenerates_to_a_deterministic_run(self, identity_rho):
        for word in enumerate_words(("a", "b"), 6):
            expected = run_deterministic(identity_rho, word, word).verdict
            result = accepts_existential(identity_rho, word)
            assert result.accepted == (expected is Verdict.ACCEPT_HALT)
            if result.accepted:
                assert result.witness_lower == tuple(word)

    def test_search_honours_node_bound(self, theorem2):
        for word in enumerate_words(theorem2.upper_alphabet, 5):
            n = len(word)
            bound = (
                len(theorem2.states)
                * (n + 2) ** 2
                * (len(theorem2.lower_alphabet) + 2)
            )
            assert accepts_existential(theorem2, word).explored <= bound
