"""The DFA compiler, the two-head translations, and the fixed block machine."""

import pytest
from hypothesis import given, settings

from wkautomata import (
    ClassicalDFA,
    ComplementarityRelation,
    MultiHeadAutomaton,
    WKAutomaton,
    accepts_existential,
    check_reversibility_mfa,
    check_reversibility_wk,
    check_strong_reversibility,
    dfa_to_rwka,
    enumerate_words,
    existential_acceptor,
    mfa2_to_swk,
    swk_to_mfa2,
    theorem2_machine,
    validate,
)
from wkautomata.construct import HeadCountError, ReversibilityError
from wkautomata.machines import InvalidMachineError, NonInjectiveRhoError
from wkautomata.samples import example1_dfa
from wkautomata.sweeps import (
    BlockCounts,
    compiled_dfa,
    seeded_dfas,
    strands_vs_heads,
)
from conftest import reversible_two_head_machines


class TestDfaToRwka:
    def test_golden_construction(self, example1, example1_rwka):
        machine = example1_rwka
        assert machine.states == ("q0'", "q0", "q1", "qf")
        assert machine.start == "q0'"
        assert machine.finals == frozenset({"qf"})
        assert machine.upper_alphabet == ("a", "b")
        assert machine.rho.images == {"a": ("a_1", "a_2"), "b": ("b_1", "b_2")}
        assert machine.delta == {
            ("q0'", "#", "#"): ("q0", 1, 1),
            ("q0", "a", "a_1"): ("q1", 1, 1),
            ("q1", "a", "a_2"): ("q1", 1, 1),
            ("q0", "b", "b_1"): ("q0", 1, 1),
            ("q1", "b", "b_2"): ("q0", 1, 1),
            ("q1", "$", "$"): ("qf", 0, 0),
        }

    def test_single_state_star_language(self):
        dfa = ClassicalDFA(
            states=("q0",),
            alphabet=("a",),
            start="q0",
            finals={"q0"},
            delta={("q0", "a"): "q0"},
        )
        machine = dfa_to_rwka(dfa)
        assert machine.delta == {
            ("q0'", "#", "#"): ("q0", 1, 1),
            ("q0", "a", "a_1"): ("q0", 1, 1),
            ("q0", "$", "$"): ("qf", 0, 0),
        }
        assert compiled_dfa(dfa, 6).total_mismatches == 0

    def test_no_finals_means_no_sink_and_no_acceptance(self):
        dfa = ClassicalDFA(
            states=("q0",),
            alphabet=("a",),
            start="q0",
            finals=set(),
            delta={("q0", "a"): "q0"},
        )
        machine = dfa_to_rwka(dfa)
        assert machine.finals == frozenset()
        assert not any(u == "$" for (_, u, _l) in machine.delta)
        accept = existential_acceptor(machine)
        assert not any(accept(word) for word in enumerate_words(("a",), 6))

    def test_each_final_state_gets_its_own_sink(self):
        dfa = ClassicalDFA(
            states=("q0", "q1"),
            alphabet=("a",),
            start="q0",
            finals={"q0", "q1"},
            delta={("q0", "a"): "q1", ("q1", "a"): "q0"},
        )
        machine = dfa_to_rwka(dfa)
        assert machine.finals == frozenset({"qf_q0", "qf_q1"})
        assert machine.delta[("q0", "$", "$")] == ("qf_q0", 0, 0)
        assert machine.delta[("q1", "$", "$")] == ("qf_q1", 0, 0)
        assert check_reversibility_wk(machine).passed
        assert compiled_dfa(dfa, 8).total_mismatches == 0
        # A state already named like a sink widens that sink's separator.
        taken = ClassicalDFA(
            states=("q0", "q1", "qf_q0"),
            alphabet=dfa.alphabet,
            start=dfa.start,
            finals=dfa.finals,
            delta={**dfa.delta, ("qf_q0", "a"): "q0"},
        )
        machine = dfa_to_rwka(taken)
        assert machine.finals == frozenset({"qf__q0", "qf_q1"})
        assert machine.delta[("q0", "$", "$")] == ("qf__q0", 0, 0)
        assert compiled_dfa(taken, 6).total_mismatches == 0

    def test_merged_sink_for_two_finals_breaks_backward_determinism(self):
        # The single-sink variant reads ($, $) twice into one target.
        machine = WKAutomaton(
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
        report = check_reversibility_wk(machine)
        assert [v.rule for v in report.violations] == ["C2"]

    def test_symbols_without_transitions_keep_rho_total(self):
        dfa = ClassicalDFA(
            states=("q0",),
            alphabet=("a", "b"),
            start="q0",
            finals={"q0"},
            delta={("q0", "a"): "q0"},
        )
        machine = dfa_to_rwka(dfa)
        assert validate(machine).passed
        assert machine.rho.image("b") == ("b_1",)
        assert compiled_dfa(dfa, 5).total_mismatches == 0

    def test_fresh_names_avoid_collisions(self):
        dfa = ClassicalDFA(
            states=("q0", "q0'", "qf"),
            alphabet=("a", "a_1"),
            start="q0",
            finals={"qf"},
            delta={("q0", "a"): "qf", ("q0", "a_1"): "q0", ("qf", "a"): "q0"},
        )
        machine = dfa_to_rwka(dfa)
        assert validate(machine).passed
        names = set(machine.states) | set(machine.lower_alphabet)
        assert len(names) == len(machine.states) + len(machine.lower_alphabet)
        assert machine.start == "q0''"
        assert machine.finals == frozenset({"qf'"})
        assert machine.delta[("qf", "$", "$")] == ("qf'", 0, 0)
        assert machine.rho.image("a") == ("a__1", "a_2")
        assert compiled_dfa(dfa, 4).total_mismatches == 0

    def test_construction_is_deterministic(self, example1):
        # Two distinct but equal DFAs, since one DFA object is compiled once.
        first = dfa_to_rwka(example1)
        second = dfa_to_rwka(example1_dfa())
        assert first is not second and first == second

    def test_one_machine_per_dfa_object(self, example1):
        machine = dfa_to_rwka(example1)
        assert dfa_to_rwka(example1) is machine
        twin = ClassicalDFA(
            example1.states, example1.alphabet, example1.start, example1.finals, example1.delta
        )
        assert twin is not example1 and twin == example1
        built = dfa_to_rwka(twin)
        assert built is not machine and built == machine
        assert dfa_to_rwka(twin) is built

    def test_a_refused_dfa_keeps_nothing(self):
        # Only the validation report, which validate keeps on every machine
        # it checks, joins the DFA's fields.
        dfa = ClassicalDFA(("s",), ("a",), "s", {"s"}, {("s", "a"): "t"})
        for _ in range(3):
            with pytest.raises(InvalidMachineError, match="^dfa fails validation: unknown-state"):
                dfa_to_rwka(dfa)
            assert set(vars(dfa)) == {*ClassicalDFA._fields, "validate"}

    def test_numbering_follows_state_declaration_order(self, example1):
        # Reversing the state declaration renumbers the guesses.
        flipped = ClassicalDFA(
            states=("q1", "q0"),
            alphabet=example1.alphabet,
            start=example1.start,
            finals=example1.finals,
            delta=example1.delta,
        )
        machine = dfa_to_rwka(flipped)
        assert machine.delta[("q1", "a", "a_1")] == ("q1", 1, 1)
        assert machine.delta[("q0", "a", "a_2")] == ("q1", 1, 1)


class TestBoundedEquivalence:
    def test_example1_language_is_preserved(self, example1):
        assert compiled_dfa(example1, 8).total_mismatches == 0

    def test_random_dfas_language_is_preserved(self):
        for dfa in seeded_dfas(2024, 8):
            assert compiled_dfa(dfa, 6).total_mismatches == 0


class TestTwoHeadTranslations:
    def test_single_transition_round_trip(self):
        machine = MultiHeadAutomaton(
            states=("p", "q"),
            alphabet=("a",),
            head_count=2,
            start="p",
            finals={"q"},
            delta={("p", ("a", "#")): ("q", (1, 0))},
        )
        wk = mfa2_to_swk(machine)
        assert wk.rho.images == {"a": ("a",)}
        assert wk.delta == {("p", "a", "#"): ("q", 1, 0)}
        assert swk_to_mfa2(wk) == machine

    def test_sample_machine_round_trip(self, twohead):
        assert swk_to_mfa2(mfa2_to_swk(twohead)) == twohead

    @given(machine=reversible_two_head_machines())
    @settings(max_examples=100, deadline=None)
    def test_reversible_machines_round_trip(self, machine):
        assert swk_to_mfa2(mfa2_to_swk(machine)) == machine

    def test_identity_rho_translation_is_transition_identical(self, identity_rho):
        mfa = swk_to_mfa2(identity_rho)
        assert check_reversibility_mfa(mfa).passed
        assert {
            (q, reads): (t, moves) for (q, reads), (t, moves) in mfa.delta.items()
        } == {
            (q, (u, l)): (t, (d1, d2))
            for (q, u, l), (t, d1, d2) in identity_rho.delta.items()
        }

    def test_inverse_is_applied_to_lower_reads(self):
        machine = WKAutomaton(
            states=("q", "q'"),
            upper_alphabet=("a", "b"),
            start="q",
            finals={"q'"},
            rho=ComplementarityRelation({"a": ("c",), "b": ("d",)}),
            delta={("q", "a", "d"): ("q'", 1, 1)},
        )
        mfa = swk_to_mfa2(machine)
        assert mfa.delta == {("q", ("a", "b")): ("q'", (1, 1))}

    def test_non_injective_rho_is_rejected(self, example1_rwka):
        with pytest.raises(NonInjectiveRhoError):
            swk_to_mfa2(example1_rwka)

    def test_head_count_must_be_two(self):
        machine = MultiHeadAutomaton(
            states=("p",),
            alphabet=("a",),
            head_count=3,
            start="p",
            finals=set(),
            delta={},
        )
        with pytest.raises(HeadCountError):
            mfa2_to_swk(machine)

    def test_non_reversible_input_is_rejected(self):
        machine = MultiHeadAutomaton(
            states=("p", "r", "q"),
            alphabet=("a", "b"),
            head_count=2,
            start="p",
            finals=set(),
            delta={
                ("p", ("a", "b")): ("q", (1, 0)),
                ("r", ("a", "b")): ("q", (1, 0)),
            },
        )
        with pytest.raises(ReversibilityError):
            mfa2_to_swk(machine)

    def test_language_agreement_both_ways(self, twohead, identity_rho):
        assert strands_vs_heads(mfa2_to_swk(twohead), twohead, 8).total_mismatches == 0
        assert strands_vs_heads(identity_rho, swk_to_mfa2(identity_rho), 8).total_mismatches == 0


class TestTheorem2Machine:
    def test_shape(self, theorem2):
        assert theorem2.states == ("q0", "q1", "q2", "q3", "q4")
        assert theorem2.finals == frozenset({"q3"})
        assert theorem2.upper_alphabet == ("a", "b", "%", "*")
        assert theorem2.rho.images == {
            "a": ("a",),
            "%": ("%", "v_m1", "v_m2"),
            "b": ("b",),
            "*": ("*",),
        }
        assert len(theorem2.delta) == 20

    def test_static_checks(self, theorem2):
        assert validate(theorem2).passed
        assert check_reversibility_wk(theorem2).passed
        assert not check_strong_reversibility(theorem2).passed

    def test_accepts_cross_block_witness(self, theorem2):
        assert accepts_existential(theorem2, "aa*a%ab*a%ab*b").accepted

    def test_rejects_differing_w_parts(self, theorem2):
        assert not accepts_existential(theorem2, "a*a%b*a").accepted

    def test_construction_is_pure(self):
        assert theorem2_machine() == theorem2_machine()

    def test_sound_up_to_six_blocks(self, theorem2_blocks_11_6):
        """No non-member up to 11 symbols and 6 blocks is accepted, and
        every detectable member is.  The final state ``q3`` moves on
        ``(%, v_m1)`` and ``(%, v_m2)`` to ``q4``, so a spare marker on a
        later separator no longer halts it in ``q3``: without those two
        entries the machine accepted 539 non-members with 4 or more blocks,
        the first of them ``*%*%*%*``, and 264 block-1-only members.  Now it
        rejects all 18,304 block-1-only members."""
        assert theorem2_blocks_11_6() == BlockCounts(
            words=132_854, unsound=0, detectable=11_790, missed=0, block1_only=18_304,
            block1_rejected=18_304,
        )
