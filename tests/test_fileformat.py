"""Parsing, canonical serialization, and the word conventions."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkautomata import (
    ClassicalDFA,
    ComplementarityRelation,
    MultiHeadAutomaton,
    WKAutomaton,
    dfa_to_rwka,
    validate,
)
from wkautomata.fileformat import (
    ParseError,
    _directive_lines,
    parse_machine,
    parse_word,
    render_word,
    serialize_machine,
)
from wkautomata.machines import InvalidMachineError, UnknownSymbolError
from wkautomata.samples import random_dfa
from conftest import CORPUS_DIR, CORPUS_FILES, dfas, mfa_machines, wk_machines


class TestParse:
    def test_corpus_example1_machine(self, example1_rwka):
        text = (CORPUS_DIR / "example1-rwka.wk").read_text()
        machine = parse_machine(text)
        assert machine == example1_rwka
        assert len(machine.delta) == 6

    def test_comment_and_blank_lines_are_ignored(self):
        text = (
            "# header comment\n"
            "type: dfa\n"
            "\n"
            "states: q0\n"
            "start: q0\n"
            "# interior comment with trans: q0 a -> q0 inside\n"
            "final: q0\n"
            "alphabet: a\n"
            "trans: q0 a -> q0\n"
        )
        machine = parse_machine(text)
        assert machine.delta == {("q0", "a"): "q0"}

    def test_endmarker_tokens_inside_trans_lines(self):
        text = (
            "type: wk\nstates: s\nstart: s\nfinal:\nalphabet: a\n"
            "rho: a->a\ntrans: s # # -> s 1 1\n"
        )
        machine = parse_machine(text)
        assert ("s", "#", "#") in machine.delta

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "type: wk\nstates: q0\nstart: q0\nfinal:\nalphabet: a\nrho: a->a_1\n"
                "trans: q0 a a_1 -> q0 1 1\n"
                "trans: q0 a a_1 -> q0 0 1\n",
                "line 8: duplicate transition key (q0, a, a_1)",
            ),
            (
                "type: mfa\nstates: q1\nstart: q1\nalphabet: b\nheads: 2\n"
                "trans: q1 $ b -> q1 0 1\n"
                "trans: q1 $ b -> q1 0 0\n",
                "line 7: duplicate transition key (q1, $, b)",
            ),
        ],
        ids=["wk", "mfa"],
    )
    def test_duplicate_transition_key_is_an_error(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_machine(text)

    def test_head_count_may_reach_the_bound(self):
        text = "type: mfa\nstates: q\nstart: q\nalphabet: a\nheads: {}\n"
        assert parse_machine(text.format("64")).head_count == 64
        assert parse_machine(text.format("064")).head_count == 64

    def test_empty_input(self):
        with pytest.raises(ParseError, match="missing type"):
            parse_machine("")

    def test_errors_are_positioned(self):
        text = "type: wk\nstates: q0\nstart: q0\nfinal: ghost\nalphabet: a\nrho: a->a\n"
        with pytest.raises(ParseError) as exc:
            parse_machine(text)
        assert exc.value.line == 4
        assert exc.value.col == 8
        assert "ghost" in str(exc.value)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("type: nfa\n", "unknown machine type"),
            ("states: q0\n", "first directive must be 'type:'"),
            ("type: dfa\nstates: q0\nstart: q0\nalphabet: a\ntype: dfa\n", "duplicate 'type:'"),
            ("type: dfa\nstart: q0\nalphabet: a\n", "missing 'states:'"),
            ("type: mfa\nstates: q\nstart: q\nalphabet: a\n", "missing 'heads:'"),
            ("type: dfa\nstates: q q\nstart: q\nalphabet: a\n", "duplicate state"),
            ("type: dfa\nstates: q\nstart: x\nalphabet: a\n", "unknown start state"),
            ("type: dfa\nstates: q\nstart: q\nalphabet: a#b\n", "invalid symbol name"),
            ("type: dfa\nstates: q\nstart: q\nalphabet: a\nrho: a->a\n", "only applies to wk"),
            ("type: dfa\nstates: q\nstart: q\nalphabet: a\ntrans: q a q\n", "exactly one '->'"),
            ("type: dfa\nstates: q\nstart: q\nalphabet: a\ntrans: q a -> q 1\n", "after '->'"),
            ("type: wk\nstates: q\nstart: q\nalphabet: a\nrho: a=>b\n", "expected 'x->y' pair"),
            (
                "type: wk\nstates: q\nstart: q\nalphabet: a\nrho: a->a\ntrans: q a a -> q 2 0\n",
                "displacement must be 0 or 1",
            ),
            (
                "type: mfa\nstates: q\nstart: q\nalphabet: a\nheads: 0\n",
                "positive integer",
            ),
            (
                "type: mfa\nstates: q\nstart: q\nalphabet: a\nheads: \u00b2\n",
                "positive integer",
            ),
            (
                "type: mfa\nstates: q\nstart: q\nalphabet: a\nheads: 65\n",
                "line 5: head count must be at most 64, got '65'",
            ),
            (
                "type: mfa\nstates: q\nstart: q\nalphabet: a\nheads: 1" + "0" * 5000 + "\n",
                "line 5: head count must be at most 64",
            ),
            ("not a directive\n", "expected 'directive:"),
        ],
    )
    def test_malformed_inputs(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_machine(text)

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("type: dfa\nstates: q\nstart: q\nfinal:\tq\t ghost\nalphabet: a\n", 4, 11),
            ("type: dfa\nstates: q\nstart: q\nalphabet: a\ntrans:\tqq a -> qq\n", 5, 8),
        ],
    )
    def test_columns_count_characters_after_tabs(self, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse_machine(text)
        assert (exc.value.line, exc.value.col) == (line, col)

    @pytest.mark.parametrize(
        "text,line,col",
        [
            # The unknown target shares its name with a read symbol.
            ("type: dfa\nstates: q0\nstart: q0\nalphabet: zz\ntrans: q0 zz -> zz\n", 5, 17),
            (
                "type: wk\nstates: q0\nstart: q0\nalphabet: a\nrho: a->q9\n"
                "trans: q0 a q9 -> q9 1 1\n",
                6,
                19,
            ),
            ("type: dfa\nstates: q0\nstart: q0\nalphabet: a\ntrans: a a -> q0\n", 5, 8),
        ],
    )
    def test_unknown_state_points_at_the_state(self, text, line, col):
        with pytest.raises(ParseError, match="unknown state") as exc:
            parse_machine(text)
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_unknown_symbol_references(self):
        text = (
            "type: wk\nstates: q\nstart: q\nfinal:\nalphabet: a\nrho: a->x\n"
            "trans: q a y -> q 1 1\n"
        )
        with pytest.raises(ParseError, match="unknown lower symbol 'y'"):
            parse_machine(text)


_GAPS = st.text(" \t\u00a0\u3000", min_size=1, max_size=3)
_TOKENS = st.sampled_from(("q", "qq", "q0", "a", "a->a", "->", "#", "$", "\u00e9"))
_UNBROKEN = st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
)


@given(
    rest=st.one_of(
        st.tuples(st.lists(st.tuples(_GAPS, _TOKENS)), _GAPS).map(
            lambda parts: "".join(g + t for g, t in parts[0]) + parts[1]
        ),
        st.text(_UNBROKEN),
    )
)
@settings(max_examples=300)
def test_tokens_and_columns_match_the_regex_tokenizer(rest):
    offset = len("trans") + 1
    expected = [(m.group(), offset + m.start() + 1) for m in re.finditer(r"\S+", rest)]
    assert list(_directive_lines("trans:" + rest)) == [(1, "trans", expected)]


class TestSerialize:
    def test_corpus_files_round_trip(self):
        for name in CORPUS_FILES:
            text = (CORPUS_DIR / name).read_text()
            machine = parse_machine(text)
            assert parse_machine(serialize_machine(machine)) == machine
            assert serialize_machine(machine) == text

    def test_serialization_is_idempotent(self, example1_rwka, theorem2):
        for machine in (example1_rwka, theorem2):
            once = serialize_machine(machine)
            assert serialize_machine(parse_machine(once)) == once

    def test_golden_file_is_the_construction_output(self, example1):
        expected = (CORPUS_DIR / "example1-rwka.wk").read_text()
        assert serialize_machine(dfa_to_rwka(example1)) == expected

    def test_empty_finals_line(self):
        machine = ClassicalDFA(
            states=("q0",), alphabet=("a",), start="q0", finals=set(), delta={}
        )
        text = serialize_machine(machine)
        assert "final:\n" in text
        assert parse_machine(text) == machine

    def test_invalid_machines_are_refused(self):
        machine = ClassicalDFA(
            states=("q0",), alphabet=("a",), start="ghost", finals=set(), delta={}
        )
        with pytest.raises(InvalidMachineError):
            serialize_machine(machine)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_on_random_machines(seed):
    rng = random.Random(seed)
    dfa = random_dfa(rng, max_states=4)
    machines = [dfa, dfa_to_rwka(dfa)]
    wk = dfa_to_rwka(dfa)
    machines.append(
        MultiHeadAutomaton(
            states=("p", "q"),
            alphabet=("a", "b"),
            head_count=2,
            start="p",
            finals={"q"} if rng.random() < 0.5 else set(),
            delta={("p", ("#", "#")): ("q", (rng.randint(0, 1), rng.randint(0, 1)))},
        )
    )
    for machine in machines:
        assert validate(machine).passed
        text = serialize_machine(machine)
        assert parse_machine(text) == machine
        assert serialize_machine(parse_machine(text)) == text


@given(machine=st.one_of(dfas(), wk_machines(), *map(mfa_machines, (1, 2, 3))))
@settings(max_examples=60, deadline=None)
def test_every_kind_round_trips(machine):
    text = serialize_machine(machine)
    assert parse_machine(text) == machine
    assert serialize_machine(parse_machine(text)) == text


class TestWords:
    def test_single_character_alphabets_concatenate(self):
        assert parse_word("aba", ("a", "b")) == ("a", "b", "a")
        assert render_word(("a", "b", "a"), ("a", "b")) == "aba"

    def test_multi_character_alphabets_use_commas(self):
        alphabet = ("a_1", "b_2")
        assert parse_word("a_1,b_2", alphabet) == ("a_1", "b_2")
        assert render_word(("a_1", "b_2"), alphabet) == "a_1,b_2"

    def test_empty_word(self):
        assert parse_word("", ("a",)) == ()
        assert render_word((), ("a",)) == ""

    def test_unknown_symbols_are_errors(self):
        with pytest.raises(UnknownSymbolError):
            parse_word("ax", ("a", "b"))
        with pytest.raises(UnknownSymbolError):
            parse_word("a_1,zz", ("a_1", "b_2"))

    def test_round_trip(self, theorem2, example1_rwka):
        for alphabet, word in [
            (theorem2.upper_alphabet, tuple("ab*a%ab*b")),
            (example1_rwka.lower_alphabet, ("a_1", "b_2", "a_1")),
        ]:
            assert parse_word(render_word(word, alphabet), alphabet) == word
