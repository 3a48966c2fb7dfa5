"""Brute-force ground truths: DFA evaluation, block-language membership,
word enumeration, and differential comparison."""

import bisect
import copy
import inspect
import itertools
import operator
import pickle
import random
import sys
import textwrap
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wkautomata import (
    ClassicalDFA,
    dfa_accepts,
    differential_compare,
    enumerate_block_strings,
    enumerate_words,
    theorem2_machine,
    theorem2_member,
)
from wkautomata import engine, existential_acceptor, oracle
from wkautomata.machines import UnknownSymbolError, WrongKindError
from wkautomata.oracle import (
    BLOCK_ALPHABET,
    AcceptorFailure,
    DiffReport,
    LengthStats,
    _dfa_rows,
)
from wkautomata.samples import random_dfa
from wkautomata.sweeps import block_language, compiled_dfa, seeded_dfas
from conftest import kept_builds


class TestDfaAccepts:
    def test_examples(self, example1):
        assert dfa_accepts(example1, "aba")
        assert not dfa_accepts(example1, "")
        assert not dfa_accepts(example1, "b")

    def test_missing_transition_rejects(self, example1):
        partial = example1.__class__(
            states=example1.states,
            alphabet=example1.alphabet,
            start=example1.start,
            finals=example1.finals,
            delta={("q0", "a"): "q1"},
        )
        assert dfa_accepts(partial, "a")
        assert not dfa_accepts(partial, "ab")

    def test_unknown_symbol(self, example1):
        with pytest.raises(UnknownSymbolError):
            dfa_accepts(example1, "ax")

    def test_unknown_symbol_is_named_in_the_error(self, example1):
        with pytest.raises(UnknownSymbolError, match="^symbol 'x' is not in the alphabet$"):
            dfa_accepts(example1, ("a", "x", "a"))

    def test_closed_form_for_example1(self, example1):
        # (a+b)*a holds exactly for words ending in a; at each length n >= 1
        # that is 2^(n-1) words.
        for n in range(0, 9):
            accepted = [
                w for w in itertools.product("ab", repeat=n) if dfa_accepts(example1, w)
            ]
            assert all(w[-1] == "a" for w in accepted)
            assert len(accepted) == (2 ** (n - 1) if n >= 1 else 0)


def tuple_key_dfa_accepts(dfa, word):
    """DFA evaluation straight off the ``(state, symbol)`` table, as a
    reference: an unknown symbol raises where it stands, a missing move
    rejects where it stands."""
    state = dfa.start
    for sym in word:
        if sym not in dfa.alphabet:
            raise UnknownSymbolError(f"symbol {sym!r} is not in the alphabet")
        state = dfa.delta.get((state, sym))
        if state is None:
            return False
    return state in dfa.finals


def first_missing_move(dfa, word):
    """The index of the first symbol of ``word`` that ``dfa`` has no move
    on, or None."""
    state = dfa.start
    for i, sym in enumerate(word):
        state = dfa.delta.get((state, sym))
        if state is None:
            return i
    return None


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message it raises."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@st.composite
def partial_dfas(draw):
    """DFAs over {a, b}, partial and not always valid: a transition may
    start or end in an undeclared state or read 'c', outside the alphabet,
    and the start state may be undeclared."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    anywhere = st.sampled_from((*states, "ghost"))
    delta = {
        (q, x): draw(anywhere)
        for q in (*states, "ghost")
        for x in ("a", "b", "c")
        if draw(st.booleans())
    }
    start = draw(st.sampled_from((states[0], "ghost")))
    return ClassicalDFA(states, ("a", "b"), start, draw(st.sets(anywhere)), delta)


class TestDfaAcceptsRows:
    @given(
        dfa=partial_dfas(),
        words=st.lists(st.lists(st.sampled_from("abcz")).map(tuple), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_table_walk_matches_the_tuple_key_walk(self, dfa, words):
        for word in words:
            expected = outcome(tuple_key_dfa_accepts, dfa, word)
            assert outcome(dfa_accepts, dfa, word) == expected, word
            assert outcome(dfa_accepts, dfa, iter(word)) == expected, word

    def test_a_missing_move_rejects_before_a_later_unknown_symbol(self):
        dfa = ClassicalDFA(("q0", "q1"), ("a", "b"), "q0", {"q0"}, {("q0", "a"): "q1"})
        assert not dfa_accepts(dfa, ("a", "a", "x"))
        with pytest.raises(UnknownSymbolError, match="^symbol 'x' is not in the alphabet$"):
            dfa_accepts(dfa, ("a", "x", "a"))
        # An unhashable symbol is unknown too, as in the tuple-key walk.
        word = ("a", ["a"], "a")
        assert outcome(dfa_accepts, dfa, word) == outcome(tuple_key_dfa_accepts, dfa, word)

    def test_long_words_through_the_dead_row(self):
        # A word that takes a missing move stays on the dead row to its
        # end, so a foreign symbol after the missing move rejects and one
        # before it raises, however long the word.
        rng = random.Random(1000)
        checked = 0
        for _ in range(40):
            dfa = random_dfa(rng, max_states=4, density=0.6)
            word = rng.choices(dfa.alphabet, k=999)
            missing = first_missing_move(dfa, word)
            if missing is None:
                continue
            for foreign in ("x", ["x"]):
                late = (*word, foreign)
                assert dfa_accepts(dfa, late) is False
                assert tuple_key_dfa_accepts(dfa, late) is False
            i = rng.randint(0, missing)
            early = (*word[:i], "x", *word[i:])
            with pytest.raises(UnknownSymbolError, match="^symbol 'x' is not in the alphabet$"):
                dfa_accepts(dfa, early)
            assert outcome(dfa_accepts, dfa, early) == outcome(tuple_key_dfa_accepts, dfa, early)
            checked += 1
        assert checked > 20

    @pytest.mark.parametrize(
        "copy_of",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_kept_rows_leave_value_semantics_unchanged(self, example1, copy_of):
        m = example1
        twin = ClassicalDFA(m.states, m.alphabet, m.start, m.finals, m.delta)
        before = (hash(m), repr(m), pickle.dumps(m))
        assert dfa_accepts(m, "aba")
        assert "_dfa_rows" in m.__dict__ and "_dfa_rows" not in twin.__dict__
        assert (hash(m), repr(m), pickle.dumps(m)) == before
        assert m == twin and twin == m and hash(twin) == hash(m)
        copied = copy_of(m)
        assert copied == m and hash(copied) == hash(m) and repr(copied) == repr(m)
        assert "_dfa_rows" not in copied.__dict__
        assert dfa_accepts(copied, "aba") and not dfa_accepts(copied, "ab")

    @pytest.mark.parametrize("rows", ["fresh", "kept"])
    def test_contract_holds_whether_or_not_the_rows_are_kept_yet(self, rows, identity_rho):
        # The first call on a DFA builds its rows and later calls read them
        # straight from the DFA; both give the same answers and errors.
        def partial():
            return ClassicalDFA(("q0", "q1"), ("a", "b"), "q0", {"q1"}, {("q0", "a"): "q1"})

        def ready(dfa):
            if rows == "kept":
                dfa_accepts(dfa, "a")
                assert "_dfa_rows" in dfa.__dict__
            return dfa

        # Every move before the first foreign symbol is live, so it is named.
        for word in (("x",), ("a", "x"), ("x", "a"), ("a", "x", "b")):
            with pytest.raises(UnknownSymbolError, match="^symbol 'x' is not in the alphabet$"):
                dfa_accepts(ready(partial()), word)
        with pytest.raises(UnknownSymbolError, match=r"^symbol \['x'\] is not in the alphabet$"):
            dfa_accepts(ready(partial()), ("a", ["x"]))
        # q0 has no move on 'b' and q1 none at all, so a foreign symbol
        # after a missing move rejects.
        for word in (("b", "x"), ("a", "a", "x"), ("a", "b", ["x"]), ("b", "x", "x")):
            assert dfa_accepts(ready(partial()), word) is False
        # A machine of another kind is refused by name, and a word that is
        # not iterable raises its own TypeError.
        for other in (identity_rho, None):
            with pytest.raises(WrongKindError, match="^expected a ClassicalDFA, got a "):
                dfa_accepts(other, "a")
        with pytest.raises(TypeError, match="^'int' object is not iterable$"):
            dfa_accepts(ready(partial()), 5)

    def test_one_build_per_dfa_object_over_a_sweep(self):
        dfas = seeded_dfas(4, 12)
        twins = [ClassicalDFA(d.states, d.alphabet, d.start, d.finals, d.delta) for d in dfas]
        with kept_builds(_dfa_rows) as (builds,):
            for dfa in dfas + twins + dfas:
                assert compiled_dfa(dfa, 5).total_mismatches == 0
        assert [id(dfa) for dfa in builds] == [id(dfa) for dfa in dfas + twins]


class TestTheorem2Member:
    def test_examples(self):
        assert theorem2_member("aa*a%aa*b")
        assert not theorem2_member("a*a%b*a")
        assert not theorem2_member("ab")
        assert theorem2_member("ab*a%ab*b")

    def test_malformed_words(self):
        for word in ("%a*b", "a*b%", "a**b", "a*b%c*d", "*%", "a%b"):
            assert theorem2_blocks(word) is None
            assert not theorem2_member(word)

    def test_zero_and_one_block_words_are_never_members(self):
        assert theorem2_blocks("") == []
        assert not theorem2_member("")
        for word in ("*", "a*", "*b", "ab*ba"):
            assert theorem2_blocks(word) is not None
            assert not theorem2_member(word)

    def test_witness_pairs(self):
        assert theorem2_witnesses("aa*a%ab*a%ab*b") == ((2, 3),)
        assert theorem2_witnesses("ab*a%ab*b") == ((1, 2),)
        assert theorem2_witnesses("a*a%a*b%a*c") == ()  # malformed: 'c'

    def test_membership_agrees_with_the_witness_pairs(self):
        for word in enumerate_words(BLOCK_ALPHABET, 7):
            witnesses = theorem2_witnesses(word)
            assert theorem2_member(word) == bool(witnesses), word
            assert theorem2_member("".join(word)) == bool(witnesses), word
            # block_language's rule: a member has a witness pair (i, j) with
            # i >= 2 exactly when its part after the first '%' is a member.
            if witnesses:
                rest = word[word.index("%") + 1 :]
                assert theorem2_member(rest) == any(i >= 2 for i, _ in witnesses), word

    def test_block_language_classes_members_by_their_witness_pairs(self):
        words = list(enumerate_block_strings(9, 4))
        assert len(words) == 14_756
        pairs = [theorem2_witnesses(word) for word in words]
        detectable = sum(any(i >= 2 for i, _ in p) for p in pairs)
        block1_only = sum(bool(p) and all(i == 1 for i, _ in p) for p in pairs)
        counts = block_language(theorem2_machine(), 9, 4)
        assert (counts.words, counts.detectable, counts.block1_only) == (
            len(words), detectable, block1_only
        ) == (14_756, 740, 1_826)

    def test_foreign_and_multi_character_symbols_are_not_split(self):
        # Joined as text, these would read as well-formed words, the third
        # as the member "a*a%a*b"; but each holds a symbol outside the
        # block alphabet, so none is even well formed.
        for word in (("a*", "b"), ("ab", "*", "a"), ("a*", "a%a*b"), "a*a%a*c", ("a", 1)):
            assert not theorem2_witnesses(word)
            assert not theorem2_member(word), word
        assert theorem2_member(("a", "*", "a", "%", "a", "*", "b"))

    @given(st.lists(st.tuples(st.text("ab", max_size=3), st.text("ab", max_size=3)),
                    min_size=2, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_membership_is_invariant_under_block_swaps(self, pairs):
        def render(ps):
            return "%".join(f"{w}*{x}" for w, x in ps)

        baseline = theorem2_member(render(pairs))
        swapped = list(pairs)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        assert theorem2_member(render(swapped)) == baseline


class TestTheorem2MemberHeadMemo:
    """``theorem2_member`` keeps the summary of the last head it parsed;
    no order of calls may change a verdict."""

    @pytest.fixture(scope="class")
    def reference(self):
        return {
            word: bool(theorem2_witnesses(word))
            for word in enumerate_words(BLOCK_ALPHABET, 8)
        }

    @pytest.mark.parametrize("order", ["enumerated", "reversed", "shuffled"])
    def test_every_word_up_to_length_8_in_any_order(self, reference, order):
        words = list(reference)
        if order == "reversed":
            words.reverse()
        elif order == "shuffled":
            random.Random(24).shuffle(words)
        for i, word in enumerate(words):
            given = "".join(word) if i % 2 else word  # str and tuple, alternating
            assert theorem2_member(given) == reference[word], word

    def test_a_conflicting_head_with_a_malformed_last_block(self):
        for word in ("a*a%a*b%ab", "a*a%a*b%a**", "a*a%a*b%", "a*a%a*b%%a*a"):
            assert theorem2_member("a*a%a*b%b*b")
            assert not theorem2_member(word), word

    def test_a_malformed_head_with_a_conflicting_last_block(self):
        for word in ("a*a%ab%a*b", "a*a%a**%a*b", "%a*a%a*b", "a*a%a*b%ab%a*a"):
            assert theorem2_member("a*a%b*b%a*b")
            assert not theorem2_member(word), word

    def test_one_head_with_different_last_blocks(self):
        verdicts = {"a*a": False, "a*b": True, "b*b": False, "b*": True, "*": False,
                    "ab*a": False, "b**": False, "": False}
        for _ in range(2):
            for last, verdict in verdicts.items():
                assert theorem2_member("a*a%b*b%" + last) is verdict, last

    def test_a_one_block_word_right_after_a_many_block_word(self):
        for word in ("a*b", "a*a", "*", "", "%a*b", "a*b%"):
            assert theorem2_member("a*a%b*b%ab*%a*b")
            assert not theorem2_member(word), word
            assert theorem2_member(tuple("a*a%b*b%ab*%a*b"))

    def test_two_threads_over_disjoint_words(self, reference):
        words = list(reference)
        halves = [words[::2], words[1::2]]
        results = [None, None]

        def sweep(i):
            results[i] = [theorem2_member(word) for word in halves[i]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-call
        try:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for half, verdicts in zip(halves, results):
            assert verdicts == [reference[word] for word in half]

    def test_after_a_sweep_the_memo_holds_one_head(self):
        words = list(enumerate_block_strings(11, 6))
        assert sum(map(theorem2_member, words)) == 30_094
        head, summary = oracle._last_head
        assert head == "".join(words[-1]).rpartition("%")[0]
        assert summary == oracle._head_summary(head)

    def test_an_unhashable_symbol_still_raises(self):
        for word in ((["a"],), ("a", ["a"])):
            with pytest.raises(TypeError):
                theorem2_member(word)
        assert not theorem2_member(("c", ["a"]))  # a foreign symbol rejects first


def symbols(k):
    return [f"s{i}" for i in range(k)]


class TestEnumerateWords:
    def test_two_letter_example(self):
        words = list(enumerate_words(("a", "b"), 2))
        assert words == [
            (),
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
        ]

    def test_max_len_zero(self):
        assert list(enumerate_words(("a", "b"), 0)) == [()]

    def test_lazy_and_reads_the_alphabet_once(self):
        words = enumerate_words(iter("ab"), 10**9)
        first = [(), ("a",), ("b",), ("a", "a")]
        assert list(itertools.islice(words, 4)) == first
        assert list(itertools.islice(words, 4)) == first  # iterated again, from the start
        assert list(enumerate_words(("a", "b"), -1)) == []

    def test_single_letter(self):
        assert list(enumerate_words(("a",), 3)) == [
            (),
            ("a",),
            ("a", "a"),
            ("a", "a", "a"),
        ]

    @given(st.integers(1, 3), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_counts_and_uniqueness(self, k, max_len):
        alphabet = tuple("abc"[:k])
        words = list(enumerate_words(alphabet, max_len))
        assert len(words) == sum(k**n for n in range(max_len + 1))
        assert len(set(words)) == len(words)

    @given(
        st.one_of(
            # Up to four of a, b and c, repeats included: tables of 10, 6 and 5 symbols.
            st.tuples(st.lists(st.sampled_from("abc"), max_size=4), st.integers(-1, 4)),
            # Tables of 4 and 3 symbols; from 6 symbols on, prefixes too.
            st.tuples(st.integers(5, 10).map(symbols), st.integers(-1, 4)),
            # Tables of 2 and 1 symbols under prefixes, at most 40**3 words.
            st.tuples(st.integers(11, 40).map(symbols), st.integers(-1, 3)),
        )
    )
    @example(case=(symbols(6), 4))  # each of the tails 3, 2 and 1 under prefixes
    @example(case=(symbols(11), 3))
    @example(case=(symbols(33), 3))
    @settings(max_examples=60, deadline=None)
    def test_the_groups_spell_the_products_in_order(self, case):
        alphabet, max_len = case
        expected = [w for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)]
        words = enumerate_words(alphabet, max_len)
        assert list(words) == expected
        groups = list(words.groups)
        assert [prefix + tail for prefix, table in groups for tail in table.words] == expected
        assert all(len(table.words) <= oracle._TABLE_WORDS for _, table in groups)

    def test_unhashable_symbols_make_one_group_per_word(self):
        alphabet = (["a"], ["b"])
        expected = [w for n in range(4) for w in itertools.product(alphabet, repeat=n)]
        assert list(enumerate_words(alphabet, 3)) == expected
        groups = list(enumerate_words(alphabet, 3).groups)
        assert [prefix for prefix, _ in groups] == expected


class TestEnumerateBlockStrings:
    def test_small_universe(self):
        words = ["".join(w) for w in enumerate_block_strings(3, 1)]
        assert set(words) == {
            "*", "a*", "*a", "b*", "*b",
            "a*a", "a*b", "b*a", "b*b",
            "aa*", "ab*", "ba*", "bb*",
            "*aa", "*ab", "*ba", "*bb",
        }
        assert len(words) == 17
        # Shortest first, then lexicographic under the order a, b, *, %.
        assert words == [
            "*",
            "a*", "b*", "*a", "*b",
            "aa*", "ab*", "a*a", "a*b", "ba*", "bb*", "b*a", "b*b",
            "*aa", "*ab", "*ba", "*bb",
        ]

    def test_zero_blocks_is_empty(self):
        assert list(enumerate_block_strings(5, 0)) == []

    def test_all_words_are_well_formed(self):
        words = list(enumerate_block_strings(7, 3))
        assert len(words) == len(set(words))
        for word in words:
            pairs = theorem2_blocks(word)
            assert pairs is not None
            assert 1 <= len(pairs) <= 3
            assert len(word) <= 7

    def test_multi_block_words_appear(self):
        words = set(enumerate_block_strings(5, 2))
        assert tuple("a*%*b") in words
        assert tuple("*%*") in words

    def test_matches_the_filtered_universe_in_order(self):
        parsed = [
            (word, theorem2_blocks(word))
            for word in enumerate_words(BLOCK_ALPHABET, 8)
        ]
        for cap in range(1, 5):
            expected = [w for w, blocks in parsed if blocks and len(blocks) <= cap]
            assert list(enumerate_block_strings(8, cap)) == expected

    def test_matches_the_symbol_by_symbol_walk(self):
        for max_blocks in range(7):
            # The reference walks each length on its own, so its words up
            # to any shorter bound are a prefix of its words up to 11.
            expected = list(depth_first_block_strings(11, max_blocks))
            lengths = [len(word) for word in expected]
            for max_len in range(12):
                shorter = expected[: bisect.bisect_right(lengths, max_len)]
                assert list(enumerate_block_strings(max_len, max_blocks)) == shorter

    def test_counts_per_length_of_the_full_sweep(self):
        lengths = [len(word) for word in enumerate_block_strings(11, 6)]
        counts = {n: lengths.count(n) for n in range(1, 12)}
        assert counts == {
            1: 1, 2: 4, 3: 13, 4: 40, 5: 121, 6: 364,
            7: 1093, 8: 3280, 9: 9841, 10: 29524, 11: 88573,
        }
        assert len(lengths) == 132_854

    @pytest.mark.parametrize("max_len,max_blocks", [(0, 3), (-1, 3), (5, -2), (-3, -3)])
    def test_empty_bounds(self, max_len, max_blocks):
        assert list(enumerate_block_strings(max_len, max_blocks)) == []

    def test_blocks_beyond_what_the_length_allows_change_nothing(self):
        # Seven symbols hold at most four blocks, '*%*%*%*'.
        expected = list(depth_first_block_strings(7, 4))
        assert ("*", "%", "*", "%", "*", "%", "*") in expected
        for max_blocks in (4, 5, 9, 1000):
            assert list(enumerate_block_strings(7, max_blocks)) == expected

    def test_words_come_out_lazily(self):
        assert next(iter(enumerate_block_strings(40, 20))) == ("*",)
        head = list(itertools.islice(enumerate_block_strings(40, 20), 50_000))
        assert head == list(itertools.islice(depth_first_block_strings(40, 20), 50_000))
        assert len(head[-1]) == 11

    @given(max_len=st.integers(-1, 9), max_blocks=st.integers(-1, 5))
    @settings(max_examples=60, deadline=None)
    def test_the_groups_spell_the_words_in_order(self, max_len, max_blocks):
        expected = list(depth_first_block_strings(max_len, max_blocks))
        assert list(enumerate_block_strings(max_len, max_blocks)) == expected
        groups = list(enumerate_block_strings(max_len, max_blocks).groups)
        assert [prefix + tail for prefix, table in groups for tail in table.words] == expected
        assert all(0 < len(table.words) <= oracle._TABLE_WORDS for _, table in groups)

    def test_the_table_cache_stays_small(self, monkeypatch):
        # Each table a sweep needs, by its key, read through the cache.
        cached, seen = oracle._table, {}

        def table(moves, left, state):
            seen[left, state] = found = cached(moves, left, state)
            return found

        monkeypatch.setattr(oracle, "_table", table)
        cached.cache_clear()
        for _ in enumerate_block_strings(11, 6).groups:
            pass
        assert len(seen) == cached.cache_info().currsize == 13
        assert sum(len(found.words) for found in seen.values()) == 408
        for max_len in range(13):
            for max_blocks in range(8):
                for _ in enumerate_block_strings(max_len, max_blocks).groups:
                    pass
        assert len(seen) == 23
        assert sum(len(found.words) for found in seen.values()) == 864


def depth_first_block_strings(max_total_len, max_blocks):
    """The block words built one symbol at a time: a reference for
    ``enumerate_block_strings``, which takes the last symbols of each word
    from a table."""
    if max_blocks < 1:
        return
    for length in range(1, max_total_len + 1):
        # Depth first over (prefix, blocks opened, block has its '*'), with
        # children pushed in reverse so that they pop as a, b, *, %.
        stack = [((), 1, False)]
        while stack:
            prefix, blocks, starred = stack.pop()
            left = length - len(prefix)
            if not left:
                yield prefix
                continue
            if starred and blocks < max_blocks and left >= 2:
                stack.append((prefix + ("%",), blocks + 1, False))
            if not starred:
                stack.append((prefix + ("*",), blocks, True))
            if starred or left >= 2:
                stack.append((prefix + ("b",), blocks, starred))
                stack.append((prefix + ("a",), blocks, starred))


def theorem2_blocks(word):
    """Parse ``w1*x1%...%wn*xn`` into (w, x) pairs, or None if malformed: a
    reference for ``theorem2_member`` and ``sweeps.block_language``, which
    decide membership without building the pairs.

    Well-formed means: '%'-separated blocks, exactly one '*' per block, and
    block content over {a, b}.  A leading or trailing '%' creates an empty
    block and is therefore malformed.  The empty word is the well-formed
    zero-block case.
    """
    if not word:
        return []
    blocks = [[]]
    for sym in word:
        if sym == "%":
            blocks.append([])
        else:
            blocks[-1].append(sym)
    pairs = []
    for block in blocks:
        if block.count("*") != 1:
            return None
        cut = block.index("*")
        w, x = block[:cut], block[cut + 1 :]
        if any(sym not in ("a", "b") for sym in w + x):
            return None
        pairs.append(("".join(w), "".join(x)))
    return pairs


def theorem2_witnesses(word):
    """All 1-based block index pairs (i, j), i < j, with w_i = w_j and
    x_i != x_j: the block language's definition, walked pair by pair."""
    pairs = theorem2_blocks(word)
    if pairs is None:
        return ()
    return tuple(
        (i + 1, j + 1)
        for i in range(len(pairs))
        for j in range(i + 1, len(pairs))
        if pairs[i][0] == pairs[j][0] and pairs[i][1] != pairs[j][1]
    )


def reference_compare(accept_a, accept_b, words, *, mismatch_cap=100):
    """``differential_compare`` as a plain per-word loop, as a reference."""
    counts = {}
    mismatches = []
    truncated = False
    max_len = 0
    for raw in words:
        word = tuple(raw)
        max_len = max(max_len, len(word))
        row = counts.setdefault(len(word), [0, 0, 0, 0])
        row[0] += 1
        try:
            in_a = bool(accept_a(word))
        except Exception as exc:  # noqa: BLE001
            raise AcceptorFailure("a", word, exc) from exc
        try:
            in_b = bool(accept_b(word))
        except Exception as exc:  # noqa: BLE001
            raise AcceptorFailure("b", word, exc) from exc
        if in_a == in_b:
            row[1] += 1
        else:
            row[2 if in_a else 3] += 1
            if len(mismatches) < mismatch_cap:
                mismatches.append((word, "a" if in_a else "b"))
            else:
                truncated = True
    per_length = {n: LengthStats(*row) for n, row in sorted(counts.items())}
    return DiffReport(max_len, per_length, tuple(mismatches), truncated, mismatch_cap)


# Acceptor results, true and false, that are not all bools.
_RESULTS = (True, False, 1, 0, "", "x", [], [0], None)


def comparison(call, *args, **kwargs):
    """The report of ``call``, or the side, word and message it fails with."""
    try:
        return call(*args, **kwargs)
    except AcceptorFailure as exc:
        return exc.side, exc.word, str(exc)


class TestDifferentialCompareReference:
    @given(
        words=st.lists(st.lists(st.sampled_from("ab"), max_size=4).map(tuple), max_size=60),
        rng=st.randoms(use_true_random=False),
        cap=st.sampled_from((0, 1, 5, 100)),
        failing=st.sampled_from((None, "a", "b")),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_word_loop(self, words, rng, cap, failing):
        # Lengths interleave, since words are drawn in any order, and an
        # acceptor may fail on one of them.
        results = {}

        def acceptor(side):
            def accept(word):
                if side == failing and words and word == words[-1]:
                    raise ValueError(f"cannot read {word}")
                if (side, word) not in results:
                    results[side, word] = rng.choice(_RESULTS)
                return results[side, word]

            return accept

        accept_a, accept_b = acceptor("a"), acceptor("b")
        expected = comparison(reference_compare, accept_a, accept_b, words, mismatch_cap=cap)
        got = comparison(differential_compare, accept_a, accept_b, iter(words), mismatch_cap=cap)
        assert got == expected
        if isinstance(got, DiffReport):
            assert got.to_tsv() == expected.to_tsv()
            assert got.to_text() == expected.to_text()

    @pytest.mark.parametrize("cap", [0, 1, 5, 100])
    def test_an_empty_stream_gives_an_empty_report(self, cap):
        report = differential_compare(bool, bool, iter(()), mismatch_cap=cap)
        assert report == reference_compare(bool, bool, (), mismatch_cap=cap)
        assert report.max_len == 0 and not report.per_length
        assert report.to_tsv() == "total\t0\t0\t0\t0"


THEOREM2 = theorem2_machine()


def member_outcomes(walk, groups):
    """``walk``'s verdicts on each (prefix, table) group, or the type and
    message of the ``TypeError`` it raised there; every verdict is a bool."""
    outcomes = []
    for prefix, table in groups:
        try:
            verdicts = walk(prefix, table)
        except TypeError as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        assert all(v.__class__ is bool for v in verdicts), verdicts
        outcomes.append(verdicts)
    return outcomes


def members_word_by_word(prefix, table):
    return [theorem2_member(word) for word in oracle._joined(prefix, table.words)]


def table_of(words):
    """The completion table of ``words``, same-length tuples in order."""
    if words == [()]:
        return oracle._NO_TAIL
    return oracle._Completions(tuple(
        (sym, table_of([w[1:] for w in group]))
        for sym, group in itertools.groupby(words, lambda w: w[0])
    ))


def shared_table_groups():
    """One table whose completions all open a block under many prefixes,
    malformed ones included: each word's head is its whole prefix."""
    table = table_of([tuple("%a*a"), tuple("%a*b"), tuple("%b*a")])
    return [(prefix, table) for prefix in enumerate_words(BLOCK_ALPHABET, 5)]


def tail_table_groups():
    """Tables whose completions have no '%', with none, one or two '*',
    under many prefixes: each word's last block is the prefix's tail
    joined to a completion.  Completions of one symbol fit under prefixes
    long enough to hold a head block whose x part is a tail's x part
    joined to a completion, as in '*ab%*a' then 'b'."""
    tables = [(table_of(list(itertools.product("ab*", repeat=k))), n) for k, n in ((1, 6), (3, 4))]
    return [(prefix, table) for table, n in tables for prefix in enumerate_words(BLOCK_ALPHABET, n)]


def member_group_sources():
    """The groups that ``theorem2_member.walk_group`` is checked on: all
    words up to length 8, malformed ones included, the (11, 6) block
    words, one table under many prefixes that each word's head is, one
    under many prefixes that each word's last block goes on from, and
    tables and prefixes with a foreign, two-character or unhashable
    symbol."""
    blocks = oracle._table(oracle._letters, 2, BLOCK_ALPHABET)
    unhashable = oracle._Completions(((["a"], oracle._NO_TAIL), ("a", oracle._NO_TAIL)))
    foreign = [
        *enumerate_words(("a", "*", "%", "c"), 6).groups,
        *enumerate_words(("a*", "%", "*", "b"), 4).groups,  # a two-symbol text
        (("a", "*"), unhashable),
        ((["a"],), blocks),
        (("c",), blocks),
    ]
    return {
        "words-8": lambda: enumerate_words(BLOCK_ALPHABET, 8).groups,
        "blocks-11-6": lambda: enumerate_block_strings(11, 6).groups,
        "shared-table": shared_table_groups,
        "tail-table": tail_table_groups,
        "foreign": lambda: foreign,
    }


MEMBER_SOURCES = member_group_sources()


def grouped_sources(draw_source):
    """A function that makes a fresh enumeration of ``draw_source``:
    ("words", alphabet, max_len) or ("blocks", max_len, max_blocks)."""
    kind, *bounds = draw_source
    return lambda: (enumerate_words if kind == "words" else enumerate_block_strings)(*bounds)


class TestGroupedSweeps:
    """An enumeration that has not started is compared group by group, and
    a kept acceptor or ``theorem2_member`` decides a whole group with one
    walk; everything else is compared in runs of words.  Either way the
    verdicts, the report, the bytes and any failure are those of the
    per-word loop, and a compare spells a group's words only where they
    are read."""

    @given(
        source=st.one_of(
            st.tuples(
                st.just("words"),
                st.lists(st.sampled_from("ab*%c"), min_size=1, max_size=4),  # repeats, a foreign c
                st.integers(-1, 5),
            ),
            st.tuples(st.just("blocks"), st.integers(0, 7), st.integers(0, 3)),
        ),
        sides=st.tuples(*[st.sampled_from(("fresh", "warm", "results", "raises"))] * 2),
        rng=st.randoms(use_true_random=False),
        cap=st.sampled_from((0, 1, 5, 100)),
    )
    @settings(max_examples=120, deadline=None)
    def test_the_group_route_matches_the_per_word_loop(self, source, sides, rng, cap):
        make = grouped_sources(source)
        words = list(make())
        failing = rng.choice(words) if words else None
        results = {}

        def acceptor(side, kind):
            if kind == "fresh":
                return existential_acceptor.__wrapped__(THEOREM2)
            if kind == "warm":
                return existential_acceptor(THEOREM2)

            def accept(word):
                if kind == "raises" and word == failing:
                    raise ValueError(f"cannot read {word}")
                if (side, word) not in results:
                    results[side, word] = rng.choice(_RESULTS)
                return results[side, word]

            return accept

        expected = comparison(
            reference_compare, *(acceptor(s, k) for s, k in zip("ab", sides)), words,
            mismatch_cap=cap,
        )
        got = comparison(
            differential_compare, *(acceptor(s, k) for s, k in zip("ab", sides)), make(),
            mismatch_cap=cap,
        )
        assert got == expected
        if isinstance(got, DiffReport):
            assert got.to_tsv() == expected.to_tsv()
            assert got.to_text() == expected.to_text()

    @given(
        source=st.one_of(
            st.tuples(
                st.just("words"),
                st.lists(st.sampled_from("ab*%"), min_size=1, max_size=5),  # repeats
                st.integers(0, 5),
            ),
            st.tuples(st.just("blocks"), st.integers(0, 8), st.integers(0, 4)),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_kept_acceptor_decides_every_group_by_its_walk(self, source):
        # Every run is a group that the walk decides, so the predicate
        # itself is never called, and a plan that cannot be built raises.
        make = grouped_sources(source)
        words = list(make())
        accept = existential_acceptor(THEOREM2)
        expected = [accept(word) for word in words]

        def no_call(word):
            raise AssertionError(f"walked {word} alone")

        no_call.walk_group = accept.walk_group
        runs = list(oracle.sweep_verdicts(no_call, make()))
        assert [w for run, _ in runs for w in run] == words
        assert [v for _, verdicts in runs for v in verdicts] == expected

    @given(
        source=st.one_of(
            st.tuples(
                st.just("words"),
                st.lists(st.sampled_from("ab*%"), min_size=1, max_size=4),  # repeats
                st.integers(0, 6),
            ),
            st.tuples(st.just("blocks"), st.integers(0, 9), st.integers(0, 4)),
        ),
        extra=st.lists(st.sampled_from("xyz"), unique=True),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_plan_spells_each_completion_in_its_columns(self, source, extra, rng):
        # With each symbol's index in the order as its column, walking a
        # plan level by level spells the table's completions in order; an
        # order without one of the table's symbols has no plan, and the
        # table of the empty completion has the plan [] under any order.
        for _, table in grouped_sources(source)().groups:
            symbols = list(dict.fromkeys(itertools.chain(*table.words)))
            order = symbols + extra
            rng.shuffle(order)
            plan = engine._plan(table, tuple(order))
            assert (plan == []) == (table.words == ((),))
            paths = [()]
            for level in plan:
                assert len(level) == len(paths)
                paths = [path + (c,) for path, cs in zip(paths, level) for c in cs]
            assert paths == [tuple(map(order.index, word)) for word in table.words]
            if symbols:
                order.remove(rng.choice(symbols))
                assert engine._plan(table, tuple(order)) is None

    @pytest.mark.parametrize(
        "source, plans",
        [(("blocks", 11, 6), 13), (("words", ("a", "b"), 12), 11)],
        ids=["blocks-11-6", "words-ab-12"],
    )
    def test_each_table_is_planned_once(self, example1_rwka, source, plans):
        # A subtable that several children share is planned once, so a
        # sweep builds one plan per table it builds.
        accept = existential_acceptor(THEOREM2 if source[0] == "blocks" else example1_rwka)
        engine._plan.cache_clear()
        oracle._table.cache_clear()
        differential_compare(accept, theorem2_member, grouped_sources(source)())
        assert engine._plan.cache_info().misses == plans
        assert oracle._table.cache_info().misses == plans

    def test_an_enumeration_goes_by_groups_on_every_sweep_and_other_iterables_by_words(
        self, monkeypatch
    ):
        kept = existential_acceptor(THEOREM2)
        calls = []

        def accept(word):
            calls.append("word")
            return kept(word)

        def walk_group(prefix, table):
            calls.append("group")
            return kept.walk_group(prefix, table)

        accept.walk_group = walk_group
        source = enumerate_block_strings(7, 3)
        groups = len(list(source.groups))
        # Listed and peeked at first: neither uses the enumeration up.
        words = list(source)
        assert next(iter(source)) == words[0]
        expected = reference_compare(kept, theorem2_member, words)
        assert expected.total_words == len(words) > groups > 1
        for _ in range(2):
            calls.clear()
            assert differential_compare(accept, theorem2_member, source) == expected
            assert calls == ["group"] * groups
        for other in (iter(source), list(source), (word for word in source)):
            calls.clear()
            assert differential_compare(accept, theorem2_member, other) == expected
            assert calls == ["word"] * len(words)

        # Two sides without a group walk: each group is spelled once for both.
        spelled = []
        joined = oracle._joined

        def counted(prefix, completions):  # counts the words a prefix is joined to
            spelled.append(len(completions) if prefix else 0)
            return joined(prefix, completions)

        monkeypatch.setattr(oracle, "_joined", counted)
        plain = lambda word: kept(word)  # noqa: E731
        assert differential_compare(plain, plain, source) == reference_compare(kept, kept, words)
        assert sum(spelled) == sum(len(table.words) for prefix, table in source.groups if prefix)
        member = lambda word: theorem2_member(word)  # noqa: E731
        assert differential_compare(plain, member, source) == expected

    def test_a_failure_of_the_group_walk_itself_is_raised(self, monkeypatch):
        def broken(table, column):
            raise IndexError("no plan")

        monkeypatch.setattr(engine, "_plan", broken)
        accept = existential_acceptor(THEOREM2)
        with pytest.raises(IndexError, match="^no plan$"):
            differential_compare(accept, theorem2_member, enumerate_block_strings(7, 3))
        with pytest.raises(IndexError, match="^no plan$"):
            list(oracle.sweep_verdicts(accept, enumerate_block_strings(7, 3)))
        # An acceptor that fails word by word is still the one reported.
        def refuse(word):
            raise ValueError("refused")

        with pytest.raises(AcceptorFailure) as failure:
            differential_compare(accept, refuse, enumerate_block_strings(7, 3))
        assert (failure.value.side, failure.value.word) == ("b", ("*",))

    def test_sweep_verdicts_reads_the_groups_once(self, example1_rwka):
        accept = existential_acceptor(example1_rwka)
        words = list(enumerate_words(("a", "b"), 11))
        runs = list(oracle.sweep_verdicts(accept, enumerate_words(("a", "b"), 11)))
        assert len(runs) == 13  # lengths 0 to 10 in one table each, then two prefixes
        assert [w for run, _ in runs for w in run] == words
        assert [v for _, verdicts in runs for v in verdicts] == [accept(w) for w in words]
        plain = list(oracle.sweep_verdicts(accept, iter(words)))
        assert [(run, verdicts) for run, verdicts in plain] == [
            (run[i : i + oracle._RUN], verdicts[i : i + oracle._RUN])
            for run, verdicts in runs
            for i in range(0, len(run), oracle._RUN)
        ]

    @pytest.mark.parametrize("source", MEMBER_SOURCES.values(), ids=list(MEMBER_SOURCES))
    def test_group_verdicts_equal_the_per_word_verdicts(self, source):
        groups = list(source())
        assert member_outcomes(theorem2_member.walk_group, groups) == member_outcomes(
            members_word_by_word, groups
        )

    def test_a_planted_fault_in_the_group_walk_is_seen(self):
        groups = [
            *enumerate_block_strings(11, 6).groups, *shared_table_groups(), *tail_table_groups()
        ]
        expected = member_outcomes(members_word_by_word, groups)
        walk = theorem2_member.walk_group
        target = tuple("a*a%a*b")

        def flipped(prefix, table):  # one verdict of the sweep flipped
            return [v != (prefix + c == target) for v, c in zip(walk(prefix, table), table.words)]

        assert member_outcomes(flipped, groups) != expected
        source = textwrap.dedent(inspect.getsource(oracle._member_group))
        cut = '    head, cut, tail = "".join(prefix).rpartition("%")\n'
        start = "    verdicts = [False] * size\n"
        mutants = {
            # The prefix's tail taken from the group before.
            "stale tail": (cut, cut + "    global last_tail\n    tail, last_tail = last_tail, tail\n"),
            # The verdicts of the group before carried into this one.
            "stale verdicts": (
                start,
                "    global verdicts\n    verdicts = verdicts[:size] + [False] * (size - len(verdicts))\n",
            ),
            # Only the prefix head's summary and the first block looked up,
            # not the head's own blocks.
            "own blocks skipped": ("*own.items(), (w, x))", "(w, x))"),
        }
        for name, (old, new) in mutants.items():
            assert source.count(old) == 1, name
            namespace = {**vars(oracle), "last_tail": "", "verdicts": []}
            exec(source.replace(old, new), namespace)
            assert member_outcomes(namespace["_member_group"], groups) != expected, name

    def test_random_prefixes_under_every_table_give_the_per_word_verdicts(self):
        # Prefixes of up to 9 symbols, conflicting and malformed heads under
        # long tails among them, under every table of two sweeps and one
        # whose completions hold blocks of their own, conflicting, malformed
        # or agreeing: either random symbols, or random blocks of a few
        # short w and x parts.
        rng = random.Random(40)
        own = ["%*%*a%*", "%*a%*%*", "%a*%a*b", "%**%a*a", "*a%b*%*", "a%*%*%b", "a%*a%*b"]
        sweeps = (enumerate_block_strings(11, 6), enumerate_words(BLOCK_ALPHABET, 6))
        tables = {id(table): table for source in sweeps for _, table in source.groups}
        seen = set()
        for table in [*tables.values(), table_of(sorted(map(tuple, own)))]:
            for _ in range(100):
                if rng.random() < 0.5:
                    text = "".join(rng.choices(BLOCK_ALPHABET, k=rng.randint(0, 9)))
                else:
                    blocks = [rng.choice(("", "a", "ab")) + "*" + rng.choice(("", "a", "b"))
                              for _ in range(4)]
                    text = "%".join(blocks)[: rng.randint(0, 9)]
                prefix = tuple(text)
                head, cut, tail = text.rpartition("%")
                summary = oracle._head_summary(head) if cut else None
                seen.add((summary if isinstance(summary, bool) else "blocks", len(tail) > 2))
                got = theorem2_member.walk_group(prefix, table)
                assert got == members_word_by_word(prefix, table), prefix
        assert {(True, True), (False, True)} <= seen

    @pytest.mark.parametrize(
        "sides, cap, spells",
        [(("member", "member"), 100, 0), (("acceptor", "acceptor"), 100, 0),
         (("acceptor", "member"), 5, 2), (("member", "acceptor"), 100, 8)],
    )
    def test_a_compare_spells_only_the_groups_where_the_sides_differ(
        self, monkeypatch, sides, cap, spells
    ):
        # Of the groups whose verdict lists differ, only those up to the one
        # that fills the cap are spelled, to list their mismatches.
        kept = existential_acceptor(THEOREM2)
        accept_a, accept_b = (theorem2_member if s == "member" else kept for s in sides)
        words = list(enumerate_block_strings(11, 6))
        expected = reference_compare(accept_a, accept_b, words, mismatch_cap=cap)
        differ = [
            sum(map(operator.is_not, a, b))
            for a, b in (
                (accept_a.walk_group(prefix, table), accept_b.walk_group(prefix, table))
                for prefix, table in enumerate_block_strings(11, 6).groups
            )
            if a != b
        ]
        assert len(differ) == (0 if sides[0] == sides[1] else 817)  # of 1,097 groups
        assert sum(differ) == expected.total_mismatches  # 18,304 or none
        filled = list(itertools.accumulate(differ))
        assert spells == (bisect.bisect_left(filled, cap) + 1 if differ else 0)
        spelled = []
        joined = oracle._joined
        monkeypatch.setattr(
            oracle, "_joined", lambda prefix, table: spelled.append(prefix) or joined(prefix, table)
        )
        report = differential_compare(
            accept_a, accept_b, enumerate_block_strings(11, 6), mismatch_cap=cap
        )
        assert len(spelled) == spells
        assert report == expected
        assert report.to_tsv() == expected.to_tsv()
        assert report.truncated == bool(differ)


def parity(word):
    """A side that differs from ``theorem2_member`` both ways: an even
    count of 'a'.  Its group walk decides each completion alone."""
    return word.count("a") % 2 == 0


parity.walk_group = lambda prefix, table: [parity(prefix + c) for c in table.words]


class TestCompareListing:
    """Where the sides differ, a compare counts each side's mismatches and
    lists only those that fit under the cap.  On the group route and the
    list route alike, the report is the per-word loop's: its counts, its
    mismatches in order with their sides, its truncation and its bytes."""

    @pytest.fixture(scope="class")
    def mismatches(self):
        words = list(enumerate_words(BLOCK_ALPHABET, 6))
        report = reference_compare(theorem2_member, parity, words, mismatch_cap=len(words))
        assert report.totals.a_only and report.totals.b_only  # both sides accept some
        return report.total_mismatches

    @pytest.mark.parametrize("route", ["groups", "list"])
    @pytest.mark.parametrize("cap", [0, 1, 5, 100, "all", "one more"])
    def test_the_report_is_the_per_word_loops(self, mismatches, route, cap):
        cap = {"all": mismatches, "one more": mismatches + 1}.get(cap, cap)
        source = enumerate_words(BLOCK_ALPHABET, 6)
        expected = reference_compare(theorem2_member, parity, source, mismatch_cap=cap)
        words = source if route == "groups" else list(source)
        report = differential_compare(theorem2_member, parity, words, mismatch_cap=cap)
        assert report == expected
        assert report.truncated == (mismatches > cap)
        assert report.to_tsv() == expected.to_tsv()
        assert report.to_text() == expected.to_text()


class TestDifferentialCompare:
    def test_example1_vs_constructed(self, example1, example1_rwka):
        from wkautomata import existential_acceptor

        report = differential_compare(
            lambda w: dfa_accepts(example1, w),
            existential_acceptor(example1_rwka),
            enumerate_words(("a", "b"), 8),
        )
        assert report.total_mismatches == 0
        assert report.total_words == 511
        assert not report.mismatches

    def test_acceptor_vs_itself(self, example1):
        accept = lambda w: dfa_accepts(example1, w)  # noqa: E731
        report = differential_compare(accept, accept, enumerate_words(("a", "b"), 6))
        assert report.total_mismatches == 0

    def test_complement_mismatches_everywhere(self, example1):
        accept = lambda w: dfa_accepts(example1, w)  # noqa: E731
        reject = lambda w: not dfa_accepts(example1, w)  # noqa: E731
        report = differential_compare(accept, reject, enumerate_words(("a", "b"), 6))
        for length, stats in report.per_length.items():
            assert stats.agreements == 0
            assert stats.a_only + stats.b_only == stats.words
            if length >= 1:
                assert stats.a_only == 2 ** (length - 1)

    def test_mismatch_cap_keeps_totals_exact(self, example1):
        accept = lambda w: dfa_accepts(example1, w)  # noqa: E731
        reject = lambda w: not dfa_accepts(example1, w)  # noqa: E731
        report = differential_compare(
            accept, reject, enumerate_words(("a", "b"), 6), mismatch_cap=5
        )
        assert len(report.mismatches) == 5
        assert report.truncated
        assert report.total_mismatches == 127

    def test_a_cap_of_zero_shows_how_many_it_hides(self):
        report = differential_compare(
            lambda w: True, lambda w: False, enumerate_words(("a",), 2), mismatch_cap=0
        )
        assert report.mismatches == () and report.truncated
        assert report.to_text().splitlines()[-1] == "mismatches (showing 0 of 3):"
        assert report.to_tsv().splitlines()[-1] == "mismatches-truncated\t3"

    def test_acceptor_errors_carry_the_word(self, example1):
        def broken(word):
            raise ValueError("boom")

        with pytest.raises(AcceptorFailure) as exc:
            differential_compare(
                lambda w: dfa_accepts(example1, w),
                broken,
                enumerate_words(("a", "b"), 1),
            )
        assert exc.value.side == "b"
        assert exc.value.word == ()

    def test_swapping_acceptors_swaps_the_columns(self, example1, example1_rwka):
        from wkautomata import existential_acceptor

        accept_dfa = lambda w: dfa_accepts(example1, w)  # noqa: E731
        accept_all = lambda w: True  # noqa: E731
        words = list(enumerate_words(("a", "b"), 5))
        forward = differential_compare(accept_dfa, accept_all, words)
        backward = differential_compare(accept_all, accept_dfa, words)
        for length, stats in forward.per_length.items():
            mirrored = backward.per_length[length]
            assert (stats.a_only, stats.b_only) == (mirrored.b_only, mirrored.a_only)
            assert stats.agreements == mirrored.agreements

    def test_reports_are_hashable_and_their_rows_read_only(self, example1):
        accept = lambda w: dfa_accepts(example1, w)  # noqa: E731
        reject = lambda w: not dfa_accepts(example1, w)  # noqa: E731
        words = list(enumerate_words(("a", "b"), 3))
        first = differential_compare(accept, reject, words)
        second = differential_compare(accept, reject, words)
        assert first == second
        assert hash(first) == hash(second)
        assert first.totals.words == 15
        row = first.per_length[2]
        with pytest.raises(TypeError):
            first.per_length[2] = LengthStats(1, 1, 0, 0)
        with pytest.raises(TypeError):
            del first.per_length[2]
        with pytest.raises(TypeError):
            first.per_length.update({2: row})
        assert first.per_length[2] is row
        assert first.totals.words == sum(s.words for s in first.per_length.values())

    def test_report_serialization_is_deterministic(self, example1):
        accept = lambda w: dfa_accepts(example1, w)  # noqa: E731
        reject = lambda w: not dfa_accepts(example1, w)  # noqa: E731
        words = list(enumerate_words(("a", "b"), 3))
        first = differential_compare(accept, reject, words)
        second = differential_compare(accept, reject, words)
        assert first.to_text() == second.to_text()
        assert first.to_tsv() == second.to_tsv()
        assert "mismatch\ta\t" in first.to_tsv()
        assert first.to_text().splitlines()[0].split() == [
            "length", "words", "agree", "a-only", "b-only",
        ]
