"""Independent brute-force ground truths and differential comparison.

DFA evaluation is plain left-to-right, the block-language membership test
works straight off the language definition, the word enumerators are
exhaustive, and the strand brute force tries every complementary lower
strand on the engines' deterministic run loop, the only part of the
engines it uses.  That makes these functions usable as oracles against
the machine constructions and the existential search.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property

from .engine import _run_loop
from .fileformat import word_separator
from .machines import (
    ClassicalDFA,
    FrozenDict,
    MachineError,
    Record,
    UnknownSymbolError,
    WKAutomaton,
    kept,
    require_kind,
    require_symbols,
)

Word = tuple[str, ...]

BLOCK_ALPHABET = ("a", "b", "*", "%")
_BLOCK_SYMBOLS = frozenset(BLOCK_ALPHABET)


class AcceptorFailure(Exception):
    """An acceptor raised while comparing; carries the offending word."""

    def __init__(self, side: str, word: Word, cause: Exception):
        self.side = side
        self.word = word
        super().__init__(f"acceptor {side} failed on word {word!r}: {cause}")


class SearchBoundError(MachineError):
    """A brute-force enumeration would exceed its configured bound."""


# The key under which a row of ``_dfa_rows`` keeps its finality: a private
# object, so no word holds it as a symbol.
_FINAL = object()


@kept
def _dfa_rows(dfa: ClassicalDFA) -> tuple[dict, dict]:
    """``dfa``'s moves as linked rows: the start row and the dead row.

    A row is a dict from each alphabet symbol to the row its move on that
    symbol leads to, and from ``_FINAL`` to the row's finality.  A missing
    move leads to the dead row, whose every symbol leads back to itself and
    which is not final.  There is a row for every declared state, the start
    state and every target, so the table needs no valid machine.
    """
    require_kind(dfa, ClassicalDFA)
    delta = dfa.delta
    dead: dict = {_FINAL: False}
    dead.update(dict.fromkeys(dfa.alphabet, dead))
    rows = {q: {} for q in {dfa.start, *dfa.states, *delta.values()}}
    for q, row in rows.items():
        row.update({x: rows.get(delta.get((q, x)), dead) for x in dfa.alphabet})
        row[_FINAL] = q in dfa.finals
    return rows[dfa.start], dead


def dfa_accepts(dfa: ClassicalDFA, word: Sequence[str]) -> bool:
    """Standard DFA evaluation; a missing transition rejects.

    The walk follows the linked rows that the first call on ``dfa`` builds
    and keeps on it, one dict subscript per symbol, and reads the finality
    of the row it ends on.  A missing move leads to the dead row, which the
    walk follows to the end of the word.  A symbol outside the alphabet is
    not a key of any row, so it raises ``UnknownSymbolError`` when the walk
    reaches it, unless the walk is already on the dead row: a missing move
    earlier in the word rejects first.  The DFA is not validated.

    A call reads the kept rows straight from ``dfa.__dict__``, where
    ``kept`` stores them under the build's name, and calls ``_dfa_rows``
    only when they are not there yet, so a sweep pays one dict lookup per
    word for them.  That call refuses a machine of another kind with
    ``WrongKindError``.
    """
    try:
        row, dead = dfa.__dict__["_dfa_rows"]
    except (KeyError, AttributeError):
        row, dead = _dfa_rows(dfa)
    symbols = iter(word)  # a word that is not iterable raises its own TypeError here
    try:
        for sym in symbols:
            row = row[sym]
    except (KeyError, TypeError):  # TypeError: an unhashable symbol
        if row is dead:
            return False
        raise UnknownSymbolError(f"symbol {sym!r} is not in the alphabet") from None
    return row[_FINAL]


def _head_summary(head: str) -> bool | dict[str, str]:
    """What the blocks of ``head``, a word's text before its last '%',
    decide about the word.

    ``False`` if some block is malformed, ``True`` if two blocks share a w
    part but differ in the x part, and otherwise the map from each w part
    to its x part.
    """
    xs: dict[str, str] = {}
    conflict = False
    for block in head.split("%"):
        w, star, x = block.partition("*")
        if not star or "*" in x:
            return False
        conflict = conflict or xs.setdefault(w, x) != x
    return conflict or xs


# The most recent head and its summary, as one pair replaced in one
# assignment, so a call on any thread reads a head with its own summary.
# A summary's map is never changed once it is here.
_last_head: tuple[str, bool | dict[str, str]] = ("", {})


def theorem2_member(word: Sequence[str]) -> bool:
    """Membership in the block language: some two blocks share the w part
    but differ in the x part.  Malformed words are simply non-members.

    Once every symbol is one of ``BLOCK_ALPHABET`` the word can be joined
    and cut at its last '%' as text.  A word with nothing before that '%'
    is no member.  Otherwise the last block is checked directly, and the
    head before it is reduced to one summary by ``_head_summary``, kept
    for the most recent head only: consecutive words of a sweep often
    share their head (74% of the block words of (11, 6) in enumeration
    order, half of all words up to length 8 over ``BLOCK_ALPHABET``), and
    such a word parses one block.  The memo holds one head at a time, and
    any thread may call this function.
    """
    global _last_head
    if not _BLOCK_SYMBOLS.issuperset(word):
        return False
    head, _, last = "".join(word).rpartition("%")
    if not head:  # no '%', or only a first one: no two well-formed blocks
        return False
    w, star, x = last.partition("*")
    if not star or "*" in x:
        return False
    kept_head, summary = _last_head
    if head != kept_head:
        summary = _head_summary(head)
        _last_head = head, summary
    if summary.__class__ is bool:
        return summary
    return summary.get(w, x) != x  # a w part the head lacks reads as agreeing


def complement_strands(machine: WKAutomaton, upper: Sequence[str]) -> Iterator[Word]:
    """All complementary lower strands of ``upper``, lazily.

    The order is lexicographic with the per-position image order exactly as
    declared in the complementarity relation; the empty word yields exactly
    one strand, the empty word itself.
    """
    require_kind(machine, WKAutomaton)
    w1 = tuple(upper)
    require_symbols(w1, machine.upper_alphabet, "upper alphabet")
    return itertools.product(*[machine.rho.image(x) for x in w1])


def accepts_existential_bruteforce(
    machine: WKAutomaton, upper: Sequence[str], *, max_strands: int = 1_000_000
) -> bool:
    """Independent oracle: try every complementary strand deterministically."""
    require_kind(machine, WKAutomaton)
    run = _run_loop(machine)
    w1 = tuple(upper)
    strands = complement_strands(machine, w1)
    if math.prod(len(machine.rho.image(x)) for x in w1) > max_strands:
        raise SearchBoundError(
            f"strand count exceeds the bound of {max_strands} for a word of length {len(w1)}"
        )
    return any(run((w1, w2), False).accepted for w2 in strands)


def enumerate_words(alphabet: Sequence[str], max_len: int) -> Iterator[Word]:
    """All words of length 0..max_len, shortest first, then lexicographic
    by the declared symbol order.

    The words come out lazily through C iterators, one ``product`` per
    length, so the sweep resumes no Python frame per word.
    """
    alphabet = tuple(alphabet)
    return itertools.chain.from_iterable(
        itertools.product(alphabet, repeat=n) for n in range(max_len + 1)
    )


# Completions of at most this many symbols come from the tail table, so
# the prefix walk stops this far from each word's end.  Enumerating the
# (11, 6) sweep in interleaved runs, 4 was 20-50% slower than 5 (more
# prefixes to walk) and 6 no faster, with a table three times as large.
_TAIL = 5


def _successors(left: int, room: int, starred: bool) -> tuple[tuple[str, int, bool], ...]:
    """The symbols that may come next, in the order a, b, *, %, each with
    the blocks still allowed and whether the block has its '*' after it.

    ``left`` symbols remain (at least 1) and ``room`` more blocks may be
    opened.  Every successor still ends in a word of exactly ``left``
    symbols: a block without its '*' needs a symbol for it, and a '%'
    needs a '*' after it.
    """
    if not starred:
        star = ("*", room, True)
        return (("a", room, False), ("b", room, False), star) if left >= 2 else (star,)
    if room and left >= 2:
        return ("a", room, True), ("b", room, True), ("%", room - 1, False)
    return ("a", room, True), ("b", room, True)


# Every completion of at most ``_TAIL`` symbols, in order, under (symbols
# left, blocks still allowed, block has its '*'), filled in by ``_tails``
# on first use.  Room is capped at ``left // 2`` in the key, so the table
# never holds more than 23 entries (864 words in all) whatever the bounds.
_TAIL_TABLE: dict[tuple[int, int, bool], tuple[Word, ...]] = {}


def _tails(left: int, room: int, starred: bool) -> tuple[Word, ...]:
    """Every completion of exactly ``left`` symbols, in order.

    ``room`` must already be at most ``left // 2``: each further block needs
    a '%' and a '*', so more room opens no more words, and states that
    differ only there share one entry.
    """
    key = (left, room, starred)
    tails = _TAIL_TABLE.get(key)
    if tails is None:
        if not left:
            tails = ((),) if starred else ()  # a block ends only after its '*'
        else:
            rest = left - 1
            tails = tuple(
                (sym, *tail)
                for sym, after, star in _successors(left, room, starred)
                for tail in _tails(rest, min(after, rest // 2), star)
            )
        _TAIL_TABLE[key] = tails
    return tails


def _block_words_by_prefix(max_total_len: int, max_blocks: int) -> Iterator[Iterator[Word]]:
    """For each prefix, in order, an iterator over its words."""
    if max_blocks < 1:
        return
    for length in range(1, max_total_len + 1):
        tail = min(length, _TAIL)
        # Depth first over (prefix, symbols left, blocks still allowed,
        # block has its '*'), with successors pushed in reverse so that
        # they pop as a, b, *, %: each length comes out sorted.
        stack: list[tuple[Word, int, int, bool]] = [((), length, max_blocks - 1, False)]
        while stack:
            prefix, left, room, starred = stack.pop()
            if left == tail:
                yield map(prefix.__add__, _tails(left, min(room, left // 2), starred))
                continue
            stack += [
                (prefix + (sym,), left - 1, after, star)
                for sym, after, star in reversed(_successors(left, room, starred))
            ]


def enumerate_block_strings(max_total_len: int, max_blocks: int) -> Iterator[Word]:
    """All well-formed block words up to the given total length and block
    count, shortest first, then lexicographic under the order a, b, *, %.

    Only the prefixes are walked symbol by symbol: for each length, a
    depth-first walk stops ``_TAIL`` symbols short of the end (or at the
    empty prefix for shorter words), and each prefix's words are the prefix
    joined to every completion in the tail table.  The table lists the
    completions of each (symbols left, blocks still allowed, block has its
    '*') in order, and is filled once per process; the walk and the table
    follow the same successor rule, ``_successors``.  The words come out
    lazily, one prefix at a time, through C iterators that resume no
    Python frame per word.
    """
    return itertools.chain.from_iterable(_block_words_by_prefix(max_total_len, max_blocks))


class LengthStats(Record):
    words: int
    agreements: int
    a_only: int
    b_only: int


class DiffReport(Record):
    """Per-length agreement counts plus a capped list of mismatches.

    ``mismatches`` holds (word, side) pairs where side names the acceptor
    that accepted; totals stay exact even when the list is truncated.
    ``per_length`` is a read-only ``FrozenDict``, so a report hashes and
    its cached ``totals`` always match its rows.  ``to_text`` and
    ``to_tsv`` show a word with ``render``, or by default joined with
    ``fileformat.word_separator`` as a command-line word.
    """

    max_len: int
    per_length: FrozenDict[int, LengthStats]
    mismatches: tuple[tuple[Word, str], ...]
    truncated: bool
    cap: int

    def __post_init__(self):
        object.__setattr__(self, "per_length", FrozenDict(self.per_length))

    @cached_property
    def totals(self) -> LengthStats:
        """The column sums of ``per_length``, in one pass over its rows."""
        words = agreements = a_only = b_only = 0
        for s in self.per_length.values():
            words += s.words
            agreements += s.agreements
            a_only += s.a_only
            b_only += s.b_only
        return LengthStats(words, agreements, a_only, b_only)

    @property
    def total_words(self) -> int:
        return self.totals.words

    @property
    def total_mismatches(self) -> int:
        return self.totals.a_only + self.totals.b_only

    def to_text(self, render: Callable[[Word], str] | None = None) -> str:
        lines = [f"{'length':>6} {'words':>8} {'agree':>8} {'a-only':>8} {'b-only':>8}"]
        for label, s in [*sorted(self.per_length.items()), ("total", self.totals)]:
            lines.append(
                f"{label:>6} {s.words:>8} {s.agreements:>8} {s.a_only:>8} {s.b_only:>8}"
            )
        if not self.mismatches:
            lines.append("mismatches: none")
        else:
            shown = len(self.mismatches)
            suffix = f" (showing {shown} of {self.total_mismatches})" if self.truncated else ""
            lines.append(f"mismatches{suffix}:")
            for word, side in self.mismatches:
                text = render(word) if render else word_separator(word).join(word)
                lines.append(f"  {side}-only: {text}")
        return "\n".join(lines)

    def to_tsv(self, render: Callable[[Word], str] | None = None) -> str:
        lines = [
            f"len\t{n}\t{s.words}\t{s.agreements}\t{s.a_only}\t{s.b_only}"
            for n, s in sorted(self.per_length.items())
        ]
        t = self.totals
        lines.append(f"total\t{t.words}\t{t.agreements}\t{t.a_only}\t{t.b_only}")
        for word, side in self.mismatches:
            text = render(word) if render else word_separator(word).join(word)
            lines.append(f"mismatch\t{side}\t{text}")
        if self.truncated:
            lines.append(f"mismatches-truncated\t{self.total_mismatches}")
        return "\n".join(lines)


def differential_compare(
    accept_a: Callable[[Word], bool],
    accept_b: Callable[[Word], bool],
    words: Iterable[Sequence[str]],
    *,
    mismatch_cap: int = 100,
) -> DiffReport:
    """Evaluate both acceptors on every word and aggregate per length."""
    counts: dict[int, list[int]] = {}  # length: [words, a_only, b_only]
    mismatches: list[tuple[Word, str]] = []
    truncated = False
    length = row = None
    for raw in words:
        word = tuple(raw)
        if len(word) != length:
            length = len(word)
            row = counts.get(length)
            if row is None:
                row = counts[length] = [0, 0, 0]
        row[0] += 1
        try:
            a_rejects = not accept_a(word)
        except Exception as exc:  # noqa: BLE001 - reported with the word attached
            raise AcceptorFailure("a", word, exc) from exc
        try:
            b_rejects = not accept_b(word)
        except Exception as exc:  # noqa: BLE001
            raise AcceptorFailure("b", word, exc) from exc
        if a_rejects is not b_rejects:
            row[2 if a_rejects else 1] += 1
            if len(mismatches) < mismatch_cap:
                mismatches.append((word, "b" if a_rejects else "a"))
            else:
                truncated = True
    # Positional records: a keyword call binds its arguments by name.
    per_length = {n: LengthStats(w, w - a - b, a, b) for n, (w, a, b) in sorted(counts.items())}
    return DiffReport(
        max(counts, default=0), per_length, tuple(mismatches), truncated, mismatch_cap
    )
