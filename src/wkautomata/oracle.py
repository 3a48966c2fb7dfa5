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
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property, lru_cache

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

    A call reads the kept rows as the attribute ``kept`` stores them under,
    the build's name, and calls ``_dfa_rows`` only when they are not there
    yet (or ``dfa`` has no ``__dict__``), so a sweep pays one attribute
    lookup per word for them.  That call refuses a machine of another kind
    with ``WrongKindError``.  A word that is not iterable raises its own
    ``TypeError``.
    """
    try:
        row, dead = dfa._dfa_rows
    except AttributeError:
        row, dead = _dfa_rows(dfa)
    for sym in word:
        try:
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
    conflict = False
    xs: dict[str, str] = {}
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
    any thread may call this function.  Its ``walk_group`` decides a whole
    group of an enumeration (``_member_group``) from each table's
    completions indexed once by head and last block (``_index``), joining
    no word's text and doing work only per summary entry and per member.
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


def _lead(text: str) -> tuple[str, str, str] | None:
    """``text`` as the rest of a block whose start is not known yet: the
    '*' that start must have ('' if ``text`` has its own '*'), and the w
    and x parts ``text`` adds to the start's; ``None`` if it has two '*'."""
    w, star, x = text.partition("*")
    return None if "*" in x else ("", w, x) if star else ("*", "", w)


@lru_cache(maxsize=64)
def _index(table: _Completions) -> tuple | None:
    """``table``'s completions indexed for ``_member_group``: its size,
    and a map from the '*' a prefix's tail has ('*' or '') to what can
    complete such a tail, kept for the 64 most recent tables, like
    ``_table``'s.  ``None`` for a table with a symbol outside
    ``BLOCK_ALPHABET``; an unhashable one raises ``TypeError``.

    What completes a tail is a triple.  First the heads (a completion's
    text before its last '%') whose first fragment completes it, by
    ``_lead``, each as the w and x parts that fragment adds, the
    ``_head_summary`` of the head's own later blocks, its completions'
    last blocks as a map from w part to (x part, position) pairs, and
    their positions.  Then the completions with no '%' that complete it,
    as the same map by the w and x parts they add.  Last, the set of all
    those positions.  A completion whose last block is malformed, and a
    head whose first fragment or own blocks are, is left out: its words
    are no members.
    """
    if not _BLOCK_SYMBOLS.issuperset(itertools.chain.from_iterable(table.words)):
        return None
    heads: dict[str, tuple] = {}
    ends = {"": ({}, []), "*": ({}, [])}
    for pos, completion in enumerate(table.words):
        head, cut, last = "".join(completion).rpartition("%")
        lead = _lead(last)
        if lead is None or (cut and lead[0]):  # two '*', or none after a '%'
            continue
        if cut and head not in heads:
            first, more, rest = head.partition("%")
            heads[head] = (_lead(first), _head_summary(rest) if more else {}, {}, [])
        lasts, positions = heads[head][2:] if cut else ends[lead[0]]
        lasts.setdefault(lead[1], []).append((lead[2], pos))
        positions.append(pos)
    by_tail = {star: ([], lasts, set(positions)) for star, (lasts, positions) in ends.items()}
    for lead, own, lasts, positions in heads.values():
        if lead is not None and own is not False:
            kept, _, every = by_tail[lead[0]]
            kept.append((lead[1], lead[2], own, lasts, positions))
            every.update(positions)
    return len(table.words), by_tail


def _member_group(prefix: Word, table: _Completions) -> list[bool]:
    """``theorem2_member`` on ``prefix`` joined to each completion of
    ``table``, in order, over the completions as ``_index`` files them,
    with the prefix's text joined and cut once into its head, summarised
    once, and its last block, the tail.

    The verdicts start as non-members and only the members are set, at a
    cost per head, per summary entry and per member.  A prefix head whose
    blocks conflict makes every word with well-formed blocks a member.  A
    head of ``table`` whose first fragment completes the tail is checked
    against the prefix head's summary: a conflict there, or with the
    head's own blocks, makes every word under it a member.  Otherwise each
    (w, x) of the prefix head's summary, of the head's own blocks and of
    the block the tail and the first fragment make is looked up in the
    head's last blocks, and those with another x part are members.  A
    completion with no '%' extends the tail, so only the summary's w parts
    that start with the tail's are looked up.  A group with a symbol outside
    ``BLOCK_ALPHABET``, or an unhashable one, goes word by word.
    """
    try:
        index = _BLOCK_SYMBOLS.issuperset(prefix) and _index(table)
    except TypeError:  # an unhashable symbol
        index = None
    if not index:
        return list(map(theorem2_member, _joined(prefix, table.words)))
    size, by_tail = index
    verdicts = [False] * size
    head, cut, tail = "".join(prefix).rpartition("%")
    summary = _head_summary(head) if cut else {}  # no '%' in the prefix: no block before the tail
    tail_w, tail_star, tail_x = tail.partition("*")
    if summary is False or "*" in tail_x:  # every word has a malformed block
        return verdicts
    heads, lasts, every = by_tail[tail_star]
    if summary is True:  # every word whose blocks are well formed is a member
        return list(map(every.__contains__, range(size)))
    lead_w, lead_x = (tail_w, tail_x) if tail_star else (tail, "")
    for k, v in summary.items():  # a completion with no '%' has the prefix's head
        if k.startswith(lead_w):
            for x, pos in lasts.get(k[len(lead_w) :], ()):
                if lead_x + x != v:
                    verdicts[pos] = True
    for w, x, own, lasts, positions in heads:
        w, x = lead_w + w, lead_x + x
        if own is True or summary.get(w, x) != x or own.get(w, x) != x or (
            own and any(summary.get(k, v) != v for k, v in own.items())
        ):
            for pos in positions:
                verdicts[pos] = True
            continue
        for k, v in (*summary.items(), *own.items(), (w, x)):
            for last_x, pos in lasts.get(k, ()):
                if last_x != v:
                    verdicts[pos] = True
    return verdicts


theorem2_member.walk_group = _member_group


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


class _Completions:
    """A completion table: same-length completions, in order, as a tree of
    shared prefixes.

    ``children`` pairs each first symbol, in order, with the table of what
    may follow it; ``words`` spells the completions out, and the table of
    the empty completion has no children.  A kept acceptor walks the tree
    by ``engine._plan``.
    """

    __slots__ = ("children", "words")

    def __init__(self, children: tuple[tuple[str, _Completions], ...]):
        self.children = children
        self.words = (
            tuple([(sym, *tail) for sym, table in children for tail in table.words])
            if children
            else ((),)
        )


def _joined(prefix: Word, completions: Sequence[Word]) -> Iterator[Word]:
    """``prefix`` joined to each of ``completions``, lazily."""
    return map(prefix.__add__, completions) if prefix else iter(completions)


class _Enumeration:
    """An enumeration's words, iterable again and again like ``range``: it
    keeps only the arguments of ``_groups``.

    Each read of ``groups`` gives a fresh generator of the (prefix,
    completion table) pairs, and each iteration a fresh iterator of their
    words, each prefix joined to every completion of its table, chained in
    C with one Python step per pair.
    """

    __slots__ = ("_args",)

    def __init__(self, *args):
        self._args = args

    @property
    def groups(self) -> Iterator[tuple[Word, _Completions]]:
        return _groups(*self._args)

    def __iter__(self) -> Iterator[Word]:
        return itertools.chain.from_iterable(_joined(p, t.words) for p, t in _groups(*self._args))


# A table holds at most this many completions: the tail rule, ``_tail``,
# gives it completions of at most 10 symbols, fewer over a larger
# alphabet.  On the ``regular`` benchmark's alphabets of two and three
# symbols, a warm round of its 120 sweeps took 64 ms with tables of 10 (or
# 6) symbols against 74 ms with tables of 5 (best of 10, interleaved, in
# one process); enumerating the (11, 6) block words, tables of 4 symbols
# were 20-50% slower than the 5 that four symbols get, and 6 no faster.
_TABLE_WORDS = 1024

_NO_TAIL = _Completions(())


def _tail(symbols: int) -> int:
    """The most symbols a table's completions may have over an alphabet of
    ``symbols`` symbols: the largest t <= 10 with symbols**t <= ``_TABLE_WORDS``."""
    tail = 10
    while symbols**tail > _TABLE_WORDS:
        tail -= 1
    return tail


@lru_cache(maxsize=64)
def _table(moves, left: int, state) -> _Completions:
    """The table of every completion of exactly ``left`` symbols from
    ``state``, in order, under the successor rule ``moves``.

    ``moves(left, state)`` gives the symbols that may come next, in order,
    each with its next state, and never one after which no word of ``left``
    symbols can end, so every table is non-empty.  The tables are kept for
    the 64 most recent (rule, symbols left, state).
    """
    if not left:
        return _NO_TAIL
    return _Completions(
        tuple([(sym, _table(moves, left - 1, after)) for sym, after in moves(left, state)])
    )


def _groups(moves, lengths: Iterable[int], start, tail: int) -> Iterator[tuple[Word, _Completions]]:
    """For each of ``lengths``, each prefix of the words of that length
    from the state ``start(length)`` under ``moves``, in order, with the
    table of its completions of ``tail`` symbols (all of a shorter word's).

    The prefixes come from a depth-first walk, its successors pushed in
    reverse so that they pop in order.  A whole word takes ``_NO_TAIL``
    without the cache, so a tail of 0 never hashes a state.
    """
    for length in lengths:
        size = min(length, tail)
        stack: list[tuple[Word, int, object]] = [((), length, start(length))]
        while stack:
            prefix, left, state = stack.pop()
            if left == size:
                yield prefix, _table(moves, left, state) if left else _NO_TAIL
                continue
            nexts = reversed(moves(left, state))
            stack += [(prefix + (sym,), left - 1, after) for sym, after in nexts]


def _letters(left: int, alphabet: Word) -> tuple[tuple[str, Word], ...]:
    """Every symbol of ``alphabet`` may come next; the state stays the alphabet."""
    return tuple((x, alphabet) for x in alphabet)


def enumerate_words(alphabet: Sequence[str], max_len: int) -> Iterable[Word]:
    """All words of length 0..max_len, shortest first, then lexicographic
    by the declared symbol order.

    The words of each length come in groups: each prefix, in order, joined
    to every completion in the table of the last ``_tail`` symbols (all of
    a shorter word's).  An alphabet with an unhashable symbol keys no table
    and makes one group per word.  The alphabet is read once, by this call.
    The result may be iterated again, like ``range``, each time lazily
    through C iterators, one Python step per group; ``next()`` needs
    ``iter()`` first.  Its ``groups`` attribute gives the (prefix, table)
    groups afresh on each read, and ``sweep_verdicts`` and
    ``differential_compare`` sweep an enumeration by them.
    """
    alphabet = tuple(alphabet)
    try:
        hash(alphabet)
        tail = _tail(len(alphabet))
    except TypeError:  # an unhashable symbol keys no table
        tail = 0
    # No symbol spells only the empty word.
    lengths = range(max_len + 1) if alphabet else range(min(max_len, 0) + 1)
    return _Enumeration(_letters, lengths, lambda length: alphabet, tail)


def _successors(left: int, state: tuple[int, bool]) -> tuple[tuple[str, tuple[int, bool]], ...]:
    """The symbols that may come next, in the order a, b, *, %, each with
    its next state: the blocks still allowed and whether the block has its
    '*' after it.

    ``left`` symbols remain (at least 1).  Every successor still ends in a
    word of exactly ``left`` symbols: a block without its '*' needs a symbol
    for it, and a '%' needs a '*' after it.  Each further block needs a '%'
    and a '*', so the room of a next state is capped at half the symbols
    left after it: more opens no more words, and states that differ only
    there share one table.
    """
    room, starred = state
    kept = min(room, (left - 1) // 2)
    letters = ("a", (kept, starred)), ("b", (kept, starred))
    if not starred:
        return (*letters, ("*", (kept, True))) if left >= 2 else (("*", (kept, True)),)
    if room and left >= 2:
        return (*letters, ("%", (room - 1, False)))
    return letters


def enumerate_block_strings(max_total_len: int, max_blocks: int) -> Iterable[Word]:
    """All well-formed block words up to the given total length and block
    count, shortest first, then lexicographic under the order a, b, *, %.

    The words come from the same walk as ``enumerate_words``'s under the
    successor rule ``_successors``: each prefix of a length, in order,
    joined to every completion in the table of the last ``_tail`` symbols,
    five over four symbols (all of a shorter word's).  A table is keyed by
    the symbols left and the state the prefix leaves open (blocks still
    allowed, capped as ``_successors`` caps them, and whether the block has
    its '*'), so all bounds together build at most 23.  The result is
    iterable again and again and has ``groups``, as ``enumerate_words``'s
    has; its words come out lazily, one prefix at a time, through C
    iterators that resume no Python frame per word.
    """
    lengths = range(1, max_total_len + 1) if max_blocks >= 1 else ()
    start = lambda n: (min(max_blocks - 1, n // 2), False)  # noqa: E731
    return _Enumeration(_successors, lengths, start, _tail(len(BLOCK_ALPHABET)))


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
        if not self.mismatches and not self.truncated:
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


# A run of an iterable that is not an enumeration holds at most this many
# words.
_RUN = 1024


def _runs(words: Iterable[Sequence[str]]) -> Iterator[tuple[Word, _Completions | None, Sequence[Word]]]:
    """``words`` as (prefix, completion table, completions) runs of
    same-length words, in order; the words of a run are its prefix joined
    to each completion, spelled by ``_joined`` only where they are read.

    An enumeration gives its own groups, each with its table's completions.
    Anything else gives runs of at most ``_RUN`` consecutive words of one
    length, as tuples, with the empty prefix and no table.
    """
    if isinstance(words, _Enumeration):
        for prefix, table in words.groups:
            yield prefix, table, table.words
        return
    for _, run in itertools.groupby(map(tuple, words), len):
        while chunk := list(itertools.islice(run, _RUN)):
            yield (), None, chunk


def _group_walk(accept) -> Callable[[Word, _Completions], list[bool]] | None:
    """``accept``'s group walk for one sweep: a fresh one from its
    ``group_walker`` where it has one (the kept acceptor's, whose memo of
    verdicts dies with the sweep), else its ``walk_group``, else None."""
    walker = getattr(accept, "group_walker", None)
    return walker() if walker is not None else getattr(accept, "walk_group", None)


def _verdicts(accept, walk, prefix: Word, table: _Completions | None, completions) -> list[bool]:
    """Whether ``accept`` accepts each word of a run of ``_runs``: by its
    group ``walk`` where it has one and the run has a table, and otherwise
    word by word over the run's words, spelled."""
    if walk is not None and table is not None:
        return walk(prefix, table)
    return list(map(bool, map(accept, _joined(prefix, completions))))


def sweep_verdicts(
    accept: Callable[[Word], bool], words: Iterable[Sequence[str]]
) -> Iterator[tuple[list[Word], list[bool]]]:
    """``words`` in runs, each with ``accept``'s verdict on every word.

    A run is a group of an enumeration, or up to ``_RUN`` consecutive words
    of one length of anything else, such as a list, a generator or an
    enumeration's ``iter()``; its words are tuples, in order.  A predicate
    with a group walk (``_group_walk``: the one kept by
    ``engine.existential_acceptor`` makes a walk for each sweep, and
    ``theorem2_member`` has a ``walk_group``) decides a group with it; the
    kept acceptor walks the prefix once, then the table's tree of shared
    prefixes, and a group whose prefix reaches a state that an earlier
    group with the same table reached takes that group's verdicts.  Any
    other predicate, or a run without a group, is called on each word.
    """
    walk = _group_walk(accept)
    for prefix, table, completions in _runs(words):
        run = list(_joined(prefix, completions))
        if walk and table:  # the walk may keep the list it returns: hand on a copy
            yield run, list(walk(prefix, table))
        else:
            yield run, list(map(bool, map(accept, run)))


def _word_by_word(accept_a, accept_b, run: Iterable[Word]) -> None:
    """Decide ``run`` again word by word, a before b; the first call that
    raises is reported with its side and word."""
    for word in run:
        for side, accept in (("a", accept_a), ("b", accept_b)):
            try:
                bool(accept(word))
            except Exception as exc:  # noqa: BLE001 - reported with the word attached
                raise AcceptorFailure(side, word, exc) from exc


def differential_compare(
    accept_a: Callable[[Word], bool],
    accept_b: Callable[[Word], bool],
    words: Iterable[Sequence[str]],
    *,
    mismatch_cap: int = 100,
) -> DiffReport:
    """Evaluate both acceptors on every word and aggregate per length.

    The words go by in the runs of ``_runs``: an enumeration's groups, or
    runs of up to ``_RUN`` words of any other iterable.  Each side decides
    a whole run, by its group walk (``_group_walk``) where it has one and
    the run is a group, and the two verdict lists are compared in one step.  Where they
    differ, each side's mismatches are counted in C (a side accepts where
    its verdict is truthy, and the verdicts differ where they are not the
    same object), and only the mismatching words that still fit under
    ``mismatch_cap`` are spelled; the report is truncated when more
    mismatches were counted than listed.  A run's words are spelled only
    for a side with no group walk, where a mismatch is listed, or where a
    side fails; its row is counted from its prefix and completions.  If
    either side raises anywhere in a run, the run is decided again word by
    word, a before b, so ``AcceptorFailure`` names the first side and word
    that a word-by-word loop would fail on; if neither side raises there,
    the group route itself failed, and its exception is raised again.
    """
    counts: dict[int, list[int]] = {}  # length: [words, a_only, b_only]
    mismatches: list[tuple[Word, str]] = []
    walk_a, walk_b = _group_walk(accept_a), _group_walk(accept_b)
    for prefix, table, completions in _runs(words):
        if walk_a is walk_b is None:  # neither side walks: spell the run once for both
            prefix, table, completions = (), None, list(_joined(prefix, completions))
        try:
            in_a = _verdicts(accept_a, walk_a, prefix, table, completions)
            in_b = _verdicts(accept_b, walk_b, prefix, table, completions)
            failure = None
        except Exception as exc:  # noqa: BLE001 - rerun below, outside this handler
            failure = exc
        if failure is not None:
            _word_by_word(accept_a, accept_b, _joined(prefix, completions))
            raise failure
        row = counts.setdefault(len(prefix) + len(completions[0]), [0, 0, 0])
        row[0] += len(completions)
        if in_a == in_b:
            continue
        differ = list(map(operator.is_not, in_a, in_b))
        a_only = sum(map(bool, itertools.compress(in_a, differ)))
        row[1] += a_only
        row[2] += differ.count(True) - a_only
        if (room := mismatch_cap - len(mismatches)) > 0:
            listed = itertools.compress(zip(_joined(prefix, completions), in_a), differ)
            mismatches += [(word, "a" if a else "b") for word, a in itertools.islice(listed, room)]
    per_length = {n: LengthStats(w, w - a - b, a, b) for n, (w, a, b) in sorted(counts.items())}
    truncated = sum(a + b for _, a, b in counts.values()) > len(mismatches)
    return DiffReport(
        max(counts, default=0), per_length, tuple(mismatches), truncated, mismatch_cap
    )
