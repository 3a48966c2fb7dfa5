"""Run semantics for the machine kinds.

Two engines live here: one deterministic run loop with a tape per head,
which runs a two-strand machine on a fixed strand pair as a 2-head machine,
and an existential search over every complementary lower strand.  Both use
halting acceptance: a run accepts exactly when it gets stuck (no transition
applies) in a final state.  Getting stuck in a non-final state rejects, and
so does revisiting a configuration, which is the only way a one-way machine
can run forever.

The existential engine does not enumerate whole lower strands.  Because the
lower head is one-way, the only part of the strand that can still matter is
the symbol currently under the head, so the search commits the guess one
position at a time and explores the finite graph of
(state, upper position, lower position, committed symbol) nodes.

Sweeps use ``existential_acceptor``, which runs the same search in stages
memoised as the states of a lazily built DFA; its docstring tells how.

Every engine refuses a machine of another kind than it runs with a
``WrongKindError``, and a machine that fails ``validate`` with an
``InvalidMachineError``.  Machines are frozen, so the validation, the run
loop (one build for both kinds, from the machine's ``grammar`` rows), the
search's integer tables and the acceptor's static tables are each built
once per machine object and kept on that object, where they live and die
with it; an equal but distinct machine, such as a copy, builds its own.
A refusal is never kept: a machine that fails validation raises on every
call.  An acceptor's memo is never kept on the machine: each predicate
starts with its own empty one.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Sequence
from enum import Enum
from operator import add, getitem

from .machines import (
    LEFT_END,
    RIGHT_END,
    Entry,
    MachineError,
    MultiHeadAutomaton,
    Record,
    UnknownSymbolError,
    WKAutomaton,
    grammar,
    kept,
    require_kind,
    require_symbols,
    require_valid,
)

Word = tuple[str, ...]


class StrandMismatchError(MachineError):
    """The supplied lower strand is not complementary to the upper strand."""


class Verdict(Enum):
    ACCEPT_HALT = "accept"
    REJECT_HALT = "reject"
    INFINITE_LOOP = "loop"


class Configuration(Record):
    """A machine snapshot: current state plus one position per head.

    Positions run from 0 (the left end marker) to n+1 (the right end
    marker) for an input of length n.
    """

    state: str
    positions: tuple[int, ...]


class RunOutcome(Record):
    verdict: Verdict
    final: Configuration
    trace: tuple[tuple[Configuration, Entry], ...] = ()

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT_HALT


class SearchResult(Record):
    accepted: bool
    witness_lower: Word | None
    explored: int


@kept
def _run_loop(machine: WKAutomaton | MultiHeadAutomaton) -> Callable[[Sequence[Word], bool], RunOutcome]:
    """Check ``machine``'s validity and return the deterministic run loop of
    its ``grammar`` rows, where a two-strand transition's read and move
    pairs serve as 2-head read and move tuples.

    The loop takes one word per head, which it end-marks as that head's
    tape, and whether to keep the trace.
    """
    require_valid(machine)
    step = {(q, reads): (t, moves) for q, reads, t, moves in grammar(machine)[2]}.get
    start, finals = machine.start, machine.finals

    def run(words: Sequence[Word], keep_trace: bool) -> RunOutcome:
        tapes = [(LEFT_END, *w, RIGHT_END) for w in words]
        state, positions = start, (0,) * len(tapes)
        seen = set()
        trace: list[tuple[Configuration, Entry]] = []
        while (state, positions) not in seen:
            seen.add((state, positions))
            reads = tuple(map(getitem, tapes, positions))
            found = step((state, reads))
            if found is None:
                verdict = Verdict.ACCEPT_HALT if state in finals else Verdict.REJECT_HALT
                return RunOutcome(verdict, Configuration(state, positions), tuple(trace))
            target, moves = found
            if keep_trace:
                trace.append((Configuration(state, positions), (state, reads, target, moves)))
            state, positions = target, tuple(map(add, positions, moves))
        return RunOutcome(Verdict.INFINITE_LOOP, Configuration(state, positions), tuple(trace))

    return run


def run_deterministic(
    machine: WKAutomaton,
    upper: Sequence[str],
    lower: Sequence[str],
    *,
    keep_trace: bool = False,
) -> RunOutcome:
    """Run the two-strand machine on a fixed, complementary strand pair.

    A non-complementary ``lower`` is a precondition error, distinct from a
    rejecting run.
    """
    require_kind(machine, WKAutomaton)
    run = _run_loop(machine)
    w1, w2 = tuple(upper), tuple(lower)
    require_symbols(w1, machine.upper_alphabet, "upper alphabet")
    if len(w2) != len(w1):
        raise StrandMismatchError(
            f"lower strand length {len(w2)} differs from upper strand length {len(w1)}"
        )
    for i, (x, y) in enumerate(zip(w1, w2)):
        if y not in machine.rho.image(x):
            raise StrandMismatchError(
                f"position {i + 1}: {y!r} is not a complementarity image of {x!r}"
            )
    return run((w1, w2), keep_trace)


def run_mfa(
    machine: MultiHeadAutomaton, word: Sequence[str], *, keep_trace: bool = False
) -> RunOutcome:
    """Run the k-head machine, with the same halt/loop classification."""
    require_kind(machine, MultiHeadAutomaton)
    run = _run_loop(machine)
    w = tuple(word)
    require_symbols(w, machine.alphabet, "alphabet")
    return run((w,) * machine.head_count, keep_trace)


class _CompiledWK(Record):
    """Integer-indexed tables for the existential search hot path."""

    start: int
    finals: frozenset[int]
    left: int
    right: int
    upper_index: dict[str, int]
    images: dict[int, tuple[int, ...]]
    delta: dict[tuple[int, int, int], tuple[int, int, int]]
    token_of: tuple[str, ...]


@kept
def _compile_wk(machine: WKAutomaton) -> _CompiledWK:
    require_kind(machine, WKAutomaton)
    require_valid(machine)
    # A valid machine declares every state and symbol it uses, each once:
    # number the end markers, then the upper symbols, then the lower ones,
    # each in first-seen order.  So the upper symbols come before any lower
    # symbol that is not one of them.
    token_of = tuple(
        dict.fromkeys((LEFT_END, RIGHT_END, *machine.upper_alphabet, *machine.lower_alphabet))
    )
    sym = {token: i for i, token in enumerate(token_of)}
    state = {q: i for i, q in enumerate(machine.states)}
    return _CompiledWK(
        start=state[machine.start],
        finals=frozenset([state[q] for q in machine.finals]),
        left=sym[LEFT_END],
        right=sym[RIGHT_END],
        upper_index={x: sym[x] for x in machine.upper_alphabet},
        images={
            sym[x]: tuple([sym[y] for y in machine.rho.images[x]]) for x in machine.upper_alphabet
        },
        delta={
            (state[q], sym[u], sym[l]): (state[t], d1, d2)
            for (q, u, l), (t, d1, d2) in machine.delta.items()
        },
        token_of=token_of,
    )


def _search(
    compiled: _CompiledWK, w1: Word, want_witness: bool
) -> tuple[bool, Word | None, int]:
    upper_index = compiled.upper_index
    try:
        ups = [compiled.left] + [upper_index[x] for x in w1] + [compiled.right]
    except KeyError as exc:
        raise UnknownSymbolError(
            f"symbol {exc.args[0]!r} is not in the upper alphabet"
        ) from None
    n = len(w1)
    delta = compiled.delta
    images = compiled.images
    finals = compiled.finals
    right_only = (compiled.right,)

    start = (compiled.start, 0, 0, compiled.left)
    visited = {start}
    stack = [start]
    parent: dict[tuple, tuple | None] | None = {start: None} if want_witness else None
    accepting = None
    while stack:
        node = stack.pop()
        q, p1, p2, s = node
        found = delta.get((q, ups[p1], s))
        if found is None:
            if q in finals:
                accepting = node
                break
            continue
        t, d1, d2 = found
        np1 = p1 + d1
        if d2:
            np2 = p2 + 1
            committed = images.get(ups[np2], ()) if np2 <= n else right_only
            for s2 in committed:
                nxt = (t, np1, np2, s2)
                if nxt not in visited:
                    visited.add(nxt)
                    if parent is not None:
                        parent[nxt] = node
                    stack.append(nxt)
        else:
            nxt = (t, np1, p2, s)
            if nxt not in visited:
                visited.add(nxt)
                if parent is not None:
                    parent[nxt] = node
                stack.append(nxt)

    if accepting is None:
        return False, None, len(visited)
    if not want_witness:
        return True, None, len(visited)

    # Rebuild the committed symbols along the accepting path; positions the
    # lower head never reached take each position's first declared image.
    chosen: list[int | None] = [None] * n
    node = accepting
    while node is not None:
        _, _, p2, s = node
        if 1 <= p2 <= n:
            chosen[p2 - 1] = s
        node = parent[node]  # type: ignore[index]
    witness = tuple(
        compiled.token_of[s if s is not None else images[ups[i + 1]][0]]
        for i, s in enumerate(chosen)
    )
    return True, witness, len(visited)


def accepts_existential(
    machine: WKAutomaton, upper: Sequence[str], *, want_witness: bool = True
) -> SearchResult:
    """Decide acceptance over every complementary lower strand.

    Accepts exactly when some reachable search node is stuck in a final
    state.  On acceptance the returned witness strand replays to an
    accepting halt under ``run_deterministic``.
    """
    accepted, witness, explored = _search(
        _compile_wk(machine), tuple(upper), want_witness
    )
    return SearchResult(accepted, witness, explored)


# An acceptor that holds more interned frontiers than this clears its memo at
# the start of its next call that leaves the fast walk, the only walk that
# interns.  The compiled DFAs of the regular sweeps intern at most a dozen
# each.  The block-language machine interns 17,341 frontiers over the 132,854
# words of up to 11 symbols and 6 blocks, because its lower head lags a block
# behind and windows grow to 10 symbols, so the sweep never clears the memo.
# An interned state takes about 200 bytes (its slot list, its string key and
# the memo entry), so the whole sweep's memo holds about 3.3 MiB.
_MEMO_STATES = 32_768


def _forget(memo: dict) -> None:
    """Empty an acceptor's memo and the move slots of its states."""
    for state in memo.values():
        state.clear()
    memo.clear()


@kept
def _acceptor_tables(machine: WKAutomaton) -> tuple[dict, dict, tuple, dict]:
    """The static tables that every ``existential_acceptor`` of ``machine``
    reads, built from its ``_compile_wk`` tables: ``images`` with the right
    end marker as its own image, ``column``, ``ups_of`` and ``live``.

    They hold no reference to the machine or to any predicate's memo, and
    no predicate mutates them.
    """
    compiled = _compile_wk(machine)
    delta = compiled.delta
    finals = compiled.finals
    right = compiled.right
    images = {**compiled.images, right: (right,)}
    # Column c of a state reads symbol ups_of[c]; the last column is the
    # right end marker, and the key sits in the slot after it.
    column = {x: c for c, x in enumerate(compiled.upper_index)}
    ups_of = (*compiled.upper_index.values(), right)

    # live[x][q][u]: the images of x the lower head may commit in state q
    # over upper symbol u.  An image that leaves a non-final q stuck is left
    # out, since that node neither moves nor accepts.  _compile_wk numbers
    # the end markers and the upper symbols first, so u < nu.  The tables
    # are built by list repetition: every final row of x's table is one
    # shared row offering all of x's images, and every other row starts as
    # the shared empty row.  One pass over delta then gives a non-final row
    # that a lower read s reaches a row of its own, in the table of each
    # symbol that s is an image of, and adds s to it.
    nq, nu = len(machine.states), len(column) + 2
    empty = [()] * nu
    live = {}
    tables_of: dict[int, list] = {}
    for x, xs in images.items():
        table = live[x] = [empty] * nq
        every = [xs] * nu
        for q in finals:
            table[q] = every
        for s in xs:
            tables_of.setdefault(s, []).append(table)
    for q, u, s in delta:
        if q not in finals:
            for table in tables_of.get(s, ()):
                row = table[q]
                if row is empty:
                    row = table[q] = [()] * nu
                row[u] += (s,)
    return images, column, ups_of, live


def existential_acceptor(machine: WKAutomaton) -> Callable[[Sequence[str]], bool]:
    """A precompiled acceptance predicate for sweeping many words.

    The predicate decides what ``accepts_existential`` decides, but it
    searches in stages and runs them as the moves of a lazily built DFA.
    Both heads are one-way, so a node whose positions are both <= k depends
    only on the length-k prefix.  Stage j explores exactly the reached nodes
    with a head at position j.  It hands stage j + 1 a frontier of two
    kinds: *heads*, the nodes whose upper head moved to j + 1, and
    *commits*, the (target, p1) pairs whose lower head moves onto j + 1,
    which stage j + 1 expands over the images of its symbol.  Nodes of
    different stages are disjoint, so each stage deduplicates with a set of
    its own, and no visited set outlives its stage.  Acceptance found at
    stage j holds for every extension of the prefix, and so does rejection
    once a stage hands on nothing.  Raises ``InvalidMachineError`` for a
    machine that fails ``validate``.

    A stage only compares positions with each other and with j, and reads
    the upper symbols from its frontier's lowest head position ``base`` on.
    So a frontier is normalised by subtracting ``base`` from every position
    and keeping only the window of upper symbols from ``base`` to j; one
    stage run on the window gives the same result at any offset.  The key
    of a normalised frontier is a ``str`` with one code point per int: the
    window length, the window, the number of heads, the sorted shifted
    heads and the sorted shifted commits; a stage decodes it only when it
    runs.  A frontier is interned as a DFA state: a list with one move slot
    per upper-symbol column and one for the right end marker, followed by
    its key.  A column slot holds the next state; the end marker's slot
    holds the verdict, or ``None`` while not yet run.  Three sinks, states
    whose every column slot leads back to themselves, stand for what is
    not a frontier: a move not yet run leads to the pending sink, whose
    verdict is ``None``, and a verdict that holds for every extension is
    the sink whose end marker's slot holds ``True`` or ``False`` (the start
    state may be one).  Every frontier a stage hands on is interned, so
    each (frontier, column) stage runs at most once per memo.  A call first
    takes the fast walk: from the start state it subscripts the slot of
    each symbol's column in turn, then reads the end marker's slot.  When
    that verdict is ``None`` or a symbol has no column, the call takes the
    careful walk instead.  That walk checks the whole word and raises
    ``UnknownSymbolError`` naming its first symbol outside the upper
    alphabet, so a word with such a symbol never runs a stage; it then
    clears the memo if it holds more than ``_MEMO_STATES`` states, and
    walks again from the start state, running a stage on each move not yet
    run.  Between clears any word order runs the same stages, and a word
    whose moves are all known never leaves the fast walk.  The predicate
    carries the memo from call to call, so use it from one thread at a
    time.  Each call returns a fresh predicate with its own empty memo,
    sinks and stages; the tables it reads are the ``_compile_wk`` tables
    and the ``_acceptor_tables`` kept on the machine, shared with every
    other predicate and search on the same machine object and never
    mutated.

    The first predicate of a machine object pays once for those tables,
    and every predicate pays for each stage it runs for the first time,
    which is most of what a short sweep over a small machine costs.  A
    stage returns the key of the frontier it hands on, so a move not yet
    run costs one decode, one stage call and one memo lookup.
    """
    compiled = _compile_wk(machine)
    delta = compiled.delta
    finals = compiled.finals
    images, column, ups_of, live = _acceptor_tables(machine)
    close = len(column)

    def stage(ups: tuple[int, ...], heads, commits):
        """Run stage ``j = len(ups) - 1`` on the ``heads`` and ``commits``
        that stage j - 1 handed on, whose positions index ``ups``.

        Returns True on acceptance, False when nothing reaches position
        j + 1, and otherwise the key of the frontier for stage j + 1.
        """
        # Plain loops throughout: a comprehension would turn the names it
        # reads (j, t, np1, ...) into closure cells, slower at every node.
        j = len(ups) - 1
        seen = set(heads)
        for t, p1 in commits:
            for s in live[ups[j]][t][ups[p1]]:
                seen.add((t, p1, j, s))
        stack = list(seen)
        next_heads = set()
        next_commits = set()
        while stack:
            q, p1, p2, s = stack.pop()
            found = delta.get((q, ups[p1], s))
            if found is None:
                if q in finals:
                    return True
                continue
            t, d1, d2 = found
            np1 = p1 + d1
            if d2:
                if p2 == j:
                    next_commits.add((t, np1))
                    continue
                np2 = p2 + 1
                if np1 > j:
                    for s2 in images[ups[np2]]:
                        next_heads.add((t, np1, np2, s2))
                    continue
                for s2 in live[ups[np2]][t][ups[np1]]:
                    nxt = (t, np1, np2, s2)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            elif np1 > j:
                next_heads.add((t, np1, p2, s))
            else:
                nxt = (t, np1, p2, s)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if not (next_heads or next_commits):
            return False
        # The key: positions shifted down by the lowest one, base, and the
        # window of ups from base on.
        base = j + 1  # every head has p1 == j + 1
        for _, _, p2, _ in next_heads:
            if p2 < base:
                base = p2
        for _, p1 in next_commits:
            if p1 < base:
                base = p1
        key = [j + 1 - base, *ups[base:], len(next_heads)]
        for q, p1, p2, s in sorted(next_heads):
            key += (q, p1 - base, p2 - base, s)
        for t, p1 in sorted(next_commits):
            key += (t, p1 - base)
        return "".join(map(chr, key))

    def sink(verdict: bool | None) -> list:
        """A state that every column leads back to, with ``verdict`` at the
        end marker."""
        state = [verdict] * (close + 1)
        state[:close] = [state] * close
        return state

    # A move not yet run leads to pending, whose verdict is not known.
    pending = sink(None)
    sinks = (sink(False), sink(True))
    slots = [pending] * close + [None]
    memo: dict[str, list] = {}

    def intern(key: str) -> list:
        state = memo.get(key)
        if state is None:
            state = memo[key] = [*slots, key]
        return state

    def step(state: list, c: int):
        """Run the stage behind the move not yet run in column ``c`` of
        ``state`` and fill the slot with what it leads to: an interned
        state or a verdict's sink, and a verdict in the end marker's column.
        """
        # Decode the state's key and run the stage from its frontier.
        ints = list(map(ord, state[-1]))
        n = ints[0]
        h = n + 2 + 4 * ints[n + 1]
        flat = iter(ints[n + 2 : h])
        heads = zip(flat, flat, flat, flat)
        flat = iter(ints[h:])
        result = stage((*ints[1 : n + 1], ups_of[c]), heads, zip(flat, flat))
        if result is True or result is False:
            if c != close:
                result = sinks[result]
        else:
            result = intern(result)
        state[c] = result
        return result

    # The start node, as the sole head of stage 0 on the left end marker.
    opening = (compiled.left,)
    start_heads = ((compiled.start, 0, 0, compiled.left),)

    def begin() -> list:
        """The start state, or the sink of every word's verdict."""
        result = stage(opening, start_heads, ())
        if result is True or result is False:
            return sinks[result]
        return intern(result)

    start = begin()

    def walk(word: Word) -> bool:
        """The careful walk: check the word, clear an outgrown memo, and
        run a stage on every move not yet run that the word reaches."""
        nonlocal start
        require_symbols(word, column, "upper alphabet")
        if len(memo) > _MEMO_STATES:
            _forget(memo)
            start = begin()
        state = start
        for x in word:
            c = column[x]
            nxt = state[c]
            state = step(state, c) if nxt is pending else nxt
        verdict = state[close]
        if verdict is None:
            verdict = step(state, close)
        return verdict

    def accepts(word: Sequence[str]) -> bool:
        word = tuple(word)
        state = start
        try:
            for x in word:
                state = state[column[x]]
            verdict = state[close]
        except (KeyError, TypeError):  # a foreign or unhashable symbol
            verdict = None
        if verdict is None:
            return walk(word)
        return verdict

    # States that move to each other form reference cycles; unlink them as
    # soon as the predicate is dropped, not at the next full collection.
    weakref.finalize(accepts, _forget, memo)
    return accepts

