"""Run semantics for the machine kinds.

Two engines live here: one deterministic run loop with a tape per head,
which runs a two-strand machine on a fixed strand pair as a 2-head machine,
and an existential search over every complementary lower strand.  Both use
halting acceptance: a run accepts exactly when it gets stuck (no transition
applies) in a final state.  Getting stuck in a non-final state rejects, and
so does revisiting a configuration, which is the only way a one-way machine
can run forever.

The existential search does not enumerate whole lower strands.  Because the
lower head is one-way, the only part of the strand that can still matter is
the symbol currently under the head, so the search commits the guess one
position at a time and explores the finite graph of
(state, upper position, lower position, committed symbol) nodes.  One
depth-first loop, ``_explore``, explores that graph up to a position.
Sweeps use ``existential_acceptor``, which runs it in stages, one per
position, memoised as the states of a lazily built DFA; its docstring tells
how.  The witness search of ``accepts_existential`` and ``wka run`` is that
acceptor's stage run once, on the whole end-marked word.

Every engine refuses a machine of another kind than it runs with a
``WrongKindError``, and a machine that fails ``validate`` with an
``InvalidMachineError``.  Machines are frozen, so the validation, the run
loop (one build for both kinds, from the machine's ``grammar`` rows), the
integer tables that the search and the acceptor share, and the acceptor
itself, with the lazily built DFA it carries, are each built once per
machine object and kept on that object, where they live and die with it;
an equal but distinct machine, such as a copy, builds its own.  A refusal
is never kept: a machine that fails validation raises on every call.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Callable, Sequence
from enum import Enum
from functools import lru_cache
from operator import add, getitem

from .machines import (
    LEFT_END,
    RIGHT_END,
    Entry,
    MachineError,
    MultiHeadAutomaton,
    Record,
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
    """The verdict of ``accepts_existential``, an accepting lower strand if
    one was asked for, and the number of search nodes explored.  The lower
    head commits only the images under which a node can still move or
    accept, so a commit that would leave a non-final state stuck makes no
    node and is not counted."""

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
    """Integer-indexed tables for the existential search and the acceptor.

    The upper symbols are numbered first, in their alphabet's order, so
    ``column`` maps each to its own number, which is also its column in an
    acceptor state; the right end marker comes next, as the last column,
    then the left end marker and the lower-only symbols.  ``images`` lists
    the right end marker as its own image.  ``live[x][q][u]`` holds the
    images of x that the lower head may commit in state q over upper symbol
    u, in the order ``rho`` declares them: an image that leaves a non-final
    q stuck is left out, since that node neither moves nor accepts.  So a
    depth-first search tries the images it keeps in their declared order.
    """

    start: int
    finals: frozenset[int]
    left: int
    right: int
    images: dict[int, tuple[int, ...]]
    delta: dict[tuple[int, int, int], tuple[int, int, int]]
    token_of: tuple[str, ...]
    column: dict[str, int]
    live: dict[int, list[list[tuple[int, ...]]]]


@kept
def _compile_wk(machine: WKAutomaton) -> _CompiledWK:
    require_kind(machine, WKAutomaton)
    require_valid(machine)
    # A valid machine declares every state and symbol it uses, each once:
    # number the upper symbols, then the right and the left end marker,
    # then the lower symbols that are not upper ones, in first-seen order.
    upper = machine.upper_alphabet
    token_of = tuple(dict.fromkeys((*upper, RIGHT_END, LEFT_END, *machine.lower_alphabet)))
    sym = {token: i for i, token in enumerate(token_of)}
    state = {q: i for i, q in enumerate(machine.states)}
    right = sym[RIGHT_END]
    images = {sym[x]: tuple([sym[y] for y in machine.rho.images[x]]) for x in upper}
    images[right] = (right,)
    finals = frozenset([state[q] for q in machine.finals])
    delta = {
        (state[q], sym[u], sym[l]): (state[t], d1, d2)
        for (q, u, l), (t, d1, d2) in machine.delta.items()
    }

    # Every upper read u is an upper symbol or an end marker, so u < nu.  A
    # final row of x offers all of x's images, and every other row the
    # images of x, in their declared order, that delta reads there: one pass
    # over delta lists the (q, u) cells of non-final q that read each s.
    nq, nu = len(state), len(upper) + 2
    cells: dict[int, list] = {}
    for q, u, s in delta:
        if q not in finals:
            cells.setdefault(s, []).append((q, u))
    live = {}
    for x, xs in images.items():
        table = live[x] = [[xs] * nu if q in finals else [()] * nu for q in range(nq)]
        for s in xs:
            for q, u in cells.get(s, ()):
                table[q][u] += (s,)

    return _CompiledWK(
        start=state[machine.start],
        finals=finals,
        left=sym[LEFT_END],
        right=right,
        images=images,
        delta=delta,
        token_of=token_of,
        column={x: sym[x] for x in upper},
        live=live,
    )


def _explore(delta, finals, images, live, ups, heads, commits, parent=None):
    """Explore, depth first, the search nodes with both heads at most at
    position ``j = len(ups) - 1`` that ``heads`` and ``commits`` reach, over
    the upper symbols ``ups`` of positions 0 to j and the tables of a
    ``_CompiledWK``.

    ``heads`` are nodes; ``commits`` are (target, p1) pairs whose lower head
    has just moved onto j, expanded over the live images of its symbol.  The
    lower head commits only ``live`` images, so no commit makes a node that
    can neither move nor accept.  Returns the accepting node or None,
    the heads (nodes whose upper head moves past j) and commits (whose
    lower head moves past j) it hands on, and the set of nodes it saw.
    Given a ``parent`` dict, it maps each node made from another to that
    node.
    """
    # Plain loops throughout: a comprehension would turn the names it reads
    # (j, t, np1, ...) into closure cells, slower at every node.
    j = len(ups) - 1
    seen = set(heads)
    for t, p1 in commits:
        for s in live[ups[j]][t][ups[p1]]:
            seen.add((t, p1, j, s))
    stack = list(seen)
    next_heads = set()
    next_commits = set()
    while stack:
        node = stack.pop()
        q, p1, p2, s = node
        found = delta.get((q, ups[p1], s))
        if found is None:
            if q in finals:
                return node, next_heads, next_commits, seen
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
                    if parent is not None:
                        parent[nxt] = node
                    stack.append(nxt)
        elif np1 > j:
            next_heads.add((t, np1, p2, s))
        else:
            nxt = (t, np1, p2, s)
            if nxt not in seen:
                seen.add(nxt)
                if parent is not None:
                    parent[nxt] = node
                stack.append(nxt)
    return None, next_heads, next_commits, seen


def _search(compiled: _CompiledWK, w1: Word, want_witness: bool) -> tuple[bool, Word | None, int]:
    """The acceptor's stage run once on the whole tape from the start node.
    A valid machine moves no head off the right end marker, so it hands
    nothing on."""
    column = compiled.column
    require_symbols(w1, column, "upper alphabet")
    ups = [compiled.left] + [column[x] for x in w1] + [compiled.right]
    n = len(w1)
    images = compiled.images
    start = (compiled.start, 0, 0, compiled.left)
    parent = {start: None} if want_witness else None
    accepting, _, _, seen = _explore(
        compiled.delta, compiled.finals, images, compiled.live, ups, (start,), (), parent
    )

    if accepting is None:
        return False, None, len(seen)
    if not want_witness:
        return True, None, len(seen)

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
    return True, witness, len(seen)


def accepts_existential(
    machine: WKAutomaton, upper: Sequence[str], *, want_witness: bool = True
) -> SearchResult:
    """Decide acceptance over every complementary lower strand.

    Accepts exactly when some reachable search node is stuck in a final
    state.  The search is the acceptor's stage run once on the whole
    end-marked word, from the start node; it tries the images of a position
    in the order ``rho`` declares them, the last one first.  On acceptance
    the returned witness strand replays to an accepting halt under
    ``run_deterministic``.
    """
    return SearchResult(*_search(_compile_wk(machine), tuple(upper), want_witness))


# An acceptor interns at most this many frontiers.  Once its memo is full, a
# stage's new frontier is walked on but neither interned nor linked, so its
# stage runs again on every word that reaches it; the memo is never cleared.
# The compiled DFAs of the regular sweeps intern at most a dozen each.  The
# block-language machine interns 17,341 frontiers over the 132,854 words of
# up to 11 symbols and 6 blocks, because its lower head lags a block behind
# and windows grow to 10 symbols, so that sweep never fills the memo.  An
# interned state takes about 200 bytes (its slot list, its string key and the
# memo entry), so a full memo holds about 6.5 MiB.
_MEMO_STATES = 32_768


@lru_cache(maxsize=64)
def _plan(table, alphabet: tuple) -> list | None:
    """The walk plan of the ``oracle._Completions`` table ``table`` over
    ``alphabet``, or None if some symbol of the table is not in ``alphabet``.

    A plan lists the tree's levels, from the root: at each depth, for every
    node in order, the columns of its children in order, a symbol's column
    being its index in ``alphabet``; the children of the last level are the
    completions themselves, so a walk steps each shared prefix once.  The
    levels are the root's columns, then, depth by depth, the subtables' own
    plans joined in order, and the table of the empty completion has the
    plan ``[]``.  Plans are kept for the 64 most recent (table, alphabet)
    pairs, so a subtable that several children share is planned once, and
    the acceptors of machines over one alphabet share one plan.
    """
    if not table.children:
        return []
    try:
        root = tuple([alphabet.index(sym) for sym, _ in table.children])
    except ValueError:
        return None
    below = [_plan(sub, alphabet) for _, sub in table.children]
    if None in below:
        return None
    return [(root,), *[tuple(itertools.chain(*level)) for level in zip(*below)]]


def _forget(memo: dict) -> None:
    """Empty a dropped acceptor's memo and the move slots of its states."""
    for state in memo.values():
        state.clear()
    memo.clear()


@kept
def existential_acceptor(machine: WKAutomaton) -> Callable[[Sequence[str]], bool]:
    """The acceptance predicate of ``machine`` for sweeping many words,
    built once per machine object.

    The predicate decides what ``accepts_existential`` decides, with the
    same search loop, ``_explore``, but it searches in stages and runs them
    as the moves of a lazily built DFA.  Both heads are one-way, so a node
    whose positions are both <= k depends only on the length-k prefix.
    Stage j explores exactly the reached nodes with a head at position j.
    It hands stage j + 1 a frontier of two kinds: *heads*, the nodes whose
    upper head moved to j + 1, and *commits*, the (target, p1) pairs whose
    lower head moves onto j + 1, which stage j + 1 expands over the images
    of its symbol.  Nodes of different stages are disjoint, so each stage
    deduplicates with a set of its own, and no visited set outlives its
    stage.  ``accepts_existential`` is the one stage whose j is the right
    end marker's position.  Acceptance found at
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
    state may be one).  Until the memo holds ``_MEMO_STATES`` states, every
    frontier a stage hands on is interned and linked from the slot that led
    to it, so each (frontier, column) stage runs once.  Past that, a new
    frontier is neither interned nor linked: the walk goes on from the
    unlinked state, and its stage runs again on the next word that reaches
    it.  The memo only grows, and it is emptied only when the predicate is
    dropped.  A call first takes the fast walk: from the start state it
    subscripts the slot of each symbol's column in turn, then reads the end
    marker's slot.  When that verdict is ``None`` or a symbol has no
    column, the call takes the careful walk instead.  That walk checks the
    whole word and raises ``UnknownSymbolError`` naming its first symbol
    outside the upper alphabet, so a word with such a symbol never runs a
    stage; it then walks again from the start state, running a stage on
    each move not yet run.  While the memo has room any word order runs
    the same stages, and a word whose moves are all known never leaves the
    fast walk.

    The predicate, its memo and its sinks are kept on the machine object,
    so every sweep of that object walks one DFA, and they die with it;
    ``existential_acceptor.__wrapped__(machine)`` builds a fresh predicate
    with an empty memo.  It reads the tables of the ``_compile_wk`` record
    kept on the machine, which no predicate mutates.  Any number of threads
    may share one predicate: a slot is filled in one store and a frontier
    interned with one ``setdefault``, and no state is ever taken away, so
    racing callers at worst run one stage twice.

    The first sweep of a machine object pays once for those tables and for
    each stage it runs; a later sweep of the same words runs none unless
    the memo filled.  A stage returns the key of the frontier it hands on,
    so a move not yet run costs one decode, one stage call and one memo
    lookup.

    The predicate's ``walk_group(prefix, table)`` decides a whole group of
    an enumeration, ``prefix`` joined to each completion of an
    ``oracle._Completions`` table, with one walk: the fast walk of the
    prefix, then the table's tree of shared prefixes level by level, with
    the ``_plan`` of the table over this machine's upper alphabet, whose
    order is the columns' order, so a shared symbol is stepped once for all
    the words below it.  The last level's comprehension also reads the end
    marker's slot, and the table of the empty completion reads the verdict
    of the prefix's state.  A group with a symbol that has no column, and
    each word whose walk ends without a verdict, go to the predicate's
    careful walk in order, so they run the stages, and raise the errors,
    that a word-by-word sweep would.  The group walk does not call the
    predicate, so the two form no reference cycle, and a dropped predicate
    unlinks its memo at once.
    """
    compiled = _compile_wk(machine)
    delta, finals, images, live = compiled.delta, compiled.finals, compiled.images, compiled.live
    column = compiled.column
    close = compiled.right
    alphabet = machine.upper_alphabet

    def stage(ups: tuple[int, ...], heads, commits):
        """Run stage ``j = len(ups) - 1`` on the ``heads`` and ``commits``
        that stage j - 1 handed on, whose positions index ``ups``.

        Returns True on acceptance, False when nothing reaches position
        j + 1, and otherwise the key of the frontier for stage j + 1.
        """
        found, heads, commits, _ = _explore(delta, finals, images, live, ups, heads, commits)
        if found is not None:
            return True
        if not (heads or commits):
            return False
        # The key: positions shifted down by the lowest one, base, and the
        # window of ups from base on.
        base = len(ups)  # every head has p1 == j + 1
        for _, _, p2, _ in heads:
            if p2 < base:
                base = p2
        for _, p1 in commits:
            if p1 < base:
                base = p1
        key = [len(ups) - base, *ups[base:], len(heads)]
        for q, p1, p2, s in sorted(heads):
            key += (q, p1 - base, p2 - base, s)
        for t, p1 in sorted(commits):
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

    def step(state: list, c: int):
        """Run the stage behind the move not yet run in column ``c`` of
        ``state`` and fill the slot with what it leads to: an interned
        state or a verdict's sink, and a verdict in the end marker's column.
        A new frontier that a full memo cannot intern is returned unlinked.
        """
        # Decode the state's key and run the stage from its frontier on the
        # symbol numbered c, which column c reads.
        ints = list(map(ord, state[-1]))
        n = ints[0]
        h = n + 2 + 4 * ints[n + 1]
        flat = iter(ints[n + 2 : h])
        heads = zip(flat, flat, flat, flat)
        flat = iter(ints[h:])
        result = stage((*ints[1 : n + 1], c), heads, zip(flat, flat))
        if result is True or result is False:
            if c != close:
                result = sinks[result]
        elif result in memo:  # no state ever leaves the memo
            result = memo[result]
        elif len(memo) < _MEMO_STATES:
            result = memo.setdefault(result, [*slots, result])
        else:
            return [*slots, result]
        state[c] = result
        return result

    # The start state, or the sink of every word's verdict: stage 0 with the
    # start node as its sole head, on the left end marker.
    key = stage((compiled.left,), ((compiled.start, 0, 0, compiled.left),), ())
    start = sinks[key] if key is True or key is False else memo.setdefault(key, [*slots, key])

    def walk(word: Word) -> bool:
        """The careful walk: check the word, then run a stage on every
        move not yet run that the word reaches."""
        require_symbols(word, column, "upper alphabet")
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

    def walk_group(prefix: Word, table) -> list[bool]:
        """The verdict on ``prefix`` joined to each completion of ``table``,
        in order; the last level of the table's tree reads the verdicts."""
        plan = _plan(table, alphabet)
        state = start
        try:
            for x in prefix:
                state = state[column[x]]
        except (KeyError, TypeError):  # a foreign or unhashable symbol
            plan = None
        if plan is None:
            return list(map(walk, map(prefix.__add__, table.words)))
        if plan:
            states = [state]
            for level in plan[:-1]:
                states = [s[c] for s, cs in zip(states, level) for c in cs]
            verdicts = [s[c][close] for s, cs in zip(states, plan[-1]) for c in cs]
        else:
            verdicts = [state[close]]
        if None in verdicts:
            words = table.words
            for i, verdict in enumerate(verdicts):
                if verdict is None:
                    verdicts[i] = walk(prefix + words[i])
        return verdicts

    accepts.walk_group = walk_group
    # States that move to each other form reference cycles; unlink them as
    # soon as the predicate is dropped, not at the next full collection.
    weakref.finalize(accepts, _forget, memo)
    return accepts

