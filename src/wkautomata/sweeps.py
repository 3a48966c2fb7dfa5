"""The bounded sweeps that check the paper's claims, each defined once.

* ``compiled_dfa``: a DFA against its compiled two-strand machine.
* ``strands_vs_heads``: a strongly reversible two-strand machine against
  its two-head twin.
* ``block_language``: the fixed block-language machine against direct
  membership, counted in the classes that the machine's block-1
  restriction calls for.

Each takes its machines and bounds as arguments: the acceptance suite
calls them with its tier-1 bounds and ``scripts/run_sweeps.py`` with its
own, and both read the same results.  The package and the CLI do not
import this module, so a cold ``wka`` call does not compile it.
"""

from __future__ import annotations

import random

from .construct import dfa_to_rwka
from .engine import existential_acceptor, run_mfa
from .machines import ClassicalDFA, MultiHeadAutomaton, Record, WKAutomaton
from .oracle import (
    DiffReport,
    dfa_accepts,
    differential_compare,
    enumerate_block_strings,
    enumerate_words,
    theorem2_member,
)
from .samples import random_dfa


def seeded_dfas(seed: int, count: int) -> list[ClassicalDFA]:
    """The first ``count`` DFAs of ``samples.random_dfa`` under ``seed``."""
    rng = random.Random(seed)
    return [random_dfa(rng) for _ in range(count)]


def compiled_dfa(dfa: ClassicalDFA, max_len: int) -> DiffReport:
    """``dfa`` (side a) against ``dfa_to_rwka(dfa)`` (side b) on every word
    up to ``max_len``."""
    return differential_compare(
        lambda w: dfa_accepts(dfa, w),
        existential_acceptor(dfa_to_rwka(dfa)),
        enumerate_words(dfa.alphabet, max_len),
    )


def strands_vs_heads(wk: WKAutomaton, mfa: MultiHeadAutomaton, max_len: int) -> DiffReport:
    """The two-strand ``wk`` (side a) against the two-head ``mfa`` (side b)
    on every word up to ``max_len`` over ``wk``'s upper alphabet."""
    return differential_compare(
        existential_acceptor(wk),
        lambda w: run_mfa(mfa, w).accepted,
        enumerate_words(wk.upper_alphabet, max_len),
    )


class BlockCounts(Record):
    """One block sweep's words, split by membership and detectability.

    ``unsound`` counts accepted non-members, ``missed`` rejected detectable
    members, ``block1_only`` members that are not detectable, which the
    machine need not accept, and ``block1_rejected`` those of them that it
    rejects.
    """

    words: int
    unsound: int
    detectable: int
    missed: int
    block1_only: int
    block1_rejected: int


def block_language(machine: WKAutomaton, max_len: int, max_blocks: int) -> BlockCounts:
    """``machine`` against ``theorem2_member`` on every block word of
    ``enumerate_block_strings(max_len, max_blocks)``.

    A member is detectable when it has a witness pair (i, j) with i >= 2.
    Such a pair lies in blocks 2 to n, which are the blocks after the first
    '%'; and a well-formed word's later blocks form a well-formed word.  So
    a member is detectable exactly when its part after the first '%' is a
    member.  A member has two blocks, so it has a '%'.

    Both sides decide each group of the enumeration with their
    ``walk_group``, and only a member is spelled, to check that part.
    """
    accept = existential_acceptor(machine)
    words = unsound = detected = missed = block1_only = block1_rejected = 0
    for prefix, table in enumerate_block_strings(max_len, max_blocks).groups:
        completions = table.words
        words += len(completions)
        walks = accept.walk_group(prefix, table), theorem2_member.walk_group(prefix, table)
        for accepted, member, completion in zip(*walks, completions):
            if not member:
                unsound += accepted
                continue
            word = prefix + completion
            if theorem2_member(word[word.index("%") + 1 :]):
                detected += 1
                missed += not accepted
            else:
                block1_only += 1
                block1_rejected += not accepted
    return BlockCounts(words, unsound, detected, missed, block1_only, block1_rejected)
