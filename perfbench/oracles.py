"""The benchmark's own ground truths, written from the definitions.

They read only a machine's public fields (``start``, ``finals``, ``delta``,
``rho.image``, ``head_count``) and share no code with the program, so a
change to the program's engines or oracles cannot also change the answer
it is checked against.  Acceptance is halting acceptance: a run accepts
when it is stuck in a final state and loops when it revisits a
configuration.
"""

from __future__ import annotations

import itertools
from math import comb

LEFT, RIGHT = "#", "$"
BLOCK_ORDER = {"a": 0, "b": 1, "*": 2, "%": 3}


def wk_run(machine, upper, lower) -> str:
    up = (LEFT,) + tuple(upper) + (RIGHT,)
    lo = (LEFT,) + tuple(lower) + (RIGHT,)
    state, p1, p2 = machine.start, 0, 0
    seen = set()
    while (state, p1, p2) not in seen:
        seen.add((state, p1, p2))
        found = machine.delta.get((state, up[p1], lo[p2]))
        if found is None:
            return "accept" if state in machine.finals else "reject"
        state, p1, p2 = found[0], p1 + found[1], p2 + found[2]
    return "loop"


def wk_accepts(machine, upper) -> bool:
    """Some complementary lower strand gives an accepting run."""
    choices = [machine.rho.image(x) for x in upper]
    return any(
        wk_run(machine, upper, lower) == "accept" for lower in itertools.product(*choices)
    )


def mfa_run(machine, word) -> str:
    tape = (LEFT,) + tuple(word) + (RIGHT,)
    state, positions = machine.start, (0,) * machine.head_count
    seen = set()
    while (state, positions) not in seen:
        seen.add((state, positions))
        found = machine.delta.get((state, tuple(tape[p] for p in positions)))
        if found is None:
            return "accept" if state in machine.finals else "reject"
        state = found[0]
        positions = tuple(p + d for p, d in zip(positions, found[1]))
    return "loop"


def dfa_accepts(machine, word) -> bool:
    state = machine.start
    for sym in word:
        state = machine.delta.get((state, sym))
        if state is None:
            return False
    return state in machine.finals


def accepts(machine, word) -> bool:
    """Ground-truth verdict for any of the three machine kinds."""
    if hasattr(machine, "rho"):
        return wk_accepts(machine, word)
    if hasattr(machine, "head_count"):
        return mfa_run(machine, word) == "accept"
    return dfa_accepts(machine, word)


def reversible(machine) -> bool:
    """C1 (one move per target state) and C2 (distinct reads per move)."""
    moves: dict[str, set] = {}
    reads: set = set()
    for key, value in machine.delta.items():
        target = value[0]
        if hasattr(machine, "head_count"):
            read, move = key[1], value[1]
        else:
            read, move = key[1:], value[1:]
        moves.setdefault(target, set()).add(move)
        if (target, move, read) in reads:
            return False
        reads.add((target, move, read))
    return all(len(m) == 1 for m in moves.values())


def blocks_of(word):
    """[(w, x), ...] for a well-formed block word, else None."""
    pairs = []
    for block in "".join(word).split("%"):
        w, star, x = block.partition("*")
        if not star or "*" in x or set(w + x) - {"a", "b"}:
            return None
        pairs.append((w, x))
    return pairs


def block_member(word) -> bool:
    """Two blocks with the same w part and different x parts."""
    pairs = blocks_of(word) or []
    return any(
        pairs[i][0] == pairs[j][0] and pairs[i][1] != pairs[j][1]
        for i in range(len(pairs))
        for j in range(i + 1, len(pairs))
    )


def block_word_counts(max_len: int, max_blocks: int) -> dict[int, int]:
    """Well-formed block words per length: b blocks use 2b-1 separators and
    spread the remaining symbols over 2b parts, each symbol a or b."""
    counts = {}
    for length in range(1, max_len + 1):
        total = 0
        for blocks in range(1, max_blocks + 1):
            content = length - (2 * blocks - 1)
            if content >= 0:
                total += comb(content + 2 * blocks - 1, 2 * blocks - 1) * 2**content
        counts[length] = total
    return counts


def block_key(word):
    return (len(word), tuple(BLOCK_ORDER[s] for s in word))


def words_of(alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)
