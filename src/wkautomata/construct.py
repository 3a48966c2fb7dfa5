"""Machine-to-machine constructions.

* ``dfa_to_rwka`` compiles any DFA into a reversible two-strand machine for
  the same language.  The lower strand's job is to guess, position by
  position, which DFA transition fires there; the table then only has to
  replay the guess, which keeps it backward deterministic.
* ``mfa2_to_swk`` / ``swk_to_mfa2`` translate between two-head reversible
  machines and strongly reversible two-strand machines (identity relation
  one way, the relation's inverse the other way).  ``identity_twin`` is
  the first direction without its checks, for any valid two-head machine.
* ``theorem2_machine`` is a fixed reversible machine with a non-injective
  relation for the block language handled by ``oracle.theorem2_member``.

Machines are frozen, so each construction (``dfa_to_rwka``,
``identity_twin`` and ``swk_to_mfa2``) is built once per input object and
kept on it, and ``mfa2_to_swk(m) is identity_twin(m)``.  An equal but
distinct input builds its own, and a refused input raises on every call
and keeps nothing.
"""

from __future__ import annotations

from .machines import (
    LEFT_END,
    RIGHT_END,
    CheckReport,
    ClassicalDFA,
    ComplementarityRelation,
    MachineError,
    MultiHeadAutomaton,
    NonInjectiveRhoError,
    WKAutomaton,
    check_reversibility_mfa,
    check_strong_reversibility,
    kept,
    require_kind,
    require_valid,
)


class HeadCountError(MachineError):
    """The translation needs a machine with exactly two heads."""


class ReversibilityError(MachineError):
    """The input machine fails a required reversibility check."""

    def __init__(self, report: CheckReport, context: str):
        self.report = report
        rules = ", ".join(str(v) for v in report.violations)
        super().__init__(f"{context}: {rules}")


def _fresh_numbered(stem: str, index: int | str, taken: set[str]) -> str:
    """``stem_index``, its separator widened until the name is not in
    ``taken``, which it then joins; ``taken`` is finite, so this ends."""
    sep = "_"
    name = f"{stem}_{index}"
    while name in taken:
        sep += "_"
        name = f"{stem}{sep}{index}"
    taken.add(name)
    return name


def _fresh_primed(stem: str, taken: set[str]) -> str:
    """``stem``, primed until the name is not in ``taken``, which it then
    joins."""
    name = stem
    while name in taken:
        name += "'"
    taken.add(name)
    return name


@kept
def dfa_to_rwka(dfa: ClassicalDFA) -> WKAutomaton:
    """Compile a DFA into a reversible two-strand machine, same language.

    Per input symbol, the DFA's transitions are listed in state declaration
    order and the i-th one gets a fresh lower symbol ``x_i``.  Simulation
    entries replay the guessed transition; a fresh start state consumes the
    left markers and every final state gets its own accepting sink on the
    right markers (one sink per final keeps the table backward
    deterministic when there are several finals).

    Input symbols without any transition still receive one fresh image so
    the relation stays total; nothing ever consumes such an image, so the
    language is unaffected.

    A DFA of another kind or one that fails ``validate`` raises.
    """
    require_kind(dfa, ClassicalDFA)
    require_valid(dfa, "dfa")

    taken = {*dfa.states, *dfa.alphabet}
    start = _fresh_primed(dfa.start, taken)
    # The start entry, then the simulation entries symbol by symbol, then
    # the sinks' entries: the order that reports and files list them in.
    delta = {(start, LEFT_END, LEFT_END): (dfa.start, 1, 1)}
    move = dfa.delta.get  # a valid DFA's targets are declared states, never None
    images: dict[str, tuple[str, ...]] = {}
    for x in dfa.alphabet:
        fresh: list[str] = []
        for q in dfa.states:
            target = move((q, x))
            if target is not None:
                y = _fresh_numbered(x, len(fresh) + 1, taken)
                fresh.append(y)
                delta[(q, x, y)] = (target, 1, 1)
        images[x] = tuple(fresh) if fresh else (_fresh_numbered(x, 1, taken),)

    final_states = [q for q in dfa.states if q in dfa.finals]
    if len(final_states) == 1:
        sinks = [_fresh_primed("qf", taken)]
    else:
        sinks = [_fresh_numbered("qf", q, taken) for q in final_states]
    for q, sink in zip(final_states, sinks):
        delta[(q, RIGHT_END, RIGHT_END)] = (sink, 0, 0)

    return WKAutomaton(
        states=(start, *dfa.states, *sinks),
        upper_alphabet=dfa.alphabet,
        start=start,
        finals=frozenset(sinks),
        rho=ComplementarityRelation(images),
        delta=delta,
    )


@kept
def identity_twin(machine: MultiHeadAutomaton) -> WKAutomaton:
    """The identity-relation two-strand machine with the transitions of the
    two-head ``machine``, copied entry for entry.

    With the identity relation the lower strand is the input itself, so the
    twin accepts what ``machine`` accepts.  The caller checks that
    ``machine`` is a valid two-head machine.
    """
    delta = {
        (q, reads[0], reads[1]): (t, moves[0], moves[1])
        for (q, reads), (t, moves) in machine.delta.items()
    }
    return WKAutomaton(
        states=machine.states,
        upper_alphabet=machine.alphabet,
        start=machine.start,
        finals=machine.finals,
        rho=ComplementarityRelation.identity(machine.alphabet),
        delta=delta,
    )


def mfa2_to_swk(machine: MultiHeadAutomaton) -> WKAutomaton:
    """Translate a two-head reversible machine to its identity-relation
    two-strand twin."""
    require_kind(machine, MultiHeadAutomaton)
    if machine.head_count != 2:
        raise HeadCountError(f"need exactly 2 heads, got {machine.head_count}")
    require_valid(machine, "two-head machine")
    reversibility = check_reversibility_mfa(machine)
    if not reversibility.passed:
        raise ReversibilityError(reversibility, "two-head machine is not reversible")
    return identity_twin(machine)


@kept
def swk_to_mfa2(machine: WKAutomaton) -> MultiHeadAutomaton:
    """Translate a strongly reversible two-strand machine to a two-head one.

    Each lower read is replaced by its unique preimage under the relation;
    end markers are their own preimage.
    """
    require_kind(machine, WKAutomaton)
    require_valid(machine, "two-strand machine")
    if not machine.rho.is_injective:
        raise NonInjectiveRhoError(
            "complementarity relation is not injective; lower reads have no unique preimage"
        )
    strong = check_strong_reversibility(machine)
    if not strong.passed:
        raise ReversibilityError(strong, "two-strand machine is not strongly reversible")

    inverse = machine.rho.inverse()
    inverse[LEFT_END] = LEFT_END
    inverse[RIGHT_END] = RIGHT_END
    delta = {
        (q, (u, inverse[l])): (t, (d1, d2))
        for (q, u, l), (t, d1, d2) in machine.delta.items()
    }
    return MultiHeadAutomaton(
        states=machine.states,
        alphabet=machine.upper_alphabet,
        head_count=2,
        start=machine.start,
        finals=machine.finals,
        delta=delta,
    )


def theorem2_machine() -> WKAutomaton:
    """The fixed reversible machine for the repeated-w, differing-x block
    language over {a, b, *, %}.

    The relation gives '%' three images: the plain separator plus two
    markers that guess which two separators precede the blocks to compare.
    The upper head parks on the first guessed separator while the lower
    head runs ahead to the second; the two heads then compare the blocks
    that follow.  The relation is deliberately not injective.
    """
    rho = ComplementarityRelation(
        {"a": ("a",), "%": ("%", "v_m1", "v_m2"), "b": ("b",), "*": ("*",)}
    )
    delta = {
        ("q0", LEFT_END, LEFT_END): ("q0", 1, 1),
        ("q0", "%", "%"): ("q0", 1, 1),
        ("q0", "a", "a"): ("q0", 1, 1),
        ("q0", "b", "b"): ("q0", 1, 1),
        ("q0", "*", "*"): ("q0", 1, 1),
        ("q0", "%", "v_m1"): ("q1", 0, 1),
        ("q1", "%", "a"): ("q1", 0, 1),
        ("q1", "%", "b"): ("q1", 0, 1),
        ("q1", "%", "*"): ("q1", 0, 1),
        ("q1", "%", "%"): ("q1", 0, 1),
        ("q1", "%", "v_m2"): ("q2", 1, 1),
        ("q2", "a", "a"): ("q2", 1, 1),
        ("q2", "b", "b"): ("q2", 1, 1),
        ("q2", "*", "*"): ("q3", 1, 1),
        ("q3", "a", "a"): ("q3", 1, 1),
        ("q3", "b", "b"): ("q3", 1, 1),
        ("q3", "%", "%"): ("q4", 0, 0),
        ("q3", "%", "v_m1"): ("q4", 0, 0),
        ("q3", "%", "v_m2"): ("q4", 0, 0),
        ("q3", "%", RIGHT_END): ("q4", 0, 0),
    }
    return WKAutomaton(
        states=("q0", "q1", "q2", "q3", "q4"),
        upper_alphabet=("a", "b", "%", "*"),
        start="q0",
        finals=frozenset({"q3"}),
        rho=rho,
        delta=delta,
    )
