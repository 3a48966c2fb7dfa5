"""Reversible Watson-Crick automata: types, engines, constructions, oracles."""

from .construct import dfa_to_rwka, mfa2_to_swk, swk_to_mfa2, theorem2_machine
from .engine import (
    Configuration,
    RunOutcome,
    SearchResult,
    Verdict,
    accepts_existential,
    accepts_existential_bruteforce,
    complement_strands,
    existential_acceptor,
    run_deterministic,
    run_mfa,
)
from .machines import (
    CheckReport,
    ClassicalDFA,
    ComplementarityRelation,
    LEFT_END,
    MultiHeadAutomaton,
    RIGHT_END,
    Violation,
    WKAutomaton,
    check_reversibility_mfa,
    check_reversibility_wk,
    check_strong_reversibility,
    validate,
)
from .oracle import (
    DiffReport,
    dfa_accepts,
    differential_compare,
    enumerate_block_strings,
    enumerate_words,
    theorem2_member,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ClassicalDFA",
    "ComplementarityRelation",
    "Configuration",
    "DiffReport",
    "LEFT_END",
    "MultiHeadAutomaton",
    "RIGHT_END",
    "RunOutcome",
    "SearchResult",
    "Verdict",
    "Violation",
    "WKAutomaton",
    "accepts_existential",
    "accepts_existential_bruteforce",
    "check_reversibility_mfa",
    "check_reversibility_wk",
    "check_strong_reversibility",
    "complement_strands",
    "dfa_accepts",
    "dfa_to_rwka",
    "differential_compare",
    "enumerate_block_strings",
    "enumerate_words",
    "existential_acceptor",
    "mfa2_to_swk",
    "run_deterministic",
    "run_mfa",
    "swk_to_mfa2",
    "theorem2_machine",
    "validate",
]
