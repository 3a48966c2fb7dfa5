import io
import contextlib
import functools
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from wkautomata import (
    ClassicalDFA,
    ComplementarityRelation,
    MultiHeadAutomaton,
    WKAutomaton,
    check_reversibility_mfa,
    dfa_to_rwka,
    theorem2_machine,
    validate,
)
from wkautomata.samples import (
    example1_dfa,
    identity_rho_wk,
    stationary_loop_wk,
    twohead_anbn1_mfa,
)
from wkautomata.sweeps import block_language

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_FILES = (
    "example1-dfa.dfa",
    "example1-rwka.wk",
    "theorem2.wk",
    "identity-rho.wk",
    "twohead-anbn1.mfa",
    "loop.wk",
)


def clear_caches() -> None:
    """Empty the CLI's parse memo, as in a fresh process.  Every build is
    kept on the machine object it is made from, so a fresh machine starts
    with none."""
    from wkautomata import cli

    cli._parse.cache_clear()


@contextlib.contextmanager
def kept_builds(*functions):
    """One list per ``machines.kept`` function, of every object it builds
    its value for while the block runs, seen with ``sys.setprofile`` on the
    build's code object.  A call that reads a kept value is not listed."""
    runs = {id(function.__wrapped__.__code__): [] for function in functions}

    def record(frame, event, arg):
        if event == "call" and id(frame.f_code) in runs:
            runs[id(frame.f_code)].append(frame.f_locals[frame.f_code.co_varnames[0]])

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        yield tuple(runs.values())
    finally:
        sys.setprofile(previous)


@pytest.fixture
def validations():
    """Every machine that ``validate`` builds a report for during the test,
    which starts from an empty parse memo.  A call that reads the report
    kept on its machine is not listed."""
    clear_caches()
    with kept_builds(validate) as (runs,):
        yield runs


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture
def example1():
    return example1_dfa()


@pytest.fixture
def example1_rwka():
    return dfa_to_rwka(example1_dfa())


@pytest.fixture
def theorem2():
    return theorem2_machine()


@pytest.fixture(scope="session")
def theorem2_blocks_11_6():
    """A function giving ``block_language`` of a fresh ``theorem2_machine()``
    over every block word up to 11 symbols and 6 blocks.  It sweeps on its
    first call and returns that record for the rest of the session, so the
    first test to call it, criterion 5 in file order, pays for the sweep
    inside its own timed budget."""
    return functools.cache(lambda: block_language(theorem2_machine(), 11, 6))


@pytest.fixture
def identity_rho():
    return identity_rho_wk()


@pytest.fixture
def twohead():
    return twohead_anbn1_mfa()


@pytest.fixture
def loop_machine():
    return stationary_loop_wk()


# The rules ``validate`` checks on each machine kind.
_EVERY_KIND = ("bad-token", "duplicate-state", "duplicate-symbol", "unknown-state", "unknown-symbol")
VALIDATION_RULES = {
    ClassicalDFA: _EVERY_KIND,
    MultiHeadAutomaton: _EVERY_KIND + (
        "bad-displacement", "move-on-endmarker", "bad-head-count", "head-count-mismatch",
    ),
    WKAutomaton: _EVERY_KIND + (
        "bad-displacement", "move-on-endmarker", "rho-unknown-symbol", "rho-not-total",
    ),
}

_MOVES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _allowed(reads, moves) -> bool:
    """No head moves while it reads the right end marker."""
    return not any(r == "$" and d for r, d in zip(reads, moves))


@st.composite
def dfas(draw):
    """Small valid DFAs over {a, b}, partial or total."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    delta = {
        (q, x): draw(st.sampled_from(states))
        for q in states
        for x in ("a", "b")
        if draw(st.booleans())
    }
    return ClassicalDFA(states, ("a", "b"), "q0", draw(st.sets(st.sampled_from(states))), delta)


@st.composite
def wk_machines(draw):
    """Small valid WK machines with a multi-valued relation and every kind of
    move, including the ones that advance a single head.

    Each read triple gets a transition or not, so the machines are dense
    enough to run long.  A head reading the right end marker may not move,
    so each transition draws its moves from those ``validate`` allows for
    its reads: the same distribution as drawing from all four and keeping
    the valid machines, without discarding most of them."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    images = st.lists(st.sampled_from(("x", "y", "z")), min_size=1, max_size=3, unique=True)
    rho = {u: tuple(draw(images)) for u in ("a", "b")}
    lower = sorted({y for ys in rho.values() for y in ys})
    delta = {}
    for q in states:
        for u in ("#", "a", "b", "$"):
            for l in ("#", *lower, "$"):
                if draw(st.booleans()):
                    moves = [m for m in _MOVES if _allowed((u, l), m)]
                    target = draw(st.sampled_from(states))
                    delta[(q, u, l)] = (target, *draw(st.sampled_from(moves)))
    finals = draw(st.sets(st.sampled_from(states)))
    machine = WKAutomaton(states, ("a", "b"), "q0", finals, ComplementarityRelation(rho), delta)
    assert validate(machine).passed
    return machine


@st.composite
def mfa_machines(draw, heads: int):
    """Valid ``heads``-head MFAs over {a, b}, reversible or not: each state
    and read tuple, end markers included on any head, gets a transition or
    not, with any moves ``validate`` allows, stationary ones included."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    delta = {}
    for q in states:
        for reads in itertools.product(("#", "a", "b", "$"), repeat=heads):
            if draw(st.booleans()):
                moves = [m for m in itertools.product((0, 1), repeat=heads) if _allowed(reads, m)]
                target = draw(st.sampled_from(states))
                delta[(q, reads)] = (target, draw(st.sampled_from(moves)))
    finals = draw(st.sets(st.sampled_from(states)))
    machine = MultiHeadAutomaton(states, ("a", "b"), heads, "q0", finals, delta)
    assert validate(machine).passed
    return machine


@st.composite
def reversible_two_head_machines(draw):
    """Valid reversible 2-head MFAs over {a, b}, built so by construction:
    each target state draws one move pair (C1), and a transition is kept
    only if its read pair is new among those into its target (C2) and its
    moves are allowed on its reads."""
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 3))))
    moves = {t: draw(st.sampled_from(_MOVES)) for t in states}
    delta, into = {}, set()
    for q in states:
        for reads in itertools.product(("#", "a", "b", "$"), repeat=2):
            target = draw(st.sampled_from((None, *states)))
            if target is None or (target, reads) in into or not _allowed(reads, moves[target]):
                continue
            into.add((target, reads))
            delta[(q, reads)] = (target, moves[target])
    finals = draw(st.sets(st.sampled_from(states)))
    machine = MultiHeadAutomaton(states, ("a", "b"), 2, "q0", finals, delta)
    assert validate(machine).passed and check_reversibility_mfa(machine).passed
    return machine


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    from wkautomata.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()
