import io
import contextlib
from pathlib import Path

import pytest

from wkautomata import dfa_to_rwka, theorem2_machine
from wkautomata.samples import (
    example1_dfa,
    identity_rho_wk,
    stationary_loop_wk,
    twohead_anbn1_mfa,
)

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
    """Empty the CLI's parse memo, as in a fresh process.  The engines keep
    their tables, and the CLI its sweep acceptors, on each machine object,
    so a fresh machine starts with none."""
    from wkautomata import cli

    cli._parse.cache_clear()


@pytest.fixture
def validations(monkeypatch) -> list:
    """Every machine passed to ``validate`` during the test, which starts
    from an empty parse memo."""
    from wkautomata import cli, engine, machines

    clear_caches()
    calls = []
    real = machines.validate

    def counting(machine):
        calls.append(machine)
        return real(machine)

    for module in (machines, engine, cli):
        if getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    return calls


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


@pytest.fixture
def identity_rho():
    return identity_rho_wk()


@pytest.fixture
def twohead():
    return twohead_anbn1_mfa()


@pytest.fixture
def loop_machine():
    return stationary_loop_wk()


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    from wkautomata.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()
