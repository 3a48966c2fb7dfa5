#!/usr/bin/env python3
"""Run every pinned ``wka`` call in ``tests/golden_cli.tsv`` and check it.

Each row of the table is one call, in five tab-separated fields: the exit
code, the stream checked (``stdout`` or ``stderr``), how the line is
matched, the argv (split as a POSIX shell splits it, with paths relative
to the repository root), and the line, which runs to the end of the row
and may hold tabs.  Blank rows and rows starting with ``#`` are skipped.

A row passes when every run of its argv exits with the row's code, prints
nothing on the other stream, and matches the line as the row says:

* ``has``: the line is a whole line of the stream;
* ``first`` / ``last``: it is the stream's first / last line;
* ``is``: the stream is exactly that one line, or empty if the line is.

The argv runs once as ``python -m wkautomata`` in a fresh process and
twice in this process through ``cli.main``, and the two in-process runs
must print the same bytes, so whatever a first call keeps (a parsed
machine, a compare report) changes nothing the second prints.  Every run
sees ``COLUMNS=80``, so argparse wraps its usage lines as it does on an
80-column terminal whatever the terminal the script runs in.  The script
takes no options, needs only the standard library, and exits 1 with one
line per failing row:

    python scripts/check_cli.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import subprocess
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLE = ROOT / "tests" / "golden_cli.tsv"
sys.path.insert(0, str(SRC))

from wkautomata import cli  # noqa: E402

WIDTH = {"COLUMNS": "80"}
STREAMS = ("stdout", "stderr")
MATCHES = ("has", "first", "last", "is")

Run = tuple[int, str, str]  # exit code, stdout, stderr


class Row(NamedTuple):
    lineno: int
    code: int
    stream: str
    match: str
    argv: tuple[str, ...]
    line: str


def parse_row(lineno: int, text: str) -> Row:
    """The row on line ``lineno`` of the table; ``ValueError`` if it has
    too few fields, an exit code that is not an integer, or an unknown
    stream or match kind."""
    try:
        code, stream, match, argv, line = text.split("\t", 4)
        row = Row(lineno, int(code), stream, match, tuple(shlex.split(argv)), line)
    except ValueError:
        row = None
    if row is None or stream not in STREAMS or match not in MATCHES:
        raise ValueError(f"{TABLE.name}:{lineno}: malformed row {text!r}")
    return row


def read_rows() -> list[Row]:
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    return [parse_row(n, text) for n, text in enumerate(lines, 1) if text and text[0] != "#"]


def in_subprocess(argv: Sequence[str]) -> list[Run]:
    """One run of ``python -m wkautomata`` from the repository root."""
    proc = subprocess.run(
        [sys.executable, "-m", "wkautomata", *argv],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC), **WIDTH},
        capture_output=True,
        encoding="utf-8",
        timeout=300,
    )
    return [(proc.returncode, proc.stdout, proc.stderr)]


def _call(argv: Sequence[str]) -> Run:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def in_process(argv: Sequence[str]) -> list[Run]:
    """Two calls of ``cli.main`` in this process, from the current directory."""
    with mock.patch.dict(os.environ, WIDTH):
        return [_call(argv), _call(argv)]


ROUTES = (("subprocess", in_subprocess), ("in-process", in_process))


def _matches(text: str, match: str, line: str) -> bool:
    if match == "is":
        return text == (line + "\n" if line else "")
    lines = text.splitlines()
    if match == "has":
        return line in lines
    return (lines[:1] if match == "first" else lines[-1:]) == [line]


def check_row(row: Row, route: Callable[[Sequence[str]], list[Run]]) -> str | None:
    """What is wrong with the runs ``route`` makes of ``row``'s argv, or
    ``None`` if they all pass."""
    runs = route(row.argv)
    found = []
    for code, out, err in runs:
        text, other = (out, err) if row.stream == "stdout" else (err, out)
        if code != row.code:
            found.append(f"exit {code}, want {row.code}")
        if other:
            other_name = "stderr" if row.stream == "stdout" else "stdout"
            found.append(f"{other_name} not empty: {other.splitlines()[0]!r}")
        if not _matches(text, row.match, row.line):
            found.append(f"no {row.match} line {row.line!r} on {row.stream}")
    if any(run != runs[0] for run in runs):
        found.append("repeated runs differ")
    return "; ".join(dict.fromkeys(found)) or None


def main() -> int:
    os.chdir(ROOT)
    failed = False
    for row in read_rows():
        found = [f"{name}: {wrong}" for name, route in ROUTES if (wrong := check_row(row, route))]
        if found:
            failed = True
            print(f"{TABLE.name}:{row.lineno}: wka {shlex.join(row.argv)}: {' | '.join(found)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
