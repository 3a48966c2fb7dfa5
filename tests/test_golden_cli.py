"""The pinned ``wka`` calls of ``golden_cli.tsv``, run in-process through
``scripts/check_cli.py``'s own row check, and planted rows that it fails."""

import shlex
import sys

import pytest

from conftest import CORPUS_DIR, clear_caches
from wkautomata import oracle

sys.path.insert(0, str(CORPUS_DIR.parent / "scripts"))
import check_cli  # noqa: E402

ROWS = check_cli.read_rows()


@pytest.mark.parametrize("row", ROWS, ids=lambda row: shlex.join(row.argv))
def test_pinned_call(row, monkeypatch):
    monkeypatch.chdir(check_cli.ROOT)
    clear_caches()  # so the first run sweeps, as in a fresh process
    assert check_cli.check_row(row, check_cli.in_process) is None


def test_every_row_parses():
    assert ROWS
    for row in ROWS:
        assert isinstance(row.code, int) and row.argv, row
        assert row.stream in check_cli.STREAMS and row.match in check_cli.MATCHES, row
    for text in (
        "x\tstdout\tis\trun corpus/example1-dfa.dfa aba\taccept",
        "0\tstdin\tis\trun corpus/example1-dfa.dfa aba\taccept",
        "0\tstdout\tcontains\trun corpus/example1-dfa.dfa aba\taccept",
        "0\tstdout\tis\trun corpus/example1-dfa.dfa aba",
        "0\tstdout\tis\trun 'corpus/example1-dfa.dfa aba\taccept",
        "0\tstdout\tsha256\tenumerate corpus/theorem2.wk --max-len 3\t0",
        "0\tstdout\tsha256\tenumerate corpus/theorem2.wk --max-len 3\tx " + "0" * 64,
        "0\tstdout\tsha256\tenumerate corpus/theorem2.wk --max-len 3\t0 " + "0" * 63,
        "0\tstdout\tsha256\tenumerate corpus/theorem2.wk --max-len 3\t0 " + "A" * 64,
    ):
        with pytest.raises(ValueError, match="malformed row"):
            check_cli.parse_row(1, text)


def test_a_wrong_expectation_fails_on_both_routes(monkeypatch):
    monkeypatch.chdir(check_cli.ROOT)
    row = check_cli.parse_row(1, "0\tstdout\tis\trun corpus/example1-dfa.dfa aba\taccept")
    routes = (check_cli.in_subprocess, check_cli.in_process)
    assert [check_cli.check_row(row, route) for route in routes] == [None, None]
    wrong_code, wrong_line = row._replace(code=1), row._replace(line="reject")
    for route in routes:
        assert check_cli.check_row(wrong_code, route) == "exit 0, want 1"
        assert check_cli.check_row(wrong_line, route) == "no is line 'reject' on stdout"
    # Two in-process runs that each pass but print different bytes.
    differ = lambda argv: [(0, "accept\n", ""), (0, "accept\nagain\n", "")]  # noqa: E731
    assert check_cli.check_row(row._replace(match="first"), differ) == "repeated runs differ"


SHA256_ROWS = [row for row in ROWS if row.match == "sha256"]


def test_the_empty_stream_has_its_own_digest():
    row = check_cli.parse_row(
        1, "0\tstdout\tsha256\tenumerate corpus/theorem2.wk --max-len 3\t" + check_cli.digest("")
    )
    assert row.line == "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert check_cli.check_row(row, lambda argv: [(0, "", "")]) is None


def test_a_one_byte_change_fails_a_sha256_row():
    # A stream with one byte changed, at its start, middle or end: same
    # size, other digest.
    text = "".join(f"{n}\tline\n" for n in range(100))
    row = check_cli.parse_row(
        1, "0\tstdout\tsha256\tenumerate corpus/theorem2.wk --max-len 3\t" + check_cli.digest(text)
    )
    assert check_cli.check_row(row, lambda argv: [(0, text, "")]) is None
    for i in (0, len(text) // 2, len(text) - 1):
        planted = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]
        wrong = check_cli.check_row(row, lambda argv: [(0, planted, "")])
        assert wrong == f"stdout is {check_cli.digest(planted)!r}, want {row.line!r}"


def test_a_one_byte_change_to_a_rendered_report_fails_its_row(monkeypatch):
    monkeypatch.chdir(check_cli.ROOT)
    clear_caches()
    (row,) = [row for row in SHA256_ROWS if row.argv[0] == "compare"]
    to_tsv = oracle.DiffReport.to_tsv
    monkeypatch.setattr(
        oracle.DiffReport, "to_tsv", lambda self, render=None: to_tsv(self, render).replace("\t", " ", 1)
    )
    assert check_cli.check_row(row, check_cli.in_process).startswith("stdout is '2098 ")
