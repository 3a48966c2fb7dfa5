"""End-to-end command-line behavior, exit codes included."""

import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkautomata import MultiHeadAutomaton, cli, engine, validate
from wkautomata.construct import dfa_to_rwka
from wkautomata.fileformat import parse_machine, serialize_machine
from wkautomata.oracle import enumerate_words
from conftest import CORPUS_DIR, clear_caches, mfa_machines, run_cli


def corpus(name: str) -> str:
    return str(CORPUS_DIR / name)


def _left_note(count: int) -> str:
    return (
        f"note: {count} transition(s) move a head that is reading the left end marker '#';"
        " movement is pinned only on the right end marker '$'\n"
    )


_C1_TEXT = (
    "type: wk\nstates: p r qf\nstart: p\nfinal: qf\nalphabet: a\nrho: a->a\n"
    "trans: p # # -> qf 1 1\ntrans: r # # -> qf 0 0\n"
)
_C1 = "  C1: entries into 'qf' move the heads differently :: p (# #) -> qf (1 1) | r (# #) -> qf (0 0)\n"
_C2_TEXT = (
    "type: mfa\nstates: p r qf\nstart: p\nfinal: qf\nalphabet: a\nheads: 2\n"
    "trans: p # # -> qf 1 1\ntrans: r # # -> qf 1 1\n"
)
_NO_DFA_CHECK = "error: a dfa has no reversibility checker; use --require valid\n"
_WK_ONLY = "error: strong reversibility only applies to wk machines\n"

# Each file's `wka check` report, and its exit code and stderr under each
# of _REQUIRES (no flag first); a refused run prints no report.
_REQUIRES = (None, "valid", "reversible", "strong")
CHECK_OUTPUTS = {
    "example1-dfa.dfa": (
        "validate: pass\n",
        ((0, ""), (0, ""), (2, _NO_DFA_CHECK), (2, _NO_DFA_CHECK)),
    ),
    "example1-rwka.wk": (
        "validate: pass\nreversible: pass\nstrongly-reversible: fail\n"
        "  rho-not-injective: 'a' has 2 images; 'b' has 2 images\n" + _left_note(1),
        ((0, ""), (0, ""), (0, ""), (1, "")),
    ),
    "identity-rho.wk": (
        "validate: pass\nreversible: pass\nstrongly-reversible: pass\n" + _left_note(2),
        ((0, ""), (0, ""), (0, ""), (0, "")),
    ),
    "loop.wk": (
        "validate: pass\nreversible: pass\nstrongly-reversible: pass\n",
        ((0, ""), (0, ""), (0, ""), (0, "")),
    ),
    "theorem2.wk": (
        "validate: pass\nreversible: pass\nstrongly-reversible: fail\n"
        "  rho-not-injective: '%' has 3 images\n" + _left_note(1),
        ((0, ""), (0, ""), (0, ""), (1, "")),
    ),
    "twohead-anbn1.mfa": (
        "validate: pass\nreversible: pass\n" + _left_note(2),
        ((0, ""), (0, ""), (0, ""), (2, _WK_ONLY)),
    ),
    "c1.wk": (
        "validate: pass\nreversible: fail\n" + _C1 + "strongly-reversible: fail\n" + _C1 + _left_note(1),
        ((1, ""), (0, ""), (1, ""), (1, "")),
    ),
    "c2.mfa": (
        "validate: pass\nreversible: fail\n"
        "  C2: entries into 'qf' with equal moves read the same symbol pair"
        " :: p (# #) -> qf (1 1) | r (# #) -> qf (1 1)\n" + _left_note(2),
        ((1, ""), (0, ""), (1, ""), (2, _WK_ONLY)),
    ),
}


@pytest.mark.parametrize("require", _REQUIRES)
@pytest.mark.parametrize("name", CHECK_OUTPUTS)
def test_check_prints_its_whole_report(name, require, tmp_path):
    texts = {"c1.wk": _C1_TEXT, "c2.mfa": _C2_TEXT}
    if name in texts:
        path = tmp_path / name
        path.write_text(texts[name])
    else:
        path = CORPUS_DIR / name
    flag = () if require is None else ("--require", require)
    report, outcomes = CHECK_OUTPUTS[name]
    code, err = outcomes[_REQUIRES.index(require)]
    assert run_cli("check", str(path), *flag) == (code, "" if code == 2 else report, err)


class TestCheck:
    def test_unknown_requirement_is_refused_by_the_parser(self):
        code, out, err = run_cli("check", corpus("theorem2.wk"), "--require", "bogus")
        assert (code, out) == (2, "")
        assert err.startswith("usage: wka check")
        assert "argument --require: invalid choice: 'bogus'" in err

    def test_violations_are_printed(self, tmp_path):
        bad = tmp_path / "bad.wk"
        bad.write_text(
            "type: wk\nstates: p r qf\nstart: p\nfinal: qf\nalphabet: a\nrho: a->a\n"
            "trans: p $ $ -> qf 0 0\ntrans: r $ $ -> qf 0 0\n"
        )
        code, out, _ = run_cli("check", str(bad))
        assert code == 1
        assert "C2" in out


class TestRun:
    def test_existential_accept_prints_witness(self):
        code, out, _ = run_cli("run", corpus("example1-rwka.wk"), "aba")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "accept"
        assert lines[1].startswith("witness: ")
        witness = lines[1].removeprefix("witness: ")
        machine = parse_machine((CORPUS_DIR / "example1-rwka.wk").read_text())
        from wkautomata import run_deterministic
        from wkautomata.fileformat import parse_word

        replay = run_deterministic(
            machine, "aba", parse_word(witness, machine.lower_alphabet)
        )
        assert replay.accepted

    def test_trace_lists_each_step(self):
        code, out, _ = run_cli(
            "run", corpus("example1-rwka.wk"), "aba", "--lower", "a_1,b_2,a_1", "--trace"
        )
        assert code == 0
        assert out == (
            "accept\n"
            "  [q0' @ 0 0] reads (# #) -> q0 moves (1 1)\n"
            "  [q0 @ 1 1] reads (a a_1) -> q1 moves (1 1)\n"
            "  [q1 @ 2 2] reads (b b_2) -> q0 moves (1 1)\n"
            "  [q0 @ 3 3] reads (a a_1) -> q1 moves (1 1)\n"
            "  [q1 @ 4 4] reads ($ $) -> qf moves (0 0)\n"
            "  [qf @ 4 4] halt\n"
        )

    def test_trace_of_an_existential_run_validates_once(self, validations):
        code, out, _ = run_cli("run", corpus("theorem2.wk"), "aa*a%ab*a%ab*b", "--trace")
        assert code == 0
        assert out.splitlines()[0] == "accept"
        assert len(validations) == 1

    def test_mfa_run(self):
        code, out, _ = run_cli("run", corpus("twohead-anbn1.mfa"), "abb", "--trace")
        assert code == 0
        assert out == (
            "accept\n"
            "  [p0 @ 0 0] reads (# #) -> p1 moves (1 0)\n"
            "  [p1 @ 1 0] reads (a #) -> p1 moves (1 0)\n"
            "  [p1 @ 2 0] reads (b #) -> q1 moves (1 1)\n"
            "  [q1 @ 3 1] reads (b a) -> q1 moves (1 1)\n"
            "  [q1 @ 4 2] reads ($ b) -> qf moves (0 0)\n"
            "  [qf @ 4 2] halt\n"
        )
        code, out, _ = run_cli("run", corpus("twohead-anbn1.mfa"), "ab")
        assert code == 1

    def test_invalid_machine_is_a_usage_error(self, tmp_path):
        trans = "trans: q0 # # -> q0 1 1\ntrans: q0 a a -> q0 1 1\ntrans: q0 $ $ -> q0 1 0\n"
        wk = tmp_path / "bad.wk"
        wk.write_text(
            "type: wk\nstates: q0\nstart: q0\nfinal:\nalphabet: a\nrho: a->a\n" + trans
        )
        mfa = tmp_path / "bad.mfa"
        mfa.write_text(
            "type: mfa\nstates: q0\nstart: q0\nfinal:\nalphabet: a\nheads: 2\n" + trans
        )
        for argv in (
            ("run", str(wk), "a"),
            ("run", str(wk), "a", "--lower", "a"),
            ("run", str(mfa), "a"),
            ("enumerate", str(mfa), "--max-len", "2"),
            ("compare", str(mfa), str(mfa), "--max-len", "2"),
        ):
            code, out, err = run_cli(*argv)
            assert code == 2, argv
            assert out == ""
            assert err == "error: machine fails validation: move-on-endmarker\n"


class TestTranslate:
    def test_repeated_commands_validate_each_parsed_machine_once(self, tmp_path, validations):
        out_path = tmp_path / "built.wk"
        for _ in range(3):
            assert run_cli("check", corpus("example1-rwka.wk"))[0] == 0
            assert run_cli("from-dfa", corpus("example1-dfa.dfa"), "-o", str(out_path))[0] == 0
        rwka, dfa = cli._load(corpus("example1-rwka.wk")), cli._load(corpus("example1-dfa.dfa"))
        assert sum(m is rwka for m in validations) == 1
        assert sum(m is dfa for m in validations) == 1
        # The first from-dfa call also serializes the machine it builds,
        # once; the later calls write the text kept on the parsed DFA.
        assert len(validations) == 2 + 1

    @pytest.mark.parametrize(
        "command, source, construction",
        [("from-dfa", "example1-dfa.dfa", "dfa_to_rwka"),
         ("to-mfa", "identity-rho.wk", "swk_to_mfa2"),
         ("from-mfa", "twohead-anbn1.mfa", "mfa2_to_swk")],
    )
    def test_each_parsed_machine_is_translated_once(
        self, tmp_path, monkeypatch, command, source, construction
    ):
        from wkautomata import construct, fileformat

        clear_caches()
        calls = []

        def count(module, name):
            real = getattr(module, name)

            def counting(machine):
                calls.append(name)
                return real(machine)

            monkeypatch.setattr(module, name, counting)

        count(construct, construction)
        count(fileformat, "serialize_machine")
        outputs = [tmp_path / f"out{i}" for i in range(3)]
        for out_path in outputs:
            assert run_cli(command, corpus(source), "-o", str(out_path)) == (
                0, f"wrote {out_path}\n", ""
            )
        assert calls == [construction, "serialize_machine"]
        assert len({out_path.read_bytes() for out_path in outputs}) == 1

    @pytest.mark.parametrize(
        "command, text, error",
        [("to-mfa", (CORPUS_DIR / "theorem2.wk").read_text(),
          "error: complementarity relation is not injective;"
          " lower reads have no unique preimage\n"),
         ("from-mfa", "type: mfa\nstates: q\nstart: q\nfinal: q\nalphabet: a\nheads: 3\n",
          "error: need exactly 2 heads, got 3\n")],
    )
    def test_a_refused_translation_is_refused_on_every_call(self, tmp_path, command, text, error):
        source = tmp_path / "source"
        source.write_text(text)
        out_path = tmp_path / "out"
        for _ in range(3):
            assert run_cli(command, str(source), "-o", str(out_path)) == (2, "", error)
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, source",
        [("from-dfa", "example1-dfa.dfa"), ("to-mfa", "identity-rho.wk"),
         ("from-mfa", "twohead-anbn1.mfa")],
    )
    def test_every_call_writes_its_output_file(self, tmp_path, command, source):
        # A kept translation is still written on every call: junk of the
        # same or a greater length is replaced by the exact bytes.
        out_path = tmp_path / "out"
        argv = (command, corpus(source), "-o", str(out_path))
        assert run_cli(*argv)[0] == 0
        written = out_path.read_bytes()
        for junk in (b"x" * len(written), b"x" * (len(written) + 10)):
            out_path.write_bytes(junk)
            assert run_cli(*argv) == (0, f"wrote {out_path}\n", "")
            assert out_path.read_bytes() == written

    def test_an_edited_source_is_translated_anew(self, tmp_path):
        source, out_path = tmp_path / "source.dfa", tmp_path / "out.wk"
        text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        edited = text.replace("final: q1\n", "final: q0\n")
        for edit in (text, edited, text):
            source.write_text(edit)
            assert run_cli("from-dfa", str(source), "-o", str(out_path))[0] == 0
            assert out_path.read_text() == serialize_machine(dfa_to_rwka(parse_machine(edit)))
        assert serialize_machine(dfa_to_rwka(parse_machine(edited))) != out_path.read_text()

    def test_from_dfa_reproduces_the_golden_file(self, tmp_path):
        out_path = tmp_path / "built.wk"
        code, _, _ = run_cli("from-dfa", corpus("example1-dfa.dfa"), "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == (CORPUS_DIR / "example1-rwka.wk").read_text()

    def test_to_mfa_and_back(self, tmp_path):
        mfa_path = tmp_path / "out.mfa"
        code, _, _ = run_cli("to-mfa", corpus("identity-rho.wk"), "-o", str(mfa_path))
        assert code == 0
        assert mfa_path.read_text() == (CORPUS_DIR / "twohead-anbn1.mfa").read_text()

        wk_path = tmp_path / "out.wk"
        code, _, _ = run_cli("from-mfa", str(mfa_path), "-o", str(wk_path))
        assert code == 0
        assert wk_path.read_text() == (CORPUS_DIR / "identity-rho.wk").read_text()

    def test_to_mfa_refuses_non_injective_rho(self, tmp_path):
        code, _, err = run_cli(
            "to-mfa", corpus("example1-rwka.wk"), "-o", str(tmp_path / "x.mfa")
        )
        assert code == 2
        assert "not injective" in err

    def test_kind_mismatch_is_a_usage_error(self, tmp_path):
        code, _, err = run_cli(
            "from-dfa", corpus("example1-rwka.wk"), "-o", str(tmp_path / "x.wk")
        )
        assert code == 2


class TestCompare:
    def test_tsv_format_keeps_the_exit_code(self):
        text_code, _, _ = run_cli(
            "compare", corpus("theorem2.wk"), "--oracle", "theorem2",
            "--max-len", "4", "--blocks",
        )
        tsv_code, out, _ = run_cli(
            "compare", corpus("theorem2.wk"), "--oracle", "theorem2",
            "--max-len", "4", "--blocks", "--format", "tsv",
        )
        assert tsv_code == text_code == 1
        assert out == (
            "len\t1\t1\t1\t0\t0\n"
            "len\t2\t4\t4\t0\t0\n"
            "len\t3\t13\t13\t0\t0\n"
            "len\t4\t40\t36\t0\t4\n"
            "total\t58\t54\t0\t4\n"
            "mismatch\tb\t*a%*\n"
            "mismatch\tb\t*b%*\n"
            "mismatch\tb\t*%*a\n"
            "mismatch\tb\t*%*b\n"
        )


class TestEnumerate:
    def test_accepted_words_in_order(self):
        code, out, _ = run_cli("enumerate", corpus("example1-dfa.dfa"), "--max-len", "3")
        assert code == 0
        assert out.splitlines() == ["a", "aa", "ba", "aaa", "aba", "baa", "bba"]

    def test_wk_and_dfa_agree(self):
        _, dfa_out, _ = run_cli("enumerate", corpus("example1-dfa.dfa"), "--max-len", "5")
        _, wk_out, _ = run_cli("enumerate", corpus("example1-rwka.wk"), "--max-len", "5")
        assert dfa_out == wk_out


class TestUsage:
    def test_a_huge_head_count_is_refused_before_a_run(self, tmp_path):
        hostile = tmp_path / "heads.mfa"
        hostile.write_text("type: mfa\nstates: q\nstart: q\nalphabet: a\nheads: 100000000\n")
        assert run_cli("run", str(hostile), "a") == (
            2, "", "error: line 5: head count must be at most 64, got '100000000'\n"
        )

    def test_parse_errors_are_usage_errors(self, tmp_path):
        bad = tmp_path / "bad.wk"
        bad.write_text("type: wk\n")
        code, _, err = run_cli("check", str(bad))
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "{f}"),
            ("run", "{f}", "a"),
            ("compare", "{f}", corpus("example1-dfa.dfa"), "--max-len", "2"),
            ("enumerate", "{f}", "--max-len", "2"),
        ],
    )
    def test_non_utf8_file_is_a_usage_error(self, tmp_path, argv):
        bad = tmp_path / "bad.dfa"
        bad.write_bytes(b"type: dfa\n\xff\xfe\n")
        code, out, err = run_cli(*(arg.format(f=bad) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_a_non_utf8_file_reports_the_decoder_error(self, tmp_path):
        bad = tmp_path / "bad.dfa"
        bad.write_bytes(b"\xfftype: dfa\n")
        assert run_cli("check", str(bad)) == (
            2,
            "",
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte\n",
        )

    def test_crlf_line_ends_read_as_lf(self, tmp_path):
        twin = tmp_path / "example1-dfa.dfa"
        twin.write_bytes((CORPUS_DIR / "example1-dfa.dfa").read_bytes().replace(b"\n", b"\r\n"))
        assert cli._load(str(twin)) == cli._load(corpus("example1-dfa.dfa"))
        assert run_cli("check", str(twin)) == run_cli("check", corpus("example1-dfa.dfa"))

    def test_a_reader_closing_stdout_early_ends_the_command_quietly(self):
        # The --max-len 9 listing is about 216 KB, more than a pipe holds,
        # so the command is still writing when the pipe closes.
        src = str(CORPUS_DIR.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "wkautomata", "enumerate", corpus("theorem2.wk"), "--max-len", "9"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path)
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert (first, proc.returncode, err) == (b"%*a%*\n", 1, b"")

    @pytest.mark.parametrize(
        "command, source",
        [("from-dfa", "example1-dfa.dfa"), ("to-mfa", "identity-rho.wk"),
         ("from-mfa", "twohead-anbn1.mfa")],
    )
    def test_unwritable_output_is_a_usage_error(self, tmp_path, command, source):
        target = tmp_path / "missing" / "out"
        code, out, err = run_cli(command, corpus(source), "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1
        assert not target.parent.exists()


class TestOneParserPerProcess:
    SEQUENCE = (
        ("run", corpus("example1-rwka.wk"), "aba", "--lower", "a_1,b_2,a_1", "--trace"),
        ("run", corpus("example1-rwka.wk"), "aba", "--lower", "a_1,b_2,a_1"),
        (
            "compare", corpus("theorem2.wk"), "--oracle", "theorem2",
            "--max-len", "4", "--blocks", "--format", "tsv",
        ),
        ("compare", corpus("theorem2.wk"), "--oracle", "theorem2", "--max-len", "4", "--blocks"),
        ("check", corpus("theorem2.wk"), "--frobnicate"),
        ("check", corpus("theorem2.wk")),
        ("--help",),
    )

    def test_calls_sharing_the_parser_stay_independent(self, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        first = [run_cli(*argv) for argv in self.SEQUENCE]
        second = [run_cli(*argv) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_cli(*argv) for argv in self.SEQUENCE]
        assert first == second == fresh
        assert first[1] == (0, "accept\n", "")
        assert first[3][1] != first[2][1]
        code, out, err = first[4]
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --frobnicate" in err
        assert first[6][0] == 0 and first[6][1].startswith("usage: wka")

    def test_fresh_process_matches_in_process(self):
        src = str(CORPUS_DIR.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "wkautomata", "check", corpus("theorem2.wk")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli("check", corpus("theorem2.wk"))[1]


class TestDispatch:
    """``main`` hands an argv led by a subcommand to that subcommand's
    parser; the program parser's own route must print the same bytes."""

    RWKA, DFA = corpus("example1-rwka.wk"), corpus("example1-dfa.dfa")
    ARGVS = (
        (),
        ("--help",),
        ("-h", "check"),
        ("--bogus", "check"),
        ("run", "-h"),
        ("frobnicate",),
        ("--", "check", RWKA),
        ("check", RWKA, "--bogus"),
        ("check", RWKA, "extra"),
        ("run", RWKA, "aba", "--bogus", "more"),
        ("compare", RWKA, DFA, "--max", "3"),
        ("compare", RWKA, DFA, "--max-l", "3"),
        ("compare", RWKA, "--oracle=dfa:" + DFA, "--max-len=3", "--format=tsv"),
        ("check", RWKA, "--require", "bogus"),
        ("check", "--req=strong", RWKA),
        ("enumerate", RWKA, "--max-len", "x"),
        ("enumerate", RWKA, "--max-len", "2"),
        ("run", RWKA, "--", "aba"),
        ("run", "--trace", RWKA, "aba", "--lower", "a_1,b_2,a_1"),
        ("run",),
        ("from-dfa", DFA),
        ("compare", RWKA, "--max-len", "2"),
        ("check", ""),
    )

    @pytest.mark.parametrize("argv", ARGVS)
    def test_main_prints_what_the_program_parser_would(self, monkeypatch, argv):
        got = run_cli(*argv)
        parser, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
        assert got == run_cli(*argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", RWKA),
            ("check", RWKA, "--require", "strong"),
            ("run", RWKA, "aba", "--lower", "a_1,b_2,a_1", "--trace"),
            ("from-dfa", DFA, "-o", "out.wk"),
            ("to-mfa", RWKA, "--output=out.mfa"),
            ("from-mfa", corpus("twohead-anbn1.mfa"), "-oout.wk"),
            ("compare", RWKA, "--oracle", "dfa:" + DFA, "--max-len", "4", "--format", "tsv"),
            ("compare", corpus("theorem2.wk"), "--oracle", "theorem2", "--blocks",
             "--max-blocks", "2", "--max-len", "5"),
            ("compare", RWKA, DFA, "--max-l", "3"),
            ("enumerate", RWKA, "--max-len", "3"),
        ],
    )
    def test_both_routes_parse_the_same_namespace(self, argv):
        parser, _ = cli._build_parser()
        assert vars(cli._parse_argv(list(argv))) == vars(parser.parse_args(argv))

    def test_a_subcommand_never_reaches_the_program_parser(self, monkeypatch):
        parser, _ = cli._build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("the program parser was called")

        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)
        assert run_cli("run", corpus("example1-rwka.wk"), "aba", "--lower", "a_1,b_2,a_1") == (
            0, "accept\n", ""
        )
        code, _, err = run_cli("check", corpus("theorem2.wk"), "--bogus")
        assert code == 2
        assert err.splitlines()[-1] == "wka: error: unrecognized arguments: --bogus"


class TestParseMemo:
    """``_load`` reads the file on every call and parses each text once."""

    @pytest.fixture(autouse=True)
    def parses(self, monkeypatch) -> list:
        """Every text passed to ``parse_machine``, from empty caches."""
        from wkautomata import fileformat

        clear_caches()
        texts = []
        real = fileformat.parse_machine

        def counting(text):
            texts.append(text)
            return real(text)

        monkeypatch.setattr(fileformat, "parse_machine", counting)
        return texts

    def test_unchanged_file_is_parsed_once(self, parses):
        calls = [
            ("check", corpus("example1-rwka.wk")),
            ("run", corpus("example1-rwka.wk"), "aba"),
            ("enumerate", corpus("example1-rwka.wk"), "--max-len", "3"),
        ]
        assert [run_cli(*argv)[0] for argv in calls] == [0, 0, 0]
        assert parses == [(CORPUS_DIR / "example1-rwka.wk").read_text()]

    def test_edited_file_is_seen(self, tmp_path):
        path = tmp_path / "example1-dfa.dfa"
        text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        path.write_text(text)
        assert run_cli("run", str(path), "ba") == (0, "accept\n", "")
        path.write_text(text.replace("final: q1\n", "final: q0\n"))
        assert run_cli("run", str(path), "ba") == (1, "reject\n", "")

    def test_parse_errors_are_never_kept(self, tmp_path, parses):
        path = tmp_path / "example1-dfa.dfa"
        text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        path.write_text(text.replace("start: q0\n", ""))
        first = run_cli("check", str(path))
        assert first[:2] == (2, "")
        assert first[2].startswith("error: ") and first[2].count("\n") == 1
        assert run_cli("check", str(path)) == first
        assert len(parses) == 2
        path.write_text(text)
        assert run_cli("check", str(path)) == (0, "validate: pass\n", "")

    def test_memo_holds_at_most_eight_texts(self, tmp_path, parses):
        path = tmp_path / "example1-dfa.dfa"
        text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        for i in range(10):
            path.write_text(f"# text {i}\n{text}")
            assert run_cli("check", str(path))[0] == 0
        assert len(parses) == 10
        assert cli._parse.cache_info().currsize <= 8

    @pytest.fixture
    def compared(self, monkeypatch) -> list:
        """Every machine a ``MultiHeadAutomaton`` is compared with."""
        from wkautomata.machines import MultiHeadAutomaton

        calls = []
        real = MultiHeadAutomaton.__eq__

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(MultiHeadAutomaton, "__eq__", counting)
        return calls

    def test_repeated_mfa_sweeps_compare_no_machines(self, compared):
        argv = ("enumerate", corpus("twohead-anbn1.mfa"), "--max-len", "6")
        first = run_cli(*argv)
        assert first[0] == 0 and first[1]
        compared.clear()
        assert [run_cli(*argv) for _ in range(3)] == [first] * 3
        assert compared == []

    def test_a_reparsed_text_compares_no_machines(self, tmp_path, compared):
        # The mfa text leaves the parse memo while 8 dfa texts pass through
        # it, so the next enumerate parses a new, equal machine object.
        argv = ("enumerate", corpus("twohead-anbn1.mfa"), "--max-len", "6")
        first = run_cli(*argv)
        assert first[0] == 0 and first[1]
        path = tmp_path / "example1-dfa.dfa"
        text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        for i in range(8):
            path.write_text(f"# text {i}\n{text}")
            assert run_cli("check", str(path))[0] == 0
        assert [run_cli(*argv) for _ in range(2)] == [first] * 2
        assert compared == []


class TestSweepAcceptor:
    """``compare`` and ``enumerate`` keep one acceptor per WK machine and
    2-head MFA; other MFAs and DFAs decide each word on its own."""

    MFA = (CORPUS_DIR / "twohead-anbn1.mfa").read_text()
    WK = (CORPUS_DIR / "theorem2.wk").read_text()
    SWEEPS = (
        ("enumerate", corpus("twohead-anbn1.mfa"), "--max-len", "6"),
        ("enumerate", corpus("theorem2.wk"), "--max-len", "5"),
        ("compare", corpus("theorem2.wk"), "--oracle", "theorem2", "--blocks", "--max-len", "6"),
        ("compare", corpus("twohead-anbn1.mfa"), corpus("identity-rho.wk"), "--max-len", "6"),
    )

    def test_each_machine_builds_one_acceptor(self, monkeypatch):
        clear_caches()
        built = []
        real = engine.existential_acceptor

        def counting(machine):
            built.append(machine)
            return real(machine)

        monkeypatch.setattr(engine, "existential_acceptor", counting)
        first = [run_cli(*argv) for argv in self.SWEEPS]
        assert [run_cli(*argv) for argv in self.SWEEPS] == first
        # The MFA's twin, theorem2 and identity-rho.
        assert len(built) == 3

    def test_repeated_sweeps_survive_a_cleared_memo(self, monkeypatch):
        clear_caches()
        expected = [run_cli(*argv) for argv in self.SWEEPS]
        clear_caches()
        monkeypatch.setattr(engine, "_MEMO_STATES", 1)
        first = [run_cli(*argv) for argv in self.SWEEPS]
        assert first == expected
        for _ in range(3):
            assert [run_cli(*argv) for argv in self.SWEEPS] == first

    def test_acceptors_die_with_their_machines(self, tmp_path):
        clear_caches()
        for argv in self.SWEEPS[:2]:
            assert run_cli(*argv)[0] == 0
        machines = [cli._parse(self.MFA), cli._parse(self.WK)]
        refs = [weakref.ref(m) for m in machines]
        refs += [weakref.ref(cli._sweep_acceptor(m)) for m in machines]
        del machines
        path = tmp_path / "example1-dfa.dfa"
        text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        for i in range(8):
            path.write_text(f"# text {i}\n{text}")
            assert run_cli("check", str(path))[0] == 0
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

    @pytest.mark.parametrize(
        "machine",
        [
            # An even number of a's, one head.
            MultiHeadAutomaton(
                states=("s", "e", "o", "f"), alphabet=("a", "b"), head_count=1,
                start="s", finals={"f"},
                delta={
                    ("s", ("#",)): ("e", (1,)),
                    ("e", ("a",)): ("o", (1,)), ("o", ("a",)): ("e", (1,)),
                    ("e", ("b",)): ("e", (1,)), ("o", ("b",)): ("o", (1,)),
                    ("e", ("$",)): ("f", (0,)),
                },
            ),
            # a^n b^n for n >= 1, three heads; the third never leaves '#'.
            MultiHeadAutomaton(
                states=("s", "p", "q", "f"), alphabet=("a", "b"), head_count=3,
                start="s", finals={"f"},
                delta={
                    ("s", ("#", "#", "#")): ("p", (1, 0, 0)),
                    ("p", ("a", "#", "#")): ("p", (1, 0, 0)),
                    ("p", ("b", "#", "#")): ("q", (0, 1, 0)),
                    ("q", ("b", "a", "#")): ("q", (1, 1, 0)),
                    ("q", ("$", "b", "#")): ("f", (0, 0, 0)),
                },
            ),
        ],
        ids=["one-head", "three-head"],
    )
    def test_other_head_counts_run_each_word(self, tmp_path, machine):
        path = tmp_path / "machine.mfa"
        path.write_text(serialize_machine(machine))
        code, out, err = run_cli("enumerate", str(path), "--max-len", "6")
        accepted = [
            "".join(w) for w in enumerate_words(machine.alphabet, 6)
            if engine.run_mfa(machine, w).accepted
        ]
        assert (code, err) == (0, "")
        assert accepted and out.splitlines() == accepted


class TestKeptCompareReport:
    """``compare`` keeps each finished report on A's parsed machine, under
    side B and the bounds that choose the words, and prints it again."""

    T2 = corpus("theorem2.wk")
    # The compares of perfbench's interactive mix: (A, B, max length, max blocks).
    MIX = (
        [("example1-rwka.wk", "dfa:example1-dfa.dfa", n, None) for n in range(3, 7)]
        + [("identity-rho.wk", "twohead-anbn1.mfa", n, None) for n in range(3, 8)]
        + [("theorem2.wk", "theorem2", n, b) for n in range(3, 7) for b in (2, 3)]
    )

    @staticmethod
    def argv(a, b, max_len, max_blocks, fmt="text") -> tuple[str, ...]:
        if b == "theorem2":
            side_b = ("--oracle", "theorem2", "--blocks", "--max-blocks", str(max_blocks))
        elif b.startswith("dfa:"):
            side_b = ("--oracle", "dfa:" + corpus(b[len("dfa:"):]))
        else:
            side_b = (corpus(b),)
        return ("compare", corpus(a), *side_b, "--max-len", str(max_len), "--format", fmt)

    @pytest.fixture
    def sweeps(self, monkeypatch) -> list:
        """One item per sweep ``differential_compare`` runs, from an empty
        parse memo; it holds no acceptor, so no machine is kept alive."""
        from wkautomata import oracle

        clear_caches()
        calls = []
        real = oracle.differential_compare

        def counting(accept_a, accept_b, words, **kwargs):
            calls.append(None)
            return real(accept_a, accept_b, words, **kwargs)

        monkeypatch.setattr(oracle, "differential_compare", counting)
        return calls

    @pytest.mark.parametrize("config", [MIX[3], MIX[8], MIX[-1]], ids=["dfa", "mfa", "theorem2"])
    def test_repeated_compares_sweep_once(self, sweeps, config):
        text, tsv = (self.argv(*config, fmt) for fmt in ("text", "tsv"))
        first = run_cli(*text), run_cli(*tsv)
        assert first[0][1] != first[1][1]
        for _ in range(2):
            assert (run_cli(*text), run_cli(*tsv)) == first
        assert len(sweeps) == 1

    def test_every_mix_compare_repeats_its_first_output(self, sweeps):
        argvs = [self.argv(*config, fmt) for config in self.MIX for fmt in ("text", "tsv")]
        runs = [[run_cli(*argv) for argv in argvs] for _ in range(3)]
        assert runs[1] == runs[2] == runs[0]
        assert len(sweeps) == len(self.MIX) == 17
        fresh = []
        for argv in argvs:
            clear_caches()
            fresh.append(run_cli(*argv))
        assert fresh == runs[0]
        assert {(code, err) for code, _, err in fresh} == {(0, ""), (1, "")}

    def test_an_edited_file_is_swept_anew(self, tmp_path, sweeps):
        a, b = tmp_path / "a.wk", tmp_path / "b.dfa"
        a_text = (CORPUS_DIR / "example1-rwka.wk").read_text()
        b_text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        argv = ("compare", str(a), "--oracle", f"dfa:{b}", "--max-len", "4", "--format", "tsv")
        a.write_text(a_text)
        b.write_text(b_text)
        agree = run_cli(*argv)
        assert agree[0] == 0
        b.write_text(b_text.replace("final: q1\n", "final: q0\n"))
        differ = run_cli(*argv)
        assert differ[0] == 1 and len(sweeps) == 2
        b.write_text(b_text)
        a.write_text("# edited\n" + a_text)
        assert run_cli(*argv) == agree and len(sweeps) == 3
        # B named as FILE_B is the same parsed machine, so its report is kept.
        assert run_cli("compare", str(a), str(b), "--max-len", "4", "--format", "tsv") == agree
        assert len(sweeps) == 3

    def test_another_max_blocks_is_swept_anew(self, sweeps):
        argv = ("compare", self.T2, "--oracle", "theorem2", "--blocks", "--max-len", "6")
        outputs = [run_cli(*argv, *flag) for flag in (("--max-blocks", "2"), ("--max-blocks", "3"), ())]
        assert outputs[0] != outputs[1] == outputs[2]
        # No flag means 3 blocks, the report the second call kept.
        assert len(sweeps) == 2
        plain = run_cli("compare", self.T2, "--oracle", "theorem2", "--max-len", "6")
        assert plain not in outputs and len(sweeps) == 3

    @pytest.mark.parametrize(
        "argv, error, swept",
        [
            (("compare", T2, corpus("example1-rwka.wk"), "--max-len", "3"),
             "acceptor b failed on word ('%',): symbol '%' is not in the upper alphabet", 1),
            (("compare", T2, "--oracle", "dfa:" + corpus("loop.wk"), "--max-len", "3"),
             "--oracle dfa:FILE expects a dfa machine file", 0),
        ],
        ids=["unreadable-word", "dfa-oracle-kind"],
    )
    def test_a_refused_compare_keeps_nothing(self, sweeps, argv, error, swept):
        for _ in range(3):
            assert run_cli(*argv) == (2, "", f"error: {error}\n")
        assert len(sweeps) == 3 * swept
        assert cli._compare_reports(cli._load(self.T2)) == {}

    def test_reports_die_with_their_machine(self, tmp_path, sweeps):
        argvs = [self.argv(*self.MIX[3]), self.argv(*self.MIX[8])]
        assert [run_cli(*argv)[0] for argv in argvs] == [0, 0]
        names = ("example1-rwka.wk", "example1-dfa.dfa", "identity-rho.wk", "twohead-anbn1.mfa")
        machines = [cli._parse((CORPUS_DIR / name).read_text()) for name in names]
        reports = [report for m in machines for _, report in cli._compare_reports(m).values()]
        assert len(reports) == 2
        refs = [weakref.ref(x) for x in machines + reports]
        del machines, reports
        path = tmp_path / "example1-dfa.dfa"
        text = (CORPUS_DIR / "example1-dfa.dfa").read_text()
        for i in range(8):
            path.write_text(f"# text {i}\n{text}")
            assert run_cli("check", str(path))[0] == 0
        gc.collect()
        assert [ref() for ref in refs] == [None] * 6


@given(machine=mfa_machines(2), order=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_a_two_head_sweep_decides_what_the_run_loop_decides(machine, order):
    accept, alphabet = cli._acceptor(machine)
    words = list(enumerate_words(alphabet, 6))
    order.shuffle(words)
    assert [accept(w) for w in words] == [engine.run_mfa(machine, w).accepted for w in words]
    assert cli._acceptor(machine)[0] is accept


_STATES = ("q0", "q1", "qf")
_CHARS = st.characters(blacklist_categories=("Cs",))


@st.composite
def machine_texts(draw):
    """Machine files of every kind that mostly parse, with arbitrary lines
    mixed in."""
    kind = draw(st.sampled_from(("wk", "mfa", "dfa")))
    heads = {"wk": 2, "mfa": draw(st.integers(1, 3)), "dfa": 1}[kind]
    finals = draw(st.lists(st.sampled_from(_STATES), unique=True))
    lines = [
        f"type: {kind}", "states: " + " ".join(_STATES), "start: q0",
        "final: " + " ".join(finals), "alphabet: a b",
    ]
    upper = ("a", "b") if kind == "dfa" else ("a", "b", "#", "$")
    columns = [st.sampled_from(upper)] * heads
    if kind == "wk":
        rho = {draw(st.sampled_from(("a->a", "a->a_1"))), draw(st.sampled_from(("b->b", "b->a")))}
        rho |= set(draw(st.lists(st.sampled_from(("a->b", "b->a_1")))))
        lines.append("rho: " + " ".join(sorted(rho)))
        columns[1] = st.sampled_from(sorted({p[3:] for p in rho} | {"#", "$"}))
    if kind == "mfa":
        lines.append(f"heads: {heads}")
    moves = 0 if kind == "dfa" else heads
    keys = set()
    for _ in range(draw(st.integers(0, 8))):
        source, target = draw(st.sampled_from(_STATES)), draw(st.sampled_from(_STATES))
        reads = " ".join(draw(column) for column in columns)
        ds = " ".join(draw(st.lists(st.sampled_from("01"), min_size=moves, max_size=moves)))
        if (source, reads) not in keys:
            keys.add((source, reads))
            lines.append(f"trans: {source} {reads} -> {target} {ds}".rstrip())
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(_CHARS, max_size=20)))
    return "\n".join(lines) + "\n"


@given(
    data=st.one_of(
        machine_texts().map(str.encode), st.text(_CHARS).map(str.encode), st.binary()
    ),
    word=st.one_of(st.text("ab", max_size=6), st.text("ab_1,#$-", max_size=6)),
)
@settings(max_examples=150, deadline=None)
def test_cli_never_raises(tmp_path_factory, data, word):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzzed.wk"
    path.write_bytes(data)
    f, unwritable = str(path), str(base / "missing" / "out")
    translations = tuple(
        (command, f, "-o", unwritable) for command in ("from-dfa", "to-mfa", "from-mfa")
    )
    calls = (
        *translations,
        ("check", f),
        ("run", f, word),
        ("run", f, word, "--trace"),
        ("enumerate", f, "--max-len", "2"),
        ("compare", f, f, "--max-len", "2"),
        # theorem2's words hold '*' and '%', which no fuzzed machine reads.
        ("compare", corpus("theorem2.wk"), f, "--max-len", "1"),
        ("compare", f, "--oracle", "theorem2", "--blocks", "--max-len", "2"),
    )
    for argv in calls:
        code, out, err = run_cli(*argv)
        assert code in (0, 1, 2), argv
        if argv in translations:
            assert (code, out) == (2, ""), argv
        if code == 2:
            assert sum("error: " in line for line in err.splitlines()) == 1, err
        else:
            assert err == ""
