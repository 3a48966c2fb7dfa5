"""Command-line surface: check, run, construct, translate, compare, enumerate.

Exit codes are uniform across subcommands: 0 for a passing check, an
accepting run, or a mismatch-free comparison; 1 for the failing or
rejecting counterpart; 2 for unusable input (bad flags, parse errors, or
machines that do not satisfy an operation's precondition).  A command
whose reader closes its output early (``wka enumerate ... | head``) stops
there and exits 1, printing nothing more.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys
import weakref

from . import construct, engine, fileformat, oracle
from .machines import (
    CheckReport,
    ClassicalDFA,
    MachineError,
    MultiHeadAutomaton,
    UnknownSymbolError,
    WKAutomaton,
    check_reversibility_mfa,
    check_reversibility_wk,
    check_strong_reversibility,
    kept,
    validate,
)

USAGE_ERROR = 2


def _load(path: str):
    """The machine in ``path``: the file is read on every call, so an edit
    is always seen, decoded as UTF-8 in one piece, and its text is parsed
    by ``_parse``, whose line split also ends a line at a CR or a CRLF."""
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MachineError(f"cannot read {path}: {exc}") from exc
    return _parse(text)


@functools.lru_cache(maxsize=8)
def _parse(text: str):
    """The machine of ``text``, parsed once per process for the 8 most
    recent texts.

    Parsing is a pure function of the text and machines are frozen values,
    so a repeated call gets the very same machine object, with every build
    made from it kept on it: each module keeps its own builds on the
    machine they are built from (``machines.kept``), translations and their
    text included, and the CLI keeps only the reports of the compares run
    with it as side A (``_compare_reports``).  The output file is still
    written, and a kept report printed, on every call, and a one-shot
    process, which parses each text once, gains nothing.  A ``ParseError``
    propagates and is never kept.

    The memo holds more texts than the corpus has machine files, and
    dropping a text drops its machine with all that is kept on it; the
    compare reports kept on side A that name it as side B go with it too.
    Every other cache the package keeps for the whole process is bounded
    too: ``_build_parser`` holds one set of parsers, ``oracle._table`` the
    64 most recent completion tables of the enumerators, each with its
    subtables, ``engine._plan`` the walk plans of the 64 most recent
    (table, alphabet) pairs, ``oracle._index`` the completions, indexed by
    head and last block, of the 64 most recent tables that membership
    decided by group, and
    ``oracle.theorem2_member`` the last word head it parsed, one head that
    any thread may read.  The acceptor's memo of group verdicts
    (``group_walker``) is made by each sweep and dies with it; it is not a
    process cache.
    """
    return fileformat.parse_machine(text)


def _print_report(name: str, report: CheckReport) -> None:
    print(f"{name}: {'pass' if report.passed else 'fail'}")
    for violation in report.violations:
        print(f"  {violation}")


def _cmd_check(args) -> int:
    machine = _load(args.file)
    reports: dict[str, CheckReport] = {"validate": validate(machine)}
    if isinstance(machine, WKAutomaton):
        reports["reversible"] = check_reversibility_wk(machine)
        reports["strongly-reversible"] = check_strong_reversibility(machine)
    elif isinstance(machine, MultiHeadAutomaton):
        reports["reversible"] = check_reversibility_mfa(machine)

    require = args.require
    if require is None:
        require = "valid" if isinstance(machine, ClassicalDFA) else "reversible"
    if require != "valid" and isinstance(machine, ClassicalDFA):
        raise MachineError("a dfa has no reversibility checker; use --require valid")
    if require == "strong" and not isinstance(machine, WKAutomaton):
        raise MachineError("strong reversibility only applies to wk machines")

    for name, report in reports.items():
        _print_report(name, report)
    for note in reports["validate"].notes:
        print(f"note: {note}")

    needed = ["validate"]
    if require in ("reversible", "strong"):
        needed.append("reversible")
    if require == "strong":
        needed.append("strongly-reversible")
    return 0 if all(reports[name].passed for name in needed) else 1


def _trace_lines(outcome: engine.RunOutcome) -> list[str]:
    lines = []
    for config, (q, reads, t, moves) in outcome.trace:
        positions = " ".join(str(p) for p in config.positions)
        lines.append(
            f"  [{q} @ {positions}] reads ({' '.join(reads)})"
            f" -> {t} moves ({' '.join(str(d) for d in moves)})"
        )
    final = " ".join(str(p) for p in outcome.final.positions)
    ending = "loop" if outcome.verdict is engine.Verdict.INFINITE_LOOP else "halt"
    lines.append(f"  [{outcome.final.state} @ {final}] {ending}")
    return lines


def _cmd_run(args) -> int:
    machine = _load(args.file)
    if isinstance(machine, ClassicalDFA):
        if args.lower is not None or args.trace:
            raise MachineError("--lower and --trace do not apply to dfa machines")
        word = fileformat.parse_word(args.word, machine.alphabet)
        accepted = oracle.dfa_accepts(machine, word)
        print("accept" if accepted else "reject")
        return 0 if accepted else 1

    if isinstance(machine, MultiHeadAutomaton):
        if args.lower is not None:
            raise MachineError("--lower does not apply to mfa machines")
        word = fileformat.parse_word(args.word, machine.alphabet)
        outcome = engine.run_mfa(machine, word, keep_trace=args.trace)
    else:
        word = fileformat.parse_word(args.word, machine.upper_alphabet, "upper alphabet")
        if args.lower is None:
            return _run_existential(machine, word, args.trace)
        lower = fileformat.parse_word(args.lower, machine.lower_alphabet, "lower alphabet")
        outcome = engine.run_deterministic(machine, word, lower, keep_trace=args.trace)
    print(outcome.verdict.value)
    if args.trace:
        print("\n".join(_trace_lines(outcome)))
    return 0 if outcome.accepted else 1


def _run_existential(machine: WKAutomaton, word, trace: bool) -> int:
    result = engine.accepts_existential(machine, word)
    if not result.accepted:
        print("reject")
        return 1
    print("accept")
    print("witness: " + fileformat.render_word(result.witness_lower, machine.lower_alphabet))
    if trace:
        outcome = engine.run_deterministic(machine, word, result.witness_lower, keep_trace=True)
        print("\n".join(_trace_lines(outcome)))
    return 0


def _stream_to(path: str):
    """``sys.stdout`` if it writes to the file that ``path`` names, else
    ``sys.stderr`` if that one does, else None; never an in-memory stream."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if os.path.samestat(os.fstat(stream.fileno()), os.stat(path)):
                return stream
        except (OSError, ValueError):
            pass
    return None


def _write_over(path: str, text: str) -> None:
    """Write ``text`` over the file at ``path``.

    A regular file is written in place and then cut where the writing
    stopped: the opener drops ``O_TRUNC``, since emptying a file that holds
    data costs more than the write.  So a write that fails partway leaves
    the new text's first bytes and none of the old file's.  The write is
    neither atomic nor fsynced: after a crash the file may hold any mix of
    old and new bytes.  Any other file (a pipe, a terminal, ``/dev/null``)
    is written and not cut.
    """
    try:
        with open(
            path, "w", encoding="utf-8",
            opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666),
        ) as file:
            try:
                file.write(text)
                file.flush()
            finally:
                fd = file.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise MachineError(f"cannot write {path}: {exc}") from exc


def _translate(args, expect: type, construction) -> int:
    """Write ``construction(machine)``'s text to the ``-o`` file, then a note.

    A path that names stdout's or stderr's own file, such as
    ``/dev/stdout`` or ``/dev/stderr``, is written through that stream's
    buffer, as UTF-8 like any output file, so the text lands at the
    stream's own offset: after what a file opened for append already holds,
    and before the note when the note goes there too.  Any other path is
    ``_write_over``.
    """
    machine = _load(args.file)
    if not isinstance(machine, expect):
        raise MachineError(f"{args.command} expects a {expect.__name__} machine file")
    text = fileformat.serialize_machine(construction(machine))
    stream = _stream_to(args.output)
    if stream is not None:
        stream.flush()
        stream.buffer.write(text.encode("utf-8"))
    else:
        _write_over(args.output, text)
    print(f"wrote {args.output}")
    return 0


def _acceptor(machine):
    """The predicate a sweep calls on each word, and the alphabet it sweeps.

    A WK machine gets the ``engine.existential_acceptor`` kept on it, and a
    2-head MFA its ``_sweep_acceptor``; other MFAs run the run loop and
    DFAs ``dfa_accepts`` on each word.
    """
    if isinstance(machine, WKAutomaton):
        return engine.existential_acceptor(machine), machine.upper_alphabet
    if isinstance(machine, MultiHeadAutomaton):
        engine.run_mfa(machine, ())  # refuse an invalid machine here, not mid-sweep
        if machine.head_count == 2:
            return _sweep_acceptor(machine), machine.alphabet
        return (lambda word: engine.run_mfa(machine, word).accepted), machine.alphabet
    return (lambda word: oracle.dfa_accepts(machine, word)), machine.alphabet


def _sweep_acceptor(machine):
    """The existential acceptor of a valid 2-head MFA's identity-relation
    twin, which decides what the run loop decides.

    The twin is kept on the MFA and its acceptor on the twin, so every
    sweep of the text that ``_parse`` holds walks one DFA.  A word the MFA
    cannot read goes to the run loop, which raises the MFA's own message.
    """
    twin = engine.existential_acceptor(construct.identity_twin(machine))

    def accepts(word):
        try:
            return twin(word)
        except UnknownSymbolError:
            return engine.run_mfa(machine, word).accepted

    return accepts


def _require_words(max_len: int, max_blocks: int | None = None) -> None:
    """Refuse bounds under which a sweep would cover no word at all."""
    least_len = 0 if max_blocks is None else 1  # a block word has its '*'
    if max_len < least_len:
        raise MachineError(f"--max-len must be at least {least_len}, got {max_len}")
    if max_blocks is not None and max_blocks < 1:
        raise MachineError(f"--max-blocks must be at least 1, got {max_blocks}")


@kept
def _compare_reports(machine):
    """The finished ``DiffReport`` of each sweep run with ``machine`` as
    side A, by side B and the bounds that choose the words.

    The dict lives on the machine that ``_parse`` holds for A's text, so it
    dies with that machine, and an entry whose side B is a machine goes
    with that machine, which the entry does not keep alive.
    """
    return {}


def _cmd_compare(args) -> int:
    """Sweep A against B, or print the report kept from an earlier sweep.

    Every check that can refuse without a sweep runs on every call, in the
    same order, so a repeated call exits and prints as the first did.  A
    report is kept on A's parsed machine under side B (``"theorem2"`` or
    B's parsed machine, by identity, while it lives) and the bounds that
    choose the words;
    ``--format`` is not part of the key, as both formats render one report.
    A sweep that fails keeps nothing and is run again on the next call.
    """
    if (args.file_b is None) == (args.oracle is None):
        raise MachineError("compare needs either FILE_B or --oracle, not both")
    max_blocks = args.max_blocks
    if args.blocks:
        max_blocks = 3 if max_blocks is None else max_blocks
    elif max_blocks is not None:
        raise MachineError("--max-blocks only applies with --blocks")
    _require_words(args.max_len, max_blocks)
    machine_a = _load(args.file_a)
    accept_a, alphabet = _acceptor(machine_a)

    if args.oracle is not None:
        if args.oracle == "theorem2":
            side_b, accept_b = "theorem2", oracle.theorem2_member
        elif args.oracle.startswith("dfa:"):
            side_b = _load(args.oracle[len("dfa:") :])
            if not isinstance(side_b, ClassicalDFA):
                raise MachineError("--oracle dfa:FILE expects a dfa machine file")
            accept_b, _ = _acceptor(side_b)
        else:
            raise MachineError(f"unknown oracle {args.oracle!r}")
    else:
        side_b = _load(args.file_b)
        accept_b, _ = _acceptor(side_b)

    # Keyed by B's identity: B's value would be hashed and compared on every
    # call.  An entry holds B's machine by a weak reference whose callback
    # drops the entry as B dies, so the entry goes with B and B's id is not
    # reused while kept; "theorem2" is held as it is.
    reports = _compare_reports(machine_a)
    key = (id(side_b), args.max_len, max_blocks)
    render = fileformat.word_separator(alphabet).join
    if key in reports:
        report = reports[key][1]
    else:
        if max_blocks is not None:
            words = oracle.enumerate_block_strings(args.max_len, max_blocks)
        else:
            words = oracle.enumerate_words(alphabet, args.max_len)
        try:
            report = oracle.differential_compare(accept_a, accept_b, words)
        except oracle.AcceptorFailure as exc:
            # A word one side cannot read, such as a symbol outside B's
            # alphabet, is unusable input; any other failure is a bug.
            if not isinstance(exc.__cause__, MachineError):
                raise
            word = render(exc.word)
            raise MachineError(f"acceptor {exc.side} failed on word {word!r}: {exc.__cause__}") from exc
        if not isinstance(side_b, str):
            side_b = weakref.ref(side_b, lambda _: reports.pop(key, None))
        reports[key] = (side_b, report)
    print(report.to_tsv(render) if args.format == "tsv" else report.to_text(render))
    return 0 if report.total_mismatches == 0 else 1


def _cmd_enumerate(args) -> int:
    _require_words(args.max_len)
    machine = _load(args.file)
    accept, alphabet = _acceptor(machine)
    render = fileformat.word_separator(alphabet).join
    words = oracle.enumerate_words(alphabet, args.max_len)
    for run, verdicts in oracle.sweep_verdicts(accept, words):
        for word in itertools.compress(run, verdicts):
            print(render(word))
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The program parser of the process and its table of subcommand
    parsers by name, built on the first ``main`` call.

    Parsing returns a fresh namespace and leaves the parsers as they were,
    so calls that share them stay independent.
    """
    parser = argparse.ArgumentParser(
        prog="wka",
        description="Check, run, construct, translate, and compare two-strand "
        "(Watson-Crick), multi-head, and classical finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a machine file and run the reversibility checks")
    p.add_argument("file")
    p.add_argument("--require", choices=("valid", "reversible", "strong"), default=None)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("run", help="run a machine on a word")
    p.add_argument("file")
    p.add_argument("word")
    p.add_argument("--lower", default=None, help="fixed lower strand (wk only)")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("from-dfa", help="compile a dfa into a reversible wk machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=lambda args: _translate(args, ClassicalDFA, construct.dfa_to_rwka))

    p = sub.add_parser("to-mfa", help="translate a strongly reversible wk machine to a 2-head machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=lambda args: _translate(args, WKAutomaton, construct.swk_to_mfa2))

    p = sub.add_parser("from-mfa", help="translate a reversible 2-head machine to a wk machine")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=lambda args: _translate(args, MultiHeadAutomaton, construct.mfa2_to_swk))

    p = sub.add_parser("compare", help="differential sweep of two acceptors over bounded words")
    p.add_argument("file_a")
    p.add_argument("file_b", nargs="?", default=None)
    p.add_argument("--oracle", default=None, help="theorem2 | dfa:FILE")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--blocks", action="store_true", help="sweep well-formed block words instead")
    p.add_argument("--max-blocks", type=int, default=None)
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("enumerate", help="print the accepted words up to a length bound")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    return parser, sub.choices


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """The namespace of ``argv``, or the ``SystemExit`` argparse raises.

    When ``argv``'s first item names a subcommand, that subcommand's parser
    parses the rest alone, and an argument it leaves over is reported by
    the program parser, as ``parse_args`` reports it.  Every other ``argv``
    (none, ``-h``, an unknown command, an option or ``--`` first) goes to
    the program parser.  Both routes give the same namespace and print the
    same bytes.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one ``wka`` command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  An ``argv`` led by a subcommand
    is parsed by that subcommand's parser alone, any other by the program
    parser (see ``_parse_argv``).

    The acceptors kept on parsed machines carry their memo from call to
    call and may be shared by threads; a command prints to ``sys.stdout``,
    so calls on several threads interleave their output.

    A reader that closes stdout early ends the command with exit code 1
    and no message.  As the Python docs advise for that case, stdout is
    then pointed at the null device, so the flush at exit cannot fail
    again.  An in-memory stdout, such as a ``StringIO``, never raises it.
    """
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(argv: list[str]) -> int:
    """The exit code of ``argv``'s command, a failed precondition reported
    on stderr."""
    try:
        args = _parse_argv(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except MachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
