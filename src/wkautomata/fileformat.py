"""Textual machine files and the command-line word conventions.

The format is line oriented.  Lines whose first character is '#' are
comments; blank lines are ignored.  The first content line must be
``type: wk|mfa|dfa``; the remaining header directives (``states``,
``start``, ``final``, ``alphabet``, plus ``rho`` for wk and ``heads`` for
mfa) may come in any order, and ``trans`` lines carry the transitions:

    trans: q r1 r2 -> q' d1 d2        (wk, and mfa with k heads)
    trans: q a -> q'                  (dfa)

End markers are spelled literally ``#`` and ``$`` inside transition lines;
comment detection only looks at a line's first character, so those tokens
are unambiguous.  Duplicate (state, reads) keys are a parse error, which
makes forward determinism structural.  An mfa declares 1 to 64 heads.

Which symbols each read may be is not spelled out here: one loop parses
the transition lines of every kind against ``machines.read_columns``, and
the serializer takes a machine's kind, alphabet and rows from
``machines.grammar``.

Serialization is canonical: directives in a fixed order, transitions
sorted by source state declaration index and then by read tokens (left
marker first, alphabet symbols next, right marker last), so parsing a
serialized machine returns an equal machine and serializing is idempotent.
"""

from __future__ import annotations

from collections.abc import Sequence

from .machines import (
    LEFT_END,
    RIGHT_END,
    ClassicalDFA,
    ComplementarityRelation,
    Machine,
    MachineError,
    MultiHeadAutomaton,
    WKAutomaton,
    grammar,
    is_valid_token,
    kept,
    read_columns,
    require_symbols,
    require_valid,
)

Word = tuple[str, ...]

_HEADER_DIRECTIVES = ("states", "start", "final", "alphabet", "rho", "heads")

# The most heads an mfa file may declare; a run keeps a tape per head.
_MAX_HEADS = 64


class ParseError(MachineError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)


def _directive_lines(text: str):
    """Yield (line number, directive name, [(token, 1-based column), ...])."""
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        name, sep, rest = raw.partition(":")
        if not sep or name != name.strip() or not name:
            raise ParseError("expected 'directive: ...'", number, 1)
        # A token holds no whitespace and only whitespace precedes it, so
        # its first occurrence past the previous token is where it starts.
        offset = len(name) + 1
        tokens = []
        end = 0
        for tok in rest.split():
            start = rest.index(tok, end)
            tokens.append((tok, offset + start + 1))
            end = start + len(tok)
        yield number, name, tokens


def _single(tokens, number: int, directive: str) -> str:
    if len(tokens) != 1:
        raise ParseError(f"'{directive}:' takes exactly one token", number)
    return tokens[0][0]


def _check_tokens(tokens, number: int, kind: str) -> list[str]:
    names = []
    for tok, col in tokens:
        if not is_valid_token(tok):
            raise ParseError(f"invalid {kind} name {tok!r}", number, col)
        names.append(tok)
    return names


def parse_machine(text: str) -> Machine:
    """Parse a machine file; errors carry the offending line and column."""
    lines = list(_directive_lines(text))
    if not lines:
        raise ParseError("missing type")
    number, name, tokens = lines[0]
    if name != "type":
        raise ParseError("first directive must be 'type:'", number)
    kind = _single(tokens, number, "type")
    if kind not in ("wk", "mfa", "dfa"):
        raise ParseError(f"unknown machine type {kind!r}", number, tokens[0][1])

    headers: dict[str, tuple[int, list]] = {}
    rho_lines: list[tuple[int, list]] = []
    trans_lines: list[tuple[int, list]] = []
    for number, name, tokens in lines[1:]:
        if name == "trans":
            trans_lines.append((number, tokens))
        elif name == "rho":
            if kind != "wk":
                raise ParseError("'rho:' only applies to wk machines", number)
            rho_lines.append((number, tokens))
        elif name in _HEADER_DIRECTIVES:
            if name == "heads" and kind != "mfa":
                raise ParseError("'heads:' only applies to mfa machines", number)
            if name in headers:
                raise ParseError(f"duplicate '{name}:' directive", number)
            headers[name] = (number, tokens)
        elif name == "type":
            raise ParseError("duplicate 'type:' directive", number)
        else:
            raise ParseError(f"unknown directive {name!r}", number)

    for required in ("states", "start", "alphabet"):
        if required not in headers:
            raise ParseError(f"missing '{required}:' directive")
    number, tokens = headers["states"]
    states = tuple(_check_tokens(tokens, number, "state"))
    declared = set(states)
    if len(declared) != len(states):
        raise ParseError("duplicate state declaration", number)
    number, tokens = headers["start"]
    start = _single(tokens, number, "start")
    if start not in declared:
        raise ParseError(f"unknown start state {start!r}", number, tokens[0][1])
    finals: frozenset[str] = frozenset()
    if "final" in headers:
        number, tokens = headers["final"]
        for tok, col in tokens:
            if tok not in declared:
                raise ParseError(f"unknown final state {tok!r}", number, col)
        finals = frozenset(t for t, _ in tokens)
    number, tokens = headers["alphabet"]
    alphabet = tuple(_check_tokens(tokens, number, "symbol"))
    if len(set(alphabet)) != len(alphabet):
        raise ParseError("duplicate symbol declaration", number)

    k = {"dfa": 1, "wk": 2}.get(kind)
    if kind == "mfa":
        if "heads" not in headers:
            raise ParseError("missing 'heads:' directive")
        number, tokens = headers["heads"]
        raw = _single(tokens, number, "heads")
        digits = raw.lstrip("0")
        if not (raw.isascii() and raw.isdigit() and digits):
            raise ParseError(f"head count must be a positive integer, got {raw!r}", number)
        # Lengths first: int() refuses a string of more than 4,300 digits.
        if len(digits) > len(str(_MAX_HEADS)) or int(digits) > _MAX_HEADS:
            raise ParseError(f"head count must be at most {_MAX_HEADS}, got {raw!r}", number)
        k = int(digits)

    pairs: list[tuple[str, str]] = []
    for number, tokens in rho_lines:
        for tok, col in tokens:
            lhs, arrow, rhs = tok.partition("->")
            if not arrow or not lhs or not rhs:
                raise ParseError(f"expected 'x->y' pair, got {tok!r}", number, col)
            if lhs not in alphabet:
                raise ParseError(f"unknown symbol {lhs!r} in rho pair", number, col)
            if not is_valid_token(rhs):
                raise ParseError(f"invalid symbol name {rhs!r} in rho pair", number, col)
            pairs.append((lhs, rhs))
    rho = ComplementarityRelation.from_pairs(pairs)

    columns = read_columns(kind, alphabet, rho.lower_symbols)
    rows: dict[tuple[str, ...], tuple] = {}
    for number, tokens in trans_lines:
        source, reads, target, moves = _split_trans(
            tokens, number, declared, reads=k, moves=0 if kind == "dfa" else k
        )
        for pos, sym in enumerate(reads):
            allowed, word = columns[min(pos, len(columns) - 1)]
            if sym not in allowed:
                raise ParseError(f"unknown {word}symbol {sym!r}", number)
        key = (source, *reads)
        if key in rows:
            raise ParseError(f"duplicate transition key ({', '.join(key)})", number)
        rows[key] = (target, *moves)

    if kind == "dfa":
        return ClassicalDFA(states, alphabet, start, finals, {key: t for key, (t,) in rows.items()})
    if kind == "mfa":
        delta = {(key[0], key[1:]): (row[0], row[1:]) for key, row in rows.items()}
        return MultiHeadAutomaton(states, alphabet, k, start, finals, delta)
    return WKAutomaton(states, alphabet, start, finals, rho, rows)


def _split_trans(tokens, number: int, declared: set[str], reads: int, moves: int):
    """Split a transition line into source, reads, target and moves, and
    check that the source and target states are declared."""
    plain = [tok for tok, _ in tokens]
    if plain.count("->") != 1:
        raise ParseError("transition needs exactly one '->'", number)
    cut = plain.index("->")
    lhs, rhs = plain[:cut], plain[cut + 1 :]
    if len(lhs) != 1 + reads:
        raise ParseError(
            f"expected a source state and {reads} read symbol(s) before '->'", number
        )
    if len(rhs) != 1 + moves:
        raise ParseError(
            f"expected a target state and {moves} displacement(s) after '->'", number
        )
    for d in rhs[1:]:
        if d not in ("0", "1"):
            raise ParseError(f"displacement must be 0 or 1, got {d!r}", number)
    for name, col in (tokens[0], tokens[cut + 1]):
        if name not in declared:
            raise ParseError(f"unknown state {name!r}", number, col)
    return lhs[0], lhs[1:], rhs[0], [int(d) for d in rhs[1:]]


def _read_sort_key(reads: Sequence[str]):
    def category(sym: str) -> tuple[int, str]:
        if sym == LEFT_END:
            return (0, sym)
        if sym == RIGHT_END:
            return (2, sym)
        return (1, sym)

    return tuple(category(sym) for sym in reads)


@kept
def serialize_machine(machine: Machine) -> str:
    """Canonical text for a validated machine; round-trips exactly.

    The text is built once per machine object and kept on it; a machine
    that fails ``validate`` raises on every call and keeps nothing.
    """
    require_valid(machine, "machine to serialize")

    kind, alphabet, entries, _ = grammar(machine)
    state_index = {q: i for i, q in enumerate(machine.states)}
    finals = sorted(machine.finals, key=state_index.__getitem__)
    lines = [
        f"type: {kind}",
        "states: " + " ".join(machine.states),
        "start: " + machine.start,
        ("final: " + " ".join(finals)).rstrip(),
        "alphabet: " + " ".join(alphabet),
    ]
    if kind == "wk":
        pairs = [f"{x}->{y}" for x in alphabet for y in machine.rho.image(x)]
        lines.append(("rho: " + " ".join(pairs)).rstrip())
    elif kind == "mfa":
        lines.append(f"heads: {machine.head_count}")
    entries.sort(key=lambda e: (state_index[e[0]], _read_sort_key(e[1])))
    for q, reads, t, moves in entries:
        lines.append(" ".join(("trans:", q, *reads, "->", t, *map(str, moves))))
    return "\n".join(lines) + "\n"


def parse_word(text: str, alphabet: Sequence[str], what: str = "alphabet") -> Word:
    """Parse a command-line word.

    When every alphabet token is a single character the word is their
    plain concatenation; otherwise symbols are comma separated.  The empty
    string is the empty word.  A symbol outside ``alphabet`` raises
    ``UnknownSymbolError``, whose message calls ``alphabet`` the ``what``.
    """
    separator = word_separator(alphabet)
    word = tuple(text.split(separator)) if separator and text else tuple(text)
    require_symbols(word, alphabet, what)
    return word


def word_separator(alphabet: Sequence[str]) -> str:
    """The symbol separator of a command-line word: none when every
    alphabet token is a single character, a comma otherwise."""
    return "" if all(len(sym) == 1 for sym in alphabet) else ","


def render_word(word: Sequence[str], alphabet: Sequence[str]) -> str:
    """Inverse of ``parse_word`` under the same alphabet convention."""
    return word_separator(alphabet).join(word)
