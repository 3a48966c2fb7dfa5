"""Core machine types and their static checks.

Three machine kinds share one vocabulary: a classical deterministic finite
automaton, a one-way multi-head automaton over an end-marked tape, and a
Watson-Crick automaton whose two one-way heads read the upper and lower
strand of a double-stranded word.  The lower strand is never part of the
input: it is any per-position choice from the complementarity relation
applied to the upper strand.

Each kind's transition grammar is written once, here: ``read_columns``
says which symbols each head may read, and ``grammar`` gives a machine's
kind name, alphabet, transitions as uniform ``Entry`` rows and read
columns.  ``validate``, the C1/C2 check below, the engines' run loop, and
the parser and serializer in ``fileformat`` read it instead of spelling
out each kind, so a two-strand table and a 2-head table are the same rows.

Reversibility is a property of the transition table.  Two conditions are
checked, named C1 and C2 throughout, once per machine object:

* C1: all transitions into the same state move the heads identically.
* C2: among transitions into the same state with the same head moves, the
  read symbol tuples are pairwise distinct (the table is backward
  deterministic).

Machines are values.  Each is a ``Record``: a frozen, hashable record with
named fields, built without ``dataclasses`` so that importing the package
stays cheap.  A record binds its arguments exactly as a function whose
parameters are its fields does, so a field without a default may not
follow one with a default; a changed copy is built with the constructor.
Every table (a ``delta`` and the relation's ``images``) is a read-only
``FrozenDict``, so a machine cannot change after construction, equal
machines hash equal, and a machine can key a cache.  Every function here
is pure, so machines can be shared freely across threads.  That includes
what other modules keep on a machine, where the engine's existential
acceptor fills a memo as it runs: its sharing is safe only as far as
``tests/test_engine.py``'s ``test_four_threads_share_one_predicate``, four
threads sweeping one machine's acceptor, shows it.
"""

from __future__ import annotations

import functools
import itertools
import keyword
from collections.abc import Callable, Container, Iterable
from operator import attrgetter

LEFT_END = "#"
RIGHT_END = "$"
END_MARKERS = (LEFT_END, RIGHT_END)

# Characters that the textual format claims for itself; symbol and state
# tokens may not contain them (nor whitespace, nor the '->' arrow).
_RESERVED_CHARS = frozenset("#$:,") | frozenset(" \t\r\n\x0b\x0c")


class MachineError(Exception):
    """Base class for machine construction and simulation errors."""


class UnknownSymbolError(MachineError):
    """A word contains a symbol outside the relevant alphabet."""


class NonInjectiveRhoError(MachineError):
    """The complementarity relation has no functional inverse."""


class WrongKindError(MachineError):
    """An operation was given a machine of another kind than it takes."""


class InvalidMachineError(MachineError):
    """An operation's precondition (a passing validate report) was violated."""

    def __init__(self, report: CheckReport, context: str = "machine"):
        self.report = report
        rules = ", ".join(sorted({v.rule for v in report.violations}))
        super().__init__(f"{context} fails validation: {rules}")


class FrozenDict(dict):
    """A read-only dict that hashes by its items.

    Every mutator raises ``TypeError``; reads cost what they cost on a
    plain dict.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


def _init_function(cls, fields: tuple[str, ...], defaults: dict):
    """``cls.__init__``: on its first call, it compiles a function whose
    parameters are ``fields``, with ``defaults``, puts that in its place
    and calls it.  So Python binds each call's arguments and raises its own
    ``TypeError`` for a bad one, and a class that is never built compiles
    nothing.  The field names are checked here, when the class is made."""
    follows = None
    for name in fields:
        if not name.isidentifier() or keyword.iskeyword(name):
            raise TypeError(f"{cls.__name__} field {name!r} is not an identifier")
        if name in defaults:
            follows = follows or name
        elif follows:
            raise TypeError(f"{cls.__name__} field {name!r} without a default follows {follows!r}")

    def __init__(self, *args, **kwargs):
        params = "".join(f", {f}=__defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"\n    __set(__self, {f!r}, {f})" for f in fields)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is not None:
            body += "\n    __post_init(__self)"
        namespace = {"__set": object.__setattr__, "__post_init": post_init, "__defaults": defaults}
        exec(f"def __init__(__self{params}):{body}", namespace)
        init = namespace["__init__"]
        init.__module__, init.__qualname__ = __init__.__module__, __init__.__qualname__
        cls.__init__ = init
        init(self, *args, **kwargs)

    __init__.__module__, __init__.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    return __init__


class Record:
    """A frozen record whose fields are its class's annotated names.

    A subclass declares its fields as annotations, in order, each with an
    optional default as the class attribute; an inherited record's fields
    come first, and a field without a default may not follow one with a
    default.  A record binds its arguments exactly as a function whose
    parameters are its fields does, then calls ``__post_init__`` if the
    class has one, which may normalise a field with ``object.__setattr__``.
    A record equals only a record of the same class with equal fields,
    hashes as the tuple of its fields, reprs as ``Name(field=value, ...)``,
    refuses assignment and deletion, and pickles and copies through its
    constructor.

    Each subclass gets its own ``__init__`` (``_init_function``), compiled
    when the first record of the class is built, and its own ``__eq__``
    and ``__hash__``, closed over its attribute getter: a generic method
    would look the fields up on the class at every call.  Anything else in
    an instance's ``__dict__``, such as the tables the engines keep on a
    machine, takes no part in equality, hashing, repr or copies.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        fields = getattr(cls, "_fields", ()) + own
        defaults = dict(getattr(cls, "_defaults", {}))
        defaults.update((name, cls.__dict__[name]) for name in own if name in cls.__dict__)
        get = attrgetter(*fields)
        values = get if len(fields) > 1 else lambda record: (get(record),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(values(self))

        def __reduce__(self):
            return cls, values(self)

        cls._fields, cls._defaults = fields, defaults
        cls.__init__ = _init_function(cls, fields, defaults)
        cls.__eq__, cls.__hash__, cls.__reduce__ = __eq__, __hash__, __reduce__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def kept(build: Callable) -> Callable:
    """``build(record)``, run once per record object.

    The result is kept in the record's ``__dict__`` under the build's name,
    so a later call on the same object returns it without hashing or
    comparing records, and it lives and dies with the object.  A build that
    raises keeps nothing, and an argument without a ``__dict__`` goes
    straight to the build, which refuses it in its own words.  The returned
    function carries the build's name and docstring, and the build itself
    as ``__wrapped__``.
    """
    name = build.__name__

    @functools.wraps(build)
    def get(record):
        try:
            return record.__dict__[name]
        except (KeyError, AttributeError):
            pass
        value = build(record)
        object.__setattr__(record, name, value)
        return value

    return get


def require_kind(machine: object, kind: type) -> None:
    """Raise ``WrongKindError`` unless ``machine`` is a ``kind``."""
    if not isinstance(machine, kind):
        raise WrongKindError(f"expected a {kind.__name__}, got a {type(machine).__name__}")


def require_symbols(word: Iterable[str], allowed: Container[str], what: str) -> None:
    """Raise ``UnknownSymbolError`` naming the first symbol of ``word`` not
    in ``allowed``, if there is one; the message calls ``allowed`` the
    ``what``."""
    for sym in word:
        if sym not in allowed:
            raise UnknownSymbolError(f"symbol {sym!r} is not in the {what}") from None


def is_valid_token(token: str) -> bool:
    """True if ``token`` may name a state or an alphabet symbol."""
    return bool(token) and "->" not in token and _RESERVED_CHARS.isdisjoint(token)


class ComplementarityRelation(Record):
    """Multi-valued map from upper-strand symbols to lower-strand symbols.

    ``images`` preserves declaration order of the domain and of each image
    list; image lists never contain duplicates.
    """

    images: FrozenDict[str, tuple[str, ...]]

    def __post_init__(self):
        deduped = {x: tuple(dict.fromkeys(ys)) for x, ys in self.images.items()}
        object.__setattr__(self, "images", FrozenDict(deduped))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> ComplementarityRelation:
        images: dict[str, list[str]] = {}
        for x, y in pairs:
            images.setdefault(x, []).append(y)
        return cls({x: tuple(ys) for x, ys in images.items()})

    @classmethod
    def identity(cls, symbols: Iterable[str]) -> ComplementarityRelation:
        return cls({x: (x,) for x in symbols})

    def image(self, symbol: str) -> tuple[str, ...]:
        return self.images.get(symbol, ())

    @property
    def lower_symbols(self) -> tuple[str, ...]:
        """All image symbols, in declaration order, without duplicates."""
        return tuple(dict.fromkeys(itertools.chain.from_iterable(self.images.values())))

    @property
    def is_injective(self) -> bool:
        """Single-valued with pairwise distinct images.

        Both conditions together make the inverse a function, which is what
        the translation to a two-head machine needs.
        """
        if any(len(ys) != 1 for ys in self.images.values()):
            return False
        images = [ys[0] for ys in self.images.values()]
        return len(set(images)) == len(images)

    def inverse(self) -> dict[str, str]:
        if not self.is_injective:
            raise NonInjectiveRhoError(
                "complementarity relation is not injective; inverse is not a function"
            )
        return {ys[0]: x for x, ys in self.images.items()}


class WKAutomaton(Record):
    """A one-way two-strand (Watson-Crick) automaton.

    ``delta`` maps ``(state, upper_read, lower_read)`` to
    ``(state, d1, d2)`` with reads drawn from the alphabets or the end
    markers and displacements in {0, 1}.  The map representation makes
    forward determinism structural: nondeterminism enters only through the
    multi-valued complementarity relation.
    """

    states: tuple[str, ...]
    upper_alphabet: tuple[str, ...]
    start: str
    finals: frozenset[str]
    rho: ComplementarityRelation
    delta: FrozenDict[tuple[str, str, str], tuple[str, int, int]]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "upper_alphabet", tuple(self.upper_alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if not isinstance(self.rho, ComplementarityRelation):
            object.__setattr__(self, "rho", ComplementarityRelation(self.rho))
        delta = {
            (q, u, l): (t, int(d1), int(d2))
            for (q, u, l), (t, d1, d2) in self.delta.items()
        }
        object.__setattr__(self, "delta", FrozenDict(delta))

    @property
    def lower_alphabet(self) -> tuple[str, ...]:
        """All complementarity images; may differ from the upper alphabet."""
        return self.rho.lower_symbols


class MultiHeadAutomaton(Record):
    """A one-way deterministic automaton with k heads on one end-marked tape."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    head_count: int
    start: str
    finals: frozenset[str]
    delta: FrozenDict[tuple[str, tuple[str, ...]], tuple[str, tuple[int, ...]]]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        delta = {
            (q, tuple(reads)): (t, tuple(int(d) for d in moves))
            for (q, reads), (t, moves) in self.delta.items()
        }
        object.__setattr__(self, "delta", FrozenDict(delta))


class ClassicalDFA(Record):
    """A deterministic finite automaton with a possibly partial delta.

    A missing transition rejects; there is no implicit sink state.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    start: str
    finals: frozenset[str]
    delta: FrozenDict[tuple[str, str], str]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "delta", FrozenDict(self.delta))


Machine = WKAutomaton | MultiHeadAutomaton | ClassicalDFA

# A transition rendered uniformly for reports and traces:
# (source state, read tuple, target state, move tuple).
Entry = tuple[str, tuple[str, ...], str, tuple[int, ...]]


def format_entry(entry: Entry) -> str:
    q, reads, t, moves = entry
    return f"{q} ({' '.join(reads)}) -> {t} ({' '.join(str(d) for d in moves)})"


class Violation(Record):
    rule: str
    entries: tuple[Entry, ...]
    note: str

    def __str__(self) -> str:
        text = f"{self.rule}: {self.note}"
        if self.entries:
            text += " :: " + " | ".join(format_entry(e) for e in self.entries)
        return text


class CheckReport(Record):
    """Outcome of a static check; passing means no violations.

    ``notes`` carry informational remarks that never affect the verdict.
    """

    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def passed(self) -> bool:
        return not self.violations


# The symbols one head may read, and the word that error messages name the
# head by ("upper ", "lower ", or none, when heads go by number).
Column = tuple[frozenset[str], str]


def read_columns(
    kind: str, alphabet: Iterable[str], lower: Iterable[str] = ()
) -> tuple[Column, ...]:
    """The read columns of a ``kind`` machine, one per head; the last one
    serves every later head.

    A DFA reads its alphabet.  Every head of an MFA reads the alphabet or
    an end marker.  A WK machine's upper head reads the alphabet, its lower
    head the ``lower`` symbols, and each may read an end marker.
    """
    if kind == "dfa":
        return ((frozenset(alphabet), ""),)
    if kind == "mfa":
        return ((frozenset(alphabet).union(END_MARKERS), ""),)
    return (
        (frozenset(alphabet).union(END_MARKERS), "upper "),
        (frozenset(lower).union(END_MARKERS), "lower "),
    )


def grammar(machine: Machine) -> tuple[str, tuple[str, ...], list[Entry], tuple[Column, ...]]:
    """A machine's kind name, alphabet, transitions as ``Entry`` rows, and
    read columns: all that the validator, the C1/C2 check, the run loop and
    the serializer need of its kind."""
    if isinstance(machine, WKAutomaton):
        alphabet = machine.upper_alphabet
        entries = [(q, (u, l), t, (d1, d2)) for (q, u, l), (t, d1, d2) in machine.delta.items()]
        return "wk", alphabet, entries, read_columns("wk", alphabet, machine.lower_alphabet)
    if isinstance(machine, MultiHeadAutomaton):
        entries = [(q, reads, t, moves) for (q, reads), (t, moves) in machine.delta.items()]
        return "mfa", machine.alphabet, entries, read_columns("mfa", machine.alphabet)
    if isinstance(machine, ClassicalDFA):
        entries = [(q, (x,), t, ()) for (q, x), t in machine.delta.items()]
        return "dfa", machine.alphabet, entries, read_columns("dfa", machine.alphabet)
    raise TypeError(f"not a machine: {machine!r}")


def _name_violations(kind: str, names: tuple[str, ...]) -> list[Violation]:
    out = []
    seen = set()
    for name in names:
        if not is_valid_token(name):
            out.append(Violation("bad-token", (), f"{kind} name {name!r} uses reserved text"))
        if name in seen:
            out.append(Violation(f"duplicate-{kind}", (), f"{kind} {name!r} declared twice"))
        seen.add(name)
    return out


def _declaration_violations(
    machine: Machine, alphabet: tuple[str, ...], declared: set[str]
) -> list[Violation]:
    out = _name_violations("state", machine.states) + _name_violations("symbol", alphabet)
    if machine.start not in declared:
        out.append(Violation("unknown-state", (), f"start state {machine.start!r} is not declared"))
    for q in sorted(machine.finals - declared):
        out.append(Violation("unknown-state", (), f"final state {q!r} is not declared"))
    return out


def _left_marker_note(entries: list[Entry]) -> tuple[str, ...]:
    moving = sum(
        1
        for _, reads, _, moves in entries
        if LEFT_END in reads and (LEFT_END, 1) in zip(reads, moves)
    )
    if not moving:
        return ()
    return (
        f"{moving} transition(s) move a head that is reading the left end marker"
        f" '{LEFT_END}'; movement is pinned only on the right end marker '{RIGHT_END}'",
    )


_DISPLACEMENTS = frozenset((0, 1))


def _entry_violations(
    entries: list[Entry], states: set[str], columns: tuple[Column, ...]
) -> list[Violation]:
    out = []
    first, later = columns[0][0], columns[-1][0]
    for entry in entries:
        q, reads, t, moves = entry
        if q not in states:
            out.append(Violation("unknown-state", (entry,), f"state {q!r} is not declared"))
        if t not in states:
            out.append(Violation("unknown-state", (entry,), f"state {t!r} is not declared"))
        for pos, r in enumerate(reads):
            if r not in (later if pos else first):
                out.append(Violation("unknown-symbol", (entry,), f"read symbol {r!r} is not available"))
        for d in moves:
            if d not in _DISPLACEMENTS:
                out.append(Violation("bad-displacement", (entry,), f"displacement {d!r} is not 0 or 1"))
        for pos, (r, d) in enumerate(zip(reads, moves)):
            if r == RIGHT_END and d == 1:
                word = columns[min(pos, len(columns) - 1)][1]
                head = f"{word}head" if word else f"head {pos + 1}"
                out.append(
                    Violation(
                        "move-on-endmarker", (entry,), f"{head} may not move while reading '{RIGHT_END}'"
                    )
                )
    return out


@kept
def validate(machine: Machine) -> CheckReport:
    """Report every violated structural invariant of ``machine``.

    Malformedness is the report's content, not an exception.  Machines are
    frozen, so the report is built once per machine object and kept on it,
    passing or not; an equal but distinct machine, such as a copy, builds
    its own.
    """
    kind, alphabet, entries, columns = grammar(machine)
    states = set(machine.states)
    violations = _declaration_violations(machine, alphabet, states)
    if kind == "wk":
        images = machine.rho.images
        for x, ys in images.items():
            if x not in alphabet:
                violations.append(
                    Violation("rho-unknown-symbol", (), f"rho maps {x!r}, which is not in the upper alphabet")
                )
            for y in itertools.filterfalse(is_valid_token, ys):
                violations.append(Violation("bad-token", (), f"symbol name {y!r} uses reserved text"))
        for x in itertools.filterfalse(images.get, alphabet):
            violations.append(
                Violation("rho-not-total", (), f"upper symbol {x!r} has no complementarity image")
            )
    elif kind == "mfa":
        k = machine.head_count
        if k < 1:
            violations.append(Violation("bad-head-count", (), f"head count {k} must be at least 1"))
        for entry in entries:
            if len(entry[1]) != k or len(entry[3]) != k:
                violations.append(
                    Violation(
                        "head-count-mismatch",
                        (entry,),
                        f"transition does not carry exactly {k} reads and moves",
                    )
                )
    violations += _entry_violations(entries, states, columns)
    return CheckReport(tuple(violations), _left_marker_note(entries))


def require_valid(machine: Machine, context: str = "machine") -> None:
    """Raise ``InvalidMachineError`` unless ``machine`` passes ``validate``.

    It reads the report kept on ``machine``, so an invalid machine raises
    on every call without being validated again.
    """
    report = validate(machine)
    if not report.passed:
        raise InvalidMachineError(report, context)


@kept
def _reversibility_report(machine: WKAutomaton | MultiHeadAutomaton) -> CheckReport:
    """C1 and C2 over ``machine``'s ``grammar`` rows, checked once per
    machine object."""
    by_target: dict[str, list[Entry]] = {}
    for entry in grammar(machine)[2]:
        by_target.setdefault(entry[2], []).append(entry)
    violations = []
    for target, group in by_target.items():
        for e1, e2 in itertools.combinations(group, 2):
            if e1[3] != e2[3]:
                violations.append(
                    Violation("C1", (e1, e2), f"entries into {target!r} move the heads differently")
                )
            elif e1[1] == e2[1]:
                violations.append(
                    Violation(
                        "C2",
                        (e1, e2),
                        f"entries into {target!r} with equal moves read the same symbol pair",
                    )
                )
    return CheckReport(tuple(violations))


def check_reversibility_wk(machine: WKAutomaton) -> CheckReport:
    """Check conditions C1 and C2 over the two-strand transition table."""
    require_kind(machine, WKAutomaton)
    return _reversibility_report(machine)


def check_reversibility_mfa(machine: MultiHeadAutomaton) -> CheckReport:
    """Check conditions C1 and C2 over the k-head transition table."""
    require_kind(machine, MultiHeadAutomaton)
    return _reversibility_report(machine)


def check_strong_reversibility(machine: WKAutomaton) -> CheckReport:
    """Reversible and with an injective complementarity relation."""
    report = check_reversibility_wk(machine)
    if machine.rho.is_injective:
        return report
    offenders = [
        f"{x!r} has {len(ys)} images" for x, ys in machine.rho.images.items() if len(ys) != 1
    ]
    shared = {}
    for x, ys in machine.rho.images.items():
        for y in ys:
            shared.setdefault(y, []).append(x)
    offenders += [
        f"image {y!r} is shared by {xs}" for y, xs in shared.items() if len(xs) > 1
    ]
    violation = Violation(
        "rho-not-injective", (), "; ".join(offenders) or "relation is not injective"
    )
    return CheckReport(report.violations + (violation,), report.notes)
