"""Types, structural validation, and the C1/C2 reversibility checkers."""

import ast
import copy
import itertools
import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkautomata import (
    ComplementarityRelation,
    MultiHeadAutomaton,
    WKAutomaton,
    check_reversibility_mfa,
    check_reversibility_wk,
    check_strong_reversibility,
    dfa_to_rwka,
    mfa2_to_swk,
    swk_to_mfa2,
    theorem2_machine,
    validate,
)
from wkautomata import cli, construct, engine, fileformat, machines, oracle
from wkautomata.engine import Configuration, RunOutcome, SearchResult, Verdict, _CompiledWK
from wkautomata.fileformat import parse_machine, serialize_machine
from wkautomata.machines import (
    CheckReport,
    ClassicalDFA,
    InvalidMachineError,
    MachineError,
    Violation,
    is_valid_token,
)
from wkautomata.oracle import DiffReport, LengthStats
from wkautomata.samples import example1_dfa, identity_rho_wk, random_dfa, twohead_anbn1_mfa
from conftest import CORPUS_DIR, CORPUS_FILES, VALIDATION_RULES, kept_builds


def wk(delta, states, finals, alphabet=("a", "b"), rho=None, start=None):
    rho = rho or ComplementarityRelation.identity(alphabet)
    return WKAutomaton(
        states=states,
        upper_alphabet=alphabet,
        start=start or states[0],
        finals=finals,
        rho=rho,
        delta=delta,
    )


def _assert_read_only(table):
    key, value = next(iter(table.items()))
    before = dict(table)
    with pytest.raises(TypeError):
        table[key] = value
    with pytest.raises(TypeError):
        del table[key]
    with pytest.raises(TypeError):
        table.clear()
    with pytest.raises(TypeError):
        table.pop(key)
    with pytest.raises(TypeError):
        table.popitem()
    with pytest.raises(TypeError):
        table.setdefault(key, value)
    with pytest.raises(TypeError):
        table.update({key: value})
    with pytest.raises(TypeError):
        table |= {key: value}
    assert table == before


def _records():
    """One value of every record class, its field names in order, and the
    repr it had as a dataclass."""
    rho = ComplementarityRelation({"a": ("x", "x")})
    compiled = _CompiledWK(
        start=0,
        finals=frozenset({1}),
        left=2,
        right=1,
        images={0: (3,), 1: (1,)},
        delta={(0, 0, 3): (1, 1, 1)},
        token_of=("a", "$", "#", "x"),
        column={"a": 0},
        live={0: [[(3,), (), ()], [(3,)] * 3], 1: [[()] * 3, [(1,)] * 3]},
    )
    cases = [
        (
            rho,
            ("images",),
            "ComplementarityRelation(images={'a': ('x',)})",
        ),
        (
            WKAutomaton(("q",), ("a",), "q", {"q"}, rho, {("q", "a", "x"): ("q", 1, 1)}),
            ("states", "upper_alphabet", "start", "finals", "rho", "delta"),
            "WKAutomaton(states=('q',), upper_alphabet=('a',), start='q',"
            " finals=frozenset({'q'}), rho=ComplementarityRelation(images={'a': ('x',)}),"
            " delta={('q', 'a', 'x'): ('q', 1, 1)})",
        ),
        (
            MultiHeadAutomaton(("q",), ("a",), 2, "q", (), {("q", ("a", "a")): ("q", (1, 1))}),
            ("states", "alphabet", "head_count", "start", "finals", "delta"),
            "MultiHeadAutomaton(states=('q',), alphabet=('a',), head_count=2, start='q',"
            " finals=frozenset(), delta={('q', ('a', 'a')): ('q', (1, 1))})",
        ),
        (
            ClassicalDFA(("q",), ("a",), "q", {"q"}, {("q", "a"): "q"}),
            ("states", "alphabet", "start", "finals", "delta"),
            "ClassicalDFA(states=('q',), alphabet=('a',), start='q',"
            " finals=frozenset({'q'}), delta={('q', 'a'): 'q'})",
        ),
        (
            Violation("C1", (("q", ("a",), "q", (1,)),), "note"),
            ("rule", "entries", "note"),
            "Violation(rule='C1', entries=(('q', ('a',), 'q', (1,)),), note='note')",
        ),
        (
            CheckReport([Violation("C2", (), "x")], ["n"]),
            ("violations", "notes"),
            "CheckReport(violations=(Violation(rule='C2', entries=(), note='x'),),"
            " notes=('n',))",
        ),
        (
            Configuration("q", (0, 1)),
            ("state", "positions"),
            "Configuration(state='q', positions=(0, 1))",
        ),
        (
            RunOutcome(Verdict.ACCEPT_HALT, Configuration("q", (1,))),
            ("verdict", "final", "trace"),
            "RunOutcome(verdict=<Verdict.ACCEPT_HALT: 'accept'>,"
            " final=Configuration(state='q', positions=(1,)), trace=())",
        ),
        (
            SearchResult(True, ("x",), 3),
            ("accepted", "witness_lower", "explored"),
            "SearchResult(accepted=True, witness_lower=('x',), explored=3)",
        ),
        (
            compiled,
            ("start", "finals", "left", "right", "images", "delta", "token_of", "column", "live"),
            "_CompiledWK(start=0, finals=frozenset({1}), left=2, right=1,"
            " images={0: (3,), 1: (1,)}, delta={(0, 0, 3): (1, 1, 1)},"
            " token_of=('a', '$', '#', 'x'), column={'a': 0},"
            " live={0: [[(3,), (), ()], [(3,), (3,), (3,)]], 1: [[(), (), ()], [(1,), (1,), (1,)]]})",
        ),
        (
            LengthStats(1, 1, 0, 0),
            ("words", "agreements", "a_only", "b_only"),
            "LengthStats(words=1, agreements=1, a_only=0, b_only=0)",
        ),
        (
            DiffReport(1, {1: LengthStats(2, 1, 1, 0)}, ((("a",), "a"),), False, 100),
            ("max_len", "per_length", "mismatches", "truncated", "cap"),
            "DiffReport(max_len=1, per_length={1: LengthStats(words=2, agreements=1,"
            " a_only=1, b_only=0)}, mismatches=((('a',), 'a'),), truncated=False, cap=100)",
        ),
    ]
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


class TestFrozenValues:
    @pytest.mark.parametrize("record, fields, text", _records())
    def test_records_are_frozen_values(self, record, fields, text):
        cls = type(record)
        values = tuple(getattr(record, name) for name in fields)
        assert repr(record) == text
        # The hash is the field tuple's, so set and dict orders stay put; a
        # record with a dict field is unhashable, like its field tuple.
        assert _hash_or_error(record) == _hash_or_error(values)

        assert cls(*values) == record
        assert cls(**dict(zip(fields, values))) == record
        assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
        assert record != values
        twin_class = type("Twin", (cls,), {})
        assert twin_class(*values) != record
        assert record != twin_class(*values)

        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
        assert tuple(getattr(record, name) for name in fields) == values

        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(twin) is cls
            assert twin is not record
            assert twin == record
            assert _hash_or_error(twin) == _hash_or_error(record)

        with pytest.raises(TypeError):
            cls(*values, bogus=1)
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})
        if cls is not CheckReport:
            with pytest.raises(TypeError):
                cls()

    def test_defaults(self):
        final = Configuration("q", (1,))
        assert RunOutcome(Verdict.REJECT_HALT, final).trace == ()
        assert RunOutcome(verdict=Verdict.REJECT_HALT, final=final) == RunOutcome(
            Verdict.REJECT_HALT, final, ()
        )
        assert CheckReport() == CheckReport((), ()) == CheckReport(notes=())
        assert CheckReport().passed
        assert CheckReport(notes=["n"]).notes == ("n",)
        with pytest.raises(TypeError):
            RunOutcome(Verdict.REJECT_HALT)

    def test_importing_the_package_loads_no_dataclasses(self):
        # -S keeps site hooks out, so only the package's own imports count.
        probe = (
            "import sys, wkautomata, wkautomata.cli;"
            " print('wkautomata.sweeps' in sys.modules);"
            " import wkautomata.sweeps;"
            " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        src = str(CORPUS_DIR.parent / "src")
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "False\n[]\n")

    def test_tables_are_read_only(self, theorem2, twohead, example1):
        for table in (theorem2.delta, theorem2.rho.images, twohead.delta, example1.delta):
            _assert_read_only(table)

    def test_pickle_and_deepcopy_give_equal_values(self, theorem2, twohead, example1):
        for machine in (theorem2, twohead, example1):
            for twin in (pickle.loads(pickle.dumps(machine)), copy.deepcopy(machine)):
                assert twin is not machine
                assert twin == machine
                assert hash(twin) == hash(machine)
                _assert_read_only(twin.delta)

    def test_corpus_machines_hash_equal_to_their_round_trip(self):
        for name in CORPUS_FILES:
            machine = parse_machine((CORPUS_DIR / name).read_text(encoding="utf-8"))
            twin = parse_machine(serialize_machine(machine))
            assert twin == machine, name
            assert hash(twin) == hash(machine), name
            assert {machine: name}[twin] == name


def _record_class(annotations, **defaults):
    """A ``Record`` subclass with ``annotations`` as its fields, made the way
    a class statement makes it."""
    return type("Probe", (machines.Record,), {"__annotations__": annotations, **defaults})


class TestGeneratedInit:
    def test_a_field_without_a_default_may_not_follow_one_with_a_default(self):
        with pytest.raises(TypeError, match="Probe field 'late' without a default follows 'early'"):
            _record_class({"first": int, "early": int, "late": int}, early=0)
        base = _record_class({"early": int}, early=0)
        with pytest.raises(TypeError, match="Sub field 'late' without a default follows 'early'"):
            type("Sub", (base,), {"__annotations__": {"late": int}})
        assert _record_class({"first": int, "early": int}, early=0)(1).early == 0

    @pytest.mark.parametrize("name", ["not a name", "x=0): pass\n#", "1x", "", "class", "None"])
    def test_a_field_name_that_no_parameter_may_have_is_refused_before_exec(
        self, monkeypatch, name
    ):
        def no_exec(*args):
            raise AssertionError("exec reached")

        monkeypatch.setattr(machines, "exec", no_exec, raising=False)
        with pytest.raises(TypeError, match=re.escape(f"Probe field {name!r} is not an identifier")):
            _record_class({"ok": int, name: int})

    def test_the_init_is_named_after_its_record(self):
        for cls in (Configuration, RunOutcome, CheckReport, LengthStats, _record_class({"x": int})):
            assert cls.__init__.__module__ == cls.__module__
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        with pytest.raises(TypeError, match=r"^RunOutcome\.__init__\(\) missing 1 required"):
            RunOutcome(Verdict.REJECT_HALT)


def _ghost_start(machine):
    """A copy of ``machine`` whose start state is undeclared."""
    fields = {name: getattr(machine, name) for name in type(machine)._fields}
    return type(machine)(**{**fields, "start": "ghost"})


# Every ``machines.kept`` build of the package, with a function that makes a
# fresh sample argument, and one that makes an argument the build refuses,
# or None where it refuses none.
KEPT_BUILDS = {
    "validate": (machines.validate, theorem2_machine, None),
    "_reversibility_report": (machines._reversibility_report, theorem2_machine, None),
    "_run_loop": (engine._run_loop, theorem2_machine, lambda: _ghost_start(theorem2_machine())),
    "_compile_wk": (engine._compile_wk, theorem2_machine, lambda: _ghost_start(theorem2_machine())),
    "existential_acceptor": (
        engine.existential_acceptor, theorem2_machine, lambda: _ghost_start(theorem2_machine())
    ),
    "_dfa_rows": (oracle._dfa_rows, example1_dfa, theorem2_machine),
    "dfa_to_rwka": (construct.dfa_to_rwka, example1_dfa, lambda: _ghost_start(example1_dfa())),
    "identity_twin": (construct.identity_twin, twohead_anbn1_mfa, None),
    "swk_to_mfa2": (construct.swk_to_mfa2, identity_rho_wk, theorem2_machine),
    "serialize_machine": (
        fileformat.serialize_machine, theorem2_machine, lambda: _ghost_start(theorem2_machine())
    ),
    "_compare_reports": (cli._compare_reports, theorem2_machine, None),
}


class TestKept:
    @pytest.mark.parametrize("name", KEPT_BUILDS)
    def test_each_object_builds_once(self, name):
        build, sample, _ = KEPT_BUILDS[name]
        first, other = sample(), sample()
        assert first == other and first is not other
        with kept_builds(build) as (runs,):
            value = build(first)
            assert build(first) is value
            assert build(other) is not value
            assert build(other) is build(other)
        assert [id(arg) for arg in runs] == [id(first), id(other)]
        assert vars(first)[name] is value

    @pytest.mark.parametrize("name", [n for n, row in KEPT_BUILDS.items() if row[2]])
    def test_a_refusal_is_never_kept(self, name):
        build, _, refused = KEPT_BUILDS[name]
        arg = refused()
        errors = []
        for _ in range(2):
            with pytest.raises(MachineError) as info:
                build(arg)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert name not in vars(arg)

    def test_every_kept_build_has_a_row(self):
        # A build's value is kept under its name, so two builds of one name
        # would share a slot: the names are listed, not collected in a set.
        names = []
        for path in (CORPUS_DIR.parent / "src" / "wkautomata").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "kept" for d in node.decorator_list
                ):
                    names.append(node.name)
        assert sorted(names) == sorted(KEPT_BUILDS)


class TestTokens:
    def test_plain_names_are_valid(self):
        for token in ("a", "q0", "q0'", "v_m1", "%", "*", "state-1"):
            assert is_valid_token(token)

    def test_reserved_text_is_rejected(self):
        for token in ("", "#", "$", "a#b", "a$b", "a b", "a:b", "a,b", "x->y", "\t"):
            assert not is_valid_token(token)

    def test_agrees_with_its_definition_on_every_short_token(self):
        # Non-empty, no '->', and no reserved character, on every token of
        # up to 3 characters over a plain letter, the arrow's two halves,
        # the reserved punctuation, a space and a tab.
        chars = ("a", "-", ">", "#", "$", ":", ",", " ", "\t")
        checked = 0
        for n in range(4):
            for token in map("".join, itertools.product(chars, repeat=n)):
                expected = (
                    token != ""
                    and "->" not in token
                    and not any(ch in machines._RESERVED_CHARS for ch in token)
                )
                assert is_valid_token(token) is expected, repr(token)
                checked += 1
        assert checked == 1 + 9 + 9**2 + 9**3


class TestComplementarityRelation:
    def test_image_order_and_dedup(self):
        rho = ComplementarityRelation.from_pairs(
            [("a", "y"), ("a", "x"), ("a", "y"), ("b", "x")]
        )
        assert rho.image("a") == ("y", "x")
        assert rho.image("missing") == ()
        assert rho.lower_symbols == ("y", "x")

    def test_injectivity_needs_single_valued_and_distinct(self):
        assert ComplementarityRelation({"a": ("x",), "b": ("y",)}).is_injective
        assert not ComplementarityRelation({"a": ("x", "y")}).is_injective
        assert not ComplementarityRelation({"a": ("x",), "b": ("x",)}).is_injective

    def test_inverse(self):
        rho = ComplementarityRelation({"a": ("c",), "b": ("d",)})
        assert rho.inverse() == {"c": "a", "d": "b"}


class TestValidate:
    def test_constructed_machine_passes(self, example1_rwka):
        assert validate(example1_rwka).passed

    def test_move_on_right_endmarker_is_flagged(self):
        machine = wk(
            {("q0", "$", "$"): ("q1", 1, 0)},
            states=("q0", "q1"),
            finals={"q1"},
        )
        report = validate(machine)
        assert not report.passed
        assert [v.rule for v in report.violations] == ["move-on-endmarker"]

    def test_missing_rho_image_is_flagged(self):
        machine = wk(
            {},
            states=("q0",),
            finals=set(),
            rho=ComplementarityRelation({"a": ("a",)}),
            alphabet=("a", "b"),
        )
        report = validate(machine)
        assert [v.rule for v in report.violations] == ["rho-not-total"]

    def test_unknown_references_are_flagged(self):
        machine = wk(
            {("q0", "a", "a"): ("ghost", 1, 1)},
            states=("q0",),
            finals={"nowhere"},
        )
        rules = {v.rule for v in validate(machine).violations}
        assert rules == {"unknown-state"}

    def test_left_marker_movement_is_an_informational_note(self, example1_rwka):
        report = validate(example1_rwka)
        assert report.passed
        assert any("left end marker" in note for note in report.notes)

    def test_mfa_head_count_mismatch(self):
        machine = MultiHeadAutomaton(
            states=("q0",),
            alphabet=("a",),
            head_count=2,
            start="q0",
            finals=set(),
            delta={("q0", ("a",)): ("q0", (1,))},
        )
        assert "head-count-mismatch" in {v.rule for v in validate(machine).violations}

    def test_every_consumer_validates_a_machine_object_once(self, example1, twohead, validations):
        swk = mfa2_to_swk(twohead)
        rwka = dfa_to_rwka(example1)
        for _ in range(3):
            assert dfa_to_rwka(example1) == rwka
            assert mfa2_to_swk(twohead) == swk
            assert swk_to_mfa2(swk) == twohead
            for machine in (example1, twohead, swk, rwka):
                assert parse_machine(serialize_machine(machine)) == machine
                assert validate(machine).passed
        assert [id(m) for m in validations] == [id(twohead), id(example1), id(swk), id(rwka)]

    @pytest.mark.parametrize("thing", [None, "q0", object()], ids=["none", "str", "object"])
    def test_a_non_machine_is_refused_by_name(self, thing):
        with pytest.raises(TypeError, match="^not a machine: "):
            validate(thing)

    def test_an_invalid_machine_is_refused_on_every_call(self, example1, validations):
        dfa = ClassicalDFA(example1.states, example1.alphabet, "ghost", example1.finals, example1.delta)
        for _ in range(3):
            with pytest.raises(InvalidMachineError, match="^dfa fails validation: unknown-state$"):
                dfa_to_rwka(dfa)
            with pytest.raises(
                InvalidMachineError, match="^machine to serialize fails validation: unknown-state$"
            ):
                serialize_machine(dfa)
        assert validations == [dfa] and validations[0] is dfa
        copied = copy.deepcopy(dfa)
        with pytest.raises(InvalidMachineError):
            dfa_to_rwka(copied)
        assert validations == [dfa, copied] and validations[1] is copied


def _rule_machine(kind: str, extra=(), **fields):
    """A small valid machine of ``kind`` over {a}, with ``fields`` replaced
    and the transitions ``extra`` added."""
    delta = {
        "wk": {("q0", "#", "#"): ("q0", 1, 1), ("q0", "a", "a_1"): ("q1", 1, 1)},
        "mfa": {("q0", ("#", "#")): ("q0", (1, 1)), ("q0", ("a", "a")): ("q1", (1, 1))},
        "dfa": {("q0", "a"): "q1"},
    }[kind]
    fields = {"states": ("q0", "q1"), "start": "q0", "finals": {"q1"}, **fields}
    fields["delta"] = {**delta, **dict(extra)}
    if kind == "wk":
        rho = ComplementarityRelation(fields.pop("rho", {"a": ("a_1",)}))
        return WKAutomaton(upper_alphabet=fields.pop("alphabet", ("a",)), rho=rho, **fields)
    fields.setdefault("alphabet", ("a",))
    if kind == "mfa":
        return MultiHeadAutomaton(head_count=fields.pop("head_count", 2), **fields)
    return ClassicalDFA(**fields)


_LEFT_NOTE = (
    "1 transition(s) move a head that is reading the left end marker '#';"
    " movement is pinned only on the right end marker '$'"
)
_UNKNOWN_STATES = dict(start="ghost", finals={"q1", "nowhere", "elsewhere"})
_UNKNOWN_STATE_LINES = [
    "unknown-state: start state 'ghost' is not declared",
    "unknown-state: final state 'elsewhere' is not declared",
    "unknown-state: final state 'nowhere' is not declared",
]
_ON_END = "move-on-endmarker: {} may not move while reading '$' :: "

# (kind, rule): a machine and its validate report's violations, in order.
# Each WK and MFA machine moves off the left end marker once, which notes say.
_RULE_CASES = {
    ("wk", "bad-token"): (
        _rule_machine("wk", states=("q0", "q1", "q 2"), rho={"a": ("a_1", "b#")}),
        [
            "bad-token: state name 'q 2' uses reserved text",
            "bad-token: symbol name 'b#' uses reserved text",
        ],
    ),
    ("wk", "duplicate-state"): (
        _rule_machine("wk", states=("q0", "q1", "q0")),
        ["duplicate-state: state 'q0' declared twice"],
    ),
    ("wk", "duplicate-symbol"): (
        _rule_machine("wk", alphabet=("a", "a")),
        ["duplicate-symbol: symbol 'a' declared twice"],
    ),
    ("wk", "unknown-state"): (
        _rule_machine("wk", {("q1", "a", "a_1"): ("q9", 1, 1)}, **_UNKNOWN_STATES),
        _UNKNOWN_STATE_LINES
        + ["unknown-state: state 'q9' is not declared :: q1 (a a_1) -> q9 (1 1)"],
    ),
    ("wk", "unknown-symbol"): (
        _rule_machine("wk", {("q1", "c", "a"): ("q1", 1, 1), ("q1", "a_1", "$"): ("q1", 1, 0)}),
        [
            "unknown-symbol: read symbol 'c' is not available :: q1 (c a) -> q1 (1 1)",
            "unknown-symbol: read symbol 'a' is not available :: q1 (c a) -> q1 (1 1)",
            "unknown-symbol: read symbol 'a_1' is not available :: q1 (a_1 $) -> q1 (1 0)",
        ],
    ),
    ("wk", "bad-displacement"): (
        _rule_machine("wk", {("q1", "a", "a_1"): ("q1", 2, -1)}),
        [
            "bad-displacement: displacement 2 is not 0 or 1 :: q1 (a a_1) -> q1 (2 -1)",
            "bad-displacement: displacement -1 is not 0 or 1 :: q1 (a a_1) -> q1 (2 -1)",
        ],
    ),
    ("wk", "move-on-endmarker"): (
        _rule_machine("wk", {("q1", "$", "$"): ("q1", 1, 1), ("q1", "a", "$"): ("q1", 0, 1)}),
        [
            _ON_END.format("upper head") + "q1 ($ $) -> q1 (1 1)",
            _ON_END.format("lower head") + "q1 ($ $) -> q1 (1 1)",
            _ON_END.format("lower head") + "q1 (a $) -> q1 (0 1)",
        ],
    ),
    ("wk", "rho-unknown-symbol"): (
        _rule_machine("wk", rho={"a": ("a_1",), "c": ("c_1",)}),
        ["rho-unknown-symbol: rho maps 'c', which is not in the upper alphabet"],
    ),
    ("wk", "rho-not-total"): (
        _rule_machine("wk", alphabet=("a", "b"), rho={"a": ("a_1",), "b": ()}),
        ["rho-not-total: upper symbol 'b' has no complementarity image"],
    ),
    ("mfa", "bad-token"): (
        _rule_machine("mfa", states=("q0", "q1", "q 2"), alphabet=("a", "b:")),
        [
            "bad-token: state name 'q 2' uses reserved text",
            "bad-token: symbol name 'b:' uses reserved text",
        ],
    ),
    ("mfa", "duplicate-state"): (
        _rule_machine("mfa", states=("q0", "q1", "q0")),
        ["duplicate-state: state 'q0' declared twice"],
    ),
    ("mfa", "duplicate-symbol"): (
        _rule_machine("mfa", alphabet=("a", "a")),
        ["duplicate-symbol: symbol 'a' declared twice"],
    ),
    ("mfa", "unknown-state"): (
        _rule_machine("mfa", {("q9", ("a", "a")): ("q1", (1, 1))}, **_UNKNOWN_STATES),
        _UNKNOWN_STATE_LINES
        + ["unknown-state: state 'q9' is not declared :: q9 (a a) -> q1 (1 1)"],
    ),
    ("mfa", "unknown-symbol"): (
        _rule_machine("mfa", {("q1", ("c", "a")): ("q1", (1, 1)), ("q1", ("$", "d")): ("q1", (0, 1))}),
        [
            "unknown-symbol: read symbol 'c' is not available :: q1 (c a) -> q1 (1 1)",
            "unknown-symbol: read symbol 'd' is not available :: q1 ($ d) -> q1 (0 1)",
        ],
    ),
    ("mfa", "bad-displacement"): (
        _rule_machine("mfa", {("q1", ("a", "a")): ("q1", (2, -1))}),
        [
            "bad-displacement: displacement 2 is not 0 or 1 :: q1 (a a) -> q1 (2 -1)",
            "bad-displacement: displacement -1 is not 0 or 1 :: q1 (a a) -> q1 (2 -1)",
        ],
    ),
    ("mfa", "move-on-endmarker"): (
        _rule_machine("mfa", {("q1", ("$", "$")): ("q1", (1, 1)), ("q1", ("a", "$")): ("q1", (0, 1))}),
        [
            _ON_END.format("head 1") + "q1 ($ $) -> q1 (1 1)",
            _ON_END.format("head 2") + "q1 ($ $) -> q1 (1 1)",
            _ON_END.format("head 2") + "q1 (a $) -> q1 (0 1)",
        ],
    ),
    ("mfa", "bad-head-count"): (
        _rule_machine("mfa", head_count=0),
        [
            "bad-head-count: head count 0 must be at least 1",
            "head-count-mismatch: transition does not carry exactly 0 reads and moves"
            " :: q0 (# #) -> q0 (1 1)",
            "head-count-mismatch: transition does not carry exactly 0 reads and moves"
            " :: q0 (a a) -> q1 (1 1)",
        ],
    ),
    ("mfa", "head-count-mismatch"): (
        _rule_machine(
            "mfa",
            {
                ("q1", ("a",)): ("q1", (1,)),
                ("q1", ("a", "a", "a")): ("q1", (1, 1)),
                ("q1", ("$", "a")): ("q1", (0, 1, 1)),
            },
        ),
        [
            "head-count-mismatch: transition does not carry exactly 2 reads and moves"
            f" :: {entry}"
            for entry in ("q1 (a) -> q1 (1)", "q1 (a a a) -> q1 (1 1)", "q1 ($ a) -> q1 (0 1 1)")
        ],
    ),
    ("dfa", "bad-token"): (
        _rule_machine("dfa", states=("q0", "q1", "q 2"), alphabet=("a", "->")),
        [
            "bad-token: state name 'q 2' uses reserved text",
            "bad-token: symbol name '->' uses reserved text",
        ],
    ),
    ("dfa", "duplicate-state"): (
        _rule_machine("dfa", states=("q0", "q1", "q0")),
        ["duplicate-state: state 'q0' declared twice"],
    ),
    ("dfa", "duplicate-symbol"): (
        _rule_machine("dfa", alphabet=("a", "a")),
        ["duplicate-symbol: symbol 'a' declared twice"],
    ),
    ("dfa", "unknown-state"): (
        _rule_machine("dfa", {("q1", "a"): "q9"}, **_UNKNOWN_STATES),
        _UNKNOWN_STATE_LINES + ["unknown-state: state 'q9' is not declared :: q1 (a) -> q9 ()"],
    ),
    ("dfa", "unknown-symbol"): (
        _rule_machine("dfa", {("q1", "c"): "q1", ("q1", "$"): "q0"}),
        [
            "unknown-symbol: read symbol 'c' is not available :: q1 (c) -> q1 ()",
            "unknown-symbol: read symbol '$' is not available :: q1 ($) -> q0 ()",
        ],
    ),
}


class TestValidationRules:
    """One machine per (kind, rule): the whole report, in order, is pinned."""

    def test_every_rule_of_every_kind_has_a_case(self):
        cases = {(type(machine), rule) for (_, rule), (machine, _) in _RULE_CASES.items()}
        assert cases == {(cls, rule) for cls, rules in VALIDATION_RULES.items() for rule in rules}

    @pytest.mark.parametrize("kind,rule", list(_RULE_CASES), ids="-".join)
    def test_report(self, kind, rule):
        machine, lines = _RULE_CASES[kind, rule]
        report = validate(machine)
        assert not report.passed
        assert report.violations[0].rule == rule
        assert [str(v) for v in report.violations] == lines
        assert report.notes == (() if kind == "dfa" else (_LEFT_NOTE,))

    @pytest.mark.parametrize(
        "kind, entry, head",
        [
            ("wk", (("p", "$", "z"), ("r", 1, 2)), "upper head"),
            ("mfa", (("p", ("$", "z")), ("r", (1, 2))), "head 1"),
        ],
        ids=["wk", "mfa"],
    )
    def test_one_transition_that_breaks_every_entry_rule(self, kind, entry, head):
        # Its violations come in the order of the rules, one rule at a time.
        report = validate(_rule_machine(kind, [entry]))
        at = " :: p ($ z) -> r (1 2)"
        assert [str(v) for v in report.violations] == [
            "unknown-state: state 'p' is not declared" + at,
            "unknown-state: state 'r' is not declared" + at,
            "unknown-symbol: read symbol 'z' is not available" + at,
            "bad-displacement: displacement 2 is not 0 or 1" + at,
            _ON_END.format(head) + at[4:],
        ]


class TestReversibilityWK:
    def test_constructed_machine_passes(self, example1_rwka):
        assert check_reversibility_wk(example1_rwka).passed

    def test_c1_same_target_different_moves(self):
        machine = wk(
            {("p", "a", "a"): ("q", 1, 1), ("r", "b", "b"): ("q", 0, 1)},
            states=("p", "r", "q"),
            finals={"q"},
        )
        report = check_reversibility_wk(machine)
        assert [v.rule for v in report.violations] == ["C1"]

    def test_c2_same_target_same_reads(self):
        machine = wk(
            {("p", "$", "$"): ("qf", 0, 0), ("r", "$", "$"): ("qf", 0, 0)},
            states=("p", "r", "qf"),
            finals={"qf"},
        )
        report = check_reversibility_wk(machine)
        assert [v.rule for v in report.violations] == ["C2"]

    def test_passed_is_stable_under_reordering(self, example1_rwka):
        rng = random.Random(11)
        for machine in (example1_rwka, _c2_violating()):
            expected = check_reversibility_wk(machine).passed
            entries = list(machine.delta.items())
            states = list(machine.states)
            for _ in range(5):
                rng.shuffle(entries)
                rng.shuffle(states)
                shuffled = WKAutomaton(
                    states=tuple(states),
                    upper_alphabet=machine.upper_alphabet,
                    start=machine.start,
                    finals=machine.finals,
                    rho=machine.rho,
                    delta=dict(entries),
                )
                assert check_reversibility_wk(shuffled).passed == expected
                assert validate(shuffled).passed == validate(machine).passed
                # Only the state order tells the two apart, not the entry order.
                reordered = WKAutomaton(
                    states=machine.states,
                    upper_alphabet=shuffled.upper_alphabet,
                    start=shuffled.start,
                    finals=shuffled.finals,
                    rho=shuffled.rho,
                    delta=shuffled.delta,
                )
                assert reordered == machine
                assert hash(reordered) == hash(machine)


def _c2_violating():
    return wk(
        {("p", "$", "$"): ("qf", 0, 0), ("r", "$", "$"): ("qf", 0, 0)},
        states=("p", "r", "qf"),
        finals={"qf"},
    )


class TestStrongReversibility:
    def test_identity_rho_machine_passes(self, identity_rho):
        assert check_strong_reversibility(identity_rho).passed

    def test_example1_machine_fails_on_multivalued_rho(self, example1_rwka):
        report = check_strong_reversibility(example1_rwka)
        assert not report.passed
        assert "rho-not-injective" in {v.rule for v in report.violations}

    def test_theorem2_machine_fails(self, theorem2):
        report = check_strong_reversibility(theorem2)
        assert not report.passed
        assert any("3 images" in v.note for v in report.violations)

    def test_strong_implies_reversible(self, identity_rho, example1_rwka, theorem2):
        for machine in (identity_rho, example1_rwka, theorem2, _c2_violating()):
            if check_strong_reversibility(machine).passed:
                assert check_reversibility_wk(machine).passed


class TestReversibilityMFA:
    def test_translation_of_strongly_reversible_machine_passes(self, identity_rho):
        assert check_reversibility_mfa(swk_to_mfa2(identity_rho)).passed

    def test_c2_violation(self):
        machine = MultiHeadAutomaton(
            states=("p", "r", "q"),
            alphabet=("a", "b"),
            head_count=2,
            start="p",
            finals=set(),
            delta={
                ("p", ("a", "b")): ("q", (1, 0)),
                ("r", ("a", "b")): ("q", (1, 0)),
            },
        )
        assert [v.rule for v in check_reversibility_mfa(machine).violations] == ["C2"]

    def test_single_transition_machine_passes(self):
        machine = MultiHeadAutomaton(
            states=("p", "q"),
            alphabet=("a",),
            head_count=2,
            start="p",
            finals={"q"},
            delta={("p", ("#", "#")): ("q", (1, 1))},
        )
        assert check_reversibility_mfa(machine).passed


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_compiled_machines_are_always_reversible(seed):
    dfa = random_dfa(random.Random(seed))
    machine = dfa_to_rwka(dfa)
    assert validate(machine).passed
    assert check_reversibility_wk(machine).passed


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_translation_of_reversible_mfa_is_strongly_reversible(seed):
    # The sample machine plus single-entry machines drawn at random; anything
    # that passes the two-head check must translate to a strongly reversible
    # two-strand machine.
    from wkautomata.samples import twohead_anbn1_mfa

    twohead = twohead_anbn1_mfa()
    rng = random.Random(seed)
    reads = (rng.choice(("#", "a", "b")), rng.choice(("#", "a", "b")))
    single = MultiHeadAutomaton(
        states=("p", "q"),
        alphabet=("a", "b"),
        head_count=2,
        start="p",
        finals={"q"},
        delta={("p", reads): ("q", (1, 1))},
    )
    for machine in (twohead, single):
        assert check_reversibility_mfa(machine).passed
        assert check_strong_reversibility(mfa2_to_swk(machine)).passed
