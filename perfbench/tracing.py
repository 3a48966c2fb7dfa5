"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, wherever a ``wkautomata``
module namespace holds it, with a wrapper that records a span: layer name,
start, end, parent span and the id of the operation (a word verdict or a
CLI call) it belongs to.  Spans live in flat arrays in memory and are
written out once at the end.  A layer's self time is its spans' durations
minus the part covered by their child spans, so the self times of all
layers plus the benchmark's own root span add up to the traced phase.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path

from refclock import RefClock

# Layer name -> public functions it covers, as "module:attribute".  Names
# missing at some commit are skipped; the layer then reports no calls.
LAYERS = {
    "engine.compile": ["engine:existential_acceptor"],
    "engine.search": ["engine:accepts_existential"],  # and the acceptors
    "engine.run": ["engine:run_deterministic", "engine:run_mfa"],
    "oracle.member": ["oracle:theorem2_member", "oracle:dfa_accepts"],
    "oracle.compare": ["oracle:differential_compare"],
    "oracle.enum": ["oracle:enumerate_block_strings", "oracle:enumerate_words"],
    "oracle.report": ["oracle:DiffReport.to_tsv", "oracle:DiffReport.to_text"],
    "construct.dfa_to_rwka": ["construct:dfa_to_rwka"],
    "construct.translate": ["construct:mfa2_to_swk", "construct:swk_to_mfa2"],
    "fileformat.parse": ["fileformat:parse_machine"],
    "fileformat.serialize": ["fileformat:serialize_machine"],
    "machines.validate": ["machines:validate"],
    "machines.reversibility": [
        "machines:check_reversibility_wk",
        "machines:check_reversibility_mfa",
        "machines:check_strong_reversibility",
    ],
    "cli": ["cli:main"],
}
ROOT = "bench"


class Tracer:
    def __init__(self, clock: RefClock) -> None:
        self.clock = clock
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock.now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock.now()
        self._stack.pop()

    def next_op(self) -> None:
        self._op += 1

    # -- installing wrappers ----------------------------------------------
    def _span(self, fn, name_id: int):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _compile(self, fn, name_id: int, search_id: int):
        """existential_acceptor: span the compile, then every search."""
        spanned = self._span(fn, name_id)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(spanned(*args, **kwargs), search_id)

        return wrapper

    def _enum(self, fn, name_id: int):
        """Word iterators: one span and one new operation per word."""

        def timed(iterator):
            step = iterator.__next__
            while True:
                self.next_op()
                index = self.open(name_id)
                try:
                    word = step()
                except StopIteration:
                    self.close(index)
                    return
                self.close(index)
                yield word

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    def _cli(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            self.next_op()
            command = argv[0] if argv else "none"
            index = self.open(self._id(f"cli.{command}"))
            try:
                return fn(argv)
            finally:
                self.close(index)

        return wrapper

    def install(self) -> None:
        modules = {
            name.rpartition(".")[2]: module
            for name, module in sys.modules.items()
            if name.startswith("wkautomata") and module is not None
        }
        search_id = self._id("engine.search")
        for layer, targets in LAYERS.items():
            name_id = self._id(layer)
            for target in targets:
                module_name, _, path = target.partition(":")
                owner = modules.get(module_name)
                attr = path
                if owner is not None and "." in path:
                    cls_name, _, attr = path.partition(".")
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                if layer == "engine.compile":
                    wrapped = self._compile(original, name_id, search_id)
                elif layer == "oracle.enum":
                    wrapped = self._enum(original, name_id)
                elif layer == "cli":
                    wrapped = self._cli(original)
                else:
                    wrapped = self._span(original, name_id)
                if isinstance(owner, type):
                    self._replace(owner, attr, wrapped)
                    continue
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapped)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- the traced phase ----------------------------------------------------
    def root(self) -> int:
        return self.open(0)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self time (reference seconds) and span count."""
        child = [0.0] * len(self.name)
        duration = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += duration[index]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for index, name_id in enumerate(self.name):
            name = self.names[name_id]
            self_s[name] = self_s.get(name, 0.0) + (duration[index] - child[index]) / 1e9
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def write(self, directory: Path, stem: str) -> None:
        """Spans as raw native-endian arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        index = {"names": self.names, "spans": len(self.name), "columns": []}
        with open(directory / f"{stem}.spans", "wb") as out:
            for column in ("name", "parent", "op", "start", "end"):
                values = getattr(self, column)
                index["columns"].append([column, values.typecode])
                values.tofile(out)
        (directory / f"{stem}.json").write_text(json.dumps(index) + "\n")
