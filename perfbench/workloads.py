"""The three workloads: inputs from a seed, timed rounds, and checks.

Each workload is driven by one single-threaded caller.  ``load`` is the
program-side set-up (parse the corpus, build the acceptors); ``round`` is
one timed unit of work and returns how many operations it decided;
``verify`` runs after the timed phase and checks the first round's outputs
against the benchmark's own oracles; ``counts`` gives exact counts that
must repeat between runs with the same seed.

The program's functions are always looked up on their modules at call
time (``p.oracle.differential_compare``), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import io
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles

LENGTHS = range(12)  # per-length word counts are reported for lengths 0..11


def _render(word) -> str:
    return "".join(word)


class Workload:
    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.failed = 0  # operations whose output differed from round 1's
        self.bad_ops = 0  # operations per round that fail ``verify``
        self.calls_ms: list[float] = []  # reference ms per timed call

    def close(self) -> None:
        pass

    def digest(self) -> str:
        """Fingerprint of the first round's outputs."""
        return hashlib.sha256(repr(self._outputs()).encode()).hexdigest()


class Blocks(Workload):
    """theorem2.wk against direct membership over every block word of
    length <= 11 with <= 6 blocks, in one differential_compare call."""

    MAX_LEN, MAX_BLOCKS, SAMPLE = 11, 6, 2000

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.path = root / "corpus" / "theorem2.wk"
        self.expected = oracles.block_word_counts(self.MAX_LEN, self.MAX_BLOCKS)
        self.words = sum(self.expected.values())
        self.reports: list[str] = []

    def load(self, p) -> None:
        self.machine = p.fileformat.parse_machine(self.path.read_text(encoding="utf-8"))
        self.accept = p.engine.existential_acceptor(self.machine)

    def round(self, p, clock) -> int:
        start = clock.now()
        report = p.oracle.differential_compare(
            self.accept,
            p.oracle.theorem2_member,
            p.oracle.enumerate_block_strings(self.MAX_LEN, self.MAX_BLOCKS),
        )
        text = report.to_tsv()
        self.calls_ms.append((clock.now() - start) / 1e6)
        if self.reports and text != self.reports[0]:
            self.failed += self.words
        self.reports.append(text)
        return self.words

    def _outputs(self):
        return self.reports[0]

    def _table(self) -> tuple[dict[int, list[int]], list[tuple[str, str]]]:
        rows, mismatches = {}, []
        for line in self.reports[0].splitlines():
            fields = line.split("\t")
            if fields[0] == "len":
                rows[int(fields[1])] = [int(f) for f in fields[2:]]
            elif fields[0] == "mismatch":
                mismatches.append((fields[1], fields[2]))
        return rows, mismatches

    def verify(self, p) -> list[str]:
        problems = []
        words = list(p.oracle.enumerate_block_strings(self.MAX_LEN, self.MAX_BLOCKS))
        per_length: dict[int, int] = {}
        for word in words:
            per_length[len(word)] = per_length.get(len(word), 0) + 1
            blocks = oracles.blocks_of(word)
            if blocks is None or len(blocks) > self.MAX_BLOCKS:
                problems.append(f"enumerated a malformed block word {_render(word)}")
                break
        if per_length != self.expected:
            problems.append("enumerator word counts per length are wrong")
        keys = [oracles.block_key(w) for w in words]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            problems.append("enumerator order is not strictly shortest-first lexicographic")

        rng = random.Random(self.seed)
        for word in rng.sample(words, self.SAMPLE):
            if self.accept(word) != oracles.wk_accepts(self.machine, word):
                problems.append(f"engine verdict differs from brute force on {_render(word)}")

        rows, mismatches = self._table()
        if {n: row[0] for n, row in rows.items()} != self.expected:
            problems.append("report word counts per length are wrong")
        if any(row[0] != sum(row[1:]) for row in rows.values()):
            problems.append("report rows do not add up")
        for side, text in mismatches:
            word = tuple(text)
            machine, member = oracles.wk_accepts(self.machine, word), oracles.block_member(word)
            if (machine, member) != ((True, False) if side == "a" else (False, True)):
                problems.append(f"listed mismatch {side} {text} is not one")
        if problems:
            self.bad_ops = self.words
        return problems

    def counts(self, p) -> dict[str, int]:
        rows, _ = self._table()
        nodes = sum(
            p.engine.accepts_existential(self.machine, w, want_witness=False).explored
            for w in p.oracle.enumerate_block_strings(self.MAX_LEN, self.MAX_BLOCKS)
        )
        out = {f"oracle.words.len{n}": rows.get(n, [0])[0] for n in LENGTHS}
        out["oracle.a_only"] = sum(row[2] for row in rows.values())
        out["oracle.b_only"] = sum(row[3] for row in rows.values())
        out["engine.nodes"] = nodes
        return out


class Regular(Workload):
    """~120 seeded random DFAs, each compiled by dfa_to_rwka and swept
    against dfa_accepts over every word up to ~1,000 words."""

    DFAS, MISSING, SAMPLE = 120, 0.1, 20

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        rng = random.Random(seed)
        self.specs = []
        for i in range(self.DFAS):
            # Sizes and alphabets cycle, so every seed sweeps the same mix
            # of machine sizes; the seed draws transitions and finals.
            size = 2 + i % 11
            alphabet = ("a", "b", "c")[: 2 + i % 2]
            states = tuple(f"s{n}" for n in range(size))
            # Each letter misses the same number of transitions in every
            # seed (about 1 in 10), so the search work per word hardly
            # depends on the seed; which states miss them is drawn.
            delta = {}
            for x in alphabet:
                for q in rng.sample(states, size - round(self.MISSING * size)):
                    delta[(q, x)] = states[rng.randrange(size)]
            finals = frozenset(q for q in states if rng.random() < 0.4)
            max_len = 9 if len(alphabet) == 2 else 6
            self.specs.append((states, alphabet, states[0], finals, delta, max_len))
        self.sizes = [sum(len(s[1]) ** n for n in range(s[5] + 1)) for s in self.specs]
        self.totals: list[list[int]] = []  # round 1: words, agree, a_only, b_only
        self.words = sum(self.sizes)

    def load(self, p) -> None:
        self.dfas = [p.machines.ClassicalDFA(*spec[:5]) for spec in self.specs]

    def round(self, p, clock) -> int:
        for dfa, spec, size in zip(self.dfas, self.specs, self.sizes):
            start = clock.now()
            compiled = p.construct.dfa_to_rwka(dfa)
            report = p.oracle.differential_compare(
                p.engine.existential_acceptor(compiled),
                lambda w, dfa=dfa: p.oracle.dfa_accepts(dfa, w),
                p.oracle.enumerate_words(dfa.alphabet, spec[5]),
            )
            text = report.to_tsv()
            self.calls_ms.append((clock.now() - start) / 1e6)
            total = next(line for line in text.splitlines() if line.startswith("total\t"))
            total = [int(f) for f in total.split("\t")[1:]]
            if total != [size, size, 0, 0]:
                self.failed += size
            if len(self.totals) < len(self.dfas):
                self.totals.append(total)
        return self.words

    def _outputs(self):
        return self.totals

    def verify(self, p) -> list[str]:
        problems = []
        rng = random.Random(self.seed)
        for i, (dfa, spec) in enumerate(zip(self.dfas, self.specs)):
            compiled = p.construct.dfa_to_rwka(dfa)
            if not (p.machines.check_reversibility_wk(compiled).passed and oracles.reversible(compiled)):
                problems.append(f"dfa {i}: compiled machine is not reversible")
            alphabet, max_len = spec[1], spec[5]
            for _ in range(self.SAMPLE):
                word = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
                if p.oracle.dfa_accepts(dfa, word) != oracles.dfa_accepts(dfa, word):
                    problems.append(f"dfa {i}: dfa_accepts is wrong on {_render(word)}")
        if problems:
            self.bad_ops = self.words
        return problems

    def counts(self, p) -> dict[str, int]:
        per_length = dict.fromkeys(LENGTHS, 0)
        nodes = 0
        for dfa, spec in zip(self.dfas, self.specs):
            compiled = p.construct.dfa_to_rwka(dfa)
            for word in oracles.words_of(spec[1], spec[5]):
                per_length[len(word)] += 1
                nodes += p.engine.accepts_existential(compiled, word, want_witness=False).explored
        out = {f"oracle.words.len{n}": per_length[n] for n in LENGTHS}
        out["oracle.a_only"] = sum(t[2] for t in self.totals)
        out["oracle.b_only"] = sum(t[3] for t in self.totals)
        out["engine.nodes"] = nodes
        out["inputs.dfa_states"] = sum(len(s[0]) for s in self.specs)
        out["inputs.dfa_transitions"] = sum(len(s[4]) for s in self.specs)
        return out


def _corpus_info(path: Path) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """Alphabet and relation images read straight from a machine file, so
    that inputs can be generated before the program is imported."""
    alphabet: tuple[str, ...] = ()
    images: dict[str, tuple[str, ...]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, _, rest = line.partition(":")
        if name == "alphabet":
            alphabet = tuple(rest.split())
        elif name == "rho":
            for pair in rest.split():
                x, _, y = pair.partition("->")
                images[x] = images.get(x, ()) + (y,)
    return alphabet, images


class Interactive(Workload):
    """A closed-loop mix of in-process ``cli.main`` calls over the corpus:
    one caller, each call waiting for the previous one."""

    CALLS = 3000
    FILES = {
        "dfa": "example1-dfa.dfa",
        "rwka": "example1-rwka.wk",
        "t2": "theorem2.wk",
        "id": "identity-rho.wk",
        "mfa": "twohead-anbn1.mfa",
        "loop": "loop.wk",
    }
    # (kind, weight) of the mix; every kind is a valid invocation.
    MIX = (
        ("check", 15),
        ("run", 22),
        ("run-lower", 15),
        ("run-mfa", 15),
        ("from-dfa", 5),
        ("to-mfa", 5),
        ("from-mfa", 5),
        ("compare", 10),
        ("enumerate", 8),
    )
    # (files, max length, max blocks) of the compare and enumerate calls
    COMPARES = (
        [(("rwka", "dfa"), n, None) for n in range(3, 7)]
        + [(("id", "mfa"), n, None) for n in range(3, 8)]
        + [(("t2", "theorem2"), n, b) for n in range(3, 7) for b in (2, 3)]
    )
    ENUMERATES = [(key, n) for key in ("rwka", "id", "mfa") for n in range(3, 7)]
    SUBCOMMANDS = ("check", "run", "from-dfa", "to-mfa", "from-mfa", "compare", "enumerate")

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.paths = {k: str(root / "corpus" / f) for k, f in self.FILES.items()}
        self.info = {k: _corpus_info(Path(path)) for k, path in self.paths.items()}
        self.tmp = root / ".perfbench" / "tmp-interactive"
        self.outputs = {
            "from-dfa": str(self.tmp / "from-dfa.wk"),
            "to-mfa": str(self.tmp / "to-mfa.mfa"),
            "from-mfa": str(self.tmp / "from-mfa.wk"),
        }
        rng = random.Random(seed)
        total = sum(weight for _, weight in self.MIX)
        self.calls = [
            self._make(rng, kind, i)
            for kind, weight in self.MIX
            for i in range(self.CALLS * weight // total)
        ]
        rng.shuffle(self.calls)
        self.first: list[tuple[object, str, str]] = []

    def _multi(self, key: str) -> bool:
        """Lower words are comma separated when some image is not one letter."""
        return any(len(y) > 1 for ys in self.info[key][1].values() for y in ys)

    def _lower_text(self, key: str, lower) -> str:
        return ",".join(lower) if self._multi(key) else "".join(lower)

    def _word(self, rng: random.Random, key: str) -> tuple[str, ...]:
        if key == "t2" and rng.random() < 0.6:  # mostly well-formed block words
            blocks = []
            for _ in range(rng.randint(1, 4)):
                w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
                x = "".join(rng.choice("ab") for _ in range(rng.randint(0, 2)))
                blocks.append(f"{w}*{x}")
            return tuple("%".join(blocks))
        if key in ("id", "mfa") and rng.random() < 0.6:  # near a^n b^(n+1)
            n = rng.randint(0, 5)
            return ("a",) * n + ("b",) * (n + rng.choice((0, 1, 1, 2)))
        alphabet = self.info[key][0]
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))

    def _make(self, rng: random.Random, kind: str, i: int) -> tuple:
        """(kind, argv, machine key, word, lower) for the i-th call of a kind.

        Files, flags and sizes cycle with ``i``, so every seed gets the same
        mix; the seed picks the words and the order of the calls.
        """
        trace = ["--trace"] if i % 2 else []
        if kind == "check":
            key = list(self.FILES)[i % len(self.FILES)]
            return kind, ["check", self.paths[key]], key, None, None
        if kind == "run":
            key = ("rwka", "t2", "id", "loop")[i // 2 % 4]
            word = self._word(rng, key)
            return kind, ["run", self.paths[key], _render(word)] + trace, key, word, None
        if kind == "run-lower":
            key = ("rwka", "t2", "id")[i // 2 % 3]
            word = self._word(rng, key)
            lower = tuple(rng.choice(self.info[key][1][x]) for x in word)
            argv = ["run", self.paths[key], _render(word), "--lower", self._lower_text(key, lower)]
            return kind, argv + trace, key, word, lower
        if kind == "run-mfa":
            word = self._word(rng, "mfa")
            return kind, ["run", self.paths["mfa"], _render(word)] + trace, "mfa", word, None
        if kind in self.outputs:
            key = {"from-dfa": "dfa", "to-mfa": "id", "from-mfa": "mfa"}[kind]
            return kind, [kind, self.paths[key], "-o", self.outputs[kind]], key, None, None
        if kind == "compare":
            config, fmt = self.COMPARES[i // 2 % len(self.COMPARES)], ("text", "tsv")[i % 2]
            (a, b), max_len, max_blocks = config
            argv = ["compare", self.paths[a]]
            if b == "theorem2":
                argv += ["--oracle", "theorem2", "--blocks", "--max-blocks", str(max_blocks)]
            elif b == "dfa":
                argv += ["--oracle", "dfa:" + self.paths["dfa"]]
            else:
                argv += [self.paths[b]]
            argv += ["--max-len", str(max_len), "--format", fmt]
            return kind, argv, (a, b), None, None
        key, max_len = self.ENUMERATES[i % len(self.ENUMERATES)]
        return kind, ["enumerate", self.paths[key], "--max-len", str(max_len)], key, None, None

    def load(self, p) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.machines = {
            k: p.fileformat.parse_machine(Path(path).read_text(encoding="utf-8"))
            for k, path in self.paths.items()
        }

    def round(self, p, clock) -> int:
        first = not self.first
        for i, (kind, argv, *_) in enumerate(self.calls):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = clock.now()
                try:
                    code = p.cli.main(argv)
                except Exception as exc:  # noqa: BLE001 - a traceback is a failed call
                    code = f"raised {exc!r}"
                self.calls_ms.append((clock.now() - start) / 1e6)
            result = (code, out.getvalue(), err.getvalue())
            if first:
                self.first.append(result)
            elif result != self.first[i]:
                self.failed += 1
        return len(self.calls)

    def _outputs(self):
        return self.first

    # -- checks against the benchmark's own oracles ---------------------------
    def _compare_words(self, argv, key: str) -> list[tuple[str, ...]]:
        max_len = int(argv[argv.index("--max-len") + 1])
        words = oracles.words_of(self.info[key][0], max_len)
        if "--blocks" not in argv:
            return list(words)
        max_blocks = int(argv[argv.index("--max-blocks") + 1])
        return [
            w
            for w in words
            if (blocks := oracles.blocks_of(w)) is not None and 0 < len(blocks) <= max_blocks
        ]

    def _expected(self, call, cache: dict) -> tuple[int, str | None, object]:
        """(exit code, expected stdout or None, extra check) for one call."""
        kind, argv, key, word, lower = call
        cache_key = tuple(argv)
        if cache_key in cache:
            return cache[cache_key]
        m = self.machines
        if kind == "check":
            ok = key == "dfa" or oracles.reversible(m[key])
            result = (0 if ok else 1, None, None)
        elif kind == "run":
            result = (0 if oracles.wk_accepts(m[key], word) else 1, None, ("witness", key, word))
        elif kind == "run-lower":
            verdict = oracles.wk_run(m[key], word, lower)
            result = (0 if verdict == "accept" else 1, None, ("first", verdict))
        elif kind == "run-mfa":
            verdict = oracles.mfa_run(m[key], word)
            result = (0 if verdict == "accept" else 1, None, ("first", verdict))
        elif kind in self.outputs:
            result = (0, f"wrote {self.outputs[kind]}\n", None)
        elif kind == "compare":
            a_key, b_key = key
            rows = [0, 0, 0, 0]
            for w in self._compare_words(argv, a_key):
                a = oracles.accepts(m[a_key], w)
                b = oracles.block_member(w) if b_key == "theorem2" else oracles.accepts(m[b_key], w)
                rows[0] += 1
                rows[1 if a == b else 2 if a else 3] += 1
            result = (0 if rows[2] + rows[3] == 0 else 1, None, ("total", rows))
        else:
            alphabet = self.info[key][0]
            max_len = int(argv[-1])
            accepted = [
                _render(w) + "\n"
                for w in oracles.words_of(alphabet, max_len)
                if oracles.accepts(m[key], w)
            ]
            result = (0, "".join(accepted), None)
        cache[cache_key] = result
        return result

    def _call_ok(self, call, result, cache: dict) -> bool:
        code, out, err = result
        expected_code, expected_out, extra = self._expected(call, cache)
        if code != expected_code or err:
            return False
        if expected_out is not None and out != expected_out:
            return False
        lines = out.splitlines()
        if extra is None:
            return True
        if extra[0] == "first":
            return bool(lines) and lines[0] == extra[1]
        if extra[0] == "total":
            total = next((line.split() for line in lines if line.split()[:1] == ["total"]), None)
            return total == ["total"] + [str(n) for n in extra[1]]
        _, key, word = extra  # an existential run: replay the witness
        if code == 1:
            return lines[:1] == ["reject"]
        if lines[:1] != ["accept"] or not lines[1].startswith("witness: "):
            return False
        witness = lines[1][len("witness: ") :]
        lower = tuple(witness.split(",") if witness else ()) if self._multi(key) else tuple(witness)
        machine = self.machines[key]
        complementary = len(lower) == len(word) and all(
            y in machine.rho.image(x) for x, y in zip(word, lower)
        )
        return complementary and oracles.wk_run(machine, word, lower) == "accept"

    def verify(self, p) -> list[str]:
        problems = []
        cache: dict = {}
        for call, result in zip(self.calls, self.first):
            if not self._call_ok(call, result, cache):
                self.bad_ops += 1
                problems.append(f"call {' '.join(call[1])} gave {result!r}")
        outputs = self._check_outputs(p)
        if outputs:
            self.bad_ops = len(self.calls)
        return problems + outputs

    def _check_outputs(self, p) -> list[str]:
        """The translated machines accept the same words as their sources."""
        problems = []
        sources = {"from-dfa": "dfa", "to-mfa": "id", "from-mfa": "mfa"}
        for kind, path in self.outputs.items():
            if not Path(path).exists():
                continue
            produced = p.fileformat.parse_machine(Path(path).read_text(encoding="utf-8"))
            source = self.machines[sources[kind]]
            if not oracles.reversible(produced):
                problems.append(f"{kind} output is not reversible")
            for w in oracles.words_of(("a", "b"), 6):
                if oracles.accepts(produced, w) != oracles.accepts(source, w):
                    problems.append(f"{kind} output differs from its source on {_render(w)}")
                    break
        return problems

    def counts(self, p) -> dict[str, int]:
        per_length = dict.fromkeys(LENGTHS, 0)
        nodes = a_only = b_only = 0
        cache: dict = {}
        for call in self.calls:
            kind, argv, key, word, _ = call
            if kind == "run":
                nodes += p.engine.accepts_existential(self.machines[key], word).explored
            elif kind in ("compare", "enumerate"):
                words = (
                    self._compare_words(argv, key[0])
                    if kind == "compare"
                    else list(oracles.words_of(self.info[key][0], int(argv[-1])))
                )
                machine = self.machines[key[0] if kind == "compare" else key]
                for w in words:
                    per_length[len(w)] += 1
                    if hasattr(machine, "rho"):
                        nodes += p.engine.accepts_existential(machine, w).explored
                if kind == "compare":
                    rows = self._expected(call, cache)[2][1]
                    a_only += rows[2]
                    b_only += rows[3]
        out = {f"oracle.words.len{n}": per_length[n] for n in LENGTHS}
        out["oracle.a_only"] = a_only
        out["oracle.b_only"] = b_only
        out["engine.nodes"] = nodes
        for sub in self.SUBCOMMANDS:
            out[f"cli.calls.{sub}"] = sum(1 for c in self.calls if c[1][0] == sub)
        return out

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"blocks": Blocks, "regular": Regular, "interactive": Interactive}
