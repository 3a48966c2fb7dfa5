#!/usr/bin/env python3
"""wkautomata benchmark: speed-normalised timings for three workloads.

    python3 perfbench/run.py --workload blocks --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, untraced and traced

Every end-to-end time is in reference seconds (see ``refclock.py``).  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced phase.  Diagnostics go to the lines before it.  See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from refclock import RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import LENGTHS, WORKLOADS, Interactive  # noqa: E402

COLD_STARTS = 10
WORKERS = 4
OUT_DIR = ROOT / ".perfbench"


def import_program() -> SimpleNamespace:
    """The cold-start import: the package and every module the CLI uses."""
    sys.path.insert(0, str(ROOT / "src"))
    import wkautomata  # noqa: F401
    from wkautomata import cli, construct, engine, fileformat, machines, oracle

    return SimpleNamespace(
        cli=cli, construct=construct, engine=engine,
        fileformat=fileformat, machines=machines, oracle=oracle,
    )


def coldstart(name: str, seed: int) -> dict[str, float]:
    """Import and load in this fresh process, timed in reference seconds."""
    workload = WORKLOADS[name](ROOT, seed)
    try:
        with RefClock() as clock:
            r0, w0 = clock.now(), clock.raw()
            program = import_program()
            r1 = clock.now()
            workload.load(program)
            r2, w2 = clock.now(), clock.raw()
    finally:
        workload.close()
    return {
        "import_s": (r1 - r0) / 1e9,
        "load_s": (r2 - r1) / 1e9,
        "setup_s": (r2 - r0) / 1e9,
        "raw_setup_s": (w2 - w0) / 1e9,
    }


def child(*args: str) -> dict:
    """Run this script in a fresh process and return its last JSON line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def coldstarts(name: str, seed: int, count: int) -> list[dict[str, float]]:
    return [child("--coldstart", name, "--seed", str(seed)) for _ in range(count)]


def timed_phase(workload, program, clock: RefClock, seconds: float) -> dict:
    """Whole rounds for about ``seconds`` of wall time: another round starts
    only if it would end nearer to that budget than stopping now."""
    slices0, slice_ns0 = len(clock.slices), clock.slice_wall_ns
    wall0 = time.perf_counter_ns()
    calls0 = len(workload.calls_ms)
    rates, raw_rates, ops = [], [], 0
    start = time.monotonic()
    while True:
        ref, raw = clock.now(), clock.raw()
        done = workload.round(program, clock)
        ref_s, raw_s = (clock.now() - ref) / 1e9, (clock.raw() - raw) / 1e9
        rates.append(done / ref_s)
        raw_rates.append(done / raw_s)
        ops += done
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(rates) / 2 >= seconds:
            break
    taken = clock.slices[slices0:]
    wall = time.perf_counter_ns() - wall0
    return {
        "rounds": len(rates),
        "ops": ops,
        "rates": rates,
        "raw_rates": raw_rates,
        "calls_ms": workload.calls_ms[calls0:],
        "slice_us": sum(taken) / len(taken) / 1e3 if taken else 0.0,
        "slice_share": (clock.slice_wall_ns - slice_ns0) / wall,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, phase: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics from the traced phase's spans."""
    self_s, calls = tracer.self_times()
    rounds = phase["rounds"]

    def total(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def mean(scale, *names):
        n = sum(calls.get(name, 0) for name in names)
        return total(*names) * scale / n if n else 0.0

    nodes = counts["engine.nodes"] * rounds
    out = {
        "engine.search_s": total("engine.search") / rounds,
        "engine.ns_per_node": total("engine.search") * 1e9 / nodes if nodes else 0.0,
        "engine.compile_ms": mean(1e3, "engine.compile"),
        "engine.run_us": mean(1e6, "engine.run"),
        "oracle.enum_s": total("oracle.enum") / rounds,
        "oracle.member_s": total("oracle.member") / rounds,
        "oracle.compare_self_s": total("oracle.compare") / rounds,
        "oracle.report_ms": mean(1e3, "oracle.report"),
        "construct.dfa_to_rwka_us": mean(1e6, "construct.dfa_to_rwka"),
        "construct.translate_us": mean(1e6, "construct.translate"),
        "fileformat.parse_us": mean(1e6, "fileformat.parse"),
        "fileformat.serialize_us": mean(1e6, "fileformat.serialize"),
        "machines.validate_us": mean(1e6, "machines.validate"),
        "machines.reversibility_us": mean(1e6, "machines.reversibility"),
    }
    for sub in Interactive.SUBCOMMANDS:
        out[f"cli.self_us.{sub}"] = mean(1e6, f"cli.{sub}")
    root = total("bench")
    traced = sum(self_s.values())
    out["trace.bench_share"] = root / traced if traced else 0.0
    return out


COUNT_NAMES = (
    [f"oracle.words.len{n}" for n in LENGTHS]
    + ["oracle.a_only", "oracle.b_only", "engine.nodes", "inputs.dfa_states", "inputs.dfa_transitions"]
    + [f"cli.calls.{sub}" for sub in Interactive.SUBCOMMANDS]
)

UNITS = {
    "ops_per_s": "1/s", "_s": "s", "_ms": "ms", "_us": "us", "ns_per_node": "ns",
    "share": "share", "overhead": "share", "mib": "MiB", "p50": "ms", "p90": "ms",
}


def unit_of(name: str) -> str:
    if name.startswith("cli.self_us."):
        return "us"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def worker(name: str, seed: int, seconds: float, trace: bool, verify: bool) -> dict:
    """One fresh process: load, run the timed phase(s), check, report raw data."""
    workload = WORKLOADS[name](ROOT, seed)
    try:
        with RefClock() as clock:
            program = import_program()
            workload.load(program)
            untraced = timed_phase(workload, program, clock, seconds / 2 if trace else seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if trace:
                tracer = Tracer(clock)
                tracer.install()
                try:
                    root = tracer.root()
                    workload.load(program)
                    traced = timed_phase(workload, program, clock, seconds / 2)
                    tracer.close(root)
                finally:
                    tracer.uninstall()
                workload.load(program)  # drop the wrapped acceptors
        problems = workload.verify(program) if verify else []
        counts = workload.counts(program) if trace else {}
    finally:
        workload.close()
    out = {
        "phases": [untraced] + ([traced] if trace else []),
        "peak_rss_mib": peak_rss_mib,
        "failed": workload.failed,
        "bad_ops": workload.bad_ops,
        "problems": problems,
        "digest": workload.digest(),
    }
    if trace:
        tracer.write(OUT_DIR, f"trace-{name}")
        counts = {**dict.fromkeys(COUNT_NAMES, 0), **counts}
        layers = layer_metrics(tracer, traced, counts)
        layers["trace.overhead"] = statistics.median(untraced["rates"]) / statistics.median(traced["rates"]) - 1
        out["layers"] = {**layers, **counts}
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the timed phase split over ``WORKERS`` fresh
    processes in turn (one when traced), with cold starts in between."""
    # Cold starts are spread over the gaps before, between and after the
    # workers, so that they sample several of the box's speed regimes.  The
    # very first one is discarded: it may have to write the byte-code cache.
    count = 1 if trace else WORKERS
    coldstarts(name, seed, 1)
    cold, parts = [], []
    for i in range(count + 1):
        cold += coldstarts(name, seed, COLD_STARTS * (i + 1) // (count + 1) - len(cold))
        if i < count:
            parts.append(child(
                "--worker", name, "--seed", str(seed), "--seconds", str(seconds / count),
                "--trace", str(int(trace)), "--verify", str(int(i == 0)),
            ))
    cold = {key: statistics.median(s[key] for s in cold) for key in cold[0]}

    # Every worker's first-round outputs must equal those of worker 0, which
    # were checked against the benchmark's own oracles.
    first = parts[0]
    attempted = failed = 0
    for part in parts:
        ops = sum(phase["ops"] for phase in part["phases"])
        rounds = sum(phase["rounds"] for phase in part["phases"])
        attempted += ops
        if part["digest"] != first["digest"]:
            failed += ops
        else:
            failed += min(ops, part["failed"] + first["bad_ops"] * rounds)
    problems = list(first["problems"])
    if any(part["digest"] != first["digest"] for part in parts):
        problems.append("worker processes produced different outputs")

    # Each figure is taken per worker and the median over workers reported,
    # so that one worker process settling at an odd speed cannot move it.
    untraced = [part["phases"][0] for part in parts]
    metrics = {
        "ops_per_s": statistics.median(statistics.median(p["rates"]) for p in untraced),
        "setup_s": cold["setup_s"],
        "call_ms.p50": statistics.median(statistics.median(p["calls_ms"]) for p in untraced),
        "call_ms.p90": statistics.median(percentile(p["calls_ms"], 0.90) for p in untraced),
        "peak_rss_mib": statistics.median(part["peak_rss_mib"] for part in parts),
    }
    diagnostics = {
        "raw.ops_per_s": statistics.median(statistics.median(p["raw_rates"]) for p in untraced),
        "raw.setup_s": cold["raw_setup_s"],
        "ref.slice_us": statistics.median(p["slice_us"] for p in untraced),
        "ref.share": statistics.median(p["slice_share"] for p in untraced),
        "setup.import_s": cold["import_s"],
        "setup.load_s": cold["load_s"],
        "check.fail_share": failed / attempted,
        "call.samples": sum(len(p["calls_ms"]) for p in untraced),
        "rounds": sum(p["rounds"] for p in untraced),
    }
    for line in problems[:20]:
        print(f"check failed: {line}")
    if trace:
        metrics = {**diagnostics, **first["layers"]}
    else:
        for key, value in diagnostics.items():
            print(f"{name} {key} = {value:.6g} {unit_of(key)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process, untraced then traced."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            ok &= result["correct"]
            print(f"== {name} ({'traced' if trace else 'untraced'}): correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"   {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--coldstart", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--worker", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=1, help=argparse.SUPPRESS)
    parser.add_argument("--counts", choices=sorted(WORKLOADS), help="print exact counts only")
    args = parser.parse_args()
    if not (ROOT / "src" / "wkautomata").is_dir():
        print(f"no wkautomata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.coldstart:
        print(json.dumps(coldstart(args.coldstart, args.seed)))
        return 0
    if args.worker:
        print(json.dumps(worker(args.worker, args.seed, args.seconds, bool(args.trace), bool(args.verify))))
        return 0
    if args.counts:
        workload = WORKLOADS[args.counts](ROOT, args.seed)
        try:
            program = import_program()
            workload.load(program)
            with RefClock() as clock:
                workload.round(program, clock)
            print(json.dumps(workload.counts(program), sort_keys=True))
        finally:
            workload.close()
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # String hashing is randomised per process, which changes dict and set
    # layouts and so each process's speed; pin it so runs compare.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
