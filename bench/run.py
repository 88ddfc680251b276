#!/usr/bin/env python3
"""quasidet benchmark: one workload, end-to-end metrics or a traced run.

    python3 bench/run.py --workload catalog|commutative|replay
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run measures set-up time in fresh
interpreters, then runs the workload's units round-robin for about
``--seconds`` (at least one whole pass) and reports the end-to-end
metrics.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics; the spans go to ``bench/out/``.  Every
output is checked against ``bench/oracle.json``.  The last line of
standard output is one JSON object; the exit code is 0 only when every
check passed.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = wl.BENCH.parent
SRC = ROOT / "src"
OUT = wl.BENCH / "out"

SETUP_RUNS = 9
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import quasidet
from quasidet.catalog import CATALOG
print(len(CATALOG), flush=True)
"""


def parse_seed(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=parse_seed, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    if not (SRC / "quasidet" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}/quasidet")
    sys.path.insert(0, str(SRC))
    import quasidet
    from quasidet import harness, sampling

    if Path(quasidet.__file__).resolve().parent != (SRC / "quasidet").resolve():
        raise SystemExit(f"error: imported quasidet from {quasidet.__file__}, not {SRC}")
    return harness, sampling


def setup_seconds() -> list:
    """Fresh interpreter to catalog ready, ``SETUP_RUNS`` times after one
    warm-up start that leaves the bytecode cache written."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if code != 0 or line.strip() != "65":
            raise SystemExit(f"error: set-up child exited {code} after printing {line!r}")
        if i:
            times.append(elapsed)
    return times


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, harness, oracle, cfgs, report_path, tally):
    setup = setup_seconds()
    want = oracle[args.workload]
    times = [[] for _ in cfgs]
    first = []  # the first pass's canonical reports, in unit order
    replays = []
    start = time.perf_counter()

    def run(i):
        u = wl.run_unit(harness, tally, want, cfgs[i], report_path)
        times[i].append(u.seconds)
        replays.extend(u.replays)
        return u

    for i in range(len(cfgs)):
        first.append(run(i).report)
    # Later passes run the dearest units first, so the cut at --seconds
    # falls among the cheap ones.  A unit starts only if at least half of
    # it, at its first time, falls within --seconds.
    order = sorted(range(len(cfgs)), key=lambda i: -times[i][0])
    k = 0
    while time.perf_counter() - start + times[order[k % len(order)]][0] / 2 <= args.seconds:
        i = order[k % len(order)]
        tally.check(run(i).report == first[i], f"unit {i} changed its report on run {len(times[i])}")
        k += 1
    wl.check_digest(tally, want, args.seed, hashlib.sha256(b"".join(first)).hexdigest())
    runs = sorted({len(t) for t in times})
    print(f"units: {len(cfgs)}, runs per unit: {' or '.join(map(str, runs))}, timed seconds: {sum(map(sum, times)):.3f}")
    print(f"set-up samples: {len(setup)}")
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(statistics.median(t) for t in times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if args.workload == "replay":
        replay_ms = [s * 1000.0 for s, _ok in replays]
        replayed = sum(len(ok) for _s, ok in replays)
        print(f"replay samples: {len(replay_ms)} reports, {replayed} counterexamples")
        print(f"  replay_p50_ms = {statistics.median(replay_ms):.6g} ms (printed, not gated)")
        if len(replay_ms) >= 1000:
            print(f"  replay_p99_ms = {percentile(replay_ms, 99):.6g} ms (printed, not gated)")
        else:
            print("  replay_p99_ms not printed: fewer than 1,000 samples")
    return m


def traced(args, harness, oracle, cfgs, report_path, tally):
    import tracer as tr

    plain = wl.run_pass(harness, tally, oracle, args.workload, args.seed, cfgs, report_path)
    t = tr.Tracer()
    t.install()
    try:
        for problem in t.installed_problems:
            tally.check(False, f"trace install: {problem}")
        t.reset_clock()
        p = wl.run_pass(harness, tally, oracle, args.workload, args.seed, cfgs, report_path)
    finally:
        leftovers = t.uninstall()
    for problem in leftovers:
        tally.check(False, f"trace uninstall: {problem}")
    tally.check(t.binding_count > 0, "trace install rebound nothing")
    tally.check(p.digest == plain.digest, "traced report digest differs from the untraced one")
    m = {
        "harness.attempts": (p.attempts, "count"),
        "harness.successes": (p.successes, "count"),
        "harness.success_ratio": (p.successes / p.attempts, "ratio"),
    }
    m.update(t.layer_metrics())
    coverage = t.root_span_s() / p.wall_s
    m["trace.coverage"] = (coverage, "ratio")
    m["trace.overhead_s"] = (p.wall_s - plain.wall_s, "s")
    if coverage < 0.95:
        print(f"warning: trace coverage {coverage:.3f} is below 0.95", file=sys.stderr)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(trace_path, "w") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "untraced_wall_s": plain.wall_s,
                "traced_wall_s": p.wall_s,
                "check_span_share": t.top_check_span_s() / p.wall_s,
                "metrics": {k: v for k, (v, _u) in m.items()},
                "layer_shares": t.layer_shares(p.wall_s),
                "cells": t.cells(),
                "layers": t.layers(),
                "span_fields": ["id", "parent", "name", "variant", "start_s", "end_s", "outcome"],
                "spans": t.spans,
            },
            handle,
        )
        handle.write("\n")
    print(f"trace: {len(t.spans)} spans, {t.binding_count} bindings wrapped, written to {trace_path}")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    harness, sampling = import_program()
    oracle = wl.load_oracle()
    cfgs = wl.configs(harness, sampling, oracle, args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{args.workload}.json"
    tally = wl.Tally()
    run = traced if args.trace else measure
    metrics = run(args, harness, oracle, cfgs, report_path, tally)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    failed_frac = tally.failed / tally.attempted
    print(f"  failed_frac = {failed_frac:.6g} ({tally.failed} of {tally.attempted} checked outputs)")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
