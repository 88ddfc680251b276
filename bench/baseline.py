#!/usr/bin/env python3
"""One-off baseline that links the benchmark to the roadmap's figure.

    python3 bench/baseline.py        # about five minutes on two cores

1. Times the full default catalog (``RunConfig()``: seed 0xC0FFEE, 20
   samples per cell) untraced, one ``harness.run_identity`` call per
   identity, and keeps each identity's seconds.
2. Runs the same catalog once more under the tracer, and the catalog
   workload's pass (one sample per cell) under a second tracer, and
   reports each layer's share of the traced wall time in both.

Writes ``bench/out/baseline.json`` and prints the tables kept in
``bench/NOTES.md``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import tracer as tr
import workloads as wl
from run import OUT, import_program


def traced_shares(run) -> tuple:
    t = tr.Tracer()
    t.install()
    try:
        t0 = time.perf_counter()
        run()
        wall = time.perf_counter() - t0
    finally:
        problems = t.uninstall()
    if t.installed_problems or problems:
        raise SystemExit(f"error: tracer problems {t.installed_problems + problems}")
    return wall, t.layer_shares(wall)


def main() -> int:
    harness, sampling = import_program()
    from quasidet import catalog

    config = harness.RunConfig()
    per_identity = {}
    for desc in catalog.CATALOG:
        t0 = time.perf_counter()
        verdict = harness.run_identity(desc, config)
        per_identity[desc.ident] = (time.perf_counter() - t0, verdict.status)
    total = sum(s for s, _ in per_identity.values())

    full_wall, full_shares = traced_shares(lambda: harness.run_suite(config))
    reduced = harness.RunConfig(seed=wl.DEFAULT_SEED, samples=wl.CATALOG_SAMPLES)
    red_wall, red_shares = traced_shares(lambda: harness.run_suite(reduced))

    result = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "full_catalog_untraced_s": total,
        "per_identity_s": {k: s for k, (s, _) in per_identity.items()},
        "full_catalog_traced_s": full_wall,
        "full_catalog_layer_shares": full_shares,
        "catalog_workload_traced_s": red_wall,
        "catalog_workload_layer_shares": red_shares,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "baseline.json", "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")

    print(f"Python {result['python']}, os.cpu_count() = {result['cpu_count']}")
    print(f"full default catalog, untraced: {total:.1f} s\n")
    print("| identity | seconds | verdict |\n|---|---:|---|")
    for ident, (s, status) in sorted(per_identity.items(), key=lambda kv: -kv[1][0]):
        print(f"| {ident} | {s:.2f} | {status} |")
    print(f"\n| layer | full catalog ({full_wall:.1f} s traced) | catalog workload ({red_wall:.1f} s traced) |")
    print("|---|---:|---:|")
    for layer in sorted(set(full_shares) | set(red_shares), key=lambda k: -full_shares.get(k, 0.0)):
        print(f"| {layer} | {100 * full_shares.get(layer, 0.0):.1f}% | {100 * red_shares.get(layer, 0.0):.1f}% |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
