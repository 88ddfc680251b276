#!/usr/bin/env python3
"""Self-test of the tracer's alias-aware wrapping.

    python3 bench/selftest.py

Checks that after ``install`` no ``quasidet.*`` module, class or
module-level container still holds an unwrapped original (the names
imported with ``from .x import f`` and the checks held by ``CATALOG``
included), that calls made through such aliases are recorded, and that
``uninstall`` restores every original and leaves no wrapper behind.
Exits 0 when all hold.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import tracer as tr
from run import import_program


def main() -> int:
    harness, _sampling = import_program()
    from quasidet import catalog, pluecker

    t = tr.Tracer()
    t.install()
    try:
        problems = list(t.installed_problems)
        # a call through an imported alias must reach the tracer
        catalog.det_bareiss([[Fraction(2)]])
        pluecker.right_kernel([[Fraction(1), Fraction(1)]])
        for site in ("exactlin.det_bareiss", "exactlin.right_kernel"):
            if t.calls(lambda n, v, s=site: n == s) != 1:
                problems.append(f"call through an alias of {site} was not recorded")
        # a check reached through a CATALOG descriptor must be recorded too
        harness.run_identity(catalog.get_identity("FALSE-COMMUTE"), harness.RunConfig(samples=1))
        if t.calls(lambda n, v: n == "catalog.check") < 1:
            problems.append("a check run by the harness was not recorded")
    finally:
        problems += t.uninstall()
    if t.binding_count == 0:
        problems.append("install rebound nothing")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{t.binding_count} bindings wrapped and restored; {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
