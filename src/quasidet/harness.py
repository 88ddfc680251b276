"""Randomized verification driver: runs the identity catalog under a
fully seeded configuration and emits a machine-readable report.  The
same driver decides formula equivalence (``equivalent``) by running a
descriptor built from the two formulas.

Verdict semantics per identity: ``verified`` when every sampled cell
evaluated successfully with no mismatch; ``counterexample`` on the first
exact mismatch (the drawn inputs and both sides are stored and replay
bit-exactly); ``domain_exhausted`` when some sample slot ran out of
resampling attempts; ``no_cells`` when the ``dims``/``sizes`` filters leave
the identity no cell, so nothing was sampled; ``error`` when a check
raised anything else (the ``counterexample`` slot then holds the draw log
and the exception's type and text, and its replay raises it again).
Control entries expect a counterexample, so the aggregate outcome of a
run compares each verdict against its expectation; ``no_cells`` and
``error`` never meet an expectation.

Exit codes: 0 when every identity meets its expectation, 1 when any
identity yields an unexpected counterexample or an error (or a control
fails to find one), 2 when the only departures are exhausted domains, 3
for usage errors.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence

from .catalog import CATALOG, CheckContext, IdentityDescriptor, MismatchFound, get_identity
from .formula import RatFormula, evaluate, free_vars
from .rings import DomainError, Rationals, ScalarRing, SquareMatrices
from .sampling import RESAMPLE_LIMIT, Draw, ReplayDraw, substream

SCHEMA_VERSION = 1
DEFAULT_SEED = 0xC0FFEE

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
DOMAIN_EXHAUSTED = "domain_exhausted"
# the cell filters of a run left the identity nothing to sample
NO_CELLS = "no_cells"
# the check raised something other than DomainError or MismatchFound
ERROR = "error"


@cache
def ring_for_dimension(d: int) -> ScalarRing:
    """Evaluation ring for dimension d: rationals at 1, matrices above;
    one ring per d, built on first use."""
    return Rationals() if d == 1 else SquareMatrices(d)


@dataclass
class IdentityVerdict:
    status: str
    attempted: int = 0
    succeeded: int = 0
    seed: int = 0
    counterexample: Optional[dict] = None
    cells: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "seed": self.seed,
            "counterexample": self.counterexample,
            "cells": self.cells,
        }


@dataclass
class RunConfig:
    seed: int = DEFAULT_SEED
    samples: int = 20
    only: Optional[Sequence[str]] = None
    modules: Optional[Sequence[str]] = None
    dims: Optional[Sequence[int]] = None
    sizes: Optional[Sequence[int]] = None

    def __post_init__(self):
        # a run with no samples would report every identity verified
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "resample_limit": RESAMPLE_LIMIT,
            "only": list(self.only) if self.only else None,
            "modules": list(self.modules) if self.modules else None,
            "dims": list(self.dims) if self.dims else None,
            "sizes": list(self.sizes) if self.sizes else None,
        }


def _selected(config: RunConfig) -> list[IdentityDescriptor]:
    chosen = []
    for desc in CATALOG:
        if config.only and desc.ident not in config.only:
            continue
        if config.modules and desc.module not in config.modules:
            continue
        chosen.append(desc)
    if config.only:
        known = {d.ident for d in CATALOG}
        missing = [i for i in config.only if i not in known]
        if missing:
            raise KeyError(f"unknown identities: {', '.join(missing)}")
    return chosen


def run_identity(
    desc: IdentityDescriptor, config: RunConfig
) -> IdentityVerdict:
    verdict = IdentityVerdict(status=VERIFIED, seed=config.seed)
    cells = desc.cells
    if config.dims:
        cells = tuple((n, d) for (n, d) in cells if d in config.dims)
    if config.sizes:
        cells = tuple((n, d) for (n, d) in cells if n in config.sizes or n == 0)
    if not cells:
        verdict.status = NO_CELLS
        return verdict
    samples = desc.samples if desc.samples is not None else config.samples
    for (n, d) in cells:
        ring = ring_for_dimension(d)
        cell = {
            "n": n,
            "d": d,
            "attempted": 0,
            "succeeded": 0,
            "status": VERIFIED,
        }
        verdict.cells.append(cell)
        for k in range(samples):
            rng = substream(config.seed, desc.ident, n, d, k)
            slot_done = False
            for attempt in range(RESAMPLE_LIMIT):
                draw = Draw(rng, profile=desc.profile)
                ctx = CheckContext(draw=draw, ring=ring, n=n, d=d)
                verdict.attempted += 1
                cell["attempted"] += 1
                try:
                    desc.check(ctx)
                except DomainError:
                    continue
                except MismatchFound as found:
                    status, record = COUNTEREXAMPLE, found.record
                    verdict.succeeded += 1
                    cell["succeeded"] += 1
                except Exception as exc:
                    # fails this identity, not the run; replay re-raises with traceback
                    error = {"type": type(exc).__name__, "message": str(exc)}
                    status, record = ERROR, {"error": error}
                else:
                    verdict.succeeded += 1
                    cell["succeeded"] += 1
                    slot_done = True
                    break
                cell["status"] = verdict.status = status
                verdict.counterexample = {
                    "identity": desc.ident,
                    "n": n,
                    "d": d,
                    "sample": k,
                    "attempt": attempt,
                    "draws": draw.log,
                    **record,
                }
                return verdict
            if not slot_done:
                cell["status"] = DOMAIN_EXHAUSTED
                if verdict.status == VERIFIED:
                    verdict.status = DOMAIN_EXHAUSTED
                break
    return verdict


def formula_identity(f: RatFormula, g: RatFormula) -> IdentityDescriptor:
    """Descriptor for f ~ g: both formulas evaluated exactly at one shared
    random assignment per sample, over Q, M2(Q) and M3(Q)."""
    names = sorted(free_vars(f) | free_vars(g))

    def check(ctx: CheckContext):
        ring = ctx.ring
        sigma = ctx.draw.assignment(names, ring)
        ctx.compare("formulas-agree", evaluate(f, sigma, ring), evaluate(g, sigma, ring))

    return IdentityDescriptor(
        ident="FORMULA-EQUIVALENCE",
        module="formula",
        statement="two rational formulas agree at every sampled point",
        cells=((0, 1), (0, 2), (0, 3)),
        check=check,
    )


def equivalent(
    f: RatFormula, g: RatFormula, config: Optional[RunConfig] = None
) -> IdentityVerdict:
    """Decide f ~ g by sampling; exact comparison, no tolerances."""
    return run_identity(formula_identity(f, g), config or RunConfig())


def run_suite(config: Optional[RunConfig] = None) -> dict:
    """Execute the selected identities and assemble the report."""
    config = config or RunConfig()
    start = time.time()
    entries = []
    counts = dict.fromkeys(
        (VERIFIED, COUNTEREXAMPLE, DOMAIN_EXHAUSTED, NO_CELLS, ERROR), 0
    )
    unexpected = []
    for desc in _selected(config):
        verdict = run_identity(desc, config)
        counts[verdict.status] += 1
        met = verdict.status == desc.expect
        if not met:
            unexpected.append(desc.ident)
        entries.append(
            {
                "id": desc.ident,
                "module": desc.module,
                "statement": desc.statement,
                "operations": list(desc.operations),
                "expect": desc.expect,
                "status": verdict.status,
                "met_expectation": met,
                "attempted": verdict.attempted,
                "succeeded": verdict.succeeded,
                "cells": verdict.cells,
                "counterexample": verdict.counterexample,
            }
        )
    exit_code = 0
    for entry in entries:
        if entry["met_expectation"]:
            continue
        if entry["status"] == DOMAIN_EXHAUSTED:
            exit_code = max(exit_code, 2)
        else:
            # an unexpected counterexample, a control/witness entry that
            # verified instead of failing, or an identity with no cell
            exit_code = 1
            break
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json(),
        "identities": entries,
        "summary": {
            "total": len(entries),
            "verified": counts[VERIFIED],
            "counterexamples": counts[COUNTEREXAMPLE],
            "domain_exhausted": counts[DOMAIN_EXHAUSTED],
            "unexpected": unexpected,
        },
        "elapsed_s": round(time.time() - start, 3),
        "exit_code": exit_code,
    }
    return report


def write_report(report: dict, path: str) -> None:
    # one line, written once: json encodes in C only without ``indent``
    # (CPython <= 3.13); ``load_report`` reads this and the indented layout
    with open(path, "w") as handle:
        handle.write(json.dumps(report, sort_keys=True) + "\n")


def load_report(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def replay_counterexample(
    counterexample: dict, desc: Optional[IdentityDescriptor] = None
) -> dict:
    """Re-run a stored counterexample from its draw log.

    ``desc`` defaults to the catalog entry named by the counterexample;
    pass it for a descriptor outside the catalog, such as one built by
    ``formula_identity``.  Returns {"reproduced": bool, "label", "lhs",
    "rhs"}; reproduced is true when the same comparison fails with
    bit-identical sides.
    """
    if not isinstance(counterexample, dict):
        raise ValueError(f"a counterexample is a JSON object, got {counterexample!r}")
    n, d = counterexample["n"], counterexample["d"]
    # a bool is an int to isinstance, so the type is compared exactly
    if type(n) is not int or n < 0 or type(d) is not int or d < 1:
        raise ValueError(f"a counterexample needs an int n >= 0 and d >= 1, got n={n!r}, d={d!r}")
    desc = desc or get_identity(counterexample["identity"])
    draw = ReplayDraw(counterexample["draws"])
    ctx = CheckContext(draw=draw, ring=ring_for_dimension(d), n=n, d=d)
    try:
        desc.check(ctx)
    except MismatchFound as found:
        draw.check_exhausted()
        rec = found.record
        reproduced = (
            rec["label"] == counterexample["label"]
            and rec["lhs"] == counterexample["lhs"]
            and rec["rhs"] == counterexample["rhs"]
        )
        return {"reproduced": reproduced, **rec}
    except DomainError as err:
        return {
            "reproduced": False,
            "label": "domain-error-on-replay",
            "lhs": None,
            "rhs": None,
            "error": str(err),
        }
    draw.check_exhausted()
    return {"reproduced": False, "label": "no-mismatch-on-replay", "lhs": None, "rhs": None}


def replay_from_report(report: dict, ident: str) -> dict:
    if not isinstance(report, dict) or not isinstance(report.get("identities"), list):
        raise ValueError("a report is a JSON object with a list of identities")
    for entry in report["identities"]:
        if isinstance(entry, dict) and entry.get("id") == ident and entry.get("counterexample"):
            return replay_counterexample(entry["counterexample"])
    raise KeyError(f"no stored counterexample for {ident!r}")


def identity_lines() -> list[str]:
    lines = []
    for desc in CATALOG:
        expect = "" if desc.expect == "verified" else "  [expects counterexample]"
        cells = ",".join(f"({n},{d})" for n, d in desc.cells)
        lines.append(f"{desc.ident}  [{desc.module}]{expect}")
        lines.append(f"    {desc.statement}")
        lines.append(f"    cells: {cells}")
        if desc.operations:
            lines.append(f"    exercises: {', '.join(desc.operations)}")
    return lines
