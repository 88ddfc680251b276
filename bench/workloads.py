"""The benchmark's workloads, the timed pass they share, and the checks of
its outputs against the oracle pinned in ``oracle.json``.

Every call into the program goes through a module attribute
(``harness.run_suite``, ...), never through a name imported into this
file, so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ORACLE_PATH = BENCH / "oracle.json"

DEFAULT_SEED = 0xC0FFEE
NAMES = ("catalog", "commutative", "replay")

# catalog: every identity and cell at two samples per cell; the
# fixed-sample identities (SERIES-RATIO 3, RIBBON-BASIS 2, ROGERS-RAMANUJAN
# 1, INVERSION-HEIGHT 1) keep their own counts.  At one sample the
# asymmetry witnesses miss their counterexample on about 0.7% of seeds.
CATALOG_SAMPLES = 2
# replay: report seeds per pass, each running the four entries that must
# produce a counterexample, so a pass stores and replays 4 x 300 of them.
REPLAY_SEEDS = 300
REPLAY_IDS = ("ASYMM-Y1Y2", "ASYMM-S2-MISORDERED", "FALSE-QDET-ENTRY", "FALSE-COMMUTE")


def load_oracle() -> dict:
    with open(ORACLE_PATH) as handle:
        return json.load(handle)


def configs(harness, sampling, oracle: dict, name: str, seed: int) -> list:
    """The units of workload ``name`` at ``seed``, one ``RunConfig`` each.
    A pass runs every unit once.  ``catalog`` and ``commutative`` have one
    unit per identity, so a timed run can measure each unit several times
    and still end near ``--seconds``."""
    if name == "catalog":
        return [harness.RunConfig(seed=seed, samples=CATALOG_SAMPLES, only=[i]) for i in oracle["catalog"]["verdicts"]]
    if name == "commutative":
        return [harness.RunConfig(seed=seed, dims=[1], only=[i]) for i in oracle["commutative"]["verdicts"]]
    if name == "replay":
        return [
            harness.RunConfig(seed=sampling.substream(seed, "bench-replay", k).getrandbits(63), only=list(REPLAY_IDS))
            for k in range(REPLAY_SEEDS)
        ]
    raise KeyError(name)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


@dataclass
class Unit:
    seconds: float
    report: bytes  # the timing-stripped report, canonical JSON
    replays: list  # ``replay_all`` of the reloaded report
    attempts: int
    successes: int


@dataclass
class Pass:
    wall_s: float
    digest: str
    attempts: int
    successes: int


def replay_all(harness, report: dict) -> list:
    """Replay every counterexample stored in ``report``: one latency
    sample ``(seconds, [reproduced, ...])``, or none if it stores none.
    One sample per report, not per counterexample: per counterexample the
    samples would mix two cheap kinds and two dear ones in equal numbers,
    which puts the median in the gap between them."""
    idents = [e["id"] for e in report["identities"] if e["counterexample"]]
    if not idents:
        return []
    t0 = time.perf_counter()
    reproduced = [harness.replay_from_report(report, ident)["reproduced"] for ident in idents]
    return [(time.perf_counter() - t0, reproduced)]


def canonical(report: dict) -> bytes:
    """The timing-stripped report as one line of canonical JSON."""
    stripped = {k: v for k, v in report.items() if k != "elapsed_s"}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def run_unit(harness, tally: Tally, want: dict, cfg, report_path: Path) -> Unit:
    """One unit, timed: ``run_suite``, ``write_report``, ``load_report`` and
    ``replay_from_report`` for every counterexample the reloaded report
    stores.  The report is checked after its timed part and then dropped."""
    t0 = time.perf_counter()
    report = harness.run_suite(cfg)
    harness.write_report(report, str(report_path))
    back = harness.load_report(str(report_path))
    sample = replay_all(harness, back)
    seconds = time.perf_counter() - t0
    check_report(tally, want, report, back, sample)
    return Unit(
        seconds,
        canonical(report),
        sample,
        sum(e["attempted"] for e in report["identities"]),
        sum(e["succeeded"] for e in report["identities"]),
    )


def check_digest(tally: Tally, want: dict, seed: int, digest: str) -> None:
    """At the default seed a pass's digest must be the pinned one."""
    if seed == DEFAULT_SEED:
        tally.check(
            digest == want["digest_at_default_seed"],
            f"report digest {digest} differs from the pinned one",
        )


def run_pass(harness, tally: Tally, oracle: dict, name: str, seed: int, cfgs: list, report_path: Path) -> Pass:
    """Every unit once, in order.  The digest is the sha256 of the units'
    timing-stripped reports, one canonical JSON line each."""
    want = oracle[name]
    units = [run_unit(harness, tally, want, cfg, report_path) for cfg in cfgs]
    digest = hashlib.sha256(b"".join(u.report for u in units)).hexdigest()
    check_digest(tally, want, seed, digest)
    return Pass(
        sum(u.seconds for u in units),
        digest,
        sum(u.attempts for u in units),
        sum(u.successes for u in units),
    )


def check_report(tally: Tally, want: dict, report: dict, loaded, replays: list) -> None:
    """One checked item per verdict, for the exit code, for the round trip
    when ``loaded`` is given, and per replayed counterexample."""
    at = report["config"]["seed"]
    selected = report["config"]["only"] or want["verdicts"]
    got = {e["id"]: e["status"] for e in report["identities"]}
    for ident in sorted(set(got) - set(want["verdicts"])):
        tally.check(False, f"{ident}: not in the oracle")
    for ident, status in want["verdicts"].items():
        if ident in selected:
            tally.check(got.get(ident) == status, f"{ident}: verdict {got.get(ident)}, oracle {status} (seed {at})")
    tally.check(
        report["exit_code"] == want["exit_code"],
        f"exit code {report['exit_code']}, oracle {want['exit_code']} (seed {at})",
    )
    if loaded is not None:
        tally.check(loaded == report, f"report at seed {at} did not round-trip")
    for _seconds, reproduced in replays:
        for ok in reproduced:
            tally.check(ok, f"a counterexample stored at seed {at} did not reproduce")
