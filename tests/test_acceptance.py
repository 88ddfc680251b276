"""Acceptance gate: every exit criterion at its stated scope, exact
arithmetic, fixed seed, default sampling (20 per cell, resample limit
50, dimensions up to three).

The full catalog runs once per session at the default configuration;
each criterion then interrogates the report and prints one PASS/FAIL
line (run with -s or -rP to see the lines alongside the test names).
"""

import copy
import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from quasidet.formula import formula_height, qdet_formula
from quasidet.harness import (
    RunConfig,
    replay_counterexample,
    run_suite,
)

pytestmark = pytest.mark.acceptance

DEFAULT = RunConfig()  # seed 0xC0FFEE, 20 samples per cell, resample limit 50


@pytest.fixture(scope="session")
def full_report():
    return run_suite(DEFAULT)


def _entry(report, ident):
    for e in report["identities"]:
        if e["id"] == ident:
            return e
    raise KeyError(ident)


def _announce(num, label, ok):
    print(f"ACCEPTANCE criterion-{num} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _all_verified(report, idents):
    bad = []
    for ident in idents:
        entry = _entry(report, ident)
        if entry["status"] != "verified":
            bad.append((ident, entry["status"]))
    return bad


def test_criterion_1_definition_coherence(full_report):
    bad = _all_verified(full_report, ["QDET-DEF-AGREE", "QDET-CLOSED-FORMS"])
    _announce(
        1,
        "defining recursion matches minor-inverse formula (n <= 5) and the "
        "displayed 2x2/3x3 closed forms, exact equality",
        not bad,
    )


def test_criterion_2_commutative_specialization(full_report):
    entry = _entry(full_report, "QDET-COMMUTATIVE-RATIO")
    sizes = {c["n"] for c in entry["cells"]}
    ok = entry["status"] == "verified" and sizes == {2, 3, 4, 5}
    _announce(
        2,
        "signed determinant ratio against the fraction-free oracle, n <= 5, exact",
        ok,
    )


QUASIDET_SUITE = [
    "HOMOLOGICAL-ROW",
    "HOMOLOGICAL-COL",
    "HEREDITY-BLOCK",
    "HEREDITY-GENERAL",
    "SYLVESTER",
    "SYLVESTER-COMMUTATIVE",
    "JACOBI-QUASIMINORS",
    "GENERALIZED-HOMOLOGICAL",
    "MULTIPLICATIVE-QDET",
    "PERMUTATION-INVARIANCE",
    "SCALING-LAWS",
    "ADDITION-LAWS",
    "ZERO-CRITERION",
    "RANK-QUASIMINORS",
    "QDET-EXPANSIONS",
    "INVERSE-QDET-ENTRIES",
    "HADAMARD-INVOLUTION",
    "LINEAR-SOLVE",
    "CRAMER",
    "CAYLEY-HAMILTON",
]


def test_criterion_3_quasideterminant_suite(full_report):
    bad = _all_verified(full_report, QUASIDET_SUITE)
    cells = [
        c
        for ident in QUASIDET_SUITE
        for c in _entry(full_report, ident)["cells"]
    ]
    exhausted = sum(1 for c in cells if c["status"] == "domain_exhausted")
    counterexamples = sum(1 for c in cells if c["status"] == "counterexample")
    ok = (
        not bad
        and counterexamples == 0
        and exhausted < 0.05 * len(cells)
    )
    _announce(
        3,
        f"first identity suite: {len(QUASIDET_SUITE)} identities verified, "
        f"0 counterexamples, {exhausted}/{len(cells)} exhausted cells (< 5%)",
        ok,
    )


def test_criterion_4_inversion_height(full_report):
    entry = _entry(full_report, "INVERSION-HEIGHT")
    direct = all(formula_height(qdet_formula(n)) == n - 1 for n in range(1, 7))
    ok = entry["status"] == "verified" and direct
    _announce(
        4,
        "recursively built corner formula has height exactly n-1 for n <= 6 "
        "(upper bound only; minimality deliberately not claimed)",
        ok,
    )


COORDINATE_SUITE = [
    "QPC-GENERATING",
    "QPC-ST-INDEPENDENCE",
    "QPC-GAUGE",
    "QPC-SKEW-SYMMETRY",
    "PLUECKER-RELATION",
    "QPC-EMBED",
    "QPC-NORMAL-FORM",
    "QPC-DUALITY",
    "QPC-K-STEP",
    "QDET-EXPANSION-QPC",
    "HOMOLOGICAL-QPC",
    "HOMOLOGICAL-CHAIN",
    "INVERSE-TIMES-BLOCK",
    "PROD-QPC",
    "GAUSS-DECOMP",
    "FLAG-COORDINATES",
]


def test_criterion_5_coordinate_suite(full_report):
    bad = _all_verified(full_report, COORDINATE_SUITE)
    _announce(
        5,
        f"coordinate suite: {len(COORDINATE_SUITE)} identities (generating "
        "relations, gauge/witness independence, sign and unit sums, "
        "duality over kernel annihilators, factorization, flags) verified",
        not bad,
    )


def test_criterion_6_symmetric_function_suite(full_report):
    positive = [
        "VANDERMONDE-RATIO",
        "BEZOUT-FACTOR",
        "HAT-TRANSFORM",
        "VIETA-COEFFS",
        "LAMBDA-SYMMETRY",
        "COMPLETE-SYMMETRY",
        "RIBBON-SYMMETRY",
        "S-ROUTE-AGREE",
        "RIBBON-BASIS",
        "DERIVATION",
    ]
    bad = _all_verified(full_report, positive)
    witnesses_found = all(
        _entry(full_report, ident)["status"] == "counterexample"
        for ident in ("ASYMM-Y1Y2", "ASYMM-S2-MISORDERED")
    )
    _announce(
        6,
        "coefficient-route agreement + root annihilation + permutation "
        "symmetry + degree-five route agreement + basis rank witnesses + "
        "derivation checks verified, and both mandatory asymmetry "
        "witnesses were FOUND",
        not bad and witnesses_found,
    )


def test_criterion_7_continued_fraction_suite(full_report):
    idents = [
        "CF-NESTED",
        "CONVERGENT-ROUTES",
        "JACOBI-CF",
        "BERENSTEIN",
        "SERIES-RATIO",
        "ROGERS-RAMANUJAN",
        "ALMOST-TRIANGULAR-D",
        "ALMOST-TRIANGULAR-QDET",
    ]
    bad = _all_verified(full_report, idents)
    sizes = {c["n"] for c in _entry(full_report, "CONVERGENT-ROUTES")["cells"]}
    series_cells = {(c["n"], c["d"]) for c in _entry(full_report, "SERIES-RATIO")["cells"]}
    ok = not bad and sizes == {1, 2, 3, 4, 5, 6} and (8, 2) in series_cells
    _announce(
        7,
        "convergent routes agree to n = 6, prefix dependence holds, the "
        "unipotent commutator collapse holds to n = 5, the series ratio "
        "holds to order six at size eight over 2x2 scalars, and the "
        "q-series coefficients match through z^6 (z coefficient is -q)",
        ok,
    )


def test_criterion_8_harness_integrity(full_report, tmp_path):
    # fixed-seed determinism, byte-level (timing stripped)
    cfg = RunConfig(seed=0xC0FFEE, samples=4, modules=["harness", "core"])
    a, b = run_suite(cfg), run_suite(cfg)
    a.pop("elapsed_s"), b.pop("elapsed_s")
    deterministic = a == b
    # negative controls must produce counterexamples
    controls = all(
        _entry(full_report, ident)["status"] == "counterexample"
        for ident in ("FALSE-QDET-ENTRY", "FALSE-COMMUTE")
    )
    # every stored counterexample replays bit-exactly
    replays = []
    for entry in full_report["identities"]:
        if entry["counterexample"]:
            replays.append(
                replay_counterexample(copy.deepcopy(entry["counterexample"]))[
                    "reproduced"
                ]
            )
    ok = deterministic and controls and replays and all(replays)
    _announce(
        8,
        f"byte-determinism of verdicts, {len(replays)} counterexamples "
        "replayed bit-exactly, negative controls yield counterexamples",
        ok,
    )


# sha256 of the default-seed report without its timing, as JSON with
# sorted keys; a change to any verdict, cell, draw or counterexample moves it
DEFAULT_REPORT_SHA256 = "05eb4d8172cbf61bfbfb7b8ac979dfeabc87fded23418a95ca3e668c84d44324"

# the same digest at two held-out seeds, three samples per cell: which
# tries the draw helpers reject shows in every cell's attempt count
HELD_OUT_REPORT_SHA256 = {
    0xBEEF: "c2d0872df971beac5beef344da8c49da1718a5420c8b72ff28e95a45e946d1ad",
    1: "f854a0c7af41760bcd46427474820bc34b45151dd2908261364abdbdd8499b69",
}


# per seed (in hex), the sha256 of each entry of the report, and one of
# its other fields but the timing (schema, config, summary, exit code):
# where a whole-report digest moves, these name what moved
ENTRY_SHA256 = json.loads((Path(__file__).parent / "report_entry_digests.json").read_text())


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _report_digest(report: dict) -> str:
    return _sha256({k: v for k, v in report.items() if k != "elapsed_s"})


@cache
def _held_out_report(seed: int) -> dict:
    return run_suite(RunConfig(seed=seed, samples=3))


def _moved(report: dict, seed: int) -> list:
    """The ids of the entries whose digests differ from the pinned ones,
    entries missing on either side included, then "fields" if the other
    fields' digest differs."""
    pinned = ENTRY_SHA256[hex(seed)]
    got = {entry["id"]: _sha256(entry) for entry in report["identities"]}
    want = pinned["entries"]
    moved = sorted(i for i in got.keys() | want.keys() if got.get(i) != want.get(i))
    fields = {k: v for k, v in report.items() if k not in ("identities", "elapsed_s")}
    return moved + ["fields"] * (_sha256(fields) != pinned["fields"])


def test_criterion_9_default_report_is_pinned(full_report):
    digest = _report_digest(full_report)
    _announce(
        9,
        f"default-seed report byte-identical to the pinned one (sha256 {digest[:8]})",
        digest == DEFAULT_REPORT_SHA256,
    )


@pytest.mark.parametrize("seed", sorted(HELD_OUT_REPORT_SHA256))
def test_held_out_seed_reports_are_pinned(seed):
    assert _report_digest(_held_out_report(seed)) == HELD_OUT_REPORT_SHA256[seed]


def test_default_report_entries_are_pinned(full_report):
    assert _moved(full_report, DEFAULT.seed) == []


@pytest.mark.parametrize("seed", sorted(HELD_OUT_REPORT_SHA256))
def test_held_out_report_entries_are_pinned(seed):
    assert _moved(_held_out_report(seed), seed) == []


def test_full_run_meets_expectations(full_report):
    unexpected = full_report["summary"]["unexpected"]
    print(
        f"ACCEPTANCE summary: {full_report['summary']['total']} identities, "
        f"{full_report['summary']['verified']} verified, "
        f"{full_report['summary']['counterexamples']} counterexamples "
        f"(all expected), elapsed {full_report['elapsed_s']}s"
    )
    assert not unexpected
    assert full_report["exit_code"] == 0
