"""Command-line interface.

Subcommands:
  verify           run the identity suite (filters, seed, JSON report)
  list-identities  print the catalog
  replay           re-run a stored counterexample from a report file
  qdet             quasideterminant of a rational matrix file
  qpc              left/right coordinate of a rational matrix file
  gauss            triangular-diagonal-triangular factorization as JSON
  symm             one symmetric-function catalog entry at one cell
  contfrac         the CONVERGENT-ROUTES catalog entry at one cell
  rr               matched q-series coefficients of the depth-truncated tower

Exit codes: 0 all expectations met, 1 unexpected counterexample or error,
2 exhausted domains only, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import contfrac as cf
from . import pluecker as pl
from .catalog import get_identity
from .harness import (
    DEFAULT_SEED,
    DOMAIN_EXHAUSTED,
    VERIFIED,
    RunConfig,
    identity_lines,
    load_report,
    replay_from_report,
    run_identity,
    run_suite,
    write_report,
)
from .formula import matrix_from_expressions
from .qdet import qdet
from .rings import DomainError, format_fraction


def _load_matrix(path: str):
    return matrix_from_expressions(load_report(path))


def _cmd_verify(args) -> int:
    config = RunConfig(
        seed=args.seed,
        samples=args.samples,
        only=args.only.split(",") if args.only else None,
        modules=args.modules.split(",") if args.modules else None,
        dims=[int(d) for d in args.dims.split(",")] if args.dims else None,
        sizes=[int(n) for n in args.sizes.split(",")] if args.sizes else None,
    )
    report = run_suite(config)
    for entry in report["identities"]:
        mark = "ok" if entry["met_expectation"] else "FAIL"
        print(f"{mark:4} {entry['id']:28} {entry['status']}")
    summary = report["summary"]
    print(
        f"-- {summary['total']} identities: {summary['verified']} verified, "
        f"{summary['counterexamples']} counterexamples, "
        f"{summary['domain_exhausted']} domain-exhausted "
        f"({report['elapsed_s']}s)"
    )
    if summary["unexpected"]:
        print("unexpected outcomes: " + ", ".join(summary["unexpected"]))
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    return report["exit_code"]


def _cmd_list(args) -> int:
    for line in identity_lines():
        print(line)
    return 0


def _cmd_replay(args) -> int:
    report = load_report(args.report)
    result = replay_from_report(report, args.id)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0 if result["reproduced"] else 1


def _cmd_qdet(args) -> int:
    A = _load_matrix(args.matrix)
    value = qdet(A, args.p, args.q, method=args.method)
    print(format_fraction(value))
    return 0


def _cmd_qpc(args) -> int:
    A = _load_matrix(args.matrix)
    index_set = tuple(int(x) for x in args.set.split(",")) if args.set else ()
    if args.side == "left":
        value = pl.left_qpc(A, args.i, args.j, index_set)
    else:
        value = pl.right_qpc(A, args.i, args.j, index_set)
    print(format_fraction(value))
    return 0


def _cmd_gauss(args) -> int:
    A = _load_matrix(args.matrix)
    U, Y, L = pl.gauss_decompose(A)

    def dump(M):
        return [[format_fraction(x) for x in row] for row in M.entries]

    print(json.dumps({"U": dump(U), "Y": dump(Y), "L": dump(L)}, indent=1))
    return 0


# the catalog entry that each ``symm --check`` value runs
SYMM_ENTRIES = {
    "vieta": "VIETA-COEFFS",
    "bezout": "BEZOUT-FACTOR",
    "lambda": "LAMBDA-SYMMETRY",
    "complete": "S-ROUTE-AGREE",
    "ribbon": "RIBBON-SYMMETRY",
}


def _run_entry(ident: str, args) -> int:
    """Run catalog entry ``ident`` on one sample at the single cell
    (--n, --d) and print its verdict as JSON: exit 0 when verified, 2 when
    the domain was exhausted, 1 otherwise."""
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    desc = replace(get_identity(ident), cells=((args.n, args.d),))
    verdict = run_identity(desc, RunConfig(seed=args.seed, samples=1))
    print(json.dumps(verdict.to_json(), indent=1, sort_keys=True))
    return {VERIFIED: 0, DOMAIN_EXHAUSTED: 2}.get(verdict.status, 1)


def _cmd_symm(args) -> int:
    return _run_entry(SYMM_ENTRIES[args.check], args)


def _cmd_contfrac(args) -> int:
    return _run_entry("CONVERGENT-ROUTES", args)


def _cmd_rr(args) -> int:
    lhs, rhs = cf.rr_sides(args.order, args.depth)
    ok = True
    for k in range(args.order + 1):
        match = lhs.coeffs[k] == rhs.coeffs[k]
        ok = ok and match
        print(f"z^{k}: {lhs.coeffs[k]!r}  {'==' if match else '!='}  {rhs.coeffs[k]!r}")
    print(f"all coefficients match: {ok}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasidet",
        description="exact noncommutative linear algebra on "
        "quasideterminants, with a randomized identity-verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--only", help="comma-separated identity ids")
    p.add_argument("--modules", help="comma-separated module filters")
    p.add_argument("--dims", help="comma-separated dimensions to keep")
    p.add_argument("--sizes", help="comma-separated sizes to keep")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("list-identities", help="print the catalog")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("replay", help="re-run a stored counterexample")
    p.add_argument("--report", required=True)
    p.add_argument("--id", required=True)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("qdet", help="quasideterminant of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--method", default="minor_inverse", choices=["recursive", "minor_inverse"])
    p.set_defaults(func=_cmd_qdet)

    p = sub.add_parser("qpc", help="quasi-Plucker coordinate of a matrix file")
    p.add_argument("side", choices=["left", "right"])
    p.add_argument("--matrix", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--set", default="", help="comma-separated bordering labels")
    p.set_defaults(func=_cmd_qpc)

    p = sub.add_parser("gauss", help="U Y L factorization of a matrix file")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("symm", help="one symmetric-function check")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument(
        "--check",
        required=True,
        choices=list(SYMM_ENTRIES),
    )
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_symm)

    p = sub.add_parser("contfrac", help="convergent agreement check")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_contfrac)

    p = sub.add_parser("rr", help="q-series coefficient comparison")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=_cmd_rr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
