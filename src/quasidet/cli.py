"""Command-line interface.

Subcommands:
  verify           run the identity suite (filters, seed, JSON report)
  list-identities  print the catalog
  replay           re-run a stored counterexample from a report file
  qdet             quasideterminant of a rational matrix file
  qpc              left/right coordinate of a rational matrix file
  gauss            triangular-diagonal-triangular factorization as JSON
  symm             one symmetric-function check at given size/dimension
  contfrac         convergent/corner agreement at given size/dimension
  rr               matched q-series coefficients of the depth-truncated tower

Exit codes: 0 all expectations met, 1 unexpected counterexample or error,
2 exhausted domains only, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import contfrac as cf
from . import pluecker as pl
from . import symmfn as sf
from .harness import (
    DEFAULT_SEED,
    RunConfig,
    identity_lines,
    load_report,
    replay_from_report,
    ring_for_dimension,
    run_suite,
    write_report,
)
from .matrix import matrix_from_expressions
from .qdet import qdet
from .rings import DomainError, format_fraction
from .sampling import Draw, substream


def _load_matrix(path: str):
    with open(path) as handle:
        return matrix_from_expressions(json.load(handle))


def _cmd_verify(args) -> int:
    config = RunConfig(
        seed=args.seed,
        samples=args.samples,
        resample_limit=args.resample_limit,
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


def _symm_check(check: str, ring, xs: list, z, ys: list):
    """(passed, output lines) of one symm check on independent xs with
    y alphabet ys."""
    if check == "vieta":
        a = sf.vieta_via_qdet(ring, xs)
        b = sf.vieta_from_y(ring, ys)
        c = sf.coeffs_from_roots(ring, xs)
        agree = a == b == c
        return agree, [f"coefficient routes agree: {agree}"] + [
            f"  a_{k} = {ring.serialize(v)}" for k, v in enumerate(a, start=1)
        ]
    if check == "bezout":
        product = sf.bezout_product(ring, ys, sf.z_transform(ring, xs, z))
        exact = ring.equals(sf.vandermonde(ring, xs + [z]), product)
        return exact, [f"factorization exact: {exact}"]
    if check == "lambda":
        lams = sf.elementary_from_ys(ring, ys)
        return True, [f"Lambda_{k} = {ring.serialize(v)}" for k, v in enumerate(lams, start=1)]
    if check == "complete":
        s1 = sf.complete_from_ys(ring, ys, 4, route="series")
        agree = s1 == sf.complete_from_ys(ring, ys, 4, route="words")
        return agree, [f"series and word routes agree: {agree}"] + [
            f"  S_{k} = {ring.serialize(v)}" for k, v in enumerate(s1, start=1)
        ]
    return True, [
        f"R_{J} = {ring.serialize(sf.ribbon_from_ys(ring, ys, J))}" for J in sf.compositions(3)
    ]


def _resampled(draw, make, message):
    """The first ``make()`` that raises no ``DomainError``, or None after
    printing ``message`` when 50 do."""
    try:
        return draw.until(make, lambda _: True, message)
    except DomainError:
        print(message, file=sys.stderr)
        return None


def _cmd_symm(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    ring = ring_for_dimension(args.d)
    draw = Draw(substream(args.seed, "cli-symm", args.n, args.d))

    def make():
        xs = [draw.scalar(ring) for _ in range(args.n)]
        z = draw.scalar(ring)
        # raises unless xs and xs + [z] are independent; y_k reads only x_1..x_k
        ys = sf.y_transform(ring, xs + [z])[:-1]
        return _symm_check(args.check, ring, xs, z, ys)

    result = _resampled(draw, make, "could not draw an independent sequence")
    if result is None:
        return 2
    for line in result[1]:
        print(line)
    return 0 if result[0] else 1


def _cmd_contfrac(args) -> int:
    ring = ring_for_dimension(args.d)
    draw = Draw(substream(args.seed, "cli-contfrac", args.n, args.d))

    def make():
        A = cf.draw_almost_triangular(draw, ring, args.n)
        P, Q = cf.convergents_explicit(A)
        return P, Q, ring.equals(P * ring.invert(Q), qdet(A, 1, 1))

    result = _resampled(draw, make, "could not draw a nondegenerate matrix")
    if result is None:
        return 2
    P, Q, ok = result
    print(f"P_n = {ring.serialize(P)}")
    print(f"Q_n = {ring.serialize(Q)}")
    print(f"P_n Q_n^-1 equals the corner quasideterminant: {ok}")
    return 0 if ok else 1


def _cmd_rr(args) -> int:
    lhs, rhs = cf.rr_sides(args.order, args.depth)
    base = lhs.ring.base
    ok = True
    for k in range(args.order + 1):
        match = base.equals(lhs.coeffs[k], rhs.coeffs[k])
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
    p.add_argument("--resample-limit", type=int, default=50)
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
    p.add_argument("--method", default="auto", choices=["auto", "recursive", "minor_inverse"])
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
        choices=["vieta", "bezout", "lambda", "complete", "ribbon"],
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
