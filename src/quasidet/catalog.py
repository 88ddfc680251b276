"""The identity catalog: every constructive statement the engine
implements, packaged as a seeded, replayable randomized check.

Each entry draws its inputs through a ``Draw`` (so a counterexample's
inputs replay bit-exactly from the report), computes both sides of one
or more exact comparisons, and either passes, raises DomainError (the
harness resamples), or records the first mismatch.  Entries marked
``expect="counterexample"`` are deliberate non-identities: asymmetry
witnesses and comparator controls that MUST produce a counterexample.
Each entry is declared by ``@identity(...)`` on its check function and
joins ``CATALOG`` in definition order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Optional

from . import contfrac as cf
from . import pluecker as pl
from . import symmfn as sf
from .exactlin import det_bareiss, rational_rank
from .formula import Add, Inv, Mul, Neg, Var, evaluate, formula_height, qdet_formula
from .matrix import MatrixRing, NcMatrix
from .qdet import (
    cayley_hamilton,
    hadamard_inverse,
    heredity_qdet,
    heredity_via_block_ring,
    homological_sum_cols,
    homological_sum_rows,
    jacobi_factors,
    matrix_inverse,
    qdet,
    qdet_expansion,
    rank_by_quasiminors,
    solve_system,
    sylvester_matrix,
    cramer_pair,
)
from .rings import (
    DomainError,
    QRationalFunctions,
    Rationals,
    SampleProfile,
    ScalarRing,
    TruncatedSeriesRing,
)
from .sampling import Draw


class MismatchFound(Exception):
    """Internal control flow: carries the first failed comparison."""

    def __init__(self, record: dict):
        super().__init__(record.get("label", "mismatch"))
        self.record = record


@dataclass
class CheckContext:
    draw: Draw
    ring: ScalarRing
    n: int
    d: int

    def compare(self, label: str, lhs, rhs, ring: Optional[ScalarRing] = None):
        ring = ring or self.ring
        if not ring.equals(lhs, rhs):
            raise MismatchFound(
                {
                    "label": label,
                    "ring": ring.spec(),
                    "lhs": ring.serialize(lhs),
                    "rhs": ring.serialize(rhs),
                }
            )


@dataclass
class IdentityDescriptor:
    ident: str
    module: str
    statement: str
    cells: tuple
    check: Callable[[CheckContext], None]
    expect: str = "verified"
    samples: Optional[int] = None
    profile: Optional[SampleProfile] = None
    operations: tuple = ()


CATALOG: list[IdentityDescriptor] = []


def identity(**fields):
    """Register the decorated check as a catalog entry; return it unchanged."""

    def register(check):
        desc = IdentityDescriptor(check=check, **fields)
        if any(d.ident == desc.ident for d in CATALOG):
            raise ValueError(f"duplicate identity id {desc.ident}")
        CATALOG.append(desc)
        return check

    return register


def catalog() -> list[IdentityDescriptor]:
    return list(CATALOG)


def get_identity(ident: str) -> IdentityDescriptor:
    for desc in CATALOG:
        if desc.ident == ident:
            return desc
    raise KeyError(f"unknown identity {ident!r}")


# ---------------------------------------------------------------------------
# shared draw helpers


def _square(ctx: CheckContext, n: Optional[int] = None) -> NcMatrix:
    n = n or ctx.n
    return ctx.draw.matrix(ctx.ring, n, n)


def _pivot(ctx: CheckContext, A: NcMatrix):
    p = ctx.draw.choice(list(A.row_labels))
    q = ctx.draw.choice(list(A.col_labels))
    return p, q


def _independent_values(ctx: CheckContext, count: int, perms=None):
    """Values whose leading power-matrix quasideterminants are all
    invertible, in every order of ``perms`` (1-based) when it is given,
    as (xs, [the y alphabet of xs in each order])."""
    ring = ctx.ring
    orders = perms or [range(1, count + 1)]

    def make():
        xs = [ctx.draw.scalar(ring) for _ in range(count)]
        return xs, [sf.y_transform(ring, [xs[p - 1] for p in order]) for order in orders]

    return ctx.draw.until(make, lambda _: True, "could not draw an independent sequence")


def _independent_with_z(ctx: CheckContext, count: int):
    """Independent values xs and a tail value z with V(x_1..x_m, z)
    invertible for every m from 1 to count, as (xs, z, ys, zs, V): the y
    and z alphabets and V = V(x_1..x_n, z)."""
    ring = ctx.ring

    def make():
        xs = [ctx.draw.scalar(ring) for _ in range(count)]
        z = ctx.draw.scalar(ring)
        ys, zs = sf.y_transform(ring, xs), sf.z_transform(ring, xs, z)
        return xs, z, ys, zs, sf.vandermonde(ring, xs + [z])

    return ctx.draw.until(
        make,
        lambda drawn: ring.try_invert(drawn[-1]) is not None,
        "could not draw an independent sequence with tail value",
    )


# ---------------------------------------------------------------------------
# core module


@identity(
    ident="RING-AXIOMS",
    module="core",
    statement="every concrete scalar ring satisfies the unital ring axioms "
    "exactly, and partial inversion returns two-sided inverses",
    cells=((0, 1), (0, 2), (0, 3)),
    operations=("rings",),
)
def check_ring_axioms(ctx: CheckContext):
    rings = [ctx.ring]
    if ctx.d <= 2:
        rings.append(TruncatedSeriesRing(ctx.ring, 2))
    if ctx.d == 1:
        rings.append(QRationalFunctions())
    for ring in rings:
        a = ctx.draw.scalar(ring)
        b = ctx.draw.scalar(ring)
        c = ctx.draw.scalar(ring)
        ctx.compare("add-assoc", (a + b) + c, a + (b + c), ring)
        ctx.compare("mul-assoc", (a * b) * c, a * (b * c), ring)
        ctx.compare("left-distrib", a * (b + c), a * b + a * c, ring)
        ctx.compare("right-distrib", (a + b) * c, a * c + b * c, ring)
        ctx.compare("unit-left", ring.one * a, a, ring)
        ctx.compare("unit-right", a * ring.one, a, ring)
        ctx.compare("add-zero", a + ring.zero, a, ring)
        ctx.compare("sub-self", a - a, ring.zero, ring)
        inv = ring.try_invert(a)
        if inv is not None:
            ctx.compare("invert-right", a * inv, ring.one, ring)
            ctx.compare("invert-left", inv * a, ring.one, ring)


@identity(
    ident="SERIES-INVERSION",
    module="core",
    statement="truncated series with invertible constant term invert "
    "exactly, order by order, on both sides",
    cells=((0, 1), (0, 2), (0, 3)),
    operations=("rings.TruncatedSeriesRing",),
)
def check_series_inversion(ctx: CheckContext):
    T = TruncatedSeriesRing(ctx.ring, 4)
    c = ctx.draw.invertible_scalar(T)
    inv = T.invert(c)
    ctx.compare("series-right-inverse", c * inv, T.one, T)
    ctx.compare("series-left-inverse", inv * c, T.one, T)


@identity(
    ident="EVAL-COMPOSITIONAL",
    module="core",
    statement="formula evaluation distributes over node construction: "
    "sums, products, negations and inverses evaluate pointwise",
    cells=((0, 1), (0, 2)),
    operations=("formula.evaluate",),
)
def check_eval_compositional(ctx: CheckContext):
    ring = ctx.ring
    names = ["x", "y", "w"]

    def random_formula(depth):
        if depth == 0 or ctx.draw.int_range(0, 2) == 0:
            return Var(names[ctx.draw.int_range(0, 2)])
        kind = ctx.draw.int_range(0, 3)
        if kind == 0:
            return Add(random_formula(depth - 1), random_formula(depth - 1))
        if kind == 1:
            return Mul(random_formula(depth - 1), random_formula(depth - 1))
        if kind == 2:
            return Neg(random_formula(depth - 1))
        return Inv(random_formula(depth - 1))

    f = random_formula(2)
    g = random_formula(2)
    sigma = ctx.draw.assignment(names, ring)
    fv = evaluate(f, sigma, ring)
    gv = evaluate(g, sigma, ring)
    ctx.compare("add-rule", evaluate(Add(f, g), sigma, ring), fv + gv)
    ctx.compare("mul-rule", evaluate(Mul(f, g), sigma, ring), fv * gv)
    ctx.compare("neg-rule", evaluate(Neg(f), sigma, ring), -fv)
    inv = ring.try_invert(fv)
    if inv is not None:
        ctx.compare("inv-rule", evaluate(Inv(f), sigma, ring), inv)


@identity(
    ident="INVERSION-HEIGHT",
    module="core",
    statement="the recursively built corner quasideterminant formula of "
    "an n x n generic matrix has inversion height exactly n - 1 (upper "
    "bound; minimality not claimed)",
    cells=((6, 1),),
    samples=1,
    operations=("formula.qdet_formula", "formula.formula_height"),
)
def check_inversion_height(ctx: CheckContext):
    for n in range(1, 7):
        got = formula_height(qdet_formula(n))
        ctx.compare(
            f"height-n{n}",
            Fraction(got),
            Fraction(n - 1),
            Rationals(),
        )


# ---------------------------------------------------------------------------
# quasideterminant module


@identity(
    ident="QDET-DEF-AGREE",
    module="quasidet",
    statement="the recursive definition and the minor-inverse formula of "
    "a quasideterminant agree wherever both are defined",
    cells=(
        (2, 1), (2, 2), (2, 3),
        (3, 1), (3, 2), (3, 3),
        (4, 1), (4, 2),
        (5, 1),
    ),
    profile=SampleProfile(10, 1),
    operations=("qdet.qdet",),
)
def check_def_agree(ctx: CheckContext):
    A = _square(ctx)
    p, q = _pivot(ctx, A)
    rec = qdet(A, p, q, "recursive")
    via_inverse = qdet(A, p, q, "minor_inverse")
    ctx.compare("recursive-vs-minor-inverse", rec, via_inverse)


@identity(
    ident="QDET-CLOSED-FORMS",
    module="quasidet",
    statement="the four 2x2 closed forms and the 3x3 corner closed form "
    "match the quasideterminant",
    cells=((2, 1), (2, 2), (2, 3)),
    operations=("qdet.qdet",),
)
def check_closed_forms(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx, 2)
    a = A.entry
    forms = {
        (1, 1): a(1, 1) - a(1, 2) * ring.invert(a(2, 2)) * a(2, 1),
        (1, 2): a(1, 2) - a(1, 1) * ring.invert(a(2, 1)) * a(2, 2),
        (2, 1): a(2, 1) - a(2, 2) * ring.invert(a(1, 2)) * a(1, 1),
        (2, 2): a(2, 2) - a(2, 1) * ring.invert(a(1, 1)) * a(1, 2),
    }
    for (p, q), value in forms.items():
        ctx.compare(f"two-by-two-{p}{q}", qdet(A, p, q), value)
    B = _square(ctx, 3)
    b = B.entry
    inner = {
        (2, 2): b(2, 2) - b(2, 3) * ring.invert(b(3, 3)) * b(3, 2),
        (3, 2): b(3, 2) - b(3, 3) * ring.invert(b(2, 3)) * b(2, 2),
        (2, 3): b(2, 3) - b(2, 2) * ring.invert(b(3, 2)) * b(3, 3),
        (3, 3): b(3, 3) - b(3, 2) * ring.invert(b(2, 2)) * b(2, 3),
    }
    display = (
        b(1, 1)
        - b(1, 2) * ring.invert(inner[(2, 2)]) * b(2, 1)
        - b(1, 2) * ring.invert(inner[(3, 2)]) * b(3, 1)
        - b(1, 3) * ring.invert(inner[(2, 3)]) * b(2, 1)
        - b(1, 3) * ring.invert(inner[(3, 3)]) * b(3, 1)
    )
    ctx.compare("three-by-three-corner", qdet(B, 1, 1), display)


@identity(
    ident="QDET-COMMUTATIVE-RATIO",
    module="quasidet",
    statement="commutatively, a quasideterminant times the deleted minor "
    "equals the signed determinant",
    cells=((2, 1), (3, 1), (4, 1), (5, 1)),
    operations=("qdet.qdet", "exactlin.det_bareiss"),
)
def check_commutative_ratio(ctx: CheckContext):
    A = _square(ctx)
    p, q = _pivot(ctx, A)
    v = qdet(A, p, q)
    full = det_bareiss(A.entries)
    sub = det_bareiss(A.delete_row_col(p, q).entries)
    p_pos = list(A.row_labels).index(p) + 1
    q_pos = list(A.col_labels).index(q) + 1
    sign = Fraction(-1) ** (p_pos + q_pos)
    ctx.compare("det-ratio", v * sub, sign * full)


@identity(
    ident="QDET-EXPANSIONS",
    module="quasidet",
    statement="expansion along any other row or column reproduces the "
    "quasideterminant",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("qdet.qdet_expansion",),
)
def check_expansions(ctx: CheckContext):
    A = _square(ctx)
    p, q = _pivot(ctx, A)
    base = qdet(A, p, q)
    k = ctx.draw.choice([r for r in A.row_labels if r != p])
    l = ctx.draw.choice([c for c in A.col_labels if c != q])
    ctx.compare("row-expansion", qdet_expansion(A, p, q, "row", k), base)
    ctx.compare("col-expansion", qdet_expansion(A, p, q, "col", l), base)


@identity(
    ident="HOMOLOGICAL-ROW",
    module="quasidet",
    statement="row homological relations: the two column-shifted "
    "quasiminor ratios agree for every witness row",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("qdet.qdet",),
)
def check_homological_row(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    i = ctx.draw.choice(list(A.row_labels))
    j, l = ctx.draw.subset(list(A.col_labels), 2)
    for s in A.row_labels:
        if s == i:
            continue
        lhs = -(qdet(A, i, j) * ring.invert(qdet(A.delete_row_col(i, l), s, j)))
        rhs = qdet(A, i, l) * ring.invert(qdet(A.delete_row_col(i, j), s, l))
        ctx.compare(f"row-homological-s{s}", lhs, rhs)


@identity(
    ident="HOMOLOGICAL-COL",
    module="quasidet",
    statement="column homological relations, quantified over every "
    "witness column other than the pivot column",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("qdet.qdet",),
)
def check_homological_col(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    j = ctx.draw.choice(list(A.col_labels))
    i, k = ctx.draw.subset(list(A.row_labels), 2)
    for t in A.col_labels:
        if t == j:
            continue
        lhs = -(ring.invert(qdet(A.delete_row_col(k, j), i, t)) * qdet(A, i, j))
        rhs = ring.invert(qdet(A.delete_row_col(i, j), k, t)) * qdet(A, k, j)
        ctx.compare(f"col-homological-t{t}", lhs, rhs)


@identity(
    ident="HEREDITY-BLOCK",
    module="quasidet",
    statement="two-step evaluation through a 2x2 block split (complement "
    "inverse then inner quasideterminant) equals direct evaluation",
    cells=((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("qdet.heredity_qdet",),
)
def check_heredity_schur(ctx: CheckContext):
    A = _square(ctx)
    k = ctx.draw.int_range(1, ctx.n - 1)
    sizes = [k, ctx.n - k]
    i = ctx.draw.choice(list(A.row_labels[:k]))
    j = ctx.draw.choice(list(A.col_labels[:k]))
    ctx.compare(
        "two-step-vs-direct",
        heredity_qdet(A, sizes, sizes, (1, 1), (i, j)),
        qdet(A, i, j),
    )


@identity(
    ident="HEREDITY-GENERAL",
    module="quasidet",
    statement="heredity through general block partitions, including the "
    "uniform case computed inside the ring of blocks",
    cells=((4, 1), (4, 2)),
    operations=("qdet.heredity_qdet", "qdet.heredity_via_block_ring"),
)
def check_heredity_general(ctx: CheckContext):
    A = _square(ctx, 4)
    if ctx.draw.int_range(0, 1):
        sizes = [2, 2]
        bp = ctx.draw.int_range(1, 2)
        bq = ctx.draw.int_range(1, 2)
    else:
        sizes = [1, 3]
        bp = bq = ctx.draw.int_range(1, 2)  # pivot block must be square
    row_group = A.row_labels[: sizes[0]] if bp == 1 else A.row_labels[sizes[0] :]
    col_group = A.col_labels[: sizes[0]] if bq == 1 else A.col_labels[sizes[0] :]
    i = ctx.draw.choice(list(row_group))
    j = ctx.draw.choice(list(col_group))
    ctx.compare(
        "block-heredity",
        heredity_qdet(A, sizes, sizes, (bp, bq), (i, j)),
        qdet(A, i, j),
    )
    if sizes == [2, 2]:
        ctx.compare(
            "block-ring-route",
            heredity_via_block_ring(A, 2, (bp, bq), (i, j)),
            qdet(A, i, j),
        )


@identity(
    ident="PERMUTATION-INVARIANCE",
    module="quasidet",
    statement="row/column permutations do not change a quasideterminant "
    "(labels keep the pivot fixed)",
    cells=((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("matrix.reorder", "qdet.qdet"),
)
def check_permutation_invariance(ctx: CheckContext):
    A = _square(ctx)
    p, q = _pivot(ctx, A)
    base = qdet(A, p, q)
    rows = ctx.draw.permutation(ctx.n)
    cols = ctx.draw.permutation(ctx.n)
    B = A.reorder(rows, cols)
    ctx.compare("label-permutation", qdet(B, p, q), base)


@identity(
    ident="SCALING-LAWS",
    module="quasidet",
    statement="left row scaling multiplies the pivot-row quasideterminant "
    "from the left and fixes the others; right column scaling mirrors it",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)),
    operations=("matrix.scale_row_left", "matrix.scale_col_right"),
)
def check_scaling_laws(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    i = ctx.draw.choice(list(A.row_labels))
    lam = ctx.draw.invertible_scalar(ring)
    B = A.scale_row_left(i, lam)
    for k in A.row_labels:
        j = ctx.draw.choice(list(A.col_labels))
        want = lam * qdet(A, i, j) if k == i else qdet(A, k, j)
        ctx.compare(f"row-scale-k{k}", qdet(B, k, j), want)
    jcol = ctx.draw.choice(list(A.col_labels))
    mu = ctx.draw.invertible_scalar(ring)
    C = A.scale_col_right(jcol, mu)
    for l in A.col_labels:
        i2 = ctx.draw.choice(list(A.row_labels))
        want = qdet(A, i2, jcol) * mu if l == jcol else qdet(A, i2, l)
        ctx.compare(f"col-scale-l{l}", qdet(C, i2, l), want)


@identity(
    ident="ADDITION-LAWS",
    module="quasidet",
    statement="adding a left multiple of one row (or right multiple of "
    "one column) fixes quasideterminants away from the source line, and "
    "left/right factors with one unit line fix that line's "
    "quasideterminants",
    cells=((3, 1), (3, 2), (3, 3)),
    operations=("matrix.row_op_left", "matrix.col_op_right"),
)
def check_addition_laws(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    k = ctx.draw.choice(list(A.row_labels))
    target = ctx.draw.choice([r for r in A.row_labels if r != k])
    lam = ctx.draw.scalar(ring)
    B = A.row_op_left(target, k, lam)
    for i in A.row_labels:
        if i == k:
            continue
        j = ctx.draw.choice(list(A.col_labels))
        ctx.compare(f"row-add-i{i}", qdet(B, i, j), qdet(A, i, j))
    l = ctx.draw.choice(list(A.col_labels))
    ctarget = ctx.draw.choice([c for c in A.col_labels if c != l])
    mu = ctx.draw.scalar(ring)
    C = A.col_op_right(ctarget, l, mu)
    for j in A.col_labels:
        if j == l:
            continue
        i = ctx.draw.choice(list(A.row_labels))
        ctx.compare(f"col-add-j{j}", qdet(C, i, j), qdet(A, i, j))
    # left factor whose k-th column is the k-th unit vector: it fixes
    # the pivot-row-k quasideterminants (rows mix only away from row k)
    X = ctx.draw.matrix(ring, ctx.n, ctx.n)
    X = NcMatrix(
        ring,
        [
            [
                (ring.one if r == k else ring.zero) if c == k else x
                for c, x in zip(X.col_labels, row)
            ]
            for r, row in zip(X.row_labels, X.entries)
        ],
        X.row_labels,
        X.col_labels,
    )
    j = ctx.draw.choice(list(A.col_labels))
    ctx.compare("unit-column-left-factor", qdet(X * A, k, j), qdet(A, k, j))
    # right factor whose l-th row is the l-th unit vector
    Y = ctx.draw.matrix(ring, ctx.n, ctx.n)
    Y = NcMatrix(
        ring,
        [
            [ring.one if c == l else ring.zero for c in Y.col_labels]
            if r == l
            else list(row)
            for r, row in zip(Y.row_labels, Y.entries)
        ],
        Y.row_labels,
        Y.col_labels,
    )
    i = ctx.draw.choice(list(A.row_labels))
    ctx.compare("unit-row-right-factor", qdet(A * Y, i, l), qdet(A, i, l))


@identity(
    ident="ZERO-CRITERION",
    module="quasidet",
    statement="a quasideterminant whose pivot row is a left combination "
    "of the other rows is zero whenever it is defined",
    cells=((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)),
    operations=("qdet.qdet",),
)
def check_zero_criterion(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    i = ctx.draw.choice(list(A.row_labels))
    coeffs = {k: ctx.draw.scalar(ring) for k in A.row_labels if k != i}
    new_row = None
    for k, lam in coeffs.items():
        term = [lam * x for x in A.row(k)]
        new_row = term if new_row is None else [a + b for a, b in zip(new_row, term)]
    rows = [
        new_row if lab == i else list(A.entries[pos])
        for pos, lab in enumerate(A.row_labels)
    ]
    B = NcMatrix(ring, rows, A.row_labels, A.col_labels)
    j = ctx.draw.choice(list(A.col_labels))
    try:
        v = qdet(B, i, j)
    except DomainError:
        return  # undefined is an allowed outcome
    ctx.compare("dependent-row-vanishes", v, ring.zero)


@identity(
    ident="RANK-QUASIMINORS",
    module="quasidet",
    statement="the largest size of a defined nonzero quasiminor equals "
    "the classical rank over the rationals",
    cells=((2, 1), (3, 1), (4, 1)),
    operations=("qdet.rank_by_quasiminors",),
)
def check_rank(ctx: CheckContext):
    ring = ctx.ring
    n = ctx.n
    r = ctx.draw.int_range(0, n)
    if r == 0:
        A = NcMatrix.zero(ring, n, n)
    else:
        left = ctx.draw.matrix(ring, n, r)
        right = ctx.draw.matrix(ring, r, n)
        A = left * right
    classical = rational_rank(A.entries)
    ctx.compare(
        "rank-vs-echelon",
        Fraction(rank_by_quasiminors(A)),
        Fraction(classical),
        Rationals(),
    )


@identity(
    ident="SYLVESTER",
    module="quasidet",
    statement="the matrix of pivot-bordered quasideterminants has the "
    "same quasideterminants as the original outside the pivot block",
    cells=((3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)),
    operations=("qdet.sylvester_matrix",),
)
def check_sylvester(ctx: CheckContext):
    A = _square(ctx)
    k = ctx.draw.int_range(1, ctx.n - 2)
    K = list(ctx.draw.subset(list(A.row_labels), k))
    rest = [x for x in A.row_labels if x not in K]
    i = ctx.draw.choice(rest)
    j = ctx.draw.choice(rest)
    B = sylvester_matrix(A, K)
    ctx.compare("pivot-block-reduction", qdet(B, i, j), qdet(A, i, j))


@identity(
    ident="SYLVESTER-COMMUTATIVE",
    module="quasidet",
    statement="commutative specialization of the pivot-block reduction: "
    "det A times det(A_0)^(n-k-1) equals the bordered determinant matrix's "
    "determinant",
    cells=((3, 1), (4, 1), (5, 1)),
    operations=("exactlin.det_bareiss",),
)
def check_sylvester_commutative(ctx: CheckContext):
    A = _square(ctx)
    n = ctx.n
    k = ctx.draw.int_range(1, n - 2)
    K = list(A.row_labels[:k])
    a0 = A.select(K, K)
    det_a0 = det_bareiss(a0.entries)
    if det_a0 == 0:
        raise DomainError("pivot block singular")
    rest = [x for x in A.row_labels if x not in K]
    tilde = []
    for p in rest:
        row = []
        for q in rest:
            bordered = [
                [A.entry(r, c) for c in K + [q]] for r in K + [p]
            ]
            row.append(det_bareiss(bordered))
        tilde.append(row)
    det_tilde = det_bareiss(tilde)
    det_a = det_bareiss(A.entries)
    ctx.compare(
        "determinant-reduction",
        det_a * det_a0 ** (n - k - 1),
        det_tilde,
        Rationals(),
    )


@identity(
    ident="JACOBI-QUASIMINORS",
    module="quasidet",
    statement="a quasiminor of a matrix times the complementary "
    "quasiminor of its inverse is one; specializes to entry times "
    "quasideterminant",
    cells=((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("qdet.jacobi_factors", "matrix.inverse"),
)
def check_jacobi(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    n = ctx.n
    size = ctx.draw.int_range(1, n - 1)
    rest = list(range(1, n + 1))
    k = ctx.draw.choice(rest)
    l = ctx.draw.choice(rest)
    P = ctx.draw.subset([x for x in rest if x != k], size)
    Q = ctx.draw.subset([x for x in rest if x != l], size)
    f1, f2 = jacobi_factors(A, P, Q, k, l)
    ctx.compare("inverse-quasiminor-product", f1 * f2, ring.one)
    B = A.inverse()
    ctx.compare(
        "entry-specialization",
        qdet(A, k, l) * B.entry(l, k),
        ring.one,
    )


@identity(
    ident="GENERALIZED-HOMOLOGICAL",
    module="quasidet",
    statement="deleted-line quasiminor sums against inverted full "
    "quasideterminants produce exact Kronecker deltas, for witness "
    "indices ranging over the deleted set and the reference line "
    "(the configuration set verified exhaustively at small sizes)",
    cells=((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("qdet.homological_sum_rows", "qdet.homological_sum_cols"),
)
def check_generalized_homological(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    n = ctx.n
    k = ctx.draw.int_range(1, n - 1)
    labels = list(range(1, n + 1))
    L = ctx.draw.subset(labels, k)
    M = ctx.draw.subset(labels, k + 1)
    p = ctx.draw.choice([x for x in labels if x not in L])
    ls = list(L) + [p]
    rows = homological_sum_rows(A, L, M, p, ls)
    cols = homological_sum_cols(A, M, L, ls, p)
    for l, row_sum, col_sum in zip(ls, rows, cols):
        want = ring.one if l == p else ring.zero
        ctx.compare(f"row-deleted-sum-l{l}", row_sum, want)
        ctx.compare(f"col-deleted-sum-l{l}", col_sum, want)


@identity(
    ident="MULTIPLICATIVE-QDET",
    module="quasidet",
    statement="the inverted quasideterminant of a product is the sum of "
    "products of inverted factors' quasideterminants over the shared index",
    cells=((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("qdet.qdet",),
)
def check_multiplicative(ctx: CheckContext):
    ring = ctx.ring
    X = _square(ctx)
    Y = _square(ctx)
    i, j = _pivot(ctx, X)
    lhs = ring.invert(qdet(X * Y, i, j))
    acc = ring.zero
    for p in X.row_labels:
        acc = acc + ring.invert(qdet(Y, p, j)) * ring.invert(qdet(X, i, p))
    ctx.compare("product-inverse-sum", lhs, acc)


@identity(
    ident="INVERSE-QDET-ENTRIES",
    module="quasidet",
    statement="the inverse matrix's entries are the inverted transposed "
    "quasideterminants, and both one-sided products give the identity",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("matrix.inverse", "qdet.matrix_inverse"),
)
def check_inverse_entries(ctx: CheckContext):
    A = _square(ctx)
    B = A.inverse()
    R = MatrixRing(ctx.ring, ctx.n)
    ctx.compare("left-inverse", B * A, R.one, R)
    ctx.compare("right-inverse", A * B, R.one, R)
    C = matrix_inverse(A)
    for i in A.row_labels:
        for j in A.col_labels:
            ctx.compare(f"entry-{i}{j}", B.entry(j, i), C.entry(j, i))


@identity(
    ident="HADAMARD-INVOLUTION",
    module="quasidet",
    statement="the entrywise transposed inverse is an involution",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)),
    operations=("qdet.hadamard_inverse",),
)
def check_hadamard(ctx: CheckContext):
    A = _square(ctx)
    H = hadamard_inverse(A)
    HH = hadamard_inverse(H)
    ctx.compare("involution", HH, A, MatrixRing(ctx.ring, ctx.n))


@identity(
    ident="LINEAR-SOLVE",
    module="quasidet",
    statement="the inverted-quasideterminant solution formula solves the "
    "left linear system exactly",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("qdet.solve_system",),
)
def check_linear_solve(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    rhs = [ctx.draw.scalar(ring) for _ in range(ctx.n)]
    x = solve_system(A, rhs, method="qdet")
    residual = A * NcMatrix(ring, [[v] for v in x], A.col_labels)
    for pos in range(ctx.n):
        ctx.compare(f"residual-{pos}", residual.entries[pos][0], rhs[pos])
    x_direct = solve_system(A, rhs, method="auto")
    for pos in range(ctx.n):
        ctx.compare(f"route-agreement-{pos}", x[pos], x_direct[pos])


@identity(
    ident="CRAMER",
    module="quasidet",
    statement="quasideterminant times solution component equals the "
    "quasideterminant with the pivot column replaced by the right side",
    cells=((1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)),
    operations=("qdet.cramer_pair",),
)
def check_cramer(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    rhs = [ctx.draw.scalar(ring) for _ in range(ctx.n)]
    i, j = _pivot(ctx, A)
    lhs, rhs_val = cramer_pair(A, rhs, i, j)
    ctx.compare("replaced-column", lhs, rhs_val)


@identity(
    ident="CAYLEY-HAMILTON",
    module="quasidet",
    statement="substituting the matrix for the central variable of its "
    "characteristic quasideterminant expressions gives zero at every pivot",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)),
    operations=("qdet.cayley_hamilton",),
)
def check_cayley_hamilton(ctx: CheckContext):
    A = _square(ctx)
    values = cayley_hamilton(A)
    R = MatrixRing(ctx.ring, ctx.n)
    for i, row in enumerate(values, start=1):
        for j, v in enumerate(row, start=1):
            ctx.compare(f"vanishes-{i}{j}", v, R.zero, R)


# ---------------------------------------------------------------------------
# quasi-Plucker module


@identity(
    ident="QPC-GENERATING",
    module="pluecker",
    statement="left coordinates are one on the diagonal, vanish when the "
    "target column sits in the bordering set, compose transitively, and "
    "ignore the bordering set's ordering",
    cells=((4, 1), (4, 2), (5, 1), (5, 2)),
    operations=("pluecker.left_qpc",),
)
def check_qpc_generating(ctx: CheckContext):
    ring = ctx.ring
    k, n = 2, ctx.n
    A = ctx.draw.matrix(ctx.ring, k, n)
    cols = list(range(1, n + 1))
    i, j, m = ctx.draw.subset(cols, 3)
    others = [c for c in cols if c not in (i, j, m)]
    I = (others[0],)
    ctx.compare("unit-on-diagonal", pl.left_qpc(A, i, i, I), ring.one)
    ctx.compare("vanishes-inside-set", pl.left_qpc(A, i, I[0], I), ring.zero)
    pij = pl.left_qpc(A, i, j, I)
    pjm = pl.left_qpc(A, j, m, I)
    pim = pl.left_qpc(A, i, m, I)
    ctx.compare("cocycle", pij * pjm, pim)
    if ctx.n >= 5:
        # ordering of the bordering set needs |I| >= 2, hence 3 rows
        B = ctx.draw.matrix(ctx.ring, 3, ctx.n)
        i, j, a, b = ctx.draw.subset(list(range(1, ctx.n + 1)), 4)
        ctx.compare(
            "order-independence",
            pl.left_qpc(B, i, j, (b, a)),
            pl.left_qpc(B, i, j, (a, b)),
        )


@identity(
    ident="QPC-ST-INDEPENDENCE",
    module="pluecker",
    statement="the bordering row (resp. column) used to evaluate a left "
    "(resp. right) coordinate does not affect its value",
    cells=((4, 1), (4, 2), (5, 1), (5, 2)),
    operations=("pluecker.left_qpc", "pluecker.right_qpc"),
)
def check_qpc_st_independence(ctx: CheckContext):
    k = 2 if ctx.n <= 4 else 3
    A = ctx.draw.matrix(ctx.ring, k, ctx.n)
    cols = list(range(1, ctx.n + 1))
    picked = ctx.draw.subset(cols, k + 1)
    i, j = picked[0], picked[1]
    I = picked[2:]
    values = pl.left_qpc_values_over_rows(A, i, j, I)
    if not values:
        raise DomainError("no bordering row defined")
    for pos, v in enumerate(values[1:], start=1):
        ctx.compare(f"row-witness-{pos}", v, values[0])
    B = ctx.draw.matrix(ctx.ring, ctx.n, k)
    rows = list(range(1, ctx.n + 1))
    picked = ctx.draw.subset(rows, k + 1)
    i, j = picked[0], picked[1]
    I = picked[2:]
    values = pl.right_qpc_values_over_cols(B, i, j, I)
    if not values:
        raise DomainError("no bordering column defined")
    for pos, v in enumerate(values[1:], start=1):
        ctx.compare(f"col-witness-{pos}", v, values[0])


@identity(
    ident="QPC-GAUGE",
    module="pluecker",
    statement="left coordinates are invariant under invertible left "
    "factors; right coordinates under invertible right factors",
    cells=((4, 1), (4, 2), (4, 3), (5, 1), (5, 2)),
    operations=("pluecker.left_qpc", "pluecker.right_qpc"),
)
def check_qpc_gauge(ctx: CheckContext):
    k = 2
    A = ctx.draw.matrix(ctx.ring, k, ctx.n)
    g = ctx.draw.invertible_matrix(ctx.ring, k)
    cols = list(range(1, ctx.n + 1))
    picked = ctx.draw.subset(cols, 3)
    i, j = picked[0], picked[1]
    I = (picked[2],)
    ctx.compare("left-gauge", pl.left_qpc(g * A, i, j, I), pl.left_qpc(A, i, j, I))
    B = ctx.draw.matrix(ctx.ring, ctx.n, k)
    h = ctx.draw.invertible_matrix(ctx.ring, k)
    picked = ctx.draw.subset(cols, 3)
    i, j = picked[0], picked[1]
    I = (picked[2],)
    ctx.compare("right-gauge", pl.right_qpc(B * h, i, j, I), pl.right_qpc(B, i, j, I))


@identity(
    ident="QPC-SKEW-SYMMETRY",
    module="pluecker",
    statement="the cyclic triple product of left coordinates over a "
    "(k+1)-set equals minus one",
    cells=((4, 1), (4, 2), (5, 1), (5, 2)),
    operations=("pluecker.left_qpc",),
)
def check_qpc_skew(ctx: CheckContext):
    ring = ctx.ring
    k = 2 if ctx.n <= 4 else 3
    A = ctx.draw.matrix(ctx.ring, k, ctx.n)
    N = ctx.draw.subset(list(range(1, ctx.n + 1)), k + 1)
    i, j, m = ctx.draw.subset(list(N), 3)
    p1 = pl.left_qpc(A, i, j, tuple(x for x in N if x not in (i, j)))
    p2 = pl.left_qpc(A, j, m, tuple(x for x in N if x not in (j, m)))
    p3 = pl.left_qpc(A, m, i, tuple(x for x in N if x not in (m, i)))
    ctx.compare("triple-product", p1 * p2 * p3, -ring.one)


@identity(
    ident="PLUECKER-RELATION",
    module="pluecker",
    statement="the bilinear sum of coordinates over a k-set of target "
    "columns telescopes to one",
    cells=((5, 1), (5, 2), (6, 1), (6, 2)),
    operations=("pluecker.left_qpc",),
)
def check_pluecker_relation(ctx: CheckContext):
    ring = ctx.ring
    k = 2 if ctx.n <= 5 else 3
    A = ctx.draw.matrix(ctx.ring, k, ctx.n)
    cols = list(range(1, ctx.n + 1))
    M = ctx.draw.subset(cols, k - 1)
    i = ctx.draw.choice([c for c in cols if c not in M])
    L = ctx.draw.subset([c for c in cols if c != i], k)
    acc = ring.zero
    for j in L:
        acc = acc + pl.left_qpc(A, i, j, M) * pl.left_qpc(
            A, j, i, tuple(x for x in L if x != j)
        )
    ctx.compare("unit-sum", acc, ring.one)


@identity(
    ident="QPC-EMBED",
    module="pluecker",
    statement="padding a wide matrix with a shifted identity makes the "
    "lower-left quasideterminants equal minus the left coordinates",
    cells=((4, 1), (4, 2), (5, 1), (5, 2)),
    operations=("pluecker.embed_upper_identity", "qdet.qdet"),
)
def check_embed(ctx: CheckContext):
    k = 2 if ctx.n <= 4 else 3
    A = ctx.draw.matrix(ctx.ring, k, ctx.n)
    X = pl.embed_upper_identity(A)
    j = ctx.draw.int_range(1, k - 1)
    i = ctx.draw.int_range(k + 1, ctx.n)
    I = tuple(x for x in range(1, k + 1) if x != j)
    p = pl.left_qpc(A, i, j, I)
    ctx.compare("identity-padding", qdet(X, i, j), -p)


@identity(
    ident="QPC-NORMAL-FORM",
    module="pluecker",
    statement="clearing the leading block by its inverse leaves deltas "
    "and left coordinates, and the result is a left-gauge invariant",
    cells=((3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("pluecker.normal_form",),
)
def check_normal_form(ctx: CheckContext):
    ring = ctx.ring
    k = 2
    A = ctx.draw.matrix(ctx.ring, k, ctx.n)
    C, witness = pl.normal_form(A)
    lead = A.col_labels[:k]
    for i in C.row_labels:  # row labels of C are the leading column labels
        for j in lead:
            want = ring.one if j == i else ring.zero
            ctx.compare(f"leading-delta-{i}{j}", C.entry(i, j), want)
        for j in C.col_labels[k:]:
            p = pl.left_qpc(A, i, j, tuple(c for c in lead if c != i))
            ctx.compare(f"coordinate-entry-{i}{j}", C.entry(i, j), p)
    g = ctx.draw.invertible_matrix(ring, k)
    C2, _ = pl.normal_form(g * A)
    for i in C.row_labels:
        for j in C.col_labels:
            ctx.compare(f"gauge-invariant-form-{i}{j}", C2.entry(i, j), C.entry(i, j))


@identity(
    ident="QPC-DUALITY",
    module="pluecker",
    statement="left coordinates of a wide matrix and right coordinates "
    "of a kernel-built annihilator sum to zero",
    cells=((4, 1), (4, 2), (4, 3)),
    operations=("pluecker.kernel_complement", "pluecker.right_qpc"),
)
def check_duality(ctx: CheckContext):
    ring = ctx.ring
    k = 2
    n = ctx.n
    A = ctx.draw.matrix(ctx.ring, k, n)
    B = pl.kernel_complement(A)
    if B is None:
        raise DomainError("degenerate kernel dimension")
    R = MatrixRing(ring, k)
    ctx.compare("annihilation", A * B, R.zero, R)
    cols = list(range(1, n + 1))
    picked = ctx.draw.subset(cols, 3)
    i, j = picked[0], picked[1]
    I = (picked[2],)
    J = tuple(x for x in cols if x not in I and x not in (i, j))
    p = pl.left_qpc(A, i, j, I)
    r = pl.right_qpc(B, i, j, J)
    ctx.compare("orthogonal-sum", p + r, ring.zero)


@identity(
    ident="QPC-K-STEP",
    module="pluecker",
    statement="coordinates of the leading-rows submatrix expand into "
    "coordinates of the full matrix with one extra bordering column",
    cells=((5, 1), (5, 2), (6, 1)),
    operations=("pluecker.left_qpc",),
)
def check_k_step(ctx: CheckContext):
    k = 3
    n = ctx.n
    A = ctx.draw.matrix(ctx.ring, k, n)
    Ap = A.select(A.row_labels[: k - 1], A.col_labels)
    cols = list(range(1, n + 1))
    picked = ctx.draw.subset(cols, k - 2)
    J = picked
    rest = [c for c in cols if c not in J]
    i, m, j = ctx.draw.subset(rest, 3)
    lhs = pl.left_qpc(Ap, i, j, J)
    rhs = pl.left_qpc(A, i, j, J + (m,)) + pl.left_qpc(Ap, i, m, J) * pl.left_qpc(
        A, m, j, J + (i,)
    )
    ctx.compare("row-count-step", lhs, rhs)


def _row_deleted_coordinate(A, alpha, j, beta):
    B = A.delete_sets([alpha], [])
    I = tuple(c for c in A.col_labels if c not in (j, beta))
    return pl.left_qpc(B, j, beta, I)


def _col_deleted_coordinate(A, beta, alpha, i):
    C = A.delete_sets([], [beta])
    I = tuple(r for r in A.row_labels if r not in (alpha, i))
    return pl.right_qpc(C, alpha, i, I)


@identity(
    ident="QDET-EXPANSION-QPC",
    module="pluecker",
    statement="a quasideterminant expands through coordinates of the "
    "pivot-row-deleted and pivot-column-deleted submatrices",
    cells=((3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("pluecker.left_qpc", "pluecker.right_qpc"),
)
def check_expansion_qpc(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    alpha, beta = _pivot(ctx, A)
    base = qdet(A, alpha, beta)
    acc = A.entry(alpha, beta)
    for j in A.col_labels:
        if j == beta:
            continue
        acc = acc - A.entry(alpha, j) * _row_deleted_coordinate(A, alpha, j, beta)
    ctx.compare("row-expansion", base, acc)
    acc = A.entry(alpha, beta)
    for i in A.row_labels:
        if i == alpha:
            continue
        acc = acc - _col_deleted_coordinate(A, beta, alpha, i) * A.entry(i, beta)
    ctx.compare("col-expansion", base, acc)


@identity(
    ident="HOMOLOGICAL-QPC",
    module="pluecker",
    statement="pivot moves of a quasideterminant are coordinate "
    "multiplications: column moves append minus a left coordinate, row "
    "moves prepend minus a right coordinate; includes both 2x2 transport "
    "displays",
    cells=((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("pluecker.left_qpc", "pluecker.right_qpc"),
)
def check_homological_qpc(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    labels = list(A.row_labels)
    i = ctx.draw.choice(labels)
    j, l = ctx.draw.subset([c for c in A.col_labels], 2)
    p = _row_deleted_coordinate(A, i, j, l)
    ctx.compare(
        "row-relation",
        ring.invert(qdet(A, i, j)) * qdet(A, i, l),
        -p,
    )
    k = ctx.draw.choice([r for r in labels if r != i])
    r_coord = _col_deleted_coordinate(A, j, i, k)
    ctx.compare(
        "col-relation",
        qdet(A, i, j) * ring.invert(qdet(A, k, j)),
        -r_coord,
    )
    if ctx.n == 2:
        a = A.entry
        lhs = a(2, 1) * ring.invert(a(1, 1)) * qdet(A, 1, 1) * ring.invert(
            a(2, 1)
        ) * a(2, 2)
        ctx.compare("corner-transport", lhs, qdet(A, 2, 2))
        lhs = (
            a(1, 2)
            * ring.invert(a(2, 2))
            * a(2, 1)
            * ring.invert(a(1, 1))
            * qdet(A, 1, 1)
            * ring.invert(a(2, 1))
            * a(2, 2)
            * ring.invert(a(1, 2))
            * a(1, 1)
        )
        ctx.compare("round-trip-transport", lhs, qdet(A, 1, 1))


@identity(
    ident="HOMOLOGICAL-CHAIN",
    module="pluecker",
    statement="iterating the pivot-move relations along any admissible "
    "chain of row and column moves lands on the target quasideterminant",
    cells=((3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("pluecker.left_qpc", "pluecker.right_qpc"),
)
def check_homological_chain(ctx: CheckContext):
    ring = ctx.ring
    A = _square(ctx)
    labels = list(A.row_labels)
    i = ctx.draw.choice(labels)
    j = ctx.draw.choice(list(A.col_labels))
    value = qdet(A, i, j)
    steps = ctx.draw.int_range(1, 3)
    cur_i, cur_j = i, j
    for _ in range(steps):
        if ctx.draw.int_range(0, 1):
            new_i = ctx.draw.choice([r for r in labels if r != cur_i])
            r_coord = _col_deleted_coordinate(A, cur_j, new_i, cur_i)
            value = (-r_coord) * value
            cur_i = new_i
        else:
            new_j = ctx.draw.choice([c for c in A.col_labels if c != cur_j])
            p_coord = _row_deleted_coordinate(A, cur_i, cur_j, new_j)
            value = value * (-p_coord)
            cur_j = new_j
    ctx.compare("chain-transport", value, qdet(A, cur_i, cur_j))


@identity(
    ident="INVERSE-TIMES-BLOCK",
    module="pluecker",
    statement="the leading block's inverse times the trailing block is "
    "the matrix of left coordinates bordered by the other leading columns",
    cells=((2, 1), (2, 2), (3, 1), (3, 2)),
    operations=("pluecker.left_qpc", "matrix.inverse"),
)
def check_inverse_times_block(ctx: CheckContext):
    n = ctx.n
    m = n + 2
    A = ctx.draw.matrix(ctx.ring, n, m)
    Bm = A.select(A.row_labels, A.col_labels[:n])
    Cm = A.select(A.row_labels, A.col_labels[n:])
    D = Bm.inverse() * Cm
    for pos_i, i in enumerate(D.row_labels):
        for k in D.col_labels:
            I = tuple(c for c in A.col_labels[:n] if c != i)
            ctx.compare(
                f"entry-{i}-{k}",
                D.entry(i, k),
                pl.left_qpc(A, i, k, I),
            )


@identity(
    ident="PROD-QPC",
    module="pluecker",
    statement="inverse quasideterminant of a product, framed by the "
    "factors' quasideterminants, is one plus a sum of right-by-left "
    "coordinate products (an empty sum at size one)",
    cells=((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)),
    operations=("pluecker.left_qpc", "pluecker.right_qpc", "qdet.qdet"),
)
def check_product_qpc(ctx: CheckContext):
    ring = ctx.ring
    n = ctx.n
    A = _square(ctx)
    B = _square(ctx)
    k = ctx.draw.choice(list(range(1, n + 1)))
    lhs = qdet(B, k, k) * ring.invert(qdet(A * B, k, k)) * qdet(A, k, k)
    acc = ring.one
    if n > 1:
        Bpp = B.delete_sets([], [k])
        Ap = A.delete_sets([k], [])
        for alpha in range(1, n + 1):
            if alpha == k:
                continue
            I_r = tuple(x for x in range(1, n + 1) if x not in (alpha, k))
            r = pl.right_qpc(Bpp, k, alpha, I_r)
            p = pl.left_qpc(Ap, alpha, k, I_r)
            acc = acc + r * p
    ctx.compare("product-corner-identity", lhs, acc)


@identity(
    ident="GAUSS-DECOMP",
    module="pluecker",
    statement="upper-unitriangular times diagonal times lower-"
    "unitriangular reassembles the matrix exactly; commutatively the "
    "diagonal holds trailing principal minor ratios",
    cells=((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)),
    operations=("pluecker.gauss_decompose",),
)
def check_gauss(ctx: CheckContext):
    A = _square(ctx)
    U, Y, L = pl.gauss_decompose(A)
    ctx.compare("reassembly", (U * Y) * L, A, MatrixRing(ctx.ring, ctx.n))
    if ctx.d == 1:
        labels = A.row_labels
        # minors[pos] is the trailing principal minor from position pos on
        minors = [
            det_bareiss(A.select(labels[pos:], labels[pos:]).entries)
            for pos in range(ctx.n)
        ]
        minors.append(Fraction(1))
        for pos, k in enumerate(labels):
            ctx.compare(
                f"trailing-minor-ratio-{k}",
                Y.entry(k, k) * minors[pos + 1],
                minors[pos],
                Rationals(),
            )


@identity(
    ident="FLAG-COORDINATES",
    module="pluecker",
    statement="flag coordinates are invariant under lower-unitriangular "
    "left factors and express left coordinates as an inverted ratio",
    cells=((4, 1), (4, 2), (5, 1), (5, 2)),
    operations=("pluecker.flag_coordinate",),
)
def check_flag(ctx: CheckContext):
    ring = ctx.ring
    k = 2 if ctx.n <= 4 else 3
    A = ctx.draw.matrix(ctx.ring, k, ctx.n)
    rows = []
    for r in range(k):
        row = []
        for c in range(k):
            if c == r:
                row.append(ring.one)
            elif c < r:
                row.append(ctx.draw.scalar(ring))
            else:
                row.append(ring.zero)
        rows.append(row)
    g = NcMatrix(ring, rows)
    cols = ctx.draw.subset(list(range(1, ctx.n + 1)), k)
    order = list(cols)
    ctx.compare(
        "lower-unitriangular-invariance",
        pl.flag_coordinate(g * A, order),
        pl.flag_coordinate(A, order),
    )
    i, j = ctx.draw.subset(list(range(1, ctx.n + 1)), 2)
    I = ctx.draw.subset([c for c in range(1, ctx.n + 1) if c not in (i, j)], k - 1)
    p = pl.left_qpc(A, i, j, I)
    fi = pl.flag_coordinate(A, (i,) + I)
    fj = pl.flag_coordinate(A, (j,) + I)
    ctx.compare("coordinate-bridge", p, ring.invert(fi) * fj)


# ---------------------------------------------------------------------------
# symmetric-functions module


@identity(
    ident="VANDERMONDE-RATIO",
    module="symmfn",
    statement="commutatively the power-matrix quasideterminant is the "
    "signed ratio of the alternant to its leading minor",
    cells=((2, 1), (3, 1), (4, 1)),
    operations=("symmfn.vandermonde",),
)
def check_vandermonde_ratio(ctx: CheckContext):
    xs, _ = _independent_values(ctx, ctx.n)
    V = sf.vandermonde(ctx.ring, xs)
    mat = sf.power_matrix(ctx.ring, xs)
    full = det_bareiss(mat.entries)
    sub = det_bareiss(mat.delete_row_col(1, ctx.n).entries)
    sign = Fraction(-1) ** (1 + ctx.n)
    ctx.compare("alternant-ratio", V * sub, sign * full)


@identity(
    ident="BEZOUT-FACTOR",
    module="symmfn",
    statement="the extended power-matrix quasideterminant factors into "
    "descending conjugated linear terms, at several tail values per draw",
    cells=((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)),
    operations=("symmfn.bezout_product", "symmfn.vandermonde"),
)
def check_bezout(ctx: CheckContext):
    ring = ctx.ring
    xs, _, ys, zs, V = _independent_with_z(ctx, ctx.n)
    ctx.compare("factorized-product", V, sf.bezout_product(ring, ys, zs))
    # same roots and y alphabet, nine more tail values
    for extra in range(9):
        z2 = ctx.draw.scalar(ring)
        try:
            zs2 = sf.z_transform(ring, xs, z2)
            ctx.compare(
                f"factorized-product-z{extra}",
                sf.vandermonde(ring, xs + [z2]),
                sf.bezout_product(ring, ys, zs2),
            )
        except DomainError:
            continue


@identity(
    ident="HAT-TRANSFORM",
    module="symmfn",
    statement="conjugating the tail by differences from the first value "
    "splits off one linear factor of the extended quasideterminant",
    cells=((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)),
    operations=("symmfn.hat_transform",),
)
def check_hat(ctx: CheckContext):
    ring = ctx.ring
    xs, z, _, _, V = _independent_with_z(ctx, ctx.n)
    hats, zhat = sf.hat_transform(ring, xs, z)
    rhs = sf.vandermonde(ring, hats + [zhat]) * (z - xs[0])
    ctx.compare("difference-conjugation", V, rhs)


@identity(
    ident="VIETA-COEFFS",
    module="symmfn",
    statement="the three coefficient routes (signed word sums, bordered "
    "quasideterminant ratios, right-linear solving) agree, and the "
    "resulting left-coefficient polynomial annihilates every root",
    cells=((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)),
    operations=(
        "symmfn.vieta_from_y",
        "symmfn.vieta_via_qdet",
        "symmfn.coeffs_from_roots",
    ),
)
def check_vieta_agree(ctx: CheckContext):
    ring = ctx.ring
    xs, (ys,) = _independent_values(ctx, ctx.n)
    a_words = sf.vieta_from_y(ring, ys)
    a_ratio = sf.vieta_via_qdet(ring, xs)
    a_solved = sf.coeffs_from_roots(ring, xs)
    for k in range(ctx.n):
        ctx.compare(f"word-vs-ratio-{k + 1}", a_words[k], a_ratio[k])
        ctx.compare(f"word-vs-solved-{k + 1}", a_words[k], a_solved[k])
    for pos, x in enumerate(xs):
        ctx.compare(f"root-annihilated-{pos}", sf.annihilation_value(ring, a_words, x), ring.zero)
    if ctx.d == 1:
        lam = sf.elementary_from_ys(ring, ys)
        for k in range(1, ctx.n + 1):
            classical = Fraction(0)
            for combo in combinations(xs, k):
                term = Fraction(1)
                for v in combo:
                    term *= v
                classical += term
            ctx.compare(f"classical-elementary-{k}", lam[k - 1], classical)


def _all_perms(n):
    return list(permutations(range(1, n + 1)))


def check_symmetry(ctx: CheckContext, family: str):
    ring = ctx.ring
    n = ctx.n
    perms = _all_perms(n) if n <= 3 else None
    if perms is None:
        perms = [tuple(ctx.draw.permutation(n)) for _ in range(10)]
    xs, yss = _independent_values(ctx, n, perms)
    # each order's alphabet is rebuilt from the permuted inputs
    ys_of = dict(zip(perms, yss))
    base_ys = ys_of.get(tuple(range(1, n + 1))) or sf.y_transform(ring, xs)
    if family == "lambda":
        base = sf.elementary_from_ys(ring, base_ys)
        for perm in perms:
            permuted = sf.elementary_from_ys(ring, ys_of[perm])
            for k in range(n):
                ctx.compare(f"perm-{perm}-k{k + 1}", permuted[k], base[k])
    elif family == "complete":
        base = sf.complete_from_ys(ring, base_ys, 3, route="words")
        for perm in perms:
            permuted = sf.complete_from_ys(ring, ys_of[perm], 3, route="words")
            for k in range(3):
                ctx.compare(f"perm-{perm}-k{k + 1}", permuted[k], base[k])
    elif family == "ribbon":
        comps = [J for J in sf.compositions(3)] + [(2, 2)]
        J = comps[ctx.draw.int_range(0, len(comps) - 1)]
        base = sf.ribbon_from_ys(ring, base_ys, J)
        for perm in perms:
            permuted = sf.ribbon_from_ys(ring, ys_of[perm], J)
            ctx.compare(f"perm-{perm}", permuted, base)


identity(
    ident="LAMBDA-SYMMETRY",
    module="symmfn",
    statement="elementary functions are invariant under every "
    "permutation of the inputs (the transformed alphabet is rebuilt "
    "from the permuted inputs)",
    cells=((2, 1), (2, 2), (3, 1), (3, 2)),
    operations=("symmfn.elementary_lambda",),
)(lambda ctx: check_symmetry(ctx, "lambda"))

identity(
    ident="COMPLETE-SYMMETRY",
    module="symmfn",
    statement="complete functions of degree up to three are permutation "
    "invariant",
    cells=((2, 1), (2, 2), (3, 1), (3, 2)),
    operations=("symmfn.complete_s",),
)(lambda ctx: check_symmetry(ctx, "complete"))

identity(
    ident="RIBBON-SYMMETRY",
    module="symmfn",
    statement="descent-graded word sums are permutation invariant for "
    "every composition",
    cells=((2, 1), (2, 2), (3, 1), (3, 2)),
    operations=("symmfn.ribbon_schur",),
)(lambda ctx: check_symmetry(ctx, "ribbon"))


@identity(
    ident="ASYMM-Y1Y2",
    module="symmfn",
    statement="the ascending product of the two transformed variables is "
    "NOT symmetric: the suite must exhibit a swap witness",
    cells=((2, 2),),
    expect="counterexample",
    operations=("symmfn.y_transform",),
)
def check_asym_y1y2(ctx: CheckContext):
    _, (ys, ys_swapped) = _independent_values(ctx, 2, [(1, 2), (2, 1)])
    ctx.compare("ordered-pair-product", ys[0] * ys[1], ys_swapped[0] * ys_swapped[1])


@identity(
    ident="ASYMM-S2-MISORDERED",
    module="symmfn",
    statement="the misordered degree-two sum (middle word reversed) is "
    "NOT symmetric: the suite must exhibit a swap witness",
    cells=((2, 2),),
    expect="counterexample",
    operations=("symmfn.y_transform",),
)
def check_asym_s2_wrong(ctx: CheckContext):
    _, (ys, ys_swapped) = _independent_values(ctx, 2, [(1, 2), (2, 1)])

    def wrong_s2(y):
        return y[0] * y[0] + y[1] * y[0] + y[1] * y[1]

    ctx.compare("misordered-degree-two-sum", wrong_s2(ys), wrong_s2(ys_swapped))


@identity(
    ident="S-ROUTE-AGREE",
    module="symmfn",
    statement="complete functions via truncated series inversion of the "
    "alternating elementary generating polynomial equal the "
    "nondecreasing word sums through degree five",
    cells=((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("symmfn.complete_s",),
)
def check_s_routes(ctx: CheckContext):
    ring = ctx.ring
    _, (ys,) = _independent_values(ctx, ctx.n)
    deg = 5
    s_series = sf.complete_from_ys(ring, ys, deg, route="series")
    s_words = sf.complete_from_ys(ring, ys, deg, route="words")
    for k in range(deg):
        ctx.compare(f"degree-{k + 1}", s_series[k], s_words[k])


@identity(
    ident="RIBBON-BASIS",
    module="symmfn",
    statement="at each degree the descent-graded family is linearly "
    "independent on sampled value vectors (full rank) and every "
    "elementary monomial solves exactly as a rational combination of it",
    cells=((1, 2), (2, 2), (3, 2), (4, 2)),
    samples=2,
    profile=SampleProfile(3, 2),
    operations=("symmfn.ribbon_from_ys", "symmfn.lambda_word_value"),
)
def check_ribbon_basis(ctx: CheckContext):
    ring = ctx.ring
    m = ctx.n  # degree doubles as the cell size
    comps = list(sf.compositions(m))
    points = []
    for _ in range(max(3, (2 ** (m - 1) + ring.flat_dim ** 2 - 1) // (ring.flat_dim ** 2) + 1)):
        _, (ys,) = _independent_values(ctx, m)
        points.append(ys)
    vectors = []
    for J in comps:
        vec = []
        for ys in points:
            num, den = ring.flatten(sf.ribbon_from_ys(ring, ys, J))
            vec.extend(Fraction(x, den) for row in num for x in row)
        vectors.append(vec)
    rank = rational_rank(vectors)
    ctx.compare(
        "independence-rank", Fraction(rank), Fraction(2 ** (m - 1)), Rationals()
    )
    # every elementary monomial solves exactly against the ribbon family:
    # it lies in their row span iff appending it leaves the rank unchanged
    for J in comps:
        target = []
        for ys in points:
            num, den = ring.flatten(sf.lambda_word_value(ring, ys, J))
            target.extend(Fraction(x, den) for row in num for x in row)
        extended = rational_rank(vectors + [target])
        ctx.compare(f"expressible-{J}", Fraction(extended), Fraction(rank), Rationals())


@identity(
    ident="DERIVATION",
    module="symmfn",
    statement="under a first-order uniform shift the power-matrix "
    "quasideterminants are constant and the transformed variables move "
    "at unit rate",
    cells=((3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("symmfn.dual_shift_ring", "symmfn.y_transform"),
)
def check_derivation(ctx: CheckContext):
    T = sf.dual_shift_ring(ctx.ring)
    base = T.base
    k_max = min(ctx.n, 4)
    ys, Vs = ctx.draw.until(
        lambda: sf.y_chain(T, [sf.shift_by_unit(T, ctx.draw.scalar(base)) for _ in range(k_max)]),
        lambda _: True,
        "no independent shifted sequence",
    )
    for k, V in enumerate(Vs, start=2):
        ctx.compare(f"shift-coefficient-V{k}", V.coeffs[1], base.zero, base)
    for pos, y in enumerate(ys):
        ctx.compare(f"shift-coefficient-y{pos + 1}", y.coeffs[1], base.one, base)


# ---------------------------------------------------------------------------
# continued-fraction module


@identity(
    ident="CF-NESTED",
    module="contfrac",
    statement="the explicit bottom-up nesting of inverted trailing "
    "corner values equals the corner quasideterminant",
    cells=((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("contfrac.cf_nested",),
)
def check_cf_nested(ctx: CheckContext):
    A = cf.draw_almost_triangular(ctx.draw, ctx.ring, ctx.n)
    ctx.compare("nesting-vs-quasideterminant", cf.cf_nested(A), qdet(A, 1, 1))


@identity(
    ident="CONVERGENT-ROUTES",
    module="contfrac",
    statement="explicit chain sums, additive recurrences and corner "
    "quasideterminants of the normal form agree, and their ratio is the "
    "opposite-corner quasideterminant",
    cells=((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2)),
    operations=("contfrac.convergents_explicit", "contfrac.convergents_recurrence"),
)
def check_convergents(ctx: CheckContext):
    ring = ctx.ring
    n = ctx.n
    A = cf.draw_almost_triangular(ctx.draw, ring, n)
    P, Q = cf.convergents_explicit(A)
    Ps, Qs = cf.convergents_recurrence(A)
    ctx.compare("numerator-routes", P, Ps[n])
    if n > 1:
        ctx.compare("denominator-routes", Q, Qs[n])
    ctx.compare("numerator-corner", P, qdet(A, 1, n))
    if n > 1:
        ctx.compare("denominator-corner", Q, qdet(A.delete_row_col(1, 1), 2, n))
    ctx.compare("ratio", P * ring.invert(Q), qdet(A, 1, 1))


@identity(
    ident="JACOBI-CF",
    module="contfrac",
    statement="tridiagonal three-term recurrences match the general "
    "ones, the ratio is the corner value, and each convergent depends "
    "only on its leading diagonal entries",
    cells=((3, 1), (3, 2), (4, 1), (4, 2)),
    operations=("contfrac.jacobi_convergents",),
)
def check_jacobi_cf(ctx: CheckContext):
    ring = ctx.ring
    n = ctx.n
    diag = [ctx.draw.scalar(ring) for _ in range(n)]
    A = cf.jacobi_matrix(ring, diag)
    P, Q = cf.jacobi_convergents(ring, diag)
    Pg, Qg = cf.convergents_recurrence(A)
    ctx.compare("three-term-numerator", P[n], Pg[n])
    ctx.compare("three-term-denominator", Q[n], Qg[n])
    ctx.compare("ratio", P[n] * ring.invert(Q[n]), qdet(A, 1, 1))
    # dependence: entries beyond position k do not enter P_k, Q_k
    k = ctx.draw.int_range(2, n - 1)
    diag2 = list(diag)
    for pos in range(k, n):
        diag2[pos] = ctx.draw.scalar(ring)
    P2, Q2 = cf.jacobi_convergents(ring, diag2)
    ctx.compare("prefix-dependence-P", P2[k], P[k])
    ctx.compare("prefix-dependence-Q", Q2[k], Q[k])
    if ctx.d == 1:
        nested = cf.cf_nested(A)
        ctx.compare("classical-tower", nested, qdet(A, 1, 1))


@identity(
    ident="BERENSTEIN",
    module="contfrac",
    statement="with unipotent diagonal entries whose strict-upper "
    "entries are their central mutually-annihilating commutators, the "
    "numerator collapses to the descending diagonal product",
    cells=((2, 3), (3, 3), (4, 3), (5, 3)),
    operations=("contfrac.commutator_matrix", "contfrac.convergents_recurrence"),
)
def check_berenstein(ctx: CheckContext):
    n = ctx.n
    diag = [cf.heisenberg_diagonal(ctx.draw) for _ in range(n)]
    A = cf.commutator_matrix(ctx.ring, diag)
    P, _ = cf.convergents_recurrence(A)
    want = cf.descending_diagonal_product(diag)
    ctx.compare("descending-product", P[n], want, ctx.ring)
    ctx.compare("corner-form", qdet(A, 1, n), want, ctx.ring)


@identity(
    ident="SERIES-RATIO",
    module="contfrac",
    statement="with unit-plus-graded entries the truncations of the "
    "infinite numerator and denominator series reproduce the corner "
    "quasideterminant exactly in the truncated ring",
    cells=((5, 1), (8, 2)),
    samples=3,
    profile=SampleProfile(3, 2),
    operations=("contfrac.series_numerator", "contfrac.series_denominator"),
)
def check_series_ratio(ctx: CheckContext):
    order = 6 if ctx.d == 2 else 3
    A = cf.graded_series_matrix(ctx.draw, ctx.ring, order, order + 2)
    T = A.ring
    lhs = qdet(A, 1, 1)
    P = cf.series_numerator(A)
    Qinv = T.invert(cf.series_denominator(A))
    ctx.compare("series-ratio", P * Qinv, lhs, T)


@identity(
    ident="ROGERS-RAMANUJAN",
    module="contfrac",
    statement="the depth-truncated q-tower's z-coefficients equal the "
    "closed-form ratio's coefficients as reduced rational functions of "
    "q, stably in the truncation depth",
    cells=((6, 1),),
    samples=1,
    operations=("contfrac.rr_sides",),
)
def check_rogers_ramanujan(ctx: CheckContext):
    order = 6
    depth = 10
    lhs, rhs = cf.rr_sides(order, depth)
    T = lhs.ring
    base = T.base
    for k in range(order + 1):
        ctx.compare(f"z-coefficient-{k}", lhs.coeffs[k], rhs.coeffs[k], base)
    ctx.compare("first-coefficient-value", lhs.coeffs[1], -base.q(), base)
    deeper = cf.rr_continued_fraction(order, depth + 1)
    for k in range(order + 1):
        ctx.compare(f"depth-stability-{k}", deeper.coeffs[k], lhs.coeffs[k], base)


@identity(
    ident="ALMOST-TRIANGULAR-D",
    module="contfrac",
    statement="the interleaved product of trailing corner values and "
    "inverted subdiagonals carries the top-right quasideterminant up to "
    "sign, which also equals the explicit alternating chain sum",
    cells=((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)),
    operations=("contfrac.d_product", "contfrac.corner_alternating_sum"),
)
def check_almost_triangular_d(ctx: CheckContext):
    ring = ctx.ring
    n = ctx.n
    B = cf.draw_almost_triangular(ctx.draw, ring, n, general_subdiag=True)
    D = cf.d_product(B, 1, n)
    corner = qdet(B, 1, n)
    sign_D = D if (n + 1) % 2 == 0 else -D
    ctx.compare("signed-product", sign_D, corner)
    ctx.compare("alternating-sum", cf.corner_alternating_sum(B), corner)


@identity(
    ident="ALMOST-TRIANGULAR-QDET",
    module="contfrac",
    statement="every on-or-above-diagonal quasideterminant of an "
    "almost-triangular matrix is a signed, subdiagonal-framed ratio of "
    "leading/trailing corner products",
    cells=((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)),
    operations=("contfrac.general_corner_product", "contfrac.d_product"),
)
def check_almost_triangular_qdet(ctx: CheckContext):
    n = ctx.n
    B = cf.draw_almost_triangular(ctx.draw, ctx.ring, n, general_subdiag=True)
    products = cf.general_corner_product(B)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            ctx.compare(f"pivot-{i}{j}", qdet(B, i, j), products[(i, j)])


# ---------------------------------------------------------------------------
# negative controls (comparator integrity)


@identity(
    ident="FALSE-QDET-ENTRY",
    module="harness",
    statement="control: a 2x2 corner quasideterminant is NOT the corner "
    "entry; the comparator must find a counterexample",
    cells=((2, 1), (2, 2)),
    expect="counterexample",
    operations=("qdet.qdet",),
)
def check_false_qdet_entry(ctx: CheckContext):
    A = _square(ctx, 2)
    ctx.compare("corner-equals-entry", qdet(A, 1, 1), A.entry(1, 1))


@identity(
    ident="FALSE-COMMUTE",
    module="harness",
    statement="control: matrix scalars do not commute; the comparator "
    "must find a counterexample",
    cells=((0, 2), (0, 3)),
    expect="counterexample",
    operations=("rings",),
)
def check_false_commute(ctx: CheckContext):
    ring = ctx.ring
    x = ctx.draw.scalar(ring)
    y = ctx.draw.scalar(ring)
    ctx.compare("products-commute", x * y, y * x)
