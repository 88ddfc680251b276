"""Almost-triangular matrices: corner quasideterminants as generalized
continued fractions, convergent numerator/denominator polynomials,
formal-series ratios and the q-series coefficient identity.

An almost-triangular matrix vanishes below the first subdiagonal; the
subdiagonal is -1 in the convergent normal form, or carries arbitrary
invertible entries in the general corner-product identities.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import mul
from typing import Sequence

from .matrix import NcMatrix
# qdet stays importable here: bench/tracer.py wraps it under this name
from .qdet import qdet, trailing_chain
from .rings import (
    DomainError,
    MatScalar,
    QRat,
    QRationalFunctions,
    Rationals,
    ScalarRing,
    TruncatedSeriesRing,
    poly_mul,
)


def almost_triangular(ring: ScalarRing, upper: dict, n: int, subdiag=None) -> NcMatrix:
    """Build the n x n matrix with given entries on and above the
    diagonal, the given subdiagonal (default -1) and zeros below it.

    ``upper`` maps (i, j) with j >= i to ring elements; ``subdiag`` maps
    i to the entry at (i+1, i), defaulting to -1 everywhere.
    """
    minus_one = -ring.one
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j >= i:
                row.append(ring.coerce(upper[(i, j)]))
            elif j == i - 1:
                row.append(
                    ring.coerce(subdiag[i - 1]) if subdiag is not None else minus_one
                )
            else:
                row.append(ring.zero)
        rows.append(row)
    return NcMatrix(ring, rows, range(1, n + 1), range(1, n + 1))


def draw_almost_triangular(draw, ring: ScalarRing, n: int, general_subdiag=False) -> NcMatrix:
    """Random almost-triangular matrix drawn through ``draw``: the upper
    entries row by row, then (with ``general_subdiag``) one invertible
    subdiagonal entry per row in place of the normal-form -1."""
    upper = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            upper[(i, j)] = draw.scalar(ring)
    subdiag = None
    if general_subdiag:
        subdiag = {i: draw.invertible_scalar(ring) for i in range(1, n)}
    return almost_triangular(ring, upper, n, subdiag)


def cf_nested(A: NcMatrix):
    """Corner quasideterminant by the explicit nesting
    F_r = a_rr + sum_{j>r} a_rj F_j^{-1} F_{j-1}^{-1} ... F_{r+1}^{-1},
    evaluated bottom-up; the tridiagonal case degenerates to the
    classical a_1 + 1/(a_2 + 1/(...)) tower."""
    ring = A.ring
    labels = list(A.row_labels)
    n = len(labels)
    F: dict[int, object] = {}
    F_inv: dict[int, object] = {}
    for pos in range(n - 1, -1, -1):
        r = labels[pos]
        acc = A.entry(r, r)
        for jpos in range(pos + 1, n):
            j = labels[jpos]
            term = A.entry(r, j)
            for kpos in range(jpos, pos, -1):
                term = term * F_inv[labels[kpos]]
            acc = acc + term
        F[r] = acc
        if pos > 0:
            inv = ring.try_invert(acc)
            if inv is None:
                raise DomainError("nested denominator not invertible", payload=r)
            F_inv[r] = inv
    return F[labels[0]]


def chain_sum(A: NcMatrix, first_row: int, pool: Sequence[int], end: int):
    """sum over subsets {j_1 < ... < j_k} of pool of the word
    a_{first_row, j_1} a_{j_1+1, j_2} ... a_{j_k+1, end}; the empty
    subset contributes the single letter a_{first_row, end}."""
    return _chains(A, A.entry, first_row, pool, end)


def _chains(A: NcMatrix, step, first_row: int, pool: Sequence[int], end: int):
    """sum over subsets {j_1 < ... < j_k} of pool, by size, of the word
    step(first_row, j_1) step(j_1+1, j_2) ... a_{j_k+1, end}."""
    ring = A.ring
    pool = list(pool)
    acc = ring.zero
    for k in range(len(pool) + 1):
        for subset in combinations(pool, k):
            word = ring.one
            row = first_row
            for j in subset:
                word = word * step(row, j)
                row = j + 1
            acc = acc + word * A.entry(row, end)
    return acc


def convergents_explicit(A: NcMatrix):
    """(P_n, Q_n) as the displayed increasing-chain sums."""
    n = A.n_rows
    P = chain_sum(A, 1, range(1, n), n)
    Q = A.ring.one if n == 1 else chain_sum(A, 2, range(2, n), n)
    return P, Q


def convergents_recurrence(A: NcMatrix):
    """All (P_0..P_n, Q_1..Q_n) by the additive recurrences
    P_k = sum_{s<k} P_s a_{s+1,k} and Q_k = sum_{1<=s<k} Q_s a_{s+1,k}."""
    return _recurrence(A, 0), _recurrence(A, 1)


def _recurrence(A: NcMatrix, start: int) -> list:
    """X_start = 1 and X_k = sum_{start<=s<k} X_s a_{s+1,k} up to k = n,
    with None below ``start``."""
    ring = A.ring
    X = [None] * start + [ring.one]
    for k in range(start + 1, A.n_rows + 1):
        acc = ring.zero
        for s in range(start, k):
            acc = acc + X[s] * A.entry(s + 1, k)
        X.append(acc)
    return X


def jacobi_matrix(ring: ScalarRing, diag: Sequence) -> NcMatrix:
    """Tridiagonal normal form: given diagonal, ones above, -1 below."""
    n = len(diag)
    upper = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if j == i:
                upper[(i, j)] = diag[i - 1]
            elif j == i + 1:
                upper[(i, j)] = ring.one
            else:
                upper[(i, j)] = ring.zero
    return almost_triangular(ring, upper, n)


def jacobi_convergents(ring: ScalarRing, diag: Sequence):
    """Three-term recurrences of the tridiagonal case:
    P_k = P_{k-1} a_k + P_{k-2}, Q_k = Q_{k-1} a_k + Q_{k-2}."""
    return _three_term(ring, diag, 0), _three_term(ring, diag, 1)


def _three_term(ring: ScalarRing, diag: Sequence, start: int) -> list:
    """X_start = 1, X_{start+1} = a_{start+1} and X_k = X_{k-1} a_k + X_{k-2}
    up to k = len(diag), with None below ``start``."""
    X = [None] * start + [ring.one]
    for k in range(start + 1, len(diag) + 1):
        a = ring.coerce(diag[k - 1])
        X.append(a if k == start + 1 else X[k - 1] * a + X[k - 2])
    return X


# ---------------------------------------------------------------------------
# nilpotent upper-triangular realization of the commutator condition


def heisenberg_diagonal(draw) -> MatScalar:
    """One diagonal entry: the 3x3 unipotent upper-triangular matrix
    [[1, alpha, gamma], [0, 1, beta], [0, 0, 1]].  Commutators of two
    such entries are central, multiply to zero, and absorb unipotent
    diagonal factors; all three properties are needed for the
    descending-product identity."""
    alpha = draw.scalar(Rationals())
    beta = draw.scalar(Rationals())
    gamma = draw.scalar(Rationals())
    return MatScalar([[1, alpha, gamma], [0, 1, beta], [0, 0, 1]])


def commutator_matrix(ring: ScalarRing, diag: Sequence) -> NcMatrix:
    """Almost-triangular matrix whose strict upper entries are the
    commutators a_{ij} = a_jj a_ii - a_ii a_jj of its diagonal."""
    n = len(diag)
    upper = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i == j:
                upper[(i, j)] = diag[i - 1]
            else:
                upper[(i, j)] = diag[j - 1] * diag[i - 1] - diag[i - 1] * diag[j - 1]
    return almost_triangular(ring, upper, n)


def descending_diagonal_product(diag: Sequence):
    """The descending product a_nn ... a_11 of the diagonal entries."""
    return reduce(mul, reversed(diag))


# ---------------------------------------------------------------------------
# formal-series ratio over the t-graded instantiation


def graded_series_matrix(draw, base: ScalarRing, order: int, size: int):
    """Size x size almost-triangular matrix over order-truncated series
    with coefficients in ``base``, whose diagonal entries are 1 + t M
    and strict upper entries t M."""
    T = TruncatedSeriesRing(base, order)
    upper = {}
    for i in range(1, size + 1):
        for j in range(i, size + 1):
            m = draw.scalar(base)
            lead = base.one if i == j else base.zero
            upper[(i, j)] = T.element([lead, m][: order + 1])
    return almost_triangular(T, upper, size)


def series_numerator(A: NcMatrix):
    """Truncation of the infinite numerator series: terms over rows
    r = 1..size, chains bounded strictly below r-1, each closed by the
    descending inverse tail of the leading diagonal."""
    return _series_sum(A, 1)


def series_denominator(A: NcMatrix):
    """The numerator series with every chain starting at row 2."""
    return _series_sum(A, 2)


def _series_sum(A: NcMatrix, first_row: int):
    """sum over rows r >= first_row of the row-r chain sum
    chain_sum(A, first_row, range(first_row, r - 1), r) times the inverse
    tail a_rr^-1 ... a_11^-1.  The chain sums come from the prefix sums
    P(j) = chain_sum(A, first_row, range(first_row, j), j), which satisfy
    P(j) = a_{first_row,j} + sum_{first_row<=i<j} P(i) a_{i+1,j} (split a
    chain at its last step): the row-r chain sum is a_{first_row,r} +
    sum_{first_row<=j<=r-2} P(j) a_{j+1,r}, and P(r) is that plus
    P(r-1) a_rr.  Each P(j) is a sum of the same words as the
    enumeration, so the value is the same."""
    ring = A.ring
    e = A.entry
    acc = ring.zero
    inv_tail = ring.one
    prefix = {}  # j -> P(j)
    for r in range(1, A.n_rows + 1):
        inv_tail = ring.invert(e(r, r)) * inv_tail
        if r < first_row:
            continue
        term = e(first_row, r)
        for j in range(first_row, r - 1):
            term = term + prefix[j] * e(j + 1, r)
        prefix[r] = term + prefix[r - 1] * e(r, r) if r > first_row else term
        acc = acc + term * inv_tail
    return acc


# ---------------------------------------------------------------------------
# corner products of a general almost-triangular matrix


def d_product(B: NcMatrix, start: int, end: int):
    """D(start..end): alternating product of trailing-corner
    quasideterminants and inverted subdiagonal entries of the principal
    submatrix on labels start..end; D over an empty range is one."""
    if start > end:
        return B.ring.one
    return _d_suffixes(B, start, end)[start]


def _d_suffixes(B: NcMatrix, start: int, end: int) -> dict:
    """D(k..end) for every k in start..end, built from the right by
    D(k..end) = |B_{k..end,k..end}|_kk b_{k+1,k}^{-1} D(k+1..end), the
    corners read off the trailing chain of B on start..end."""
    ring = B.ring
    span = range(start, end + 1)
    corners = trailing_chain(B.select(span, span))
    out = {end: corners[-1]}
    for k in range(end - 1, start - 1, -1):
        out[k] = corners[k - start] * ring.invert(B.entry(k + 1, k)) * out[k + 1]
    return out


def corner_alternating_sum(B: NcMatrix):
    """The corner quasideterminant at (1, n) as an explicit polynomial in
    the entries and inverted subdiagonals: chains of upper entries joined
    by inverted subdiagonal steps, signed by the number of steps."""
    ring = B.ring
    n = B.n_rows

    def step(row, j):
        return -(B.entry(row, j) * ring.invert(B.entry(j + 1, j)))

    return _chains(B, step, 1, range(1, n), n)


def general_corner_product(B: NcMatrix) -> dict:
    """Every quasideterminant at (i, j), i <= j, keyed by (i, j), as a
    product of D values:
    (-1)^(j-i) [b_{i,i-1}] D(1..i-1)^{-1} D(1..n) D(j+1..n)^{-1} [b_{j+1,j}],
    the bracketed subdiagonal factors present only when the flanking
    ranges are nonempty.  One table of trailing corner values gives
    D(1..n) and every D(j+1..n); each D(1..m), m < n, is computed and
    inverted once."""
    ring = B.ring
    n = B.n_rows
    tail = _d_suffixes(B, 1, n)
    # left[i] = b_{i,i-1} D(1..i-1)^{-1}, right[j] = D(j+1..n)^{-1} b_{j+1,j}
    left = {i: B.entry(i, i - 1) * ring.invert(d_product(B, 1, i - 1)) for i in range(2, n + 1)}
    right = {j: ring.invert(tail[j + 1]) * B.entry(j + 1, j) for j in range(1, n)}
    values = {}
    for i in range(1, n + 1):
        row = tail[1] if i == 1 else left[i] * tail[1]
        for j in range(i, n + 1):
            value = row if j == n else row * right[j]
            values[(i, j)] = -value if (j - i) % 2 else value
    return values


# ---------------------------------------------------------------------------
# the q-series coefficient identity


def qz_series_ring(order: int) -> TruncatedSeriesRing:
    return TruncatedSeriesRing(QRationalFunctions(), order, variable="z")


def rr_continued_fraction(order: int, depth: int):
    """Depth-truncated tower 1/(1 + q z/(1 + q^2 z/(1 + ...))) as an
    exact series in z with rational-function coefficients in q."""
    T = qz_series_ring(order)
    F = T.one
    base = T.base
    z = T.variable_element()
    for i in range(depth, 0, -1):
        qi = T.element([base.q(i)])
        F = T.one + (qi * z) * T.invert(F)
    return T.invert(F)


def _q_factorial_denominator(k: int) -> QRat:
    """(1 - q)(1 - q^2)...(1 - q^k)."""
    acc = (1,)
    for i in range(1, k + 1):
        acc = poly_mul(acc, (1, *[0] * (i - 1), -1))
    return QRat(acc)


def rr_ratio_sides(order: int):
    """The closed-form numerator and denominator series: coefficients
    q^{k(k+1)} resp. q^{k^2} over (1-q)...(1-q^k)."""
    T = qz_series_ring(order)
    base = T.base
    num = [base.one]
    den = [base.one]
    for k in range(1, order + 1):
        fac = base.try_invert(_q_factorial_denominator(k))
        num.append(base.q(k * (k + 1)) * fac)
        den.append(base.q(k * k) * fac)
    return T.element(num), T.element(den)


def rr_sides(order: int, depth: int):
    """(continued-fraction series, closed-form ratio series)."""
    lhs = rr_continued_fraction(order, depth)
    num, den = rr_ratio_sides(order)
    T = num.ring
    rhs = num * T.invert(den)
    return lhs, rhs
