"""Exact linear algebra over plain rational matrices (ints or Fractions).

These routines back the flattened solves and inverses of matrices over
rational and matrix-scalar rings, the Schur-complement route to their
quasideterminants, the commutative determinant checks and the kernel
construction used by the duality identity.  Everything is exact.  The
solve (and the inverse, a solve of the identity), the Schur complement,
the rank and the right kernel share one fraction-free elimination core
on Python ints (Gauss-Jordan, or forward only for the Schur complement);
the determinant runs its own Bareiss elimination so it stays an
independent route from that core.

The flattening of a matrix over a rational-embeddable ring
(``ScalarRing.flatten_rows``) reaches this module as an int matrix
``num`` with one positive scale per row: the rational matrix is
``diag(scales)^-1 num``.  Here ``_integer_rows`` clears rows of ints or
Fractions to that form; ``Rationals.flatten_rows`` clears Q rows itself,
from each ``Rat``'s two int fields, because every d = 1
quasideterminant flattens there and ``_integer_rows`` takes 1.5 times as
long (a 4 x 4 Q flatten: 6.0 against 4.0 us, CPython 3.11 on a
2-core x86-64 host).  Results come back as ints over one nonzero
denominator, except the determinant (one Fraction) and
``invert_rational``'s Fraction matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def _integer_rows(rows):
    """Each row times the lcm of its denominators: (int rows, row scales)."""
    out, scales = [], []
    for row in rows:
        pairs = [x.as_integer_ratio() for x in row]
        scale = lcm(*[den for _, den in pairs])
        out.append([num * (scale // den) for num, den in pairs])
        scales.append(scale)
    return out, scales


def _eliminate(m, n_cols, n_pivot_rows=None):
    """Fraction-free elimination of the int matrix ``m``, in place.

    Pivots are sought in the first ``n_cols`` columns, at the first
    nonzero entry on or below the current row and above row
    ``n_pivot_rows`` (default: every row).  Each step with pivot p
    replaces a row by ``(p * row - f * pivot_row) // prev``, where f is
    the row's entry in the pivot column and prev the previous pivot.  By
    Sylvester's identity (Bareiss, Math. Comp. 22, 1968) every entry
    stays an integer minor of the input, so the division is exact.
    Returns the pivot columns and the last pivot p.

    By default this is Gauss-Jordan: every other row is updated, every
    pivot row ends with p on its pivot, and row r divided by p is row r
    of the reduced row echelon form.  With ``n_pivot_rows`` it is forward
    only: a step updates the rows below the pivot row, right of the pivot
    column, and stops at the first column without a pivot.  A row at or
    past ``n_pivot_rows`` evolves as under Gauss-Jordan, so with the
    leading square block nonsingular its part right of the last pivot
    column is p times the Schur complement of that block.
    """
    forward = n_pivot_rows is not None
    n_rows = n_pivot_rows if forward else len(m)
    pivots = []
    prev = 1
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        for r in range(rank, n_rows):
            if m[r][col]:
                break
        else:
            if forward:
                break
            continue
        m[rank], m[r] = m[r], m[rank]
        prow = m[rank]
        p = prow[col]
        if forward:
            # entries up to the pivot column are never read again
            start = col + 1
            tail = prow[start:]
            for row in m[rank + 1 :]:
                f = row[col]
                if f:
                    row[start:] = [
                        (p * x - f * y) // prev for x, y in zip(row[start:], tail)
                    ]
                elif p != prev:
                    row[start:] = [p * x // prev for x in row[start:]]
        else:
            for i, row in enumerate(m):
                if i == rank:
                    continue
                f = row[col]
                if f:
                    m[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
                elif p != prev:
                    m[i] = [p * x // prev for x in row]
        pivots.append(col)
        prev = p
    return pivots, prev


def solve_rows(m):
    """Solve ``num X = rhs`` from the int rows ``m = [num | rhs]`` of a
    square ``num`` (eliminated in place).

    Returns ``(x, den)`` with X equal to ``x / den``, or None when ``num``
    is singular.
    """
    n = len(m)
    # elimination takes [num | rhs] to [p I | p num^-1 rhs]
    pivots, p = _eliminate(m, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in m], p


def invert_scaled(num, scales):
    """Inverse of ``diag(scales)^-1 num`` for a square int matrix ``num``,
    which is ``num^-1 diag(scales)``.

    Returns ``(inv, den)`` with the inverse equal to ``inv / den``, or
    None when singular.
    """
    n = len(num)
    return solve_rows(
        [[*row, *(scales[i] if j == i else 0 for j in range(n))] for i, row in enumerate(num)]
    )


def schur_complement(num, scales, k):
    """Schur complement of the leading block of ``diag(scales)^-1 num``.

    ``num`` is a square int matrix whose last ``k`` rows share one scale;
    the leading block is everything but the last k rows and columns.
    Returns ``(block, den)``, the k x k complement being ``block / den``,
    or None when the leading block is singular.
    """
    lead = len(num) - k
    m = [list(row) for row in num]
    pivots, p = _eliminate(m, lead, lead)
    if len(pivots) < lead:
        return None
    # the trailing block is now p * (N22 - N21 N11^-1 N12), and the
    # complement is that bracket divided by the trailing rows' scale
    return [row[lead:] for row in m[lead:]], p * scales[-1]


def invert_rational(rows):
    """Inverse of a square rational matrix, or None when singular."""
    inv = invert_scaled(*_integer_rows(rows))
    if inv is None:
        return None
    inv, p = inv
    return [[Fraction(x, p) for x in row] for row in inv]


def det_bareiss(rows) -> Fraction:
    """Determinant of a square rational matrix via Bareiss elimination:
    the last pivot of the int rows over the product of their scales.  The
    loop is its own, not ``_eliminate``, so the determinant stays a route
    independent of the Schur complement it is checked against."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    m, scales = _integer_rows(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        swap = next((r for r in range(k, n) if m[r][k]), None)
        if swap is None:
            return Fraction(0)
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p = m[k][k]
        tail = m[k][k + 1 :]
        for row in m[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = p
    return Fraction(sign * m[-1][-1], prod(scales))


def rational_rank(rows) -> int:
    """Rank of a rational matrix."""
    m, _ = _integer_rows(rows)
    if not m:
        return 0
    return len(_eliminate(m, len(m[0]))[0])


def right_kernel(rows):
    """Basis of {v : M v = 0} for a rational matrix M, over one denominator.

    Returns ``(basis, den)``: int vectors of length n_cols, one per free
    column of the reduced row echelon form, each divided by the nonzero
    int ``den`` (the last pivot of the elimination).
    """
    m, _ = _integer_rows(rows)
    if not m:
        return [], 1
    n_cols = len(m[0])
    pivots, p = _eliminate(m, n_cols)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [0] * n_cols
        v[free] = p
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][free]
        basis.append(v)
    return basis, p
