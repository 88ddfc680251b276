"""Exact linear algebra over plain rational matrices (ints or Fractions).

These routines back the flattened inversion of matrices over rational
and matrix-scalar rings, the Schur-complement route to their
quasideterminants, the commutative determinant checks and the kernel
construction used by the duality identity.  Everything is exact.  The
inverse, the Schur complement, the rank and the right kernel share one
fraction-free Gauss-Jordan core on Python ints; the determinant runs its
own Bareiss elimination so it stays an independent route from that core.

The flattening of a matrix over a rational-embeddable ring reaches this
module as an int matrix ``num`` with one positive scale per row: the
rational matrix is ``diag(scales)^-1 num``.  Results come back as an int
matrix over one nonzero denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_rows(rows):
    """Each row times the lcm of its denominators: (int rows, row scales)."""
    out, scales = [], []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return out, scales


def _eliminate(m, n_cols, n_pivot_rows=None):
    """Fraction-free Gauss-Jordan elimination of the int matrix ``m``, in place.

    Pivots are sought in the first ``n_cols`` columns, at the first
    nonzero entry on or below the current row and above row
    ``n_pivot_rows`` (default: every row).  Each step with pivot p
    replaces every other row by ``(p * row - f * pivot_row) // prev``,
    where f is the row's entry in the pivot column and prev the previous
    pivot.  By Sylvester's identity (Bareiss, Math. Comp. 22, 1968) every
    entry stays an integer minor of the input, so the division is exact.
    Returns the pivot columns and the last pivot p: every pivot row ends
    with p on its pivot, and row r divided by p is row r of the reduced
    row echelon form.  A row at or past ``n_pivot_rows`` ends as p times
    itself minus its projection onto the pivot rows, so with the leading
    square block nonsingular its trailing part is p times the Schur
    complement of that block.
    """
    n_rows = len(m) if n_pivot_rows is None else n_pivot_rows
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
            continue
        m[rank], m[r] = m[r], m[rank]
        prow = m[rank]
        p = prow[col]
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


def invert_scaled(num, scales):
    """Inverse of ``diag(scales)^-1 num`` for a square int matrix ``num``.

    Returns ``(inv, den)`` with the inverse equal to ``inv / den``, or
    None when singular.
    """
    n = len(num)
    # elimination takes [num | diag(scales)] to [p I | p num^-1 diag(scales)]
    m = [
        [*row, *(scales[i] if j == i else 0 for j in range(n))]
        for i, row in enumerate(num)
    ]
    pivots, p = _eliminate(m, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in m], p


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
    """Determinant via Bareiss fraction-free elimination.

    Rows are scaled to integers first (tracking the scale), so every
    interior division in the elimination is exact integer division.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        m.append([int(x * mult) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    swap = r
                    break
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], 1) / scale


def rational_rank(rows) -> int:
    """Rank of a rational matrix."""
    m, _ = _integer_rows(rows)
    if not m:
        return 0
    return len(_eliminate(m, len(m[0]))[0])


def right_kernel(rows):
    """Basis (as columns) of {v : M v = 0} for a rational matrix M.

    Returns a list of basis vectors, each a list of Fractions of length
    n_cols: one per free column of the reduced row echelon form.
    """
    m, _ = _integer_rows(rows)
    if not m:
        return []
    n_cols = len(m[0])
    pivots, p = _eliminate(m, n_cols)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][free], p)
        basis.append(v)
    return basis
