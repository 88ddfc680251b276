"""Left and right quasi-Plucker coordinates and their applications:
normal forms under row transformations, triangular-diagonal-triangular
decomposition, flag coordinates and the kernel construction pairing a
wide matrix with a tall one annihilating it.

A left coordinate of a k x n matrix (k < n) attaches to a column pair
(i, j) and a set I of k-1 further columns; it is the product of an
inverted bordered quasideterminant at column i with the matching one at
column j.  The choice of the bordering row does not matter (a verified
identity), so ``row`` may be left unset to try rows in ascending order.
Right coordinates mirror this for n x k matrices with the inversion on
the other side.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .exactlin import right_kernel
from .matrix import NcMatrix, flatten_matrix, unflatten_matrix
from .qdet import qdet, trailing_chain
from .rings import DomainError


def _bordered_cols(A: NcMatrix, lead_col, index_set) -> NcMatrix:
    """k x k matrix [column lead_col | columns of index_set], with fresh
    column labels 1..k so a repeated column is representable."""
    cols = [lead_col] + list(index_set)
    if len(cols) != A.n_rows:
        raise ValueError("need |I| = k - 1 bordering columns")
    entries = [
        [A.entries[r][A._col_pos(c)] for c in cols] for r in range(A.n_rows)
    ]
    return NcMatrix(A.ring, entries, A.row_labels, range(1, len(cols) + 1))


def _bordered_rows(B: NcMatrix, lead_row, index_set) -> NcMatrix:
    cols = B.col_labels
    rows = [lead_row] + list(index_set)
    if len(rows) != B.n_cols:
        raise ValueError("need |I| = k - 1 bordering rows")
    entries = [[B.entry(r, c) for c in cols] for r in rows]
    return NcMatrix(B.ring, entries, range(1, len(rows) + 1), cols)


def left_qpc(A: NcMatrix, i, j, index_set: Iterable, row=None):
    """Left coordinate p at columns (i, j) with bordering set I, i not in I.

    With ``row`` unset, bordering rows are tried in ascending order and
    the first defined value wins; the value is row-independent.
    """
    index_set = tuple(index_set)
    if i in index_set:
        raise ValueError("i must lie outside the index set")
    if A.n_rows >= A.n_cols:
        raise ValueError("left coordinates need a wide matrix (k < n)")
    Mi = _bordered_cols(A, i, index_set)
    Mj = _bordered_cols(A, j, index_set)
    rows = [row] if row is not None else list(A.row_labels)
    last_err: Optional[DomainError] = None
    for s in rows:
        try:
            first = A.ring.invert(qdet(Mi, s, 1))
            second = qdet(Mj, s, 1)
            return first * second
        except DomainError as err:
            last_err = err
    raise last_err if last_err is not None else DomainError("no valid bordering row")


def right_qpc(B: NcMatrix, i, j, index_set: Iterable, col=None):
    """Right coordinate r at rows (i, j) with bordering set I, j not in I."""
    index_set = tuple(index_set)
    if j in index_set:
        raise ValueError("j must lie outside the index set")
    if B.n_cols >= B.n_rows:
        raise ValueError("right coordinates need a tall matrix (k < n)")
    Mi = _bordered_rows(B, i, index_set)
    Mj = _bordered_rows(B, j, index_set)
    cols = [col] if col is not None else list(B.col_labels)
    last_err: Optional[DomainError] = None
    for t in cols:
        try:
            first = qdet(Mi, 1, t)
            second = B.ring.invert(qdet(Mj, 1, t))
            return first * second
        except DomainError as err:
            last_err = err
    raise last_err if last_err is not None else DomainError("no valid bordering column")


def left_qpc_values_over_rows(A, i, j, index_set) -> list:
    """The coordinate computed at every bordering row that defines it."""
    out = []
    for s in A.row_labels:
        try:
            out.append(left_qpc(A, i, j, index_set, row=s))
        except DomainError:
            pass
    return out


def right_qpc_values_over_cols(B, i, j, index_set) -> list:
    out = []
    for t in B.col_labels:
        try:
            out.append(right_qpc(B, i, j, index_set, col=t))
        except DomainError:
            pass
    return out


def normal_form(A: NcMatrix):
    """Row-transformation normal form (C, witness).

    witness is the leading k x k block B; C = B^{-1} A has the identity
    in its leading block and left coordinates with bordering sets
    {1..k} minus the row's own column elsewhere.
    """
    k = A.n_rows
    lead_cols = A.col_labels[:k]
    B = A.select(A.row_labels, lead_cols)
    C = B.inverse() * A
    return C, B


def gauss_decompose(A: NcMatrix):
    """Unitriangular-diagonal-unitriangular factorization A = U Y L.

    Y carries the corner quasideterminants of the trailing principal
    submatrices; U entries above the diagonal are right coordinates of
    trailing column bands, L entries below are left coordinates of
    trailing row bands.  DomainError when a diagonal factor is missing
    or singular.
    """
    if not A.is_square():
        raise ValueError("square matrix required")
    ring = A.ring
    n = A.n_rows
    labels = list(A.row_labels)
    Y = [[ring.zero] * n for _ in range(n)]
    for pos, (k, yk) in enumerate(zip(labels, trailing_chain(A))):
        if ring.try_invert(yk) is None:
            raise DomainError("diagonal factor not invertible", payload=k)
        Y[pos][pos] = yk
    U = [[ring.one if r == c else ring.zero for c in range(n)] for r in range(n)]
    L = [list(row) for row in U]
    for b_pos in range(1, n):
        beta = labels[b_pos]
        tail = labels[b_pos + 1 :]
        B_beta = A.select(labels, labels[b_pos:])
        C_beta = A.select(labels[b_pos:], labels)
        for a_pos in range(b_pos):
            alpha = labels[a_pos]
            U[a_pos][b_pos] = right_qpc(B_beta, alpha, beta, tail)
            L[b_pos][a_pos] = left_qpc(C_beta, beta, alpha, tail)
    return tuple(NcMatrix(ring, M, labels, labels) for M in (U, Y, L))


def flag_coordinate(A: NcMatrix, cols: Sequence):
    """Flag coordinate for the column tuple (j_1, ..., j_k): the
    quasideterminant of those columns at pivot (last row, j_1)."""
    cols = list(cols)
    if len(cols) != A.n_rows or len(set(cols)) != len(cols):
        raise ValueError("need k distinct columns")
    sub = A.select(A.row_labels, cols)
    return qdet(sub, A.row_labels[-1], cols[0])


def embed_upper_identity(A: NcMatrix) -> NcMatrix:
    """The n x n matrix [[A], [0 | E]] stacking A on a shifted identity.

    A is k x n with columns labeled 1..n; rows k+1..n have a single one
    in the column matching their label.
    """
    ring = A.ring
    k, n = A.n_rows, A.n_cols
    if list(A.col_labels) != list(range(1, n + 1)):
        raise ValueError("canonical column labels 1..n required")
    rows = [list(r) for r in A.entries]
    for extra in range(k + 1, n + 1):
        rows.append([ring.one if c == extra else ring.zero for c in range(1, n + 1)])
    return NcMatrix(ring, rows, range(1, n + 1), range(1, n + 1))


def kernel_complement(A: NcMatrix) -> Optional[NcMatrix]:
    """A tall matrix B with A B = 0, built from the right kernel of the
    rational expansion of A.

    Returns None when the kernel dimension is not the generic
    (n - k) * flat_dim, which signals a degenerate sample to discard.
    """
    ring = A.ring
    dd = ring.flat_dim
    if dd is None:
        raise TypeError("kernel construction needs a rational-embeddable ring")
    k, n = A.n_rows, A.n_cols
    # the row scales do not move the kernel
    basis, den = right_kernel(flatten_matrix(ring, A.entries)[0])
    if len(basis) != (n - k) * dd:
        return None
    # the basis vectors are the columns of the flattened B
    return unflatten_matrix(
        ring, list(zip(*basis)), den, n, n - k, range(1, n + 1), range(1, n - k + 1)
    )
