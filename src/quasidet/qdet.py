"""The quasideterminant calculus: definitions, inverses, heredity,
pivot-block reduction, linear systems and the matrix identity for a
matrix substituted into its own characteristic expressions.

Two routes compute a quasideterminant: the defining recursion over
quasiminors (memoized; exponential blowup without memoization) and the
minor-inverse formula a_pq - r B c through the inverse B of the deleted
submatrix (polynomial once the ring can invert matrices).  Over a ring
that embeds in k x k rational matrices the minor-inverse formula is the
k x k Schur complement of the flattened minor (heredity, in its
commutative shadow), read off one fraction-free elimination with no
inverse built.  The routes agree wherever both are defined, which the
test harness checks exhaustively at small sizes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence

from .exactlin import schur_complement
from .matrix import MatrixRing, NcMatrix, flatten_matrix, matrix_times_col
from .rings import DomainError

_UNDEF = object()


def qdet(A: NcMatrix, p, q, method: str = "auto"):
    """Quasideterminant of A at pivot row p, pivot column q.

    method: "recursive" (defining recursion), "minor_inverse" (via the
    inverse of the pivot-deleted submatrix; over a ring with ``flat_dim``
    this is the Schur complement of the flattened minor) or "auto"
    (minor_inverse, which every supported ring can evaluate).  Both raise
    DomainError where the route is undefined; minor_inverse does so
    exactly when the pivot-deleted submatrix is singular.
    """
    if not A.is_square():
        raise ValueError("quasideterminants need a square matrix")
    A._row_pos(p), A._col_pos(q)
    if method == "recursive":
        return _qdet_recursive(A, A.row_labels, A.col_labels, p, q, {})
    if method in ("auto", "minor_inverse"):
        return _qdet_minor_inverse(A, p, q)
    raise ValueError(f"unknown method {method!r}")


def _qdet_minor_inverse(A: NcMatrix, p, q):
    if A.n_rows == 1:
        return A.entry(p, q)
    ring = A.ring
    if ring.flat_dim is not None:
        # pivot row and column last: |A|_pq is the trailing Schur complement
        rows = [r for r in A.row_labels if r != p] + [p]
        cols = [c for c in A.col_labels if c != q] + [q]
        schur = schur_complement(*flatten_matrix(A.reorder(rows, cols)), ring.flat_dim)
        if schur is None:
            raise DomainError(
                "matrix is singular over " + ring.name, payload=A.delete_row_col(p, q)
            )
        return ring.unflatten(schur)
    minor = A.delete_row_col(p, q)
    B = minor.inverse()  # rows: minor's col labels, cols: minor's row labels
    acc = A.entry(p, q)
    for i in minor.row_labels:
        for j in minor.col_labels:
            acc = acc - A.entry(p, j) * B.entry(j, i) * A.entry(i, q)
    return acc


def _qdet_recursive(A, rows, cols, p, q, memo):
    key = (rows, cols, p, q)
    if key in memo:
        val = memo[key]
        if val is _UNDEF:
            raise DomainError("inner quasiminor undefined", payload=key)
        return val
    if len(rows) == 1:
        val = A.entry(p, q)
        memo[key] = val
        return val
    sub_rows = tuple(r for r in rows if r != p)
    sub_cols = tuple(c for c in cols if c != q)
    ring = A.ring
    acc = A.entry(p, q)
    try:
        for i in sub_rows:
            for j in sub_cols:
                inner = _qdet_recursive(A, sub_rows, sub_cols, i, j, memo)
                inner_inv = ring.try_invert(inner)
                if inner_inv is None:
                    raise DomainError(
                        "inner quasiminor not invertible", payload=(sub_rows, sub_cols, i, j)
                    )
                acc = acc - A.entry(p, j) * inner_inv * A.entry(i, q)
    except DomainError:
        memo[key] = _UNDEF
        raise
    memo[key] = acc
    return acc


def qdet_expansion(A: NcMatrix, p, q, mode: str = "row", index=None):
    """Quasideterminant by expansion along another row or column.

    mode "row" with expansion row k != p:
        a_pq - sum_{j != q} a_pj (|A^{pq}|_{kj})^{-1} |A^{pj}|_{kq}
    mode "col" with expansion column l != q:
        a_pq - sum_{i != p} |A^{iq}|_{pi} (|A^{pq}|_{il})^{-1} a_iq
    The column mode uses row labels as pivot columns of quasiminors, so
    it requires matching row and column label sets.
    """
    if not A.is_square():
        raise ValueError("square matrix required")
    ring = A.ring
    if A.n_rows == 1:
        return A.entry(p, q)
    if mode == "row":
        k = index if index is not None else min(r for r in A.row_labels if r != p)
        if k == p:
            raise ValueError("expansion row must differ from the pivot row")
        acc = A.entry(p, q)
        for j in A.col_labels:
            if j == q:
                continue
            first = qdet(A.delete_row_col(p, q), k, j)
            second = qdet(A.delete_row_col(p, j), k, q)
            acc = acc - A.entry(p, j) * ring.invert(first) * second
        return acc
    if mode == "col":
        l = index if index is not None else min(c for c in A.col_labels if c != q)
        if l == q:
            raise ValueError("expansion column must differ from the pivot column")
        acc = A.entry(p, q)
        for i in A.row_labels:
            if i == p:
                continue
            first = qdet(A.delete_row_col(i, q), p, l)
            second = qdet(A.delete_row_col(p, q), i, l)
            acc = acc - first * ring.invert(second) * A.entry(i, q)
        return acc
    raise ValueError(f"unknown mode {mode!r}")


def matrix_inverse(A: NcMatrix) -> NcMatrix:
    """Inverse of A by quasideterminants: entry (i, j) is the inverse of
    the (j, i) quasideterminant, the Hadamard-inverse-of-quasideterminants
    route.  It agrees with ``A.inverse()`` wherever every quasideterminant
    is defined and invertible."""
    if not A.is_square():
        raise ValueError("square matrix required")
    ring = A.ring
    rows = []
    for i in A.col_labels:
        row = []
        for j in A.row_labels:
            row.append(ring.invert(qdet(A, j, i)))
        rows.append(row)
    return NcMatrix(ring, rows, A.col_labels, A.row_labels)


def hadamard_inverse(A: NcMatrix) -> NcMatrix:
    """Entrywise transposed inverse: entry (j, i) is a_{ij}^{-1}."""
    ring = A.ring
    rows = []
    for j in A.col_labels:
        row = []
        for i in A.row_labels:
            row.append(ring.invert(A.entry(i, j)))
        rows.append(row)
    return NcMatrix(ring, rows, A.col_labels, A.row_labels)


def heredity_qdet(
    A: NcMatrix,
    row_sizes: Sequence[int],
    col_sizes: Sequence[int],
    block_pivot: tuple,
    inner_pivot: tuple,
):
    """Quasideterminant in two steps through a block partition.

    First the block-level quasideterminant at block position
    ``block_pivot`` (a matrix), then the ordinary quasideterminant of
    that block at ``inner_pivot`` (labels of A).  Equals
    qdet(A, *inner_pivot) whenever defined; the pivot block must be
    square.
    """
    blocks, row_groups, col_groups = A.block_partition(row_sizes, col_sizes)
    bp, bq = block_pivot
    if len(row_groups[bp - 1]) != len(col_groups[bq - 1]):
        raise ValueError("pivot block must be square")
    S = block_qdet(A, row_groups, col_groups, bp, bq)
    return qdet(S, inner_pivot[0], inner_pivot[1])


def block_qdet(A: NcMatrix, row_groups, col_groups, bp: int, bq: int) -> NcMatrix:
    """Block-level quasideterminant at block (bp, bq), as a matrix.

    Computed by the minor-inverse formula at block granularity: the
    inverse of A with the pivot block row and column removed, contracted
    against the pivot block's row and column bands.
    """
    pivot_rows = row_groups[bp - 1]
    pivot_cols = col_groups[bq - 1]
    S = A.select(pivot_rows, pivot_cols)
    if len(row_groups) == 1 and len(col_groups) == 1:
        return S
    M = A.delete_sets(pivot_rows, pivot_cols)
    if not M.is_square():
        raise ValueError("complementary block matrix must be square")
    B = M.inverse()
    for i, rg in enumerate(row_groups, start=1):
        if i == bp:
            continue
        for j, cg in enumerate(col_groups, start=1):
            if j == bq:
                continue
            Apj = A.select(pivot_rows, cg)
            Bji = B.select(cg, rg)
            Aiq = A.select(rg, pivot_cols)
            prod = (Apj * Bji) * Aiq
            S = NcMatrix(
                A.ring,
                [
                    [x - y for x, y in zip(r1, r2)]
                    for r1, r2 in zip(S.entries, prod.entries)
                ],
                S.row_labels,
                S.col_labels,
            )
    return S


def heredity_via_block_ring(
    A: NcMatrix, block_size: int, block_pivot: tuple, inner_pivot: tuple
):
    """Uniform-partition heredity through the ring of blocks.

    The blocks become scalars of a matrix ring, the block-level
    quasideterminant is computed there, and the inner quasideterminant
    is taken of the resulting block.  Cross-checks ``heredity_qdet``.
    """
    n = A.n_rows
    if n % block_size or A.n_cols != n:
        raise ValueError("uniform partition requires block_size | n")
    s = n // block_size
    blocks, row_groups, col_groups = A.block_partition(
        [block_size] * s, [block_size] * s
    )
    R = MatrixRing(A.ring, block_size)
    canonical = [
        [NcMatrix(A.ring, blocks[i][j].entries) for j in range(s)] for i in range(s)
    ]
    tilde = NcMatrix(R, canonical)
    bp, bq = block_pivot
    inner = qdet(tilde, bp, bq)
    relabeled = NcMatrix(
        A.ring, inner.entries, row_groups[bp - 1], col_groups[bq - 1]
    )
    return qdet(relabeled, inner_pivot[0], inner_pivot[1])


def sylvester_matrix(A: NcMatrix, pivot_set: Iterable) -> NcMatrix:
    """Matrix of bordered quasideterminants with pivot block A_{K,K}.

    Entry (p, q), for p, q outside K, is the quasideterminant at (p, q)
    of the submatrix on rows K + {p} and columns K + {q}.  With K empty
    this returns A itself.
    """
    K = list(pivot_set)
    if set(K) - set(A.row_labels) or set(K) - set(A.col_labels):
        raise KeyError("pivot set must be existing row and column labels")
    rows_out = [r for r in A.row_labels if r not in K]
    cols_out = [c for c in A.col_labels if c not in K]
    if not rows_out or not cols_out:
        raise ValueError("pivot set must leave at least one row and column")
    entries = []
    for p in rows_out:
        row = []
        for q in cols_out:
            bordered = A.select(K + [p], K + [q])
            row.append(qdet(bordered, p, q))
        entries.append(row)
    return NcMatrix(A.ring, entries, rows_out, cols_out)


def jacobi_factors(A: NcMatrix, P: Sequence, Q: Sequence, k, l):
    """The two quasiminor factors whose product is one.

    First factor: quasideterminant of A on rows P + {k}, columns
    Q + {l}, pivot (k, l).  Second: quasideterminant of the inverse of A
    on rows (all \\ Q), columns (all \\ P), pivot (l, k).  Requires
    matching row/column label sets and |P| = |Q|.
    """
    if set(A.row_labels) != set(A.col_labels):
        raise ValueError("matching label sets required")
    if len(P) != len(Q) or k in P or l in Q:
        raise ValueError("need |P| = |Q|, k outside P, l outside Q")
    B = A.inverse()
    first = qdet(A.select(list(P) + [k], list(Q) + [l]), k, l)
    rows_keep = [x for x in A.row_labels if x not in set(Q)]
    cols_keep = [x for x in A.col_labels if x not in set(P)]
    second = qdet(B.select(rows_keep, cols_keep), l, k)
    return first, second


def homological_sum_rows(A: NcMatrix, L: Sequence, M: Sequence, p, l):
    """sum_i qdet(A^{L, M\\{m_i}})_{p, m_i} * qdet(A)_{l, m_i}^{-1}.

    L is a set of row labels with p outside L, M a set of |L| + 1 column
    labels.  The value is one when p == l and zero otherwise (checked at
    configurations the harness has verified).
    """
    ring = A.ring
    M = list(M)
    if len(M) != len(list(L)) + 1:
        raise ValueError("need |M| = |L| + 1")
    if p in set(L):
        raise ValueError("p must lie outside L")
    acc = ring.zero
    for m_i in M:
        M_i = [m for m in M if m != m_i]
        sub = A.delete_sets(L, M_i)
        term = qdet(sub, p, m_i) * ring.invert(qdet(A, l, m_i))
        acc = acc + term
    return acc


def homological_sum_cols(A: NcMatrix, M: Sequence, L: Sequence, l, p):
    """sum_i qdet(A)_{m_i, l}^{-1} * qdet(A^{M\\{m_i}, L})_{m_i, p}.

    Transposed-role companion of ``homological_sum_rows``: M is a set of
    row labels, L a set of column labels with p outside L.
    """
    ring = A.ring
    M = list(M)
    if len(M) != len(list(L)) + 1:
        raise ValueError("need |M| = |L| + 1")
    if p in set(L):
        raise ValueError("p must lie outside L")
    acc = ring.zero
    for m_i in M:
        M_i = [m for m in M if m != m_i]
        sub = A.delete_sets(M_i, L)
        term = ring.invert(qdet(A, m_i, l)) * qdet(sub, m_i, p)
        acc = acc + term
    return acc


def replace_col(A: NcMatrix, j, column: Sequence) -> NcMatrix:
    pos = A._col_pos(j)
    if len(column) != A.n_rows:
        raise ValueError("column length mismatch")
    rows = [
        tuple(column[r] if c == pos else x for c, x in enumerate(row))
        for r, row in enumerate(A.entries)
    ]
    return NcMatrix(A.ring, rows, A.row_labels, A.col_labels)


def solve_system(A: NcMatrix, rhs: Sequence, method: str = "auto") -> list:
    """Solve A x = rhs; x_i = sum_j qdet(A)_{ji}^{-1} rhs_j.

    method "qdet" evaluates that sum literally; "auto" multiplies by the
    eliminated inverse (same value by the inverse-entry identity).
    """
    if not A.is_square() or len(rhs) != A.n_rows:
        raise ValueError("square system required")
    if method == "qdet":
        ring = A.ring
        out = []
        for i in A.col_labels:
            acc = ring.zero
            for pos, j in enumerate(A.row_labels):
                acc = acc + ring.invert(qdet(A, j, i)) * rhs[pos]
            out.append(acc)
        return out
    return matrix_times_col(A.inverse(), list(rhs))


def cramer_pair(A: NcMatrix, rhs: Sequence, i, j, x: Optional[Sequence] = None):
    """Both sides of the replaced-column identity at pivot (i, j).

    Returns (qdet(A)_{ij} * x_j, qdet(A_j(rhs))_{ij}); the two agree when
    defined.  x may be passed in to reuse a solved system.
    """
    if x is None:
        x = solve_system(A, rhs)
    xj = x[list(A.col_labels).index(j)]
    lhs = qdet(A, i, j) * xj
    rhs_val = qdet(replace_col(A, j, rhs), i, j)
    return lhs, rhs_val


def cayley_hamilton(A: NcMatrix) -> list:
    """Evaluate the characteristic quasideterminant expressions at the
    matrix itself.

    Entries are lifted to scalar multiples of the identity in the ring
    of n x n matrices over the entry ring, the central variable is
    replaced by the matrix, and the (i, j) quasideterminant of
    (variable - lifted matrix) is evaluated there.  Returns the n x n
    array of resulting matrices; all are zero.
    """
    if not A.is_square():
        raise ValueError("square matrix required")
    S = A.ring
    n = A.n_rows
    R = MatrixRing(S, n)
    t = NcMatrix(S, A.entries)  # the matrix itself, canonical labels
    lifted = [[R.lift(x) for x in row] for row in A.entries]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(t - lifted[i][j])
            else:
                row.append(-lifted[i][j])
        entries.append(row)
    T = NcMatrix(R, entries)
    return [
        [qdet(T, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)
    ]


def rank_by_quasiminors(A: NcMatrix) -> int:
    """Largest r with a defined, nonzero r-quasiminor.

    Exhaustive over submatrices and pivots; exact rank at d = 1, a
    best-effort lower bound over noncommutative scalars.
    """
    ring = A.ring
    for r in range(min(A.n_rows, A.n_cols), 0, -1):
        for P in combinations(A.row_labels, r):
            for Q in combinations(A.col_labels, r):
                sub = A.select(P, Q)
                for p in P:
                    for q in Q:
                        try:
                            v = qdet(sub, p, q)
                        except DomainError:
                            continue
                        if not ring.is_zero(v):
                            return r
    return 0
