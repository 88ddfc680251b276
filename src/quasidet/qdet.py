"""The quasideterminant calculus: definitions, inverses, heredity,
pivot-block reduction, linear systems and the matrix identity for a
matrix substituted into its own characteristic expressions.

Two routes compute a quasideterminant: the defining recursion over
quasiminors (any ring; each quasiminor built and inverted once, still
exponential in n) and the minor-inverse formula a_pq - r B c through
the inverse B of the deleted submatrix (polynomial; rings with a matrix
inverse).  The one recursion both evaluates quasideterminants and,
over the ring of formulas in ``formula``, builds their formulas.
Over a ring that embeds in k x k rational matrices the minor-inverse
formula is the k x k Schur complement of the flattened minor (heredity,
in its commutative shadow), read off one fraction-free elimination with
no inverse built.  Over truncated series the route is ``block_qdet``
at the 1 x 1 pivot block: the one triple product of heredity, through
the minor's inverse taken as one series over matrices.  Q(q) and series
over it have no matrix inverse, so only the recursion evaluates there
beyond 1 x 1.  The routes agree wherever both are defined, which the
test harness checks exhaustively at small sizes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .exactlin import schur_complement
from .matrix import MatrixRing, NcMatrix, flatten_matrix
from .rings import DomainError


def qdet(A: NcMatrix, p, q, method: str = "minor_inverse"):
    """Quasideterminant of A at pivot row p, pivot column q.

    method: "recursive" (defining recursion, over every ring) or
    "minor_inverse" (via the inverse of the pivot-deleted submatrix; over
    a ring with ``flat_dim`` this is the Schur complement of the flattened
    minor).  Both raise DomainError where the route is undefined;
    minor_inverse does so exactly when the pivot-deleted submatrix is
    singular, and raises TypeError at n >= 2 over a ring with no matrix
    inverse (Q(q) and series over it).
    """
    if not A.is_square():
        raise ValueError("quasideterminants need a square matrix")
    A._row_pos(p), A._col_pos(q)
    if method == "recursive":
        return _qdet_recursive(A, A.row_labels, A.col_labels, p, q, {})
    if method == "minor_inverse":
        return _qdet_minor_inverse(A, p, q)
    raise ValueError(f"unknown method {method!r}")


def _qdet_minor_inverse(A: NcMatrix, p, q):
    if A.n_rows == 1:
        return A.entry(p, q)
    ring = A.ring
    i, j = A._row_pos(p), A._col_pos(q)
    e = A.entries
    if ring.flat_dim is not None:
        # pivot row and column last: |A|_pq is the trailing Schur complement
        rows = [(*r[:j], *r[j + 1 :], r[j]) for r in (*e[:i], *e[i + 1 :], e[i])]
        schur = schur_complement(*flatten_matrix(ring, rows), ring.flat_dim)
        if schur is None:
            raise DomainError(
                "matrix is singular over " + ring.name, payload=A.delete_row_col(p, q)
            )
        return ring.unflatten(schur)
    # series: the block quasideterminant at the 1 x 1 pivot block
    return block_qdet(A, (p,), (q,)).entries[0][0]


def _qdet_recursive(A, rows, cols, p, q, inverses):
    """|A_{rows, cols}|_pq = a_pq - sum_ij a_pj |A^{pq}|_ij^-1 a_iq.

    ``inverses`` maps (rows, cols, i, j) to the inverse of that
    quasiminor, which is all a parent uses, so each quasiminor is built
    and inverted once.  It is passed down, not closed over: a recursive
    closure is a reference cycle, which would keep the dict and every
    value alive until the cycle collector runs.
    """
    if len(rows) == 1:
        return A.entry(p, q)
    sub_rows = tuple(r for r in rows if r != p)
    sub_cols = tuple(c for c in cols if c != q)
    ring, e = A.ring, A.entries
    row_pos, col_pos = A.row_labels.index, A.col_labels.index
    row_p, q_pos = e[row_pos(p)], col_pos(q)
    terms = None
    for i in sub_rows:
        for j in sub_cols:
            key = (sub_rows, sub_cols, i, j)
            minor_inv = inverses.get(key)
            if minor_inv is None:
                minor = _qdet_recursive(A, sub_rows, sub_cols, i, j, inverses)
                minor_inv = ring.try_invert(minor)
                if minor_inv is None:
                    raise DomainError("inner quasiminor not invertible", payload=key)
                inverses[key] = minor_inv
            term = row_p[col_pos(j)] * minor_inv * e[row_pos(i)][q_pos]
            terms = term if terms is None else terms + term
    return row_p[q_pos] - terms


def trailing_chain(A: NcMatrix) -> list:
    """The corner quasideterminants |A_{k..n,k..n}|_kk of the trailing
    principal submatrices, one per label k in order; the last, the 1 x 1
    corner, is its entry.  DomainError where one is undefined."""
    labels = A.row_labels
    if A.col_labels != labels:
        raise ValueError("matching row/column labels required")
    *head, last = labels
    corners = [qdet(A.select(labels[p:], labels[p:]), k, k) for p, k in enumerate(head)]
    return corners + [A.entry(last, last)]


def qdet_expansion(A: NcMatrix, p, q, mode: str = "row", index=None):
    """Quasideterminant by expansion along another row or column.

    mode "row" with expansion row k != p:
        a_pq - sum_{j != q} a_pj (|A^{pq}|_{kj})^{-1} |A^{pj}|_{kq}
    mode "col" with expansion column l != q:
        a_pq - sum_{i != p} |A^{iq}|_{pl} (|A^{pq}|_{il})^{-1} a_iq
    Both modes take any row and column labels.
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
    qdets = [[qdet(A, i, j) for j in A.col_labels] for i in A.row_labels]
    return hadamard_inverse(NcMatrix(A.ring, qdets, A.row_labels, A.col_labels))


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
    _, row_groups, col_groups = A.block_partition(row_sizes, col_sizes)
    rows, cols = row_groups[block_pivot[0] - 1], col_groups[block_pivot[1] - 1]
    if len(rows) != len(cols):
        raise ValueError("pivot block must be square")
    return qdet(block_qdet(A, rows, cols), inner_pivot[0], inner_pivot[1])


def block_qdet(A: NcMatrix, rows: Sequence, cols: Sequence) -> NcMatrix:
    """Block-level quasideterminant at the pivot block on row labels
    ``rows`` and column labels ``cols``, as a matrix.

    With M the complement (A without those rows and columns) this is the
    Schur complement A_PQ - A_{P,Q'} M^{-1} A_{P',Q}, one triple product
    through the inverse of M.
    """
    S = A.select(rows, cols)
    if S.n_rows == A.n_rows and S.n_cols == A.n_cols:
        return S
    M = A.delete_sets(rows, cols)
    if not M.is_square():
        raise ValueError("complementary block matrix must be square")
    return S - A.select(rows, M.col_labels) * M.inverse() * A.select(M.row_labels, cols)


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


def homological_sum_rows(A: NcMatrix, L: Sequence, M: Sequence, p, ls: Sequence) -> list:
    """For each l in ``ls``:
    sum_i qdet(A^{L, M\\{m_i}})_{p, m_i} * qdet(A)_{l, m_i}^{-1}.

    L is a set of row labels with p outside L, M a set of |L| + 1 column
    labels.  Each value is one when p == l and zero otherwise (checked at
    configurations the harness has verified).  Each deleted-set
    quasiminor is computed once, for every l.
    """
    ring = A.ring
    M = list(M)
    if len(M) != len(list(L)) + 1:
        raise ValueError("need |M| = |L| + 1")
    if p in set(L):
        raise ValueError("p must lie outside L")
    sums = [ring.zero] * len(ls)
    for m_i in M:
        minor = qdet(A.delete_sets(L, [m for m in M if m != m_i]), p, m_i)
        for pos, l in enumerate(ls):
            sums[pos] = sums[pos] + minor * ring.invert(qdet(A, l, m_i))
    return sums


def homological_sum_cols(A: NcMatrix, M: Sequence, L: Sequence, ls: Sequence, p) -> list:
    """For each l in ``ls``:
    sum_i qdet(A)_{m_i, l}^{-1} * qdet(A^{M\\{m_i}, L})_{m_i, p}.

    Transposed-role companion of ``homological_sum_rows``: M is a set of
    row labels, L a set of column labels with p outside L.
    """
    ring = A.ring
    M = list(M)
    if len(M) != len(list(L)) + 1:
        raise ValueError("need |M| = |L| + 1")
    if p in set(L):
        raise ValueError("p must lie outside L")
    sums = [ring.zero] * len(ls)
    for m_i in M:
        minor = qdet(A.delete_sets([m for m in M if m != m_i], L), m_i, p)
        for pos, l in enumerate(ls):
            sums[pos] = sums[pos] + ring.invert(qdet(A, m_i, l)) * minor
    return sums


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

    method "qdet" multiplies by ``matrix_inverse`` (the quasideterminant
    route); "auto" by the eliminated inverse (same value by the
    inverse-entry identity, and defined wherever A is invertible).
    """
    if not A.is_square() or len(rhs) != A.n_rows:
        raise ValueError("square system required")
    if method not in ("auto", "qdet"):
        raise ValueError(f"unknown method {method!r}")
    inverse = matrix_inverse(A) if method == "qdet" else A.inverse()
    column = NcMatrix(A.ring, [[b] for b in rhs], A.row_labels)
    return [row[0] for row in (inverse * column).entries]


def cramer_pair(A: NcMatrix, rhs: Sequence, i, j):
    """Both sides of the replaced-column identity at pivot (i, j).

    Returns (qdet(A)_{ij} * x_j, qdet(A_j(rhs))_{ij}) with x solving
    A x = rhs; the two agree when defined.
    """
    xj = solve_system(A, rhs)[A._col_pos(j)]
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
