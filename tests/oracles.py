"""Independent oracles used to freeze expected values.

These deliberately avoid the package's computation paths: determinants
by Leibniz permutation sums, ranks by brute minor search, symmetric
functions by direct commutative formulas, continued fractions by nested
Fraction arithmetic.
"""

from fractions import Fraction
from itertools import combinations, permutations


def det_leibniz(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


def rank_by_minors(rows):
    n, m = len(rows), len(rows[0])
    for r in range(min(n, m), 0, -1):
        for rsel in combinations(range(n), r):
            for csel in combinations(range(m), r):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det_leibniz(sub) != 0:
                    return r
    return 0


def elementary_classical(xs, k):
    total = Fraction(0)
    for combo in combinations(xs, k):
        term = Fraction(1)
        for v in combo:
            term *= v
        total += term
    return total


def complete_classical(xs, k):
    """Sum over multisets: nondecreasing index words."""
    from itertools import combinations_with_replacement

    total = Fraction(0)
    for combo in combinations_with_replacement(xs, k):
        term = Fraction(1)
        for v in combo:
            term *= v
        total += term
    return total


def ribbon_classical(xs, J):
    """Commutative descent-graded word sum, summed directly."""
    from itertools import product

    m = sum(J)
    want = set()
    acc = 0
    for part in J[:-1]:
        acc += part
        want.add(acc)
    total = Fraction(0)
    for word in product(range(len(xs)), repeat=m):
        descents = {p + 1 for p in range(m - 1) if word[p] > word[p + 1]}
        if descents != want:
            continue
        term = Fraction(1)
        for idx in word:
            term *= xs[idx]
        total += term
    return total


def continued_fraction_tower(diag):
    """a_1 + 1/(a_2 + 1/(... + 1/a_n)) with exact Fractions."""
    acc = Fraction(diag[-1])
    for a in reversed(diag[:-1]):
        acc = Fraction(a) + 1 / acc
    return acc


def vandermonde_ratio_classical(values):
    """Signed alternant ratio matching the corner pivot convention."""
    m = len(values)
    mat = [[Fraction(v) ** (m - r) for v in values] for r in range(1, m + 1)]
    full = det_leibniz(mat)
    sub = det_leibniz([row[: m - 1] for row in mat[1:]])
    return Fraction(-1) ** (1 + m) * full / sub


# The Fraction Gauss-Jordan kernels that quasidet.exactlin ran before its
# fraction-free integer core, kept unchanged as the reference that core is
# checked against.


def invert_gauss_jordan(rows):
    """Inverse of a square Fraction matrix, or None when singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in rows[i]]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rank_gauss_jordan(rows) -> int:
    """Rank of a rational matrix by row echelon reduction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def kernel_gauss_jordan(rows):
    """Basis (as columns) of {v : M v = 0} for a rational matrix M.

    Returns a list of basis vectors, each a list of Fractions of length
    n_cols.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][free]
        basis.append(v)
    return basis
