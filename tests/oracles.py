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


# Rational functions in q as quasidet.rings.QRat computed them before it
# moved to integer polynomials: Fraction coefficients, Euclid's algorithm
# for the gcd, a monic denominator.  Kept unchanged as the reference that
# the integer form is checked against.


def poly_trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and poly_trim(a):
        a = list(poly_trim(a))
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = a[-1] * inv_lead
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    return poly_trim(q), poly_trim(a)


def poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)  # monic
    return a


class FractionQRat:
    """Reduced fraction of rational-coefficient polynomials in q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),), normalize=True):
        num = poly_trim(num)
        den = poly_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if normalize:
            if not num:
                den = (Fraction(1),)
            else:
                g = poly_gcd(num, den)
                if len(g) > 1:
                    num, _ = poly_divmod(num, g)
                    den, _ = poly_divmod(den, g)
                lead = den[-1]
                if lead != 1:
                    num = tuple(c / lead for c in num)
                    den = tuple(c / lead for c in den)
        self.num = num
        self.den = den

    def __add__(self, other):
        return FractionQRat(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FractionQRat(poly_neg(self.num), self.den, normalize=False)

    def __mul__(self, other):
        return FractionQRat(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def __eq__(self, other):
        # cross-multiplication of reduced fractions
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    def invert(self):
        """The reciprocal, or None for zero."""
        if not self.num:
            return None
        return FractionQRat(self.den, self.num)

    def serialize(self):
        def fmt(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return {"num": [fmt(c) for c in self.num], "den": [fmt(c) for c in self.den]}


# Dense products over any ring, with no zero skipping: the loops
# quasidet.rings.SeriesElement.__mul__, TruncatedSeriesRing.try_invert and
# quasidet.matrix.NcMatrix.__mul__ ran before they learnt to skip exact
# zeros.  Each sum starts from the ring's zero and takes every term.


def dense_series_mul(ring, a, b):
    """Coefficients of the truncated product of two series of ``ring``."""
    out = []
    for k in range(ring.order + 1):
        acc = ring.base.zero
        for i in range(k + 1):
            acc = acc + a.coeffs[i] * b.coeffs[k - i]
        out.append(acc)
    return out


def dense_series_inverse(ring, a):
    """Coefficients of the inverse of a series of ``ring``, or None."""
    b0 = ring.base.try_invert(a.coeffs[0])
    if b0 is None:
        return None
    out = [b0]
    for k in range(1, ring.order + 1):
        acc = ring.base.zero
        for i in range(1, k + 1):
            acc = acc + a.coeffs[i] * out[k - i]
        out.append(-(b0 * acc))
    return out


def dense_matrix_mul(ring, rows_a, rows_b):
    """Entries of the product of two matrices given as rows over ``ring``."""
    cols = list(zip(*rows_b))
    out = []
    for row in rows_a:
        line = []
        for col in cols:
            acc = ring.zero
            for x, y in zip(row, col):
                acc = acc + x * y
            line.append(acc)
        out.append(line)
    return out


def entrywise(op, rows_a, rows_b):
    """Entrywise ``op`` of two equal-shape matrices, as Fraction rows."""
    return tuple(
        tuple(op(Fraction(x), Fraction(y)) for x, y in zip(ra, rb))
        for ra, rb in zip(rows_a, rows_b)
    )
