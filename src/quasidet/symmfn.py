"""Power-matrix quasideterminants, root/coefficient transforms and
noncommutative symmetric functions.

The transformed variables y_k (conjugates of the inputs by the
quasideterminant of the leading power matrix) are the alphabet in which
the factorization and coefficient identities hold; elementary, complete
and ribbon families are word sums over that alphabet, graded by descent
structure.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .matrix import NcMatrix
from .qdet import qdet
from .rings import ScalarRing, TruncatedSeriesRing


def power_matrix(ring: ScalarRing, values: Sequence) -> NcMatrix:
    """Square matrix whose columns are descending powers of the values,
    with a last row of ones; column c holds values[c]^(m-1) .. 1."""
    return _power_rows(ring, values, range(len(values) - 1, -1, -1))


def vandermonde(ring: ScalarRing, values: Sequence):
    """Quasideterminant of the power matrix at (first row, last column).

    For a single value this degenerates to one (the matrix is the single
    row of ones).
    """
    if not values:
        raise ValueError("need at least one value")
    m = len(values)
    return qdet(power_matrix(ring, values), 1, m)


def y_chain(ring: ScalarRing, xs: Sequence) -> tuple:
    """The transformed alphabet with the prefix chain it conjugates by:
    (ys, Vs) with y_1 = x_1, y_k = V_k x_k V_k^{-1} and Vs the
    V_k = V(x_1..x_k) for k = 2..n.  Raises DomainError at the first V_k,
    in order of k, that is undefined or not invertible: it returns
    exactly when the xs are independent."""
    ys, Vs = [xs[0]], []
    for k in range(2, len(xs) + 1):
        V = vandermonde(ring, xs[:k])
        ys.append(V * xs[k - 1] * ring.invert(V))
        Vs.append(V)
    return ys, Vs


def y_transform(ring: ScalarRing, xs: Sequence) -> list:
    """y_1 = x_1 and y_k = V x_k V^{-1} with V over the first k values;
    DomainError exactly when the xs are not independent."""
    return y_chain(ring, xs)[0]


def z_transform(ring: ScalarRing, xs: Sequence, z) -> list:
    """z_1 = z and z_k = W z W^{-1}, W over the first k-1 values and z;
    DomainError at the first W that is undefined or not invertible."""
    zs = [z]
    for m in range(1, len(xs)):
        W = vandermonde(ring, [*xs[:m], z])
        zs.append(W * z * ring.invert(W))
    return zs


def hat_transform(ring: ScalarRing, xs: Sequence, z):
    """Conjugate the tail values and z by their differences from x_1.

    Returns (hatted x_2..x_n, hatted z); the defining contract is
    V(x_1..x_n, z) = V(hats, hat z) * (z - x_1).
    """
    x1 = xs[0]
    hats = []
    for xk in xs[1:]:
        diff = xk - x1
        hats.append(diff * xk * ring.invert(diff))
    dz = z - x1
    zhat = dz * z * ring.invert(dz)
    return hats, zhat


def bezout_product(ring: ScalarRing, ys: Sequence, zs: Sequence):
    """(z_n - y_n) ... (z_1 - y_1), the factorization of V(x_1..x_n, z),
    over ys = y_transform(xs) and zs = z_transform(xs, z)."""
    acc = ring.one
    for y, z in zip(reversed(ys), reversed(zs)):
        acc = acc * (z - y)
    return acc


def _elementary_sums(ring: ScalarRing, ys: Sequence, up_to: int) -> list:
    """Lambda_1..Lambda_up_to over ys: Lambda_k is the sum over
    i_1 < ... < i_k of the descending word y_{i_k} ... y_{i_1}, zero for
    k > len(ys)."""
    return [
        _word_sum(ring, ys, (combo[::-1] for combo in combinations(range(len(ys)), k)))
        for k in range(1, up_to + 1)
    ]


def _word_sum(ring: ScalarRing, ys: Sequence, words):
    """Sum over the index words of the products ys[w_1] ys[w_2] ..."""
    acc = ring.zero
    for word in words:
        term = ring.one
        for idx in word:
            term = term * ys[idx]
        acc = acc + term
    return acc


def vieta_from_y(ring: ScalarRing, ys: Sequence) -> list:
    """Coefficients a_1..a_n as signed descending-index sums of y words:
    a_k = (-1)^k Lambda_k(ys)."""
    lams = elementary_from_ys(ring, ys)
    return [-lam if k % 2 else lam for k, lam in enumerate(lams, start=1)]


def vieta_via_qdet(ring: ScalarRing, xs: Sequence) -> list:
    """Coefficients as a ratio of two bordered power-matrix
    quasideterminants: a_k = -|rows n,..,skip n-k,..,0|_{1n} *
    |rows n-1..0|_{kn}^{-1}."""
    n = len(xs)
    coeffs = []
    denom_matrix = power_matrix(ring, xs)
    for k in range(1, n + 1):
        num_powers = [p for p in range(n, -1, -1) if p != n - k]
        num_matrix = _power_rows(ring, xs, num_powers)
        num = qdet(num_matrix, 1, n)
        den = qdet(denom_matrix, k, n)
        coeffs.append(-(num * ring.invert(den)))
    return coeffs


def _power_rows(ring, values, powers) -> NcMatrix:
    """Row r holds every value to the power powers[r]; each value's
    powers are made by successive products from one, one per power."""
    columns = []
    for v in values:
        col = [ring.one]
        for _ in range(max(powers)):
            col.append(col[-1] * v)
        columns.append(col)
    rows = [[col[p] for col in columns] for p in powers]
    return NcMatrix(ring, rows, range(1, len(powers) + 1), range(1, len(values) + 1))


def coeffs_from_roots(ring: ScalarRing, xs: Sequence) -> list:
    """Coefficients of the monic left-coefficient polynomial annihilating
    every root, solved from the right-linear system over the power matrix."""
    n = len(xs)
    W = power_matrix(ring, xs)
    rhs = -_power_rows(ring, xs, (n,))
    Winv = W.inverse()
    return list((rhs * Winv).entries[0])


def annihilation_value(ring: ScalarRing, coeffs: Sequence, w):
    """w^n + a_1 w^(n-1) + ... + a_n for coeffs a_1..a_n, every
    coefficient on the left and w on the right, by Horner's rule."""
    acc = ring.one
    for c in coeffs:
        acc = acc * w + c
    return acc


def elementary_lambda(ring: ScalarRing, xs: Sequence) -> list:
    """Unsigned descending word sums over the transformed alphabet."""
    return elementary_from_ys(ring, y_transform(ring, xs))


def elementary_from_ys(ring: ScalarRing, ys: Sequence) -> list:
    """Lambda_1..Lambda_n over the alphabet ys."""
    return _elementary_sums(ring, ys, len(ys))


def complete_s(ring: ScalarRing, xs: Sequence, up_to: int, route: str = "series") -> list:
    """Complete functions S_1..S_m over the transformed alphabet; see
    ``complete_from_ys`` for the routes."""
    return complete_from_ys(ring, y_transform(ring, xs), up_to, route)


def complete_from_ys(ring: ScalarRing, ys: Sequence, up_to: int, route: str = "series") -> list:
    """Complete functions S_1..S_m over the alphabet ys.

    route "series": invert the alternating-sign generating polynomial of
    the elementary family in a truncated series ring (central variable).
    route "words": sum y words with nondecreasing indices.  The two
    agree exactly.
    """
    if route == "words":
        return [
            _word_sum(ring, ys, combinations_with_replacement(range(len(ys)), k))
            for k in range(1, up_to + 1)
        ]
    if route != "series":
        raise ValueError(f"unknown route {route!r}")
    lambdas = elementary_from_ys(ring, ys)
    T = TruncatedSeriesRing(ring, up_to)
    coeffs = [ring.one]
    for i in range(1, up_to + 1):
        if i <= len(lambdas):
            c = lambdas[i - 1]
            coeffs.append(-c if i % 2 else c)
        else:
            coeffs.append(ring.zero)
    inverse = T.invert(T.element(coeffs))
    return [inverse.coeffs[i] for i in range(1, up_to + 1)]


def composition_descents(J: Sequence[int]) -> frozenset:
    """Partial sums of the composition except the last."""
    acc, out = 0, []
    for part in J[:-1]:
        acc += part
        out.append(acc)
    return frozenset(out)


def compositions(m: int):
    """All compositions of m, ordered lexicographically."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            yield (first,) + rest


def ribbon_schur(ring: ScalarRing, xs: Sequence, J: Sequence[int]) -> object:
    """Sum of y words whose descent set matches the composition exactly."""
    return ribbon_from_ys(ring, y_transform(ring, xs), J)


def _ribbon_words(n: int, J: Sequence[int]):
    """The words over range(n) whose descent set is exactly that of J, in
    lexicographic order: each block of J is a nondecreasing run, with a
    strict descent at each block boundary."""
    m = sum(J)
    descents = composition_descents(J)
    word = []

    def extend(pos):
        if pos == m:
            yield tuple(word)
            return
        if not word:
            letters = range(n)
        elif pos in descents:
            letters = range(word[-1])
        else:
            letters = range(word[-1], n)
        for c in letters:
            word.append(c)
            yield from extend(pos + 1)
            word.pop()

    return extend(0)


def ribbon_from_ys(ring: ScalarRing, ys: Sequence, J: Sequence[int]):
    """Sum of words over the alphabet ys whose descent set is that of J."""
    if not J or any(p < 1 for p in J):
        raise ValueError("composition parts must be positive")
    return _word_sum(ring, ys, _ribbon_words(len(ys), J))


def lambda_word_value(ring: ScalarRing, ys: Sequence, J: Sequence[int]):
    """Value of the product Lambda_{j_1} ... Lambda_{j_k} over given ys."""
    if any(part < 1 for part in J):
        raise ValueError("composition parts must be positive")
    lams = _elementary_sums(ring, ys, max(J, default=0))
    acc = ring.one
    for part in J:
        acc = acc * lams[part - 1]
    return acc


def dual_shift_ring(base: ScalarRing) -> TruncatedSeriesRing:
    """Order-1 series over ``base``: the dual-number scalars used to
    read off directional derivatives exactly."""
    return TruncatedSeriesRing(base, 1)


def shift_by_unit(T: TruncatedSeriesRing, x):
    """x + t * identity inside the dual-number ring."""
    return T.element([x, T.base.one])
