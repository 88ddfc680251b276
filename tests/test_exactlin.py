from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    det_leibniz,
    invert_gauss_jordan,
    kernel_gauss_jordan,
    rank_by_minors,
    rank_gauss_jordan,
)

from quasidet import exactlin
from quasidet.catalog import get_identity
from quasidet.exactlin import (
    det_bareiss,
    invert_rational,
    rational_rank,
    right_kernel,
)
from quasidet.harness import COUNTEREXAMPLE, VERIFIED, RunConfig, run_identity
from quasidet.matrix import MatrixRing, NcMatrix
from quasidet.qdet import qdet
from quasidet.rings import DomainError, MatScalar, Rationals, SquareMatrices


def random_matrix(rng, n, m=None):
    m = m or n
    return [
        [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(m)]
        for _ in range(n)
    ]


def test_bareiss_matches_leibniz(rng):
    for n in (1, 2, 3, 4):
        for _ in range(15):
            m = random_matrix(rng, n)
            assert det_bareiss(m) == det_leibniz(m)


def test_bareiss_singular():
    assert det_bareiss([[1, 2], [2, 4]]) == 0


def test_inverse_roundtrip(rng):
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = random_matrix(rng, n)
            inv = invert_rational(m)
            if det_leibniz(m) == 0:
                assert inv is None
                continue
            assert inv is not None
            for i in range(n):
                for j in range(n):
                    acc = sum(m[i][k] * inv[k][j] for k in range(n))
                    assert acc == (1 if i == j else 0)


def test_rank_matches_minor_search(rng):
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, n, m)
        assert rational_rank(mat) == rank_by_minors(mat)


def test_rank_of_planted_product(rng):
    for _ in range(10):
        n, r = 4, rng.randint(0, 3)
        if r == 0:
            mat = [[Fraction(0)] * n for _ in range(n)]
        else:
            left = random_matrix(rng, n, r)
            right = random_matrix(rng, r, n)
            mat = [
                [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
                for i in range(n)
            ]
        assert rational_rank(mat) <= r if r else rational_rank(mat) == 0


def test_right_kernel_annihilates(rng):
    for _ in range(15):
        n, m = rng.randint(1, 3), rng.randint(2, 5)
        mat = random_matrix(rng, n, m)
        basis = right_kernel(mat)
        assert len(basis) == m - rational_rank(mat)
        for vec in basis:
            for row in mat:
                assert sum(a * b for a, b in zip(row, vec)) == 0


entries = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 10))


@st.composite
def matrices(draw, max_rows, max_cols=None):
    """Rational matrices, square when ``max_cols`` is None.  About half get
    rows replaced by small integer combinations of two rows (zero rows
    included), so singular and rank-deficient cases are common."""
    n = draw(st.integers(1, max_rows))
    m = n if max_cols is None else draw(st.integers(1, max_cols))
    rows = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, n - 1))):
            i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=18))
def test_inverse_matches_fraction_gauss_jordan(mat):
    # 18 x 18 is the flattened minor of CAYLEY-HAMILTON at n = 3, d = 3
    assert invert_rational(mat) == invert_gauss_jordan(mat)


@settings(max_examples=80, deadline=None)
@given(matrices(max_rows=7, max_cols=9))
def test_rank_and_kernel_match_fraction_gauss_jordan(mat):
    assert rational_rank(mat) == rank_gauss_jordan(mat)
    assert right_kernel(mat) == kernel_gauss_jordan(mat)


def test_kernel_of_zero_rows_is_everything():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert rational_rank(zero) == 0
    assert right_kernel(zero) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]


# Matrices over the rings that embed in k x k rational matrices, given as
# grids of k x k Fraction blocks so the oracle never touches the package's
# flattening.

FLAT_RINGS = [
    Rationals(),
    SquareMatrices(1),
    SquareMatrices(2),
    SquareMatrices(3),
    MatrixRing(Rationals(), 2),
]


def from_block(ring, block):
    """The element of ``ring`` whose rational embedding is ``block``."""
    if isinstance(ring, Rationals):
        return block[0][0]
    if isinstance(ring, SquareMatrices):
        return MatScalar(block)
    return NcMatrix(ring.base, block)


def flat_blocks(grid, rows, cols):
    """The Fraction matrix of the blocks at ``rows`` x ``cols`` of ``grid``."""
    return [
        [x for c in cols for x in grid[r][c][i]]
        for r in rows
        for i in range(len(grid[0][0]))
    ]


def block_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def flat_ring_matrices(draw, minor_only):
    """``(ring, grid, p, q)`` for an n x n matrix, n = 1..4, pivot (p, q).

    In about one draw in five, a row other than p is planted as a left
    multiple of another such row (zero when there is no other), on every
    column but q when ``minor_only`` and on every column otherwise, so
    the pivot-deleted minor, or the whole matrix, is singular."""
    ring = draw(st.sampled_from(FLAT_RINGS))
    k = ring.flat_dim
    block = st.lists(st.lists(small, min_size=k, max_size=k), min_size=k, max_size=k)
    n = draw(st.integers(1, 4))
    grid = [[draw(block) for _ in range(n)] for _ in range(n)]
    p, q = draw(st.integers(1, n)), draw(st.integers(1, n))
    if n > 1 and draw(st.integers(0, 4)) == 0:
        others = [r for r in range(n) if r != p - 1]
        i = draw(st.sampled_from(others))
        rest = [r for r in others if r != i]
        j = draw(st.sampled_from(rest)) if rest else None
        lam = draw(block)
        for c in range(n):
            if minor_only and c == q - 1:
                continue
            if j is None:
                grid[i][c] = [[Fraction(0)] * k for _ in range(k)]
            else:
                grid[i][c] = block_product(lam, grid[j][c])
    return ring, grid, p, q


def matrix_of(ring, grid):
    return NcMatrix(ring, [[from_block(ring, b) for b in row] for row in grid])


@settings(max_examples=150, deadline=None)
@given(flat_ring_matrices(minor_only=True))
def test_schur_route_matches_fraction_gauss_jordan(case):
    ring, grid, p, q = case
    n, k = len(grid), ring.flat_dim
    A = matrix_of(ring, grid)
    rows = [r for r in range(n) if r != p - 1]
    cols = [c for c in range(n) if c != q - 1]
    inv = invert_gauss_jordan(flat_blocks(grid, rows, cols))
    if inv is None:
        with pytest.raises(DomainError):
            qdet(A, p, q)
        return
    f12 = flat_blocks(grid, rows, [q - 1])
    f21 = flat_blocks(grid, [p - 1], cols)
    f22 = flat_blocks(grid, [p - 1], [q - 1])
    lead = (n - 1) * k
    want = [
        [
            f22[r][c]
            - sum(
                (f21[r][s] * inv[s][t] * f12[t][c] for s in range(lead) for t in range(lead)),
                Fraction(0),
            )
            for c in range(k)
        ]
        for r in range(k)
    ]
    assert qdet(A, p, q) == from_block(ring, want)


@settings(max_examples=100, deadline=None)
@given(flat_ring_matrices(minor_only=False))
def test_int_block_flat_inverse_matches_fraction_gauss_jordan(case):
    ring, grid, _, _ = case
    n, k = len(grid), ring.flat_dim
    A = matrix_of(ring, grid)
    inv = invert_gauss_jordan(flat_blocks(grid, range(n), range(n)))
    if n == 1 and isinstance(ring, SquareMatrices):
        a = A.entries[0][0]
        assert ring.try_invert(a) == (None if inv is None else from_block(ring, inv))
    if inv is None:
        with pytest.raises(DomainError):
            A.inverse()
        return
    want = [
        [
            from_block(ring, [row[j * k : j * k + k] for row in inv[i * k : i * k + k]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert A.inverse() == NcMatrix(ring, want, A.col_labels, A.row_labels)


def _eliminate_without_exact_division(m, n_cols, n_pivot_rows=None):
    """The elimination core with its ``// prev`` dropped: every step still
    makes an equivalent row system, but the pivot rows stop sharing one
    pivot, so results read off the last pivot are wrong."""
    n_rows = len(m) if n_pivot_rows is None else n_pivot_rows
    pivots, p = [], 1
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        found = [r for r in range(rank, n_rows) if m[r][col]]
        if not found:
            continue
        m[rank], m[found[0]] = m[found[0]], m[rank]
        prow = m[rank]
        p = prow[col]
        for i, row in enumerate(m):
            if i != rank:
                m[i] = [p * x - row[col] * y for x, y in zip(row, prow)]
        pivots.append(col)
    return pivots, p


def test_broken_core_is_caught_by_the_recursive_route(monkeypatch):
    # at d = 1 the recursive route inverts Fractions and never reaches the
    # core, so it is an independent witness against the Schur route
    desc = get_identity("QDET-DEF-AGREE")
    config = RunConfig(samples=3, dims=[1])
    assert run_identity(desc, config).status == VERIFIED
    monkeypatch.setattr(exactlin, "_eliminate", _eliminate_without_exact_division)
    assert run_identity(desc, config).status == COUNTEREXAMPLE
