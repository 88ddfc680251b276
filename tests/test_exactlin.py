from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    det_leibniz,
    invert_gauss_jordan,
    kernel_gauss_jordan,
    rank_by_minors,
    rank_gauss_jordan,
)

from quasidet.exactlin import (
    det_bareiss,
    invert_rational,
    rational_rank,
    right_kernel,
)


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
