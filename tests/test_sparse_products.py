"""Zero-skipping products against the dense reference loops.

Series products, series inverses and matrix products skip exact-zero
operands; each must equal the dense loop in ``oracles.py`` that takes
every term, on inputs with planted zero coefficients and entries,
all-zero operands included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_matrix_mul, dense_series_inverse, dense_series_mul

from quasidet.matrix import NcMatrix
from quasidet.rings import (
    DomainError,
    QRationalFunctions,
    Rationals,
    SquareMatrices,
    TruncatedSeriesRing,
)

BASES = [Rationals(), SquareMatrices(2), QRationalFunctions()]
SCALAR_RINGS = BASES + [TruncatedSeriesRing(SquareMatrices(2), 2)]

seeds = st.integers(0, 2**32 - 1)
# the share of coefficients and entries replaced by zero; 1.0 makes every
# operand zero
zero_rates = st.sampled_from([0.0, 0.5, 0.8, 1.0])


def sparse_element(ring, rng, rate):
    if isinstance(ring, TruncatedSeriesRing):
        return ring.element(
            [sparse_element(ring.base, rng, rate) for _ in range(ring.order + 1)]
        )
    return ring.zero if rng.random() < rate else ring.random_element(rng)


@pytest.mark.parametrize("base", BASES, ids=lambda r: r.name)
@settings(max_examples=25, deadline=None)
@given(seed=seeds, rate=zero_rates)
def test_series_product_matches_dense(base, seed, rate):
    rng = random.Random(seed)
    T = TruncatedSeriesRing(base, 4)
    a, b = sparse_element(T, rng, rate), sparse_element(T, rng, rate)
    assert (a * b).coeffs == tuple(dense_series_mul(T, a, b))


@pytest.mark.parametrize("base", BASES, ids=lambda r: r.name)
@settings(max_examples=25, deadline=None)
@given(seed=seeds, rate=zero_rates)
def test_series_inverse_matches_dense(base, seed, rate):
    rng = random.Random(seed)
    T = TruncatedSeriesRing(base, 4)
    tail = sparse_element(T, rng, rate).coeffs[1:]
    lead = base.random_element(rng)
    a = T.element((lead,) + tail)
    want = dense_series_inverse(T, a)
    got = T.try_invert(a)
    if want is None:
        assert got is None
    else:
        assert got.coeffs == tuple(want)
        assert a * got == T.one == got * a


@pytest.mark.parametrize("ring", SCALAR_RINGS, ids=lambda r: r.name)
@settings(max_examples=20, deadline=None)
@given(seed=seeds, rate=zero_rates, shape=st.tuples(*[st.integers(1, 3)] * 3))
def test_matrix_product_matches_dense(ring, seed, rate, shape):
    rng = random.Random(seed)
    n, m, p = shape
    rows_a = [[sparse_element(ring, rng, rate) for _ in range(m)] for _ in range(n)]
    rows_b = [[sparse_element(ring, rng, rate) for _ in range(p)] for _ in range(m)]
    got = NcMatrix(ring, rows_a) * NcMatrix(ring, rows_b)
    assert got.entries == tuple(map(tuple, dense_matrix_mul(ring, rows_a, rows_b)))


@settings(max_examples=20, deadline=None)
@given(seed=seeds, rate=zero_rates)
def test_series_matrix_inverse_with_zero_coefficients(seed, rate):
    # the order-by-order inverse skips its all-zero coefficient matrices
    rng = random.Random(seed)
    T = TruncatedSeriesRing(SquareMatrices(2), 3)
    def entry():
        tail = sparse_element(T, rng, rate).coeffs[1:]
        return T.element((T.base.random_element(rng),) + tail)

    A = NcMatrix(T, [[entry() for _ in range(2)] for _ in range(2)])
    try:
        inv = A.inverse()
    except DomainError:  # a singular constant term
        return
    assert A * inv == inv * A == NcMatrix.identity(T, 2)
