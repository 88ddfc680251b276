import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasidet.rings import (
    DomainError,
    MatScalar,
    QRat,
    QRationalFunctions,
    Rationals,
    SampleProfile,
    SquareMatrices,
    TruncatedSeriesRing,
    format_fraction,
    poly_divmod,
    poly_gcd,
    poly_mul,
    ring_from_spec,
)

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=10
)


def all_rings():
    return [
        Rationals(),
        SquareMatrices(1),
        SquareMatrices(2),
        SquareMatrices(3),
        TruncatedSeriesRing(SquareMatrices(2), 3),
        TruncatedSeriesRing(Rationals(), 4),
        QRationalFunctions(),
    ]


@pytest.mark.parametrize("ring", all_rings(), ids=lambda r: r.name)
def test_ring_axioms_random_triples(ring, rng):
    for _ in range(20):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        c = ring.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert ring.one * a == a == a * ring.one
        assert a + ring.zero == a
        assert a - a == ring.zero


@pytest.mark.parametrize("ring", all_rings(), ids=lambda r: r.name)
def test_try_invert_soundness(ring, rng):
    found = 0
    for _ in range(60):
        x = ring.random_element(rng)
        inv = ring.try_invert(x)
        if inv is None:
            continue
        found += 1
        assert x * inv == ring.one
        assert inv * x == ring.one
    assert found >= 10


def test_rational_inversion_fails_exactly_on_zero(Q):
    assert Q.try_invert(Fraction(0)) is None
    assert Q.try_invert(Fraction(-3, 7)) == Fraction(-7, 3)
    with pytest.raises(DomainError):
        Q.invert(Fraction(0))


def test_matrix_inversion_fails_exactly_on_zero_determinant(M2):
    singular = M2.deserialize([["1", "2"], ["2", "4"]])
    assert M2.try_invert(singular) is None
    regular = M2.deserialize([["1", "2"], ["3", "4"]])
    inv = M2.try_invert(regular)
    assert inv == M2.deserialize([["-2", "1"], ["3/2", "-1/2"]])


@given(num=st.integers(-50, 50), den=st.integers(1, 50))
def test_rational_serialization_roundtrip(num, den):
    Q = Rationals()
    x = Fraction(num, den)
    assert Q.deserialize(Q.serialize(x)) == x


def fraction_rows(d):
    entry = st.builds(Fraction, st.integers(-10, 10), st.integers(1, 10))
    row = st.lists(entry, min_size=d, max_size=d)
    return st.lists(row, min_size=d, max_size=d)


def matscalars(d):
    return fraction_rows(d).map(MatScalar)


def assert_canonical(a):
    assert a.den > 0
    assert gcd(a.den, *(x for r in a.num for x in r)) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
def test_matscalar_canonical_form(d, data):
    a, b = data.draw(matscalars(d)), data.draw(matscalars(d))
    ring = SquareMatrices(d)
    for x in (a, b, a + b, a - b, -a, a * b, ring.zero, ring.one):
        assert_canonical(x)
        assert x.rows == tuple(
            tuple(Fraction(v, x.den) for v in r) for r in x.num
        )
    assert ring.zero.den == 1 and (a - a).den == 1 and a - a == ring.zero
    inv = ring.try_invert(a)
    if inv is not None:
        assert_canonical(inv)
    # == and hash follow the Fraction entries, whatever the operands' denominators
    assert (a == b) == (a.rows == b.rows)
    twice = a + a
    assert twice == MatScalar([[2 * v for v in r] for r in a.rows])
    assert hash(twice) == hash(MatScalar(twice.rows)) == hash(twice.rows)


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
def test_matscalar_serialization_strings(d, data):
    rows = data.draw(fraction_rows(d))
    ring = SquareMatrices(d)
    a = MatScalar(rows)
    text = ring.serialize(a)
    # the same strings the Fraction-entry representation wrote
    assert text == [[format_fraction(Fraction(x)) for x in r] for r in rows]
    back = ring.deserialize(text)
    assert back == a and back.num == a.num and back.den == a.den


def test_series_invertible_iff_leading_coefficient_is(rng, M2):
    T = TruncatedSeriesRing(M2, 3)
    for _ in range(40):
        s = T.random_element(rng)
        invertible = M2.try_invert(s.coeffs[0]) is not None
        assert (T.try_invert(s) is not None) == invertible


def test_series_inverse_exact_twenty_random(rng, M2):
    T = TruncatedSeriesRing(M2, 4)
    found = 0
    while found < 20:
        c = T.random_element(rng)
        inv = T.try_invert(c)
        if inv is None:
            continue
        found += 1
        assert c * inv == T.one
        assert inv * c == T.one


def test_series_truncates_products():
    Q = Rationals()
    T = TruncatedSeriesRing(Q, 2)
    t = T.variable_element()
    assert (t * t) * t == T.zero
    assert (T.one + t) * (T.one - t) == T.element([1, 0, -1])


def test_qrat_equality_by_cross_multiplication():
    one = Fraction(1)
    # (q^2 - 1)/(q - 1) == q + 1
    lhs = QRat((-one, Fraction(0), one), (-one, one), normalize=False)
    rhs = QRat((one, one))
    assert lhs == rhs


def test_qrat_arithmetic_reduces():
    F = QRationalFunctions()
    q = F.q()
    x = (q + F.one) * (q - F.one)
    y = q - F.one
    ratio = x * F.invert(y)
    assert ratio == q + F.one


def test_poly_gcd_and_divmod():
    one = Fraction(1)
    # (q+1)^2 and (q+1)(q-1) share (q+1)
    a = poly_mul((one, one), (one, one))
    b = poly_mul((one, one), (-one, one))
    g = poly_gcd(a, b)
    assert g == (one, one)
    quot, rem = poly_divmod(a, (one, one))
    assert quot == (one, one) and rem == ()


@pytest.mark.parametrize("ring", all_rings(), ids=lambda r: r.name)
def test_serialization_roundtrip_random(ring, rng):
    for _ in range(10):
        x = ring.random_element(rng)
        assert ring.deserialize(ring.serialize(x)) == x
    rebuilt = ring_from_spec(ring.spec())
    assert rebuilt.spec() == ring.spec()


def test_sample_profile_bounds(rng):
    profile = SampleProfile(4, 2)
    for _ in range(200):
        x = profile.draw_fraction(rng)
        assert abs(x.numerator) <= 8  # |num| <= 4 before reduction, den <= 2
        assert x.denominator <= 2


def test_random_sampling_deterministic():
    ring = SquareMatrices(2)
    a = ring.random_element(random.Random(7))
    b = ring.random_element(random.Random(7))
    assert a == b
