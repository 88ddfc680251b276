import operator
import random
from fractions import Fraction
from math import gcd

import oracles
import pytest
from hypothesis import given, settings
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
def test_matscalar_sums_with_planted_zero_operands(d, data):
    ring = SquareMatrices(d)
    a, b = (data.draw(st.one_of(st.just(ring.zero), matscalars(d))) for _ in "ab")
    for x, y in ((a, b), (b, a)):
        for got, op in ((x + y, operator.add), (x - y, operator.sub)):
            assert got.rows == oracles.entrywise(op, x.rows, y.rows)
            assert_canonical(got)
    # a zero operand hands back the other one, negated for 0 - b
    if ring.is_zero(b):
        assert a + b is a and a - b is a
        assert b - a == -a
        assert b + a is a or ring.is_zero(a)


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
    lhs = QRat((-one, Fraction(0), one), (-one, one))
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


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def polys(max_deg, nonzero=False):
    """Fraction polynomials of degree <= max_deg, low degree first."""
    coeffs = st.lists(small_fractions, min_size=int(nonzero), max_size=max_deg + 1)
    if nonzero:
        return coeffs.map(lambda p: tuple(p[:-1]) + (p[-1] or Fraction(1),))
    return coeffs.map(oracles.poly_trim)


@st.composite
def qrat_operands(draw):
    """Two unreduced (num, den) pairs of degree <= 8.  Each pair shares a
    planted factor between its numerator and denominator, and the two
    denominators share another."""
    shared = draw(polys(2, nonzero=True))
    pairs = []
    for _ in range(2):
        common = draw(polys(3, nonzero=True))
        num, den = draw(polys(5)), draw(polys(3, nonzero=True))
        pairs.append(
            (
                oracles.poly_mul(num, common),
                oracles.poly_mul(oracles.poly_mul(den, common), shared),
            )
        )
    return pairs


@settings(max_examples=60, deadline=None)
@given(qrat_operands(), polys(2, nonzero=True))
def test_qrat_matches_fraction_oracle(operands, factor):
    F = QRationalFunctions()
    (xn, xd), (yn, yd) = operands
    x, y = QRat(xn, xd), QRat(yn, yd)
    ox, oy = oracles.FractionQRat(xn, xd), oracles.FractionQRat(yn, yd)
    pairs = [(x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (-x, -ox)]
    if ox.invert() is None:
        assert F.try_invert(x) is None
    else:
        pairs.append((F.try_invert(x), ox.invert()))
    for got, want in pairs:
        assert (got.num, got.den) == (want.num, want.den)
        assert F.serialize(got) == want.serialize()
        assert F.deserialize(F.serialize(got)) == got
    assert (x == y) == (ox == oy)
    # the same value written over another common factor
    z = QRat(oracles.poly_mul(xn, factor), oracles.poly_mul(xd, factor))
    assert x == z and hash(x) == hash(z)
    assert poly_gcd(xn, xd) == oracles.poly_gcd(xn, xd)


@settings(max_examples=60, deadline=None)
@given(qrat_operands())
def test_qrat_integer_form_is_canonical(operands):
    (xn, xd), _ = operands
    x = QRat(xn, xd)
    n, d = x._n, x._d
    assert all(isinstance(c, int) for c in n + d)
    assert d[-1] > 0 and gcd(*n, *d) == 1
    if n:
        assert poly_gcd(n, d) == (1,)
    else:
        assert d == (1,)


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
