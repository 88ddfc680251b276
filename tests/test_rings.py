import operator
import random
from fractions import Fraction
from math import gcd

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidet import rings
from quasidet.catalog import get_identity
from quasidet.harness import COUNTEREXAMPLE, VERIFIED, RunConfig, run_identity
from quasidet.matrix import ring_from_spec
from quasidet.rings import (
    DomainError,
    MatScalar,
    QRat,
    QRationalFunctions,
    Rat,
    Rationals,
    SampleProfile,
    SquareMatrices,
    TruncatedSeriesRing,
    format_fraction,
    poly_gcd,
    poly_mul,
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
    for a, inv in ((Fraction(-3, 7), Fraction(-7, 3)), (-4, Fraction(-1, 4)), (5, Fraction(1, 5))):
        assert Q.try_invert(a) == inv
        assert Q.try_invert(a).denominator > 0
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


# Rat against Fraction: small values hit every gcd branch of the
# lowest-terms formulas, wide ones carry multi-digit factors
rational_values = st.one_of(
    fractions_st,
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
)
rat_operands = st.one_of(
    rational_values.map(Rat), rational_values, st.integers(-(10**6), 10**6)
)


@given(x=rational_values, y=rat_operands)
def test_rat_arithmetic_matches_fraction(x, y):
    a, fy = Rat(x), Fraction(y)
    results = [(-a, -x)]
    for op in (operator.add, operator.sub, operator.mul):
        results += [(op(a, y), op(x, fy)), (op(y, a), op(fy, x))]
    for got, want in results:
        assert type(got) is Rat
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1
    for made in (a, -a, a * y):
        plain = Fraction(made.numerator, made.denominator)
        assert made == plain and hash(made) == hash(plain)
        assert str(made) == str(plain) and repr(made) == repr(plain)
    if x.denominator == 1:
        assert a == x.numerator and hash(a) == hash(x.numerator)


def test_rat_leaves_other_operands_to_fraction():
    a = Rat(1, 2)
    assert a + 0.25 == 0.75 and type(a + 0.25) is float
    assert a * True == Fraction(1, 2)
    assert type(a / 2) is Fraction and a / 2 == Fraction(1, 4)


def test_fraction_keeps_the_fields_rat_reads():
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    assert Rat.__slots__ == ()


def test_rationals_make_only_rats(Q):
    rng = random.Random(7)
    made = [
        Q.zero,
        Q.one,
        Q.from_int(-3),
        Q.coerce(4),
        Q.coerce(Fraction(2, 6)),
        Q.coerce(Rat(1, 2)),
        Q.try_invert(Fraction(-3, 7)),
        Q.try_invert(5),
        Q.try_invert(Rat(2, 3)),
        Q.unflatten(([[6]], -4)),
        Q.deserialize("-3/9"),
        Q.random_element(rng),
        SampleProfile(3, 5).draw_fraction(rng),
    ]
    assert all(type(x) is Rat for x in made)
    assert made[:11] == [
        0, 1, -3, 4, Fraction(1, 3), Fraction(1, 2), Fraction(-7, 3),
        Fraction(1, 5), Fraction(3, 2), Fraction(-3, 2), Fraction(-1, 3),
    ]
    # each draw is Fraction(randint(-max_num, max_num), randint(1, max_den))
    twin = random.Random(7)
    assert made[11:] == [
        Fraction(twin.randint(-10, 10), twin.randint(1, 10)),
        Fraction(twin.randint(-3, 3), twin.randint(1, 5)),
    ]


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


def wide_fraction_rows(d):
    # small entries, and entries whose numerators and denominators pass 2**64
    big = 2**70
    num = st.one_of(st.integers(-10, 10), st.integers(-big, big))
    den = st.one_of(st.integers(1, 10), st.integers(2**64, big))
    row = st.lists(st.builds(Fraction, num, den), min_size=d, max_size=d)
    return st.lists(row, min_size=d, max_size=d)


@st.composite
def kernel_operands(draw, d):
    """Two d x d MatScalars: independent, over one denominator, or a zero."""
    a = MatScalar(draw(wide_fraction_rows(d)))
    kind = draw(st.sampled_from(["independent", "same-den", "zero"]))
    if kind == "same-den":
        # a plus an int matrix keeps a's denominator
        ks = iter(draw(st.lists(st.integers(-9, 9), min_size=d * d, max_size=d * d)))
        b = MatScalar([[x + next(ks) * 2**66 for x in r] for r in a.rows])
        assert b.den == a.den
    elif kind == "zero":
        b = SquareMatrices(d).zero
    else:
        b = MatScalar(draw(wide_fraction_rows(d)))
    return (a, b) if draw(st.booleans()) else (b, a)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@given(data=st.data())
@settings(max_examples=150)
def test_matscalar_kernels_match_fraction_rows(d, data):
    # d = 2 and 3 run the straight-line kernels, d = 1 and 4 the generic
    # loops; no cell builds M1(Q), so this is the d = 1 loops' oracle test
    a, b = data.draw(kernel_operands(d))
    cases = (
        (a * b, oracles.matmul_rows(a.rows, b.rows)),
        (a + b, oracles.entrywise(operator.add, a.rows, b.rows)),
        (a - b, oracles.entrywise(operator.sub, a.rows, b.rows)),
        (-a, oracles.entrywise(lambda x, _: -x, a.rows, a.rows)),
    )
    for got, rows in cases:
        assert got.d == d and got.rows == rows
        assert_canonical(got)
        expected = MatScalar(rows)
        assert got.num == expected.num and got.den == expected.den
        assert got == expected and hash(got) == hash(expected)


def _swapped(kernel):
    return lambda a, b, den: kernel(b, a, den)


@pytest.mark.parametrize("d", [2, 3])
def test_swapped_product_kernel_is_caught(monkeypatch, d):
    # A kernel computing b * a instead of a * b is killed by the
    # quasideterminant identities.  RING-AXIOMS cannot kill it: the
    # opposite ring is still a ring, so every axiom holds.
    desc = get_identity("QDET-DEF-AGREE")
    config = RunConfig(samples=3, dims=[d])
    assert run_identity(desc, config).status == VERIFIED
    monkeypatch.setitem(rings._MUL, d, _swapped(rings._MUL[d]))
    assert run_identity(desc, config).status == COUNTEREXAMPLE


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@given(data=st.data())
def test_matscalar_serialization_strings(d, data):
    rows = data.draw(st.one_of(fraction_rows(d), wide_fraction_rows(d)))
    ring = SquareMatrices(d)
    a = MatScalar(rows)
    text = ring.serialize(a)
    # the same strings the Fraction-entry representation wrote
    assert text == [[format_fraction(Fraction(x)) for x in r] for r in rows]
    back = ring.deserialize(text)
    assert back == a and back.num == a.num and back.den == a.den
    for x in (-a, a * a, a - a, ring.one):
        assert ring.serialize(x) == [[format_fraction(v) for v in r] for r in x.rows]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("bounds", [None, (10, 1), (3, 2), (1, 1), (2**70, 2**70)])
def test_random_element_matches_fraction_draw(d, bounds):
    ring = SquareMatrices(d)
    profile = SampleProfile(*bounds) if bounds else None
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        a = ring.random_element(rng, profile)
        want = oracles.fraction_draw_rows(ref, d, *(bounds or ()))
        assert a.rows == want
        assert (a.num, a.den) == (MatScalar(want).num, MatScalar(want).den)
        assert_canonical(a)
        # the same draws in the same order: both streams go on identically
        assert rng.getstate() == ref.getstate()


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


@pytest.mark.parametrize("d", [2, 3])
@given(data=st.data())
def test_matscalar_deserialize_is_matscalar_of_the_rows(d, data):
    ints = st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d)
    rows = data.draw(st.one_of(fraction_rows(d), wide_fraction_rows(d), ints))
    ring = SquareMatrices(d)
    for grid in (rows, [[0] * d] * d, [[Fraction(x, 3) for x in r] for r in rows]):
        want = MatScalar([[Fraction(x) for x in r] for r in grid])
        got = ring.deserialize([[format_fraction(Fraction(x)) for x in r] for r in grid])
        assert (got.d, got.num, got.den) == (want.d, want.num, want.den)
        assert type(got.num) is tuple and all(type(r) is tuple for r in got.num)


def test_matscalar_deserialize_reads_strings_fraction_reads(M2):
    got = M2.deserialize([["-3/9", "4/2"], ["+1", " 0"]])
    want = MatScalar([[Fraction(-1, 3), 2], [1, 0]])
    assert (got.num, got.den) == (want.num, want.den) == (((-1, 6), (3, 0)), 3)


def _assert_read_as_fraction_reads(text):
    try:
        want = Rat(text)
    except ValueError:
        with pytest.raises(ValueError):
            rings._parse_rational(text)
        return
    got = rings._parse_rational(text)
    assert type(got) is Rat
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(num=st.integers(-(2**70), 2**70), den=st.integers(1, 2**70))
def test_parse_rational_reads_canonical_strings(num, den):
    _assert_read_as_fraction_reads(format_fraction(Fraction(num, den)))


@pytest.mark.parametrize(
    "text", ["-3/9", "+3", " 2", "-0", "4/2", "1.5", "1e3", "1_0", "\u0663", "0/1", "007"]
)
def test_parse_rational_reads_other_strings_as_fraction_does(text):
    # Fraction reads "1_0" as 10 from Python 3.11 on and refuses it before
    _assert_read_as_fraction_reads(text)


# each ring kind with values it cannot hold: a replayed record carrying one
# must fail as a record that does not fit (ValueError), not in later arithmetic
UNHOLDABLE = {
    "Q": (Rationals(), [["1", "2"], 3, "1/0", "1/-2", "1/+2", "1/ 2", "1 /2", "/", "1/", "", "x", None]),
    "M2(Q)": (
        SquareMatrices(2),
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["1", "0"], ["0"]],
            [["1", "0"], ["0", ["1"]]],
            "1",
        ],
    ),
    "series": (
        TruncatedSeriesRing(Rationals(), 2),
        [{"0": "1", "1": "0"}, {"0": "1", "1": "0", "2": "0", "3": "0"}, ["1", "0", "0"]],
    ),
    "matrix-ring": (
        ring_from_spec({"kind": "matrix-ring", "base": {"kind": "rationals"}, "n": 2}),
        [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], [["1", "0"]], {"0": "1"}],
    ),
    "Q(q)": (
        QRationalFunctions(),
        [{"num": ["1"], "den": ["0"]}, {"num": ["1"]}, {"num": "1", "den": ["1"]}],
    ),
}


@pytest.mark.parametrize("ring,values", list(UNHOLDABLE.values()), ids=list(UNHOLDABLE))
def test_deserialize_refuses_values_the_ring_cannot_hold(ring, values):
    for value in values:
        with pytest.raises(ValueError):
            ring.deserialize(value)
