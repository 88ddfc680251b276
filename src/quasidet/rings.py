"""Scalar rings with exact arithmetic and partial inversion.

Every ring element is immutable and all arithmetic is exact; no floating
point enters any code path.  A ring object knows how to build, compare,
invert (partially), sample and serialize its elements.  Concrete rings:

* ``Rationals``            -- arbitrary-precision rationals (``Rat``, a
                              ``Fraction`` with direct int arithmetic),
* ``SquareMatrices(d)``    -- d x d rational matrices,
* ``TruncatedSeriesRing``  -- truncated power series in a central variable
                              with coefficients from any base ring,
* ``QRationalFunctions``   -- exact rational functions in one commuting
                              variable q (pairs of coprime integer
                              polynomials).

Series over ``Rationals`` and ``SquareMatrices`` provide the t-graded
scalars used by the derivation and formal-series checks; series over
``QRationalFunctions`` provide the q-series scalars used by the
continued-fraction coefficient checks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

from .exactlin import invert_scaled


class DomainError(Exception):
    """Raised when an inversion (or an operation built on one) is undefined.

    ``payload`` optionally carries the offending object, e.g. the formula
    subterm whose value was not invertible.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class Rat(Fraction):
    """The rationals' element type: a ``Fraction`` whose ``+``, ``-``, ``*``
    and unary ``-`` run straight on its two int fields.

    Against a ``Rat``, a ``Fraction`` or an ``int`` (by exact type) each
    result is computed by the lowest-terms formulas of ``Fraction._add``,
    ``_sub`` and ``_mul`` (Knuth, TAOCP 2, 4.5.1) and built by ``_rat``,
    without ``Fraction``'s operator dispatch or its constructor.  Any other
    operand goes to ``Fraction``'s own method.  Equality, hashing, ordering
    and ``str`` are ``Fraction``'s, and so is ``repr``, so a ``Rat`` prints
    as the ``Fraction`` it equals.
    """

    __slots__ = ()

    def __add__(a, b):
        tb = type(b)
        if tb is Rat or tb is Fraction:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if tb is int:
            return _rat(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    __radd__ = __add__

    def __sub__(a, b):
        tb = type(b)
        if tb is Rat or tb is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if tb is int:
            return _rat(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        # a - b, with a the left operand
        ta = type(a)
        if ta is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if ta is int:
            return _rat(a * b._denominator - b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        tb = type(b)
        if tb is Rat or tb is Fraction:
            nb, db = b._numerator, b._denominator
        elif tb is int:
            nb, db = b, 1
        else:
            return Fraction.__mul__(a, b)
        na, da = a._numerator, a._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _rat(na * nb, db * da)

    __rmul__ = __mul__

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


def _sum(na, da, nb, db) -> Rat:
    """na/da + nb/db for two fractions in lowest terms, by ``Fraction._add``."""
    g = gcd(da, db)
    if g == 1:
        return _rat(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def _rat(n: int, d: int) -> Rat:
    """A Rat from ints already in lowest terms with ``d > 0``."""
    x = object.__new__(Rat)
    x._numerator = n
    x._denominator = d
    return x


def _ratio(n: int, d: int) -> Rat:
    """The Rat n/d for ints with ``d != 0``, reduced by one gcd."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return _rat(n // g, d // g)


_ZERO, _ONE = _rat(0, 1), _rat(1, 1)


def _parse_rational(obj) -> Rat:
    """The Rat that the string ``obj`` writes (as ``Fraction`` reads it);
    ValueError for anything else, a zero denominator included.

    A string exactly as ``format_fraction`` writes its value is read by
    two ``int`` calls; any other string goes to ``Fraction``'s parser,
    so the strings accepted and their values are ``Fraction``'s."""
    if not isinstance(obj, str):
        raise ValueError(f"a rational is written as a string, not {type(obj).__name__}")
    num, slash, den = obj.partition("/")
    try:
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        pass
    else:
        # canonical: str(int) on both sides, "/q" only for q > 1, reduced
        if str(n) == num and (not slash or d > 1 and str(d) == den and gcd(n, d) == 1):
            return _rat(n, d)
    try:
        return Rat(obj)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {obj!r}") from None


def _is_grid(obj, n: int, m: int) -> bool:
    """Whether ``obj`` is a list of ``n`` lists of ``m`` values each."""
    return (
        isinstance(obj, list)
        and len(obj) == n
        and all(isinstance(row, list) and len(row) == m for row in obj)
    )


def format_fraction(x: Fraction) -> str:
    # canonical: reduced, positive denominator, "/q" omitted for integers
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class ScalarRing:
    """Interface contract for a unital ring with partial inversion.

    Elements are expected to implement ``+``, ``-`` (unary and binary),
    ``*`` and ``==`` exactly; the ring supplies identities, inversion,
    sampling and serialization.  ``flat_dim`` is the size of an exact
    rational-matrix embedding when one exists (used to invert matrices
    over the ring by flattening), else ``None``.  The embedding is
    exchanged as an int block ``(num, den)``: a k x k int matrix ``num``
    over one nonzero int denominator ``den``.
    """

    name: str = "ring"
    flat_dim: Optional[int] = None

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def coerce(self, x):
        """Canonical ring element for x; ints embed via from_int."""
        if isinstance(x, int):
            return self.from_int(x)
        return x

    def try_invert(self, a):
        """Two-sided inverse of ``a`` or ``None`` when not invertible."""
        raise NotImplementedError

    def invert(self, a):
        inv = self.try_invert(a)
        if inv is None:
            raise DomainError(f"element not invertible in {self.name}", payload=a)
        return inv

    def from_int(self, m: int):
        raise NotImplementedError

    def random_element(self, rng, profile=None):
        raise NotImplementedError

    def serialize(self, a):
        raise NotImplementedError

    def deserialize(self, obj):
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-able description sufficient to rebuild the ring."""
        raise NotImplementedError

    # exact rational-matrix embedding, defined when flat_dim is not None
    def flatten(self, a) -> tuple[Sequence[Sequence[int]], int]:
        """The int block ``(num, den)`` of ``a``, with ``den > 0``."""
        raise NotImplementedError

    def unflatten(self, block: tuple[Sequence[Sequence[int]], int]):
        """The element whose embedding is ``num / den``."""
        raise NotImplementedError

    def _embedding_dim(self) -> int:
        if self.flat_dim is None:
            raise TypeError(f"{self.name} has no rational embedding")
        return self.flat_dim

    def flatten_rows(self, rows) -> tuple[list, list]:
        """Rows of elements as one int matrix with a positive scale per
        row, ``(num, scales)``: the rational matrix is
        ``diag(scales)^-1 num`` (block structure forgotten).  The k rows
        flattened from one row of elements share its scale."""
        k = self._embedding_dim()
        num, scales = [], []
        for row in rows:
            blocks = [self.flatten(x) for x in row]
            scale = lcm(*(den for _, den in blocks))
            factors = [(block, scale // den) for block, den in blocks]
            for r in range(k):
                num.append([v * f for block, f in factors for v in block[r]])
            scales += [scale] * k
        return num, scales

    def unflatten_rows(self, num, den, n_rows: int, n_cols: int) -> tuple:
        """The ``n_rows`` x ``n_cols`` entry tuples whose flattening is
        ``num / den`` (one nonzero int denominator)."""
        k = self._embedding_dim()
        return tuple(
            tuple(
                self.unflatten(([row[j * k : j * k + k] for row in num[i * k : i * k + k]], den))
                for j in range(n_cols)
            )
            for i in range(n_rows)
        )

    def __repr__(self):
        return self.name


class SampleProfile:
    """Bounds for random entry generation.

    Numerators are drawn uniformly from [-max_num, max_num] and
    denominators from [1, max_den]; max_den=1 yields integers.
    """

    def __init__(self, max_num: int = 10, max_den: int = 10):
        if max_num < 1 or max_den < 1:
            raise ValueError("sample bounds must be >= 1")
        self.max_num = max_num
        self.max_den = max_den

    def draw_fraction(self, rng) -> Rat:
        num = rng.randint(-self.max_num, self.max_num)
        den = rng.randint(1, self.max_den)
        return _ratio(num, den)


DEFAULT_PROFILE = SampleProfile()


class Rationals(ScalarRing):
    """Exact rational numbers; inversion fails exactly on zero."""

    name = "Q"
    flat_dim = 1

    @property
    def zero(self):
        return _ZERO

    @property
    def one(self):
        return _ONE

    def is_zero(self, a) -> bool:
        return not a

    def try_invert(self, a):
        if type(a) is not Rat:
            a = Rat(a)
        n, d = a._numerator, a._denominator
        if not n:
            return None
        return _rat(d, n) if n > 0 else _rat(-d, -n)

    def from_int(self, m: int):
        return Rat(m)

    def coerce(self, x):
        return x if type(x) is Rat else Rat(x)

    def random_element(self, rng, profile=None):
        return (profile or DEFAULT_PROFILE).draw_fraction(rng)

    def serialize(self, a):
        return format_fraction(a)

    def deserialize(self, obj):
        return _parse_rational(obj)

    def spec(self):
        return {"kind": "rationals"}

    def flatten_rows(self, rows):
        # each Rat is its own numerator over its denominator (see exactlin)
        num, scales = [], []
        for row in rows:
            scale = lcm(*[x._denominator for x in row])
            num.append([x._numerator * (scale // x._denominator) for x in row])
            scales.append(scale)
        return num, scales

    def unflatten_rows(self, num, den, n_rows, n_cols):
        # k = 1: num already has the target shape, one int per entry
        return tuple(tuple(_ratio(x, den) for x in row) for row in num)

    def unflatten(self, block):
        num, den = block
        return _ratio(num[0][0], den)


class MatScalar:
    """Immutable d x d rational matrix, used as a single ring scalar.

    Stored as an integer matrix ``num`` over one positive denominator
    ``den`` with ``gcd(den, *num) == 1``, so every rational matrix has
    exactly one representation and arithmetic runs on Python ints.
    ``MatScalar(rows)`` takes rows of ints or Fractions;
    ``MatScalar(num, den)`` takes a tuple of int-tuples over any nonzero
    int ``den`` and reduces it.  Products and sums at d = 2 and 3 run
    through the straight-line kernels in ``_MUL`` and ``_COMBINE``, every
    other d through the generic loops; results the kernels reduce
    themselves, and negations, are built by ``_new`` instead.
    """

    __slots__ = ("d", "num", "den")

    def __init__(self, rows, den=None):
        if den is None:
            rows = tuple(tuple(r) for r in rows)
            d = len(rows)
            if any(len(r) != d for r in rows):
                raise ValueError("matrix scalar must be square")
            # the lcm of reduced denominators leaves no common factor
            den = lcm(*(x.denominator for r in rows for x in r))
            rows = tuple(
                tuple(x.numerator * (den // x.denominator) for x in r) for r in rows
            )
        elif den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if den < 0:
                g = -g
            if g != 1:
                rows = tuple(tuple(x // g for x in r) for r in rows)
                den //= g
        self.d = len(rows)
        self.num = rows
        self.den = den

    @property
    def rows(self):
        """The entries as canonical Fractions, row by row."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in r) for r in self.num)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        self._check(other)
        an, bn = self.num, other.num
        zero = _ZERO_NUM[self.d]
        if bn == zero:
            return self
        if an == zero:
            return other if sign == 1 else -other
        # self + sign * other = (x * u + y * v) / den entry by entry
        da, db = self.den, other.den
        if da == db:
            u, v, den = 1, sign, da
        else:
            u, v, den = db, sign * da, da * db
        kernel = _COMBINE.get(self.d)
        if kernel is not None:
            return kernel(an, bn, u, v, den)
        return MatScalar(
            tuple(
                tuple(x * u + y * v for x, y in zip(ra, rb))
                for ra, rb in zip(an, bn)
            ),
            den,
        )

    def __neg__(self):
        return _new(tuple([tuple([-x for x in r]) for r in self.num]), self.den, self.d)

    def __mul__(self, other):
        self._check(other)
        kernel = _MUL.get(self.d)
        if kernel is not None:
            return kernel(self.num, other.num, self.den * other.den)
        cols = tuple(zip(*other.num))
        return MatScalar(
            tuple(
                tuple(sum(map(operator.mul, row, col)) for col in cols)
                for row in self.num
            ),
            self.den * other.den,
        )

    def _check(self, other):
        if not isinstance(other, MatScalar) or other.d != self.d:
            raise TypeError("dimension mismatch between matrix scalars")

    def __eq__(self, other):
        return (
            isinstance(other, MatScalar)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(
            " ".join(format_fraction(x) for x in r) for r in self.rows
        )
        return f"[{body}]"


class _ZeroNums(dict):
    def __missing__(self, d):  # d -> num of the d x d zero matrix
        self[d] = zero = ((0,) * d,) * d
        return zero


_ZERO_NUM = _ZeroNums()


def _new(num, den, d):
    """A MatScalar from a ``num`` over ``den`` already in lowest terms."""
    a = object.__new__(MatScalar)
    a.d, a.num, a.den = d, num, den
    return a


# Straight-line kernels for d = 2 and 3: every entry is one expression,
# and _canon<d> reduces them by one gcd over the positive denominator.
# Q itself is ``Rationals``, so d = 1 is left to the generic loops.


def _canon2(den, p, q, r, s):
    g = gcd(den, p, q, r, s)
    if g != 1:
        den, p, q, r, s = den // g, p // g, q // g, r // g, s // g
    return _new(((p, q), (r, s)), den, 2)


def _mul2(a, b, den):
    (p, q), (r, s) = a
    (w, x), (y, z) = b
    return _canon2(den, p * w + q * y, p * x + q * z, r * w + s * y, r * x + s * z)


def _combine2(a, b, u, v, den):
    (p, q), (r, s) = a
    (w, x), (y, z) = b
    return _canon2(den, p * u + w * v, q * u + x * v, r * u + y * v, s * u + z * v)


def _canon3(den, *c):
    g = gcd(den, *c)
    if g != 1:
        den, c = den // g, tuple([x // g for x in c])
    return _new((c[0:3], c[3:6], c[6:9]), den, 3)


def _mul3(a, b, den):
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return _canon3(
        den,
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def _combine3(a, b, u, v, den):
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return _canon3(
        den,
        a0 * u + b0 * v, a1 * u + b1 * v, a2 * u + b2 * v,
        a3 * u + b3 * v, a4 * u + b4 * v, a5 * u + b5 * v,
        a6 * u + b6 * v, a7 * u + b7 * v, a8 * u + b8 * v,
    )


# d -> kernel; a product kernel takes (a.num, b.num, a.den * b.den), a
# combine kernel (a.num, b.num, u, v, den) for (a * u + b * v) / den
_MUL = {2: _mul2, 3: _mul3}
_COMBINE = {2: _combine2, 3: _combine3}


class SquareMatrices(ScalarRing):
    """Ring of d x d exact-rational matrices; invertible iff det != 0."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.name = f"M{d}(Q)"
        self.flat_dim = d

    # built on first use: a ring named by a replayed record may never need them
    @cached_property
    def zero(self):
        return self.from_int(0)

    @cached_property
    def one(self):
        return self.from_int(1)

    def is_zero(self, a: MatScalar) -> bool:
        # the canonical zero has denominator 1, so its num is all zeros
        return a.num == _ZERO_NUM[a.d]

    def try_invert(self, a: MatScalar):
        inv = invert_scaled(a.num, (a.den,) * self.d)
        return None if inv is None else self.unflatten(inv)

    def from_int(self, m: int):
        return self.scalar_matrix(m)

    def scalar_matrix(self, x: Fraction):
        d = self.d
        return MatScalar(
            [[x if i == j else 0 for j in range(d)] for i in range(d)]
        )

    def random_element(self, rng, profile=None):
        profile = profile or DEFAULT_PROFILE
        # draw_fraction's randint calls, in its order, kept as ints
        top, max_den, randint, d = profile.max_num, profile.max_den, rng.randint, self.d
        draws = [(randint(-top, top), randint(1, max_den)) for _ in range(d * d)]
        den = lcm(*(b for _, b in draws))
        num = [a * (den // b) for a, b in draws]
        return MatScalar(tuple(tuple(num[i : i + d]) for i in range(0, d * d, d)), den)

    def serialize(self, a: MatScalar):
        # format_fraction of each entry, reduced straight from num / den
        den, out = a.den, []
        for r in a.num:
            row = []
            for x in r:
                g = gcd(x, den)
                row.append(str(x // g) if g == den else f"{x // g}/{den // g}")
            out.append(row)
        return out

    def deserialize(self, obj):
        if not _is_grid(obj, self.d, self.d):
            raise ValueError(f"{self.name} holds {self.d}x{self.d} rows of rationals")
        rows = [[_parse_rational(x) for x in r] for r in obj]
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(x._denominator for r in rows for x in r))
        num = tuple(tuple(x._numerator * (den // x._denominator) for x in r) for r in rows)
        return _new(num, den, self.d)

    def spec(self):
        return {"kind": "matrices", "d": self.d}

    def flatten(self, a: MatScalar):
        return a.num, a.den

    def unflatten(self, block):
        num, den = block
        return MatScalar(tuple(map(tuple, num)), den)


def _order_solve(inv0, m, b, is_zero) -> list:
    """X_0..X_L with (sum_i m_i t^i)(sum_k X_k t^k) = sum_k b_k t^k up to
    t^L, given ``inv0`` = m_0^-1: the order recursion
    X_k = m_0^-1 (b_k - sum_{i>=1} m_i X_{k-i}), skipping each m_i that
    ``is_zero`` takes.  Serves series elements and coefficient matrices."""
    tail = [(i, mi) for i, mi in enumerate(m) if i and not is_zero(mi)]
    x = []
    for k, rhs in enumerate(b):
        for i, mi in tail:
            if i > k:
                break
            rhs = rhs - mi * x[k - i]
        x.append(inv0 * rhs)
    return x


class SeriesElement:
    """Truncated power series c_0 + c_1 t + ... + c_L t^L, t central.

    Coefficients live in the base ring of ``ring``; products above t^L
    are dropped, and so are terms with an exact-zero factor.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "TruncatedSeriesRing", coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != ring.order + 1:
            raise ValueError("coefficient count must be order + 1")
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, SeriesElement) or other.ring is not self.ring:
            if isinstance(other, SeriesElement) and other.ring.spec() == self.ring.spec():
                return
            raise TypeError("series from different rings")

    def __add__(self, other):
        self._check(other)
        return SeriesElement(
            self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        return SeriesElement(
            self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return SeriesElement(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        L = ring.order
        is_zero = ring.base.is_zero
        right = [(j, y) for j, y in enumerate(other.coeffs) if not is_zero(y)]
        out = [None] * (L + 1)
        for i, x in enumerate(self.coeffs):
            if is_zero(x):
                continue
            for j, y in right:
                k = i + j
                if k > L:
                    break
                term = x * y
                out[k] = term if out[k] is None else out[k] + term
        zero = ring.base.zero  # for each empty sum
        return SeriesElement(ring, [zero if c is None else c for c in out])

    def __eq__(self, other):
        return (
            isinstance(other, SeriesElement)
            and self.ring.spec() == other.ring.spec()
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        var = self.ring.variable
        parts = [f"({c!r})*{var}^{k}" for k, c in enumerate(self.coeffs)]
        return " + ".join(parts)


class TruncatedSeriesRing(ScalarRing):
    """Series truncated at a fixed order over an arbitrary base ring.

    Invertible iff the order-0 coefficient is invertible in the base
    ring; the inverse is computed order by order and is exact.  One order
    recursion, ``_order_solve``, inverts an element here and solves a
    matrix over series over its coefficient matrices (``NcMatrix.solve``).
    No ``flat_dim``: the block Toeplitz embedding is exact but slower to
    eliminate than that recursion.
    """

    def __init__(self, base: ScalarRing, order: int, variable: str = "t"):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.base = base
        self.order = order
        self.variable = variable
        self.name = f"{base.name}[[{variable}]]/{variable}^{order + 1}"
        self.flat_dim = None

    @property
    def zero(self):
        return SeriesElement(self, [self.base.zero] * (self.order + 1))

    @property
    def one(self):
        return SeriesElement(
            self, [self.base.one] + [self.base.zero] * self.order
        )

    def element(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > self.order + 1:
            raise ValueError("too many coefficients")
        coeffs += [self.base.zero] * (self.order + 1 - len(coeffs))
        return SeriesElement(self, coeffs)

    def variable_element(self):
        if self.order < 1:
            return self.zero
        coeffs = [self.base.zero] * (self.order + 1)
        coeffs[1] = self.base.one
        return SeriesElement(self, coeffs)

    def is_zero(self, a: SeriesElement) -> bool:
        return all(map(self.base.is_zero, a.coeffs))

    def try_invert(self, a: SeriesElement):
        b0 = self.base.try_invert(a.coeffs[0])
        if b0 is None:
            return None
        return SeriesElement(self, _order_solve(b0, a.coeffs, self.one.coeffs, self.base.is_zero))

    def from_int(self, m: int):
        return self.element([self.base.from_int(m)])

    def random_element(self, rng, profile=None):
        return self.element(
            [self.base.random_element(rng, profile) for _ in range(self.order + 1)]
        )

    def serialize(self, a: SeriesElement):
        return {str(k): self.base.serialize(c) for k, c in enumerate(a.coeffs)}

    def deserialize(self, obj):
        keys = [str(k) for k in range(self.order + 1)]
        if not isinstance(obj, dict) or obj.keys() != set(keys):
            raise ValueError(f"{self.name} holds exactly the coefficients 0..{self.order}")
        return SeriesElement(self, [self.base.deserialize(obj[k]) for k in keys])

    def spec(self):
        return {
            "kind": "series",
            "base": self.base.spec(),
            "order": self.order,
            "variable": self.variable,
        }


# ---------------------------------------------------------------------------
# polynomials and rational functions in one commuting variable q
#
# A polynomial is a tuple of coefficients, lowest degree first, with no
# trailing zeros; () is the zero polynomial.  The public helpers take ints
# or Fractions; the ``_``-named ones work on ints only.


def poly_trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a, b):
    return _pmul(poly_trim(a), poly_trim(b))


def poly_gcd(a, b):
    """Monic gcd of two rational polynomials; () when both are zero."""
    g = _pgcd(_integral(poly_trim(a)), _integral(poly_trim(b)))
    return tuple(Fraction(c, g[-1]) for c in g)


def _integral(coeffs) -> tuple:
    """Rational coefficients times the lcm of their denominators."""
    scale = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (scale // c.denominator) for c in coeffs)


def _padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pmul(a, b) -> tuple:
    # the leading product is nonzero, so the result needs no trimming
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _primitive(p) -> tuple:
    """``p`` over its integer content, leading coefficient made positive."""
    if not p:
        return p
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    return p if c == 1 else tuple(x // c for x in p)


def _prem(a, b) -> list:
    """The remainder of ``a`` on division by ``b``, times a nonzero integer;
    each step scales ``a`` only by what the leading terms need."""
    a = list(a)
    lb, db = b[-1], len(b) - 1
    while len(a) > db:
        la = a.pop()
        shift = len(a) - db
        if la % lb:
            g = gcd(la, lb)
            scale, la = lb // g, la // g
            a = [x * scale for x in a]
        else:
            la //= lb
        for i in range(db):
            a[shift + i] -= la * b[i]
        while a and not a[-1]:
            a.pop()
    return a


def _pgcd(a, b) -> tuple:
    """Primitive gcd, leading coefficient positive, of two integer
    polynomials, by the primitive polynomial remainder sequence (G. E.
    Collins, J. ACM 14, 1967); () when both are zero."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    if not b:
        return a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return (1,)


def _pexquo(a, b) -> tuple:
    """``a / b`` for integer polynomials when ``b`` is primitive and divides
    ``a``: by Gauss's lemma the quotient has integer coefficients, so each
    leading division is exact."""
    a = list(a)
    lb, db = b[-1], len(b) - 1
    quot = [0] * (len(a) - db)
    for shift in range(len(quot) - 1, -1, -1):
        f = a[shift + db] // lb
        quot[shift] = f
        if f:
            for i in range(db):
                a[shift + i] -= f * b[i]
    return tuple(quot)


def _reduced(n, d):
    """The canonical integer pair for the rational function n/d (``d``
    nonzero): coprime, no common integer content, ``d`` leading positive."""
    if not n:
        return (), (1,)
    if len(n) > 1 and len(d) > 1:
        g = _pgcd(n, d)
        if len(g) > 1:
            n, d = _pexquo(n, g), _pexquo(d, g)
    c = gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    return n, d


def _qrat(n, d) -> "QRat":
    """A QRat from an integer pair already in canonical form."""
    x = object.__new__(QRat)
    x._n = n
    x._d = d
    return x


class QRat:
    """Reduced fraction of rational-coefficient polynomials in q.

    Stored as two coprime integer polynomials ``_n``/``_d`` with no common
    integer content and a positive leading coefficient of ``_d``.  Each
    rational function has exactly one such form, so ``==`` and ``hash``
    compare tuples.  ``num`` and ``den`` give the value as Fraction tuples
    over a monic denominator.  Every QRat is stored reduced.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=(1,)):
        num, den = poly_trim(num), poly_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        ints = _integral(num + den)
        self._n, self._d = _reduced(ints[: len(num)], ints[len(num) :])

    @property
    def num(self):
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._n)

    @property
    def den(self):
        lead = self._d[-1]
        return tuple(Fraction(c, lead) for c in self._d)

    def __add__(self, other):
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if d1 == d2:
            return _qrat(*_reduced(_padd(n1, n2), d1))
        return _qrat(*_reduced(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _qrat(tuple(-c for c in self._n), self._d)

    def __mul__(self, other):
        return _qrat(*_reduced(_pmul(self._n, other._n), _pmul(self._d, other._d)))

    def __eq__(self, other):
        if not isinstance(other, QRat):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._n, self._d))

    def __repr__(self):
        def fmt(p):
            if not p:
                return "0"
            parts = []
            for k, c in enumerate(p):
                if c == 0:
                    continue
                if k == 0:
                    parts.append(format_fraction(c))
                elif k == 1:
                    parts.append(f"{format_fraction(c)}*q" if c != 1 else "q")
                else:
                    parts.append(f"{format_fraction(c)}*q^{k}" if c != 1 else f"q^{k}")
            return " + ".join(parts)

        if len(self._d) == 1:
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


class QRationalFunctions(ScalarRing):
    """Field of exact rational functions in q; inversion fails only on 0."""

    name = "Q(q)"
    flat_dim = None

    @property
    def zero(self):
        return _qrat((), (1,))

    @property
    def one(self):
        return _qrat((1,), (1,))

    def q(self, power: int = 1):
        return _qrat((0,) * power + (1,), (1,))

    def is_zero(self, a: QRat) -> bool:
        return not a._n

    def try_invert(self, a: QRat):
        n, d = a._d, a._n
        if not d:
            return None
        if d[-1] < 0:
            n, d = tuple(-c for c in n), tuple(-c for c in d)
        return _qrat(n, d)

    def from_int(self, m: int):
        return _qrat((m,) if m else (), (1,))

    def random_element(self, rng, profile=None):
        profile = profile or DEFAULT_PROFILE
        deg = rng.randint(0, 2)
        num = tuple(profile.draw_fraction(rng) for _ in range(deg + 1))
        return QRat(num)

    def serialize(self, a: QRat):
        return {
            "num": [format_fraction(c) for c in a.num],
            "den": [format_fraction(c) for c in a.den],
        }

    def deserialize(self, obj):
        lists = isinstance(obj, dict) and obj.keys() == {"num", "den"}
        if not lists or not all(isinstance(c, list) for c in obj.values()):
            raise ValueError(f"{self.name} holds a num and a den coefficient list")
        den = tuple(_parse_rational(c) for c in obj["den"])
        if not any(den):
            raise ValueError(f"zero denominator in {obj!r}")
        return QRat(tuple(_parse_rational(c) for c in obj["num"]), den)

    def spec(self):
        return {"kind": "qrationals"}

