"""Scalar rings with exact arithmetic and partial inversion.

Every ring element is immutable and all arithmetic is exact; no floating
point enters any code path.  A ring object knows how to build, compare,
invert (partially), sample and serialize its elements.  Concrete rings:

* ``Rationals``            -- arbitrary-precision rationals (``Fraction``),
* ``SquareMatrices(d)``    -- d x d rational matrices,
* ``TruncatedSeriesRing``  -- truncated power series in a central variable
                              with coefficients from any base ring,
* ``QRationalFunctions``   -- exact rational functions in one commuting
                              variable q (pairs of coprime integer
                              polynomials).

Series over ``SquareMatrices`` provide the t-graded scalars used by the
derivation and formal-series checks; series over ``QRationalFunctions``
provide the q-series scalars used by the continued-fraction coefficient
checks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence


class DomainError(Exception):
    """Raised when an inversion (or an operation built on one) is undefined.

    ``payload`` optionally carries the offending object, e.g. the formula
    subterm whose value was not invertible.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


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

    def equals(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.equals(a, self.zero)

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

    def draw_fraction(self, rng) -> Fraction:
        num = rng.randint(-self.max_num, self.max_num)
        den = rng.randint(1, self.max_den)
        return Fraction(num, den)


DEFAULT_PROFILE = SampleProfile()


class Rationals(ScalarRing):
    """Exact rational numbers; inversion fails exactly on zero."""

    name = "Q"
    flat_dim = 1

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def is_zero(self, a) -> bool:
        return not a

    def try_invert(self, a):
        a = Fraction(a)
        if a == 0:
            return None
        return 1 / a

    def from_int(self, m: int):
        return Fraction(m)

    def coerce(self, x):
        return Fraction(x)

    def random_element(self, rng, profile=None):
        return (profile or DEFAULT_PROFILE).draw_fraction(rng)

    def serialize(self, a):
        return format_fraction(a)

    def deserialize(self, obj):
        return _parse_fraction(obj)

    def spec(self):
        return {"kind": "rationals"}

    def flatten(self, a):
        return ((a.numerator,),), a.denominator

    def unflatten(self, block):
        num, den = block
        return Fraction(num[0][0], den)


class MatScalar:
    """Immutable d x d rational matrix, used as a single ring scalar.

    Stored as an integer matrix ``num`` over one positive denominator
    ``den`` with ``gcd(den, *num) == 1``, so every rational matrix has
    exactly one representation and arithmetic runs on Python ints.
    ``MatScalar(rows)`` takes rows of ints or Fractions;
    ``MatScalar(num, den)`` takes a tuple of int-tuples over any nonzero
    int ``den`` and reduces it.
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
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def _combine(self, other, op):
        self._check(other)
        da, db = self.den, other.den
        # an exact-zero operand (the canonical zero has denominator 1)
        if db == 1 and not any(map(any, other.num)):
            return self
        if da == 1 and not any(map(any, self.num)):
            return other if op is operator.add else -other
        if da == db:
            return MatScalar(
                tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.num, other.num)),
                da,
            )
        return MatScalar(
            tuple(
                tuple(op(x * db, y * da) for x, y in zip(ra, rb))
                for ra, rb in zip(self.num, other.num)
            ),
            da * db,
        )

    def __neg__(self):
        return MatScalar(tuple(tuple(-x for x in r) for r in self.num), self.den)

    def __mul__(self, other):
        self._check(other)
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


class SquareMatrices(ScalarRing):
    """Ring of d x d exact-rational matrices; invertible iff det != 0."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.name = f"M{d}(Q)"
        self.flat_dim = d
        self._zero = MatScalar([[0] * d for _ in range(d)])
        self._one = MatScalar(
            [[int(i == j) for j in range(d)] for i in range(d)]
        )

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def is_zero(self, a: MatScalar) -> bool:
        # the canonical zero has denominator 1
        return a.den == 1 and not any(map(any, a.num))

    def try_invert(self, a: MatScalar):
        from .exactlin import invert_scaled

        inv = invert_scaled(a.num, (a.den,) * self.d)
        return None if inv is None else self.unflatten(inv)

    def from_int(self, m: int):
        d = self.d
        return MatScalar(
            [[m if i == j else 0 for j in range(d)] for i in range(d)]
        )

    def scalar_matrix(self, x: Fraction):
        d = self.d
        return MatScalar(
            [[x if i == j else 0 for j in range(d)] for i in range(d)]
        )

    def unit(self, i: int, j: int):
        """Matrix unit with a single 1 in (1-based) position (i, j)."""
        d = self.d
        return MatScalar(
            [
                [int((r, c) == (i - 1, j - 1)) for c in range(d)]
                for r in range(d)
            ]
        )

    def random_element(self, rng, profile=None):
        profile = profile or DEFAULT_PROFILE
        return MatScalar(
            [[profile.draw_fraction(rng) for _ in range(self.d)] for _ in range(self.d)]
        )

    def serialize(self, a: MatScalar):
        return [[format_fraction(x) for x in r] for r in a.rows]

    def deserialize(self, obj):
        return MatScalar([[_parse_fraction(x) for x in r] for r in obj])

    def spec(self):
        return {"kind": "matrices", "d": self.d}

    def flatten(self, a: MatScalar):
        return a.num, a.den

    def unflatten(self, block):
        num, den = block
        return MatScalar(tuple(map(tuple, num)), den)


def _zeros_filled(coeffs, base):
    """``coeffs`` with each ``None`` (an empty sum) replaced by zero."""
    zero = base.zero
    return [zero if c is None else c for c in coeffs]


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
        return SeriesElement(ring, _zeros_filled(out, ring.base))

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
    ring; the inverse is computed order by order and is exact.
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

    def coefficient(self, a: SeriesElement, k: int):
        return a.coeffs[k]

    def is_zero(self, a: SeriesElement) -> bool:
        return all(map(self.base.is_zero, a.coeffs))

    def try_invert(self, a: SeriesElement):
        base = self.base
        b0 = base.try_invert(a.coeffs[0])
        if b0 is None:
            return None
        is_zero = base.is_zero
        tail = [(i, c) for i, c in enumerate(a.coeffs) if i and not is_zero(c)]
        # out[k] = -b0 * sum_{i >= 1} a_i out[k - i], None for an empty sum
        out = [b0]
        for k in range(1, self.order + 1):
            acc = None
            for i, c in tail:
                if i > k:
                    break
                y = out[k - i]
                if y is not None:
                    term = c * y
                    acc = term if acc is None else acc + term
            out.append(None if acc is None else -(b0 * acc))
        return SeriesElement(self, _zeros_filled(out, base))

    def from_int(self, m: int):
        return self.element([self.base.from_int(m)])

    def random_element(self, rng, profile=None):
        return self.element(
            [self.base.random_element(rng, profile) for _ in range(self.order + 1)]
        )

    def serialize(self, a: SeriesElement):
        return {str(k): self.base.serialize(c) for k, c in enumerate(a.coeffs)}

    def deserialize(self, obj):
        coeffs = [self.base.deserialize(obj[str(k)]) for k in range(self.order + 1)]
        return SeriesElement(self, coeffs)

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
        return QRat(
            tuple(_parse_fraction(c) for c in obj["num"]),
            tuple(_parse_fraction(c) for c in obj["den"]),
        )

    def spec(self):
        return {"kind": "qrationals"}


def ring_from_spec(spec: dict) -> ScalarRing:
    """Rebuild a ring from its JSON description (see ``ScalarRing.spec``)."""
    kind = spec["kind"]
    if kind == "rationals":
        return Rationals()
    if kind == "matrices":
        return SquareMatrices(spec["d"])
    if kind == "series":
        return TruncatedSeriesRing(
            ring_from_spec(spec["base"]), spec["order"], spec.get("variable", "t")
        )
    if kind == "qrationals":
        return QRationalFunctions()
    if kind == "matrix-ring":
        from .matrix import MatrixRing

        return MatrixRing(ring_from_spec(spec["base"]), spec["n"])
    raise ValueError(f"unknown ring kind: {kind}")
