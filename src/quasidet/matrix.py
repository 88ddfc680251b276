"""Labeled rectangular matrices over a scalar ring.

Rows and columns carry persistent 1-based labels; deletion and selection
preserve the original labels and their order, which is what makes the
index bookkeeping of quasideterminant identities mechanical.  Inversion
swaps the label sets (the inverse of a matrix with rows I and columns J
has rows J and columns I).  A product pairs the left factor's column
labels with the right factor's row labels, and a sum pairs labels too:
each raises ValueError unless they are equal.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

# invert_rational stays importable from this module: bench/tracer.py
# wraps it under this name
from .exactlin import invert_rational, solve_rows
from .rings import (
    DomainError, QRationalFunctions, Rationals, ScalarRing, SeriesElement, SquareMatrices,
    TruncatedSeriesRing, _is_grid,
)


class NcMatrix:
    __slots__ = ("ring", "entries", "row_labels", "col_labels")

    def __init__(self, ring: ScalarRing, entries, row_labels=None, col_labels=None):
        entries = tuple(tuple(ring.coerce(x) for x in row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        n, m = len(entries), len(entries[0])
        if any(len(r) != m for r in entries):
            raise ValueError("ragged rows")
        row_labels = tuple(row_labels) if row_labels is not None else tuple(range(1, n + 1))
        col_labels = tuple(col_labels) if col_labels is not None else tuple(range(1, m + 1))
        if len(row_labels) != n or len(col_labels) != m:
            raise ValueError("label count mismatch")
        if len(set(row_labels)) != n or len(set(col_labels)) != m:
            raise ValueError("duplicate labels")
        self.ring = ring
        self.entries = entries
        self.row_labels = row_labels
        self.col_labels = col_labels

    @classmethod
    def _make(cls, ring, entries, row_labels, col_labels) -> "NcMatrix":
        """Matrix from entries the ring produced: a nonempty tuple of
        equal-length tuples of canonical elements, with label tuples of
        matching, duplicate-free sizes.  Nothing is coerced or checked."""
        self = object.__new__(cls)
        self.ring = ring
        self.entries = entries
        self.row_labels = row_labels
        self.col_labels = col_labels
        return self

    # -- shape and access ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def _row_pos(self, label) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown row label {label!r}") from None

    def _col_pos(self, label) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown column label {label!r}") from None

    def entry(self, i, j):
        return self.entries[self._row_pos(i)][self._col_pos(j)]

    def row(self, i):
        return self.entries[self._row_pos(i)]

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, ring: ScalarRing, n: int) -> "NcMatrix":
        one, zero, labels = ring.one, ring.zero, tuple(range(1, n + 1))
        entries = tuple(tuple(one if i == j else zero for j in labels) for i in labels)
        return cls._make(ring, entries, labels, labels)

    @classmethod
    def zero(cls, ring: ScalarRing, n: int, m: int) -> "NcMatrix":
        return cls(ring, [[ring.zero] * m for _ in range(n)])

    # -- submatrices ---------------------------------------------------------

    def delete_row_col(self, p, q) -> "NcMatrix":
        return self.delete_sets([p], [q])

    def delete_sets(self, row_set, col_set) -> "NcMatrix":
        row_set, col_set = set(row_set), set(col_set)
        for lab in row_set:
            self._row_pos(lab)
        for lab in col_set:
            self._col_pos(lab)
        keep_rows = [lab for lab in self.row_labels if lab not in row_set]
        keep_cols = [lab for lab in self.col_labels if lab not in col_set]
        return self.select(keep_rows, keep_cols)

    def select(self, row_subset, col_subset) -> "NcMatrix":
        """Submatrix with the given labels, kept in this matrix's order.
        Each subset is a sized sequence; a repeated label is a ValueError."""
        rs, cs = set(row_subset), set(col_subset)
        if len(rs) != len(row_subset) or len(cs) != len(col_subset):
            raise ValueError("selection repeats a label")
        rows = [lab for lab in self.row_labels if lab in rs]
        cols = [lab for lab in self.col_labels if lab in cs]
        if len(rows) != len(rs) or len(cols) != len(cs):
            raise KeyError("selection contains unknown labels")
        rpos = [self._row_pos(lab) for lab in rows]
        cpos = [self._col_pos(lab) for lab in cols]
        return NcMatrix._make(
            self.ring,
            tuple(tuple(self.entries[r][c] for c in cpos) for r in rpos),
            tuple(rows),
            tuple(cols),
        )

    def reorder(self, row_order, col_order) -> "NcMatrix":
        """Same matrix with rows/columns permuted; labels travel along."""
        row_order, col_order = tuple(row_order), tuple(col_order)
        if sorted(row_order) != sorted(self.row_labels) or sorted(col_order) != sorted(
            self.col_labels
        ):
            raise ValueError("reorder must permute the existing labels")
        rpos = [self._row_pos(lab) for lab in row_order]
        cpos = [self._col_pos(lab) for lab in col_order]
        return NcMatrix._make(
            self.ring,
            tuple(tuple(self.entries[r][c] for c in cpos) for r in rpos),
            row_order,
            col_order,
        )

    def block_partition(self, row_sizes: Sequence[int], col_sizes: Sequence[int]):
        """Partition into a grid of submatrices; returns (blocks, row_groups,
        col_groups) where blocks[i][j] is an NcMatrix and the groups are the
        label tuples of each band."""
        if sum(row_sizes) != self.n_rows or sum(col_sizes) != self.n_cols:
            raise ValueError("cut sizes must sum to the dimensions")
        if any(s <= 0 for s in row_sizes) or any(s <= 0 for s in col_sizes):
            raise ValueError("cut sizes must be positive")
        row_groups, pos = [], 0
        for s in row_sizes:
            row_groups.append(self.row_labels[pos : pos + s])
            pos += s
        col_groups, pos = [], 0
        for s in col_sizes:
            col_groups.append(self.col_labels[pos : pos + s])
            pos += s
        blocks = [
            [self.select(rg, cg) for cg in col_groups] for rg in row_groups
        ]
        return blocks, row_groups, col_groups

    # -- one-sided row/column operations --------------------------------------

    def scale_row_left(self, i, lam) -> "NcMatrix":
        pos = self._row_pos(i)
        rows = [
            tuple(lam * x for x in row) if r == pos else row
            for r, row in enumerate(self.entries)
        ]
        return NcMatrix(self.ring, rows, self.row_labels, self.col_labels)

    def scale_col_right(self, j, mu) -> "NcMatrix":
        pos = self._col_pos(j)
        rows = [
            tuple(x * mu if c == pos else x for c, x in enumerate(row))
            for row in self.entries
        ]
        return NcMatrix(self.ring, rows, self.row_labels, self.col_labels)

    def row_op_left(self, target, source, lam) -> "NcMatrix":
        """Add lam * (source row) to the target row, lam multiplying from the left."""
        tpos, spos = self._row_pos(target), self._row_pos(source)
        src = self.entries[spos]
        rows = [
            tuple(x + lam * y for x, y in zip(row, src)) if r == tpos else row
            for r, row in enumerate(self.entries)
        ]
        return NcMatrix(self.ring, rows, self.row_labels, self.col_labels)

    def col_op_right(self, target, source, mu) -> "NcMatrix":
        """Add (source column) * mu to the target column, mu on the right."""
        tpos, spos = self._col_pos(target), self._col_pos(source)
        rows = [
            tuple(
                x + row[spos] * mu if c == tpos else x for c, x in enumerate(row)
            )
            for row in self.entries
        ]
        return NcMatrix(self.ring, rows, self.row_labels, self.col_labels)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "NcMatrix") -> "NcMatrix":
        if self.row_labels != other.row_labels or self.col_labels != other.col_labels:
            raise ValueError("sum of matrices with different labels")
        return NcMatrix._make(
            self.ring,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.row_labels,
            self.col_labels,
        )

    def __sub__(self, other: "NcMatrix") -> "NcMatrix":
        return self + (-other)

    def __neg__(self) -> "NcMatrix":
        return NcMatrix._make(
            self.ring,
            tuple(tuple(-a for a in row) for row in self.entries),
            self.row_labels,
            self.col_labels,
        )

    def __mul__(self, other: "NcMatrix") -> "NcMatrix":
        if self.col_labels != other.row_labels:
            raise ValueError("product needs left column labels equal to right row labels")
        ring = self.ring
        is_zero = ring.is_zero
        # the nonzero entries of each column, by row position
        cols = [
            {k: b for k, b in enumerate(col) if not is_zero(b)}
            for col in zip(*other.entries)
        ]
        zero = ring.zero
        rows = []
        for row in self.entries:
            terms = [(k, a) for k, a in enumerate(row) if not is_zero(a)]
            out = []
            for col in cols:
                acc = None
                for k, a in terms:
                    b = col.get(k)
                    if b is not None:
                        term = a * b
                        acc = term if acc is None else acc + term
                out.append(zero if acc is None else acc)
            rows.append(tuple(out))
        return NcMatrix._make(ring, tuple(rows), self.row_labels, other.col_labels)

    def __eq__(self, other):
        return (
            isinstance(other, NcMatrix)
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.row_labels, self.col_labels, self.entries))

    def is_zero_matrix(self) -> bool:
        ring = self.ring
        return all(ring.is_zero(x) for row in self.entries for x in row)

    # -- inversion and solving ------------------------------------------------

    def inverse(self) -> "NcMatrix":
        """Exact two-sided inverse: ``solve`` of the identity, so
        DomainError when singular and TypeError over a ring with no matrix
        inverse."""
        if not self.is_square():
            raise ValueError("only square matrices can be inverted")
        ring, labels = self.ring, self.row_labels
        eye = NcMatrix.identity(ring, len(labels)).entries
        return self.solve(NcMatrix._make(ring, eye, labels, labels))

    def solve(self, B: "NcMatrix") -> "NcMatrix":
        """X with ``self * X == B``, for square ``self`` and B with the
        same row labels (else ValueError); X has rows labelled by this
        matrix's columns and columns by B's.  DomainError when singular,
        TypeError over a ring with no matrix inverse: Q(q), series over it.

        Over a ring with ``flat_dim`` this is one elimination of the
        flattened rows [M | B].  Over truncated series M = sum M_i t^i it is
        the order recursion X_k = M_0^-1 (B_k - sum_{i>=1} M_i X_{k-i}),
        with M_0 inverted once over the base and zero M_i skipped.
        """
        if not self.is_square():
            raise ValueError("only square matrices can be solved against")
        if self.row_labels != B.row_labels:
            raise ValueError("solve needs the right side's row labels equal to the matrix's")
        ring = self.ring
        if isinstance(ring, TruncatedSeriesRing):
            return self._solve_series(B)
        num, _ = ring.flatten_rows([(*a, *b) for a, b in zip(self.entries, B.entries)])
        x = solve_rows(num)  # each row's scale cancels from both sides
        if x is None:
            raise DomainError("matrix is singular over " + ring.name, payload=self)
        entries = ring.unflatten_rows(*x, self.n_rows, B.n_cols)
        return NcMatrix._make(ring, entries, self.col_labels, B.col_labels)

    def _solve_series(self, B: "NcMatrix") -> "NcMatrix":
        ring = self.ring
        base = ring.base
        rows, cols, out_cols = self.row_labels, self.col_labels, B.col_labels

        def coeff(X, k, col_labels):  # the t^k coefficient matrix of X
            entries = tuple(tuple(x.coeffs[k] for x in row) for row in X.entries)
            return NcMatrix._make(base, entries, rows, col_labels)

        try:
            inv0 = coeff(self, 0, cols).inverse()
        except DomainError:
            raise DomainError("matrix is singular over " + ring.name, payload=self) from None
        tail = [(i, coeff(self, i, cols)) for i in range(1, ring.order + 1)]
        tail = [(i, Mi) for i, Mi in tail if not Mi.is_zero_matrix()]
        X = []
        for k in range(ring.order + 1):
            rhs = coeff(B, k, out_cols)
            for i, Mi in tail:
                if i > k:
                    break
                rhs = rhs - Mi * X[k - i]
            X.append(inv0 * rhs)
        entries = tuple(
            tuple(SeriesElement(ring, [Xk.entries[r][c] for Xk in X]) for c in range(B.n_cols))
            for r in range(self.n_rows)
        )
        return NcMatrix._make(ring, entries, cols, out_cols)

    # -- serialization ---------------------------------------------------------

    def serialize(self) -> dict:
        return {
            "ring": self.ring.spec(),
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": [[self.ring.serialize(x) for x in row] for row in self.entries],
        }

    @classmethod
    def deserialize(cls, obj: dict) -> "NcMatrix":
        ring = ring_from_spec(obj["ring"])
        entries = [[ring.deserialize(x) for x in row] for row in obj["entries"]]
        return cls(ring, entries, obj["row_labels"], obj["col_labels"])

    def __repr__(self):
        return (
            f"NcMatrix({self.ring.name}, rows={self.row_labels}, "
            f"cols={self.col_labels})"
        )


class MatrixRing(ScalarRing):
    """Ring of n x n matrices over a base ring, used as a single scalar.

    Elements are square NcMatrix values with canonical labels 1..n.  This
    is the lifted ring in which a matrix is substituted for the central
    variable of its own characteristic expressions, and the block ring of
    the heredity identities for uniform partitions.
    """

    def __init__(self, base: ScalarRing, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.base = base
        self.n = n
        self.name = f"M{n}({base.name})"
        self.flat_dim = base.flat_dim * n if base.flat_dim is not None else None

    @property
    def zero(self):
        return NcMatrix.zero(self.base, self.n, self.n)

    @property
    def one(self):
        return NcMatrix.identity(self.base, self.n)

    def lift(self, x):
        """Embed a base scalar as x times the identity matrix."""
        zero, n = self.base.zero, self.n
        return NcMatrix(self.base, [[x if i == j else zero for j in range(n)] for i in range(n)])

    def is_zero(self, a: NcMatrix) -> bool:
        return a.is_zero_matrix()

    def try_invert(self, a: NcMatrix):
        try:
            return a.inverse()
        except DomainError:
            return None

    def from_int(self, m: int):
        return self.lift(self.base.from_int(m))

    def random_element(self, rng, profile=None):
        return NcMatrix(
            self.base,
            [
                [self.base.random_element(rng, profile) for _ in range(self.n)]
                for _ in range(self.n)
            ],
        )

    def serialize(self, a: NcMatrix):
        # only the entries are written, so labels must be the canonical ones
        labels = tuple(range(1, self.n + 1))
        if a.row_labels != labels or a.col_labels != labels:
            raise ValueError(
                f"{self.name} serializes only labels {labels}; got rows "
                f"{a.row_labels} and columns {a.col_labels}"
            )
        return [[self.base.serialize(x) for x in row] for row in a.entries]

    def deserialize(self, obj):
        if not _is_grid(obj, self.n, self.n):
            raise ValueError(f"{self.name} holds {self.n}x{self.n} rows of {self.base.name}")
        return NcMatrix(
            self.base, [[self.base.deserialize(x) for x in row] for row in obj]
        )

    def spec(self):
        return {"kind": "matrix-ring", "base": self.base.spec(), "n": self.n}

    def flatten(self, a: NcMatrix):
        num, scales = self.base.flatten_rows(a.entries)
        den = lcm(*scales)
        return [[v * (den // s) for v in row] for row, s in zip(num, scales)], den

    def unflatten(self, block):
        labels = tuple(range(1, self.n + 1))
        entries = self.base.unflatten_rows(*block, self.n, self.n)
        return NcMatrix._make(self.base, entries, labels, labels)


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
        return MatrixRing(ring_from_spec(spec["base"]), spec["n"])
    raise ValueError(f"unknown ring kind: {kind}")
