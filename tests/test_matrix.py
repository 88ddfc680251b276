import re
from fractions import Fraction
from math import lcm

import pytest

from quasidet.formula import FormulaRing, Var, matrix_from_expressions
from quasidet.matrix import MatrixRing, NcMatrix
from quasidet.qdet import qdet
from quasidet.rings import (
    DomainError,
    QRationalFunctions,
    Rat,
    Rationals,
    SampleProfile,
    SquareMatrices,
    TruncatedSeriesRing,
    format_fraction,
)
from quasidet.sampling import sample_matrix


@pytest.fixture
def A22(Q):
    return NcMatrix(Q, [[1, 2], [3, 4]])


@pytest.fixture
def A33(Q):
    return NcMatrix(Q, [[1, 0, 1], [2, 1, 0], [0, 3, 1]])


class TestConstruction:
    def test_public_constructor_coerces_and_checks(self, Q):
        A = NcMatrix(Q, [[1, 2]])
        assert all(type(x) is Rat for x in A.entries[0])
        assert A.entries == ((Fraction(1), Fraction(2)),)
        with pytest.raises(ValueError, match="ragged"):
            NcMatrix(Q, [[1, 2], [3]])
        with pytest.raises(ValueError, match="duplicate"):
            NcMatrix(Q, [[1, 2]], col_labels=[1, 1])
        with pytest.raises(ValueError, match="duplicate"):
            NcMatrix(Q, [[1], [2]], row_labels=[3, 3])

    def test_derived_matrices_hold_canonical_entries(self, A22, Q):
        for B in (A22 * A22, A22 + A22, -A22, A22.select([2], [1, 2]), A22.inverse()):
            assert all(type(x) is Rat for row in B.entries for x in row)
            assert type(B.entries) is tuple and all(type(r) is tuple for r in B.entries)
            assert B == NcMatrix(Q, B.entries, B.row_labels, B.col_labels)


class TestSubmatrices:
    def test_delete_row_col_two_by_two(self, A22):
        sub = A22.delete_row_col(1, 1)
        assert sub.row_labels == (2,) and sub.col_labels == (2,)
        assert sub.entry(2, 2) == 4

    def test_delete_sets(self, A33):
        sub = A33.delete_sets([1], [2, 3])
        assert sub.row_labels == (2, 3)
        assert sub.col_labels == (1,)
        assert (sub.entry(2, 1), sub.entry(3, 1)) == (Fraction(2), Fraction(0))

    def test_select_identity(self, A33):
        assert A33.select(A33.row_labels, A33.col_labels) == A33

    def test_select_preserves_original_order(self, A33):
        sub = A33.select([3, 1], [2, 1])
        assert sub.row_labels == (1, 3)
        assert sub.col_labels == (1, 2)

    def test_select_repeated_label_raises(self, A22):
        # a repeated label must not shrink the selection silently
        with pytest.raises(ValueError):
            A22.select([1, 1], [2])
        with pytest.raises(ValueError):
            A22.select([1, 2], (2, 2))

    def test_unknown_labels_raise(self, A22):
        with pytest.raises(KeyError):
            A22.delete_row_col(5, 1)
        with pytest.raises(KeyError):
            A22.select([1], [7])

    def test_block_partition(self, Q):
        A = NcMatrix(Q, [[i * 4 + j for j in range(4)] for i in range(4)])
        blocks, row_groups, col_groups = A.block_partition([2, 2], [1, 3])
        assert row_groups == [(1, 2), (3, 4)]
        assert col_groups == [(1,), (2, 3, 4)]
        assert blocks[1][0].entries == ((Fraction(8),), (Fraction(12),))

    def test_duplicate_labels_rejected(self, Q):
        with pytest.raises(ValueError):
            NcMatrix(Q, [[1, 2], [3, 4]], row_labels=[1, 1])


class TestRowColOps:
    def test_zero_coefficient_is_identity(self, A22, Q):
        assert A22.row_op_left(1, 2, Fraction(0)) == A22
        assert A22.col_op_right(2, 1, Fraction(0)) == A22

    def test_left_multiplication_order(self, M2, rng):
        A = sample_matrix(M2, 2, 2, rng)
        lam = M2.random_element(rng)
        B = A.row_op_left(1, 2, lam)
        for j in (1, 2):
            assert B.entry(1, j) == A.entry(1, j) + lam * A.entry(2, j)
            assert B.entry(2, j) == A.entry(2, j)

    def test_right_multiplication_order(self, M2, rng):
        A = sample_matrix(M2, 2, 2, rng)
        mu = M2.random_element(rng)
        C = A.col_op_right(1, 2, mu)
        for i in (1, 2):
            assert C.entry(i, 1) == A.entry(i, 1) + A.entry(i, 2) * mu
            assert C.entry(i, 2) == A.entry(i, 2)

    def test_scaling(self, M2, rng):
        A = sample_matrix(M2, 2, 2, rng)
        lam = M2.random_element(rng)
        B = A.scale_row_left(2, lam)
        assert B.entry(2, 1) == lam * A.entry(2, 1)
        C = A.scale_col_right(1, lam)
        assert C.entry(2, 1) == A.entry(2, 1) * lam


class TestArithmeticLabels:
    def test_product_needs_inner_labels_to_match(self, A33):
        left = A33.select([1, 2], [1, 2])
        right = A33.select([2, 3], [1, 2, 3])
        with pytest.raises(ValueError, match="labels"):
            left * right
        product = left * A33.select([1, 2], [3])
        assert (product.row_labels, product.col_labels) == ((1, 2), (3,))

    def test_sum_needs_equal_labels(self, A33):
        a = A33.select([1, 2], [1, 2])
        b = A33.select([2, 3], [1, 2])
        with pytest.raises(ValueError, match="labels"):
            a + b
        with pytest.raises(ValueError, match="labels"):
            a - b
        with pytest.raises(ValueError, match="labels"):
            a + A33.select([1, 2], [2, 3])


class TestInverse:
    def test_rational_example(self, A22):
        B = A22.inverse()
        assert B.entries == ((Fraction(-2), Fraction(1)), (Fraction(3, 2), Fraction(-1, 2)))

    def test_inverse_swaps_labels(self, Q):
        A = NcMatrix(Q, [[1, 2], [3, 4]], row_labels=[7, 8], col_labels=[5, 6])
        B = A.inverse()
        assert B.row_labels == (5, 6) and B.col_labels == (7, 8)

    def test_singular_raises(self, Q):
        with pytest.raises(DomainError):
            NcMatrix(Q, [[1, 2], [2, 4]]).inverse()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matrix_scalar_inverse(self, d, rng):
        ring = SquareMatrices(d)
        for _ in range(5):
            A = sample_matrix(ring, 3, 3, rng)
            try:
                B = A.inverse()
            except DomainError:
                continue
            assert A * B == B * A == NcMatrix.identity(ring, 3)

    def test_series_ring_inverse(self, rng, M2):
        T = TruncatedSeriesRing(M2, 3)
        for _ in range(5):
            A = sample_matrix(T, 3, 3, rng)
            try:
                B = A.inverse()
            except DomainError:
                continue
            assert A * B == B * A == NcMatrix.identity(T, 3)

    def test_function_field_has_no_matrix_inverse(self, rng):
        # Q(q) embeds in no rational matrices and is no series ring: the
        # inverse and the minor-inverse route raise TypeError, while the
        # defining recursion still evaluates
        F = QRationalFunctions()
        A = sample_matrix(F, 2, 2, rng)
        with pytest.raises(TypeError):
            A.inverse()
        for n in (2, 3):
            with pytest.raises(TypeError):
                qdet(sample_matrix(F, n, n, rng), 1, 2, "minor_inverse")
        (a11, a12), (a21, a22) = A.entries
        assert not F.is_zero(a22)
        assert qdet(A, 1, 1, "recursive") == a11 - a12 * F.invert(a22) * a21


SERIES_BASES = [Rationals(), SquareMatrices(2), SquareMatrices(3)]


@pytest.mark.parametrize("base", SERIES_BASES, ids=lambda b: b.name)
class TestSeriesInverse:
    """A matrix over R[[t]] inverts order by order over its coefficient
    matrices in M_n(R)."""

    def test_one_by_one_is_the_element_inverse(self, base, rng):
        T = TruncatedSeriesRing(base, 3)
        hits = 0
        while hits < 5:
            a = T.random_element(rng)
            want = T.try_invert(a)
            if want is None:
                with pytest.raises(DomainError):
                    NcMatrix(T, [[a]]).inverse()
                continue
            assert NcMatrix(T, [[a]]).inverse().entries == ((want,),)
            hits += 1

    def test_singular_constant_term_raises(self, base, rng):
        # equal constant rows; the t and t^2 coefficients are not zero
        T = TruncatedSeriesRing(base, 2)
        one, zero = base.one, base.zero
        a, b = base.random_element(rng), base.random_element(rng)
        A = NcMatrix(
            T,
            [
                [T.element([a, one]), T.element([b, zero, one])],
                [T.element([a, zero, one]), T.element([b, one])],
            ],
        )
        with pytest.raises(DomainError):
            A.inverse()

    def test_inverse_swaps_labels(self, base, rng):
        T = TruncatedSeriesRing(base, 2)
        while True:
            A = NcMatrix(T, sample_matrix(T, 2, 2, rng).entries, [7, 8], [5, 6])
            try:
                B = A.inverse()
            except DomainError:
                continue
            break
        assert B.row_labels == (5, 6) and B.col_labels == (7, 8)
        one = NcMatrix.identity(T, 2).entries
        assert A * B == NcMatrix(T, one, [7, 8], [7, 8])
        assert B * A == NcMatrix(T, one, [5, 6], [5, 6])


SOLVE_RINGS = {
    "Q": Rationals(),
    "M2(Q)": SquareMatrices(2),
    "M3(Q)": SquareMatrices(3),
    "M2(M2(Q))": MatrixRing(SquareMatrices(2), 2),
    **{
        f"{base.name}[[t]]/t^{order + 1}": TruncatedSeriesRing(base, order)
        for base in (Rationals(), SquareMatrices(2))
        for order in (0, 1, 6)
    },
}


@pytest.mark.parametrize("ring", list(SOLVE_RINGS.values()), ids=list(SOLVE_RINGS))
class TestSolve:
    def test_solve_is_inverse_times_right_side(self, ring, rng):
        hits = 0
        while hits < 3:
            M = NcMatrix(ring, sample_matrix(ring, 3, 3, rng).entries, [7, 8, 9], [4, 5, 6])
            B = NcMatrix(ring, sample_matrix(ring, 3, 2, rng).entries, [7, 8, 9], [1, 2])
            try:
                inverse = M.inverse()
            except DomainError:
                continue
            X = M.solve(B)
            assert X == inverse * B
            assert (X.row_labels, X.col_labels) == ((4, 5, 6), (1, 2))
            assert M * X == B
            hits += 1

    def test_singular_raises_as_inverse_does(self, ring, rng):
        a, b = ring.random_element(rng), ring.random_element(rng)
        M = NcMatrix(ring, [[a, b], [a, b]])
        B = sample_matrix(ring, 2, 1, rng)
        with pytest.raises(DomainError) as by_inverse:
            M.inverse()
        with pytest.raises(DomainError) as by_solve:
            M.solve(B)
        assert str(by_solve.value) == str(by_inverse.value) == f"matrix is singular over {ring.name}"
        assert by_solve.value.payload is M

    def test_row_labels_must_match(self, ring, rng):
        M = sample_matrix(ring, 2, 2, rng)
        B = NcMatrix(ring, sample_matrix(ring, 2, 1, rng).entries, [2, 1])
        with pytest.raises(ValueError, match="row labels"):
            M.solve(B)


def test_solve_over_series_with_no_matrix_inverse_raises_type_error(rng):
    # as for the inverse: Q(q) has no flattening, so neither has its series ring
    T = TruncatedSeriesRing(QRationalFunctions(), 2)
    M, B = sample_matrix(T, 2, 2, rng), sample_matrix(T, 2, 1, rng)
    with pytest.raises(TypeError):
        M.inverse()
    with pytest.raises(TypeError):
        M.solve(B)


class TestVectorOps:
    # a vector is a one-row or one-column matrix; products keep the factor order
    def test_row_times_matrix_order(self, M2, rng):
        A = sample_matrix(M2, 2, 2, rng)
        row = sample_matrix(M2, 1, 2, rng)
        out = row * A
        assert (out.n_rows, out.n_cols) == (1, 2)
        assert out.entry(1, 1) == row.entry(1, 1) * A.entry(1, 1) + row.entry(1, 2) * A.entry(2, 1)

    def test_matrix_times_col_order(self, M2, rng):
        A = sample_matrix(M2, 2, 2, rng)
        col = sample_matrix(M2, 2, 1, rng)
        out = A * col
        assert (out.n_rows, out.n_cols) == (2, 1)
        assert out.entry(1, 1) == A.entry(1, 1) * col.entry(1, 1) + A.entry(1, 2) * col.entry(2, 1)


class TestSerialization:
    @pytest.mark.parametrize("d", [1, 2])
    def test_roundtrip(self, d, rng):
        ring = SquareMatrices(d)
        A = NcMatrix(ring, sample_matrix(ring, 2, 3, rng).entries, [4, 6], [1, 3, 5])
        B = NcMatrix.deserialize(A.serialize())
        assert B == A

    def test_json_file_format(self):
        obj = {
            "rows": 2,
            "cols": 2,
            "entries": [["1", "2"], ["3 * inv(2)", 4]],
        }
        A = matrix_from_expressions(obj)
        assert A.entry(2, 1) == Fraction(3, 2)
        assert [[format_fraction(x) for x in row] for row in A.entries] == [
            ["1", "2"],
            ["3/2", "4"],
        ]

    def test_json_rejects_open_expressions(self):
        with pytest.raises(ValueError):
            matrix_from_expressions({"rows": 1, "cols": 1, "entries": [["x + 1"]]})

    def test_json_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_from_expressions({"rows": 2, "cols": 1, "entries": [["1"]]})


class TestMatrixRing:
    def test_axioms_and_inverse(self, rng, Q):
        R = MatrixRing(Q, 2)
        for _ in range(10):
            a = R.random_element(rng)
            b = R.random_element(rng)
            c = R.random_element(rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            inv = R.try_invert(a)
            if inv is not None:
                assert a * inv == R.one

    def test_lift_is_central_for_scalars(self, Q):
        R = MatrixRing(Q, 3)
        lifted = R.lift(Fraction(5))
        assert lifted == NcMatrix(Q, [[5 if i == j else 0 for j in range(3)] for i in range(3)])

    def test_flatten_roundtrip(self, rng, M2):
        R = MatrixRing(M2, 2)
        a = R.random_element(rng)
        assert R.unflatten(R.flatten(a)) == a

    def test_serialize_refuses_noncanonical_labels(self, Q):
        # equals sees labels, the entries-only serialization would not
        R = MatrixRing(Q, 2)
        a = NcMatrix(Q, [[1, 2], [3, 4]])
        b = NcMatrix(Q, [[1, 2], [3, 4]], row_labels=(2, 1))
        assert not R.equals(a, b)
        assert R.serialize(a) == [["1", "2"], ["3", "4"]]
        with pytest.raises(ValueError, match=r"rows \(2, 1\)"):
            R.serialize(b)

    def test_label_only_mismatch_is_an_error_verdict(self, Q):
        from quasidet.catalog import IdentityDescriptor
        from quasidet.harness import RunConfig, run_identity

        R = MatrixRing(Q, 2)
        a = NcMatrix(Q, [[1, 2], [3, 4]])
        b = NcMatrix(Q, [[1, 2], [3, 4]], row_labels=(2, 1))
        desc = IdentityDescriptor(
            ident="LABELS",
            module="matrix",
            statement="a label-only mismatch",
            cells=((2, 1),),
            check=lambda ctx: ctx.compare("labels", a, b, R),
        )
        verdict = run_identity(desc, RunConfig(samples=1))
        assert verdict.status == "error"
        error = verdict.counterexample["error"]
        assert error["type"] == "ValueError" and "(2, 1)" in error["message"]


_FLAT_RINGS = [
    Rationals(),
    SquareMatrices(2),
    SquareMatrices(3),
    MatrixRing(Rationals(), 2),
    MatrixRing(SquareMatrices(2), 2),
]


class TestFlatForm:
    """Each flat ring turns rows of its elements into one int matrix with
    a scale per row, and reads an int matrix over one denominator back."""

    @pytest.mark.parametrize("ring", _FLAT_RINGS, ids=lambda ring: ring.name)
    def test_unflatten_rows_inverts_flatten_rows(self, ring, rng):
        fractional, integral = SampleProfile(5, 7), SampleProfile(5, 1)
        rows = [
            [ring.random_element(rng, fractional) for _ in range(3)],
            [ring.random_element(rng, integral) for _ in range(3)],
            [ring.zero, ring.random_element(rng, fractional), ring.zero],
            [ring.zero] * 3,
        ]
        num, scales = ring.flatten_rows(rows)
        k = ring.flat_dim
        assert len(num) == len(scales) == 4 * k and all(len(row) == 3 * k for row in num)
        # the k int rows of one row of elements share its scale
        assert all(len(set(scales[i : i + k])) == 1 for i in range(0, 4 * k, k))
        assert scales[0] > 1 and scales[-k:] == [1] * k
        den = lcm(*scales)
        common = [[v * (den // s) for v in row] for row, s in zip(num, scales)]
        assert ring.unflatten_rows(common, den, 4, 3) == tuple(map(tuple, rows))

    @pytest.mark.parametrize(
        "ring,element",
        [
            (TruncatedSeriesRing(Rationals(), 2), lambda ring: ring.one),
            (QRationalFunctions(), lambda ring: ring.one),
            (FormulaRing(), lambda ring: Var("a")),
        ],
        ids=["series", "Q(q)", "formulas"],
    )
    def test_a_ring_with_no_rational_embedding_has_no_flat_form(self, ring, element):
        with pytest.raises(TypeError, match=re.escape(f"{ring.name} has no rational embedding")):
            ring.flatten_rows([[element(ring)]])
        with pytest.raises(TypeError, match=re.escape(f"{ring.name} has no rational embedding")):
            ring.unflatten_rows([[1]], 1, 1, 1)

    @pytest.mark.parametrize(
        "ring",
        [Rationals(), SquareMatrices(2), TruncatedSeriesRing(SquareMatrices(2), 2)],
        ids=lambda ring: ring.name,
    )
    def test_inverse_is_solve_of_the_identity(self, ring, rng):
        for _ in range(3):
            A = NcMatrix(ring, sample_matrix(ring, 3, 3, rng).entries, [3, 1, 2], [2, 3, 1])
            eye = NcMatrix(ring, NcMatrix.identity(ring, 3).entries, [3, 1, 2], [3, 1, 2])
            inv = A.inverse()
            assert inv == A.solve(eye)
            assert (inv.row_labels, inv.col_labels) == ((2, 3, 1), (3, 1, 2))

    @pytest.mark.parametrize(
        "ring",
        [Rationals(), SquareMatrices(2), TruncatedSeriesRing(SquareMatrices(2), 2)],
        ids=lambda ring: ring.name,
    )
    def test_singular_inverse_names_the_ring(self, ring):
        A = NcMatrix(ring, [[1, 2], [2, 4]])
        with pytest.raises(DomainError, match=f"^{re.escape('matrix is singular over ' + ring.name)}$") as err:
            A.inverse()
        assert err.value.payload is A
