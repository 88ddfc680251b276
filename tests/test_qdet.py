from fractions import Fraction

import pytest

from oracles import det_leibniz, rank_by_minors

from quasidet.formula import Inv, _postorder, qdet_formula
from quasidet.matrix import NcMatrix
from quasidet.qdet import (
    cayley_hamilton,
    cramer_pair,
    hadamard_inverse,
    heredity_qdet,
    heredity_via_block_ring,
    homological_sum_cols,
    homological_sum_rows,
    jacobi_factors,
    matrix_inverse,
    qdet,
    qdet_expansion,
    rank_by_quasiminors,
    replace_col,
    solve_system,
    sylvester_matrix,
)
from quasidet.rings import DomainError, Rationals, SquareMatrices, TruncatedSeriesRing
from quasidet.sampling import sample_matrix


@pytest.fixture
def A22(Q):
    return NcMatrix(Q, [[1, 2], [3, 4]])


def sample_nondegenerate(ring, n, rng, fn, tries=60):
    """Draw matrices until fn evaluates; returns its value and the matrix."""
    for _ in range(tries):
        A = sample_matrix(ring, n, n, rng)
        try:
            return fn(A), A
        except DomainError:
            continue
    raise AssertionError("could not draw a nondegenerate sample")


class TestQdetBasics:
    def test_frozen_two_by_two(self, A22):
        assert qdet(A22, 1, 1) == Fraction(-1, 2)
        assert qdet(A22, 1, 1, "recursive") == Fraction(-1, 2)

    def test_identity_matrix_pivots(self, Q):
        I4 = NcMatrix.identity(Q, 4)
        for p in range(1, 5):
            assert qdet(I4, p, p) == 1

    def test_frozen_three_by_three(self, Q):
        A = NcMatrix(Q, [[1, 0, 1], [2, 1, 0], [0, 3, 1]])
        assert qdet(A, 2, 2) == 7
        # determinant-ratio oracle with sign
        full = det_leibniz([[1, 0, 1], [2, 1, 0], [0, 3, 1]])
        sub = det_leibniz([[1, 1], [0, 1]])
        assert qdet(A, 2, 2) == Fraction(-1) ** (2 + 2) * full / sub

    def test_one_by_one(self, Q):
        assert qdet(NcMatrix(Q, [[5]]), 1, 1) == 5

    def test_methods_agree_random(self, rng, M2):
        # series: minor_inverse inverts the minor as a series over matrices
        for ring in (Rationals(), M2, TruncatedSeriesRing(SquareMatrices(2), 2)):
            for n in (2, 3, 4):
                hits = 0
                while hits < 5:
                    A = sample_matrix(ring, n, n, rng)
                    p = rng.randint(1, n)
                    q = rng.randint(1, n)
                    try:
                        rec = qdet(A, p, q, "recursive")
                        mi = qdet(A, p, q, "minor_inverse")
                    except DomainError:
                        continue
                    assert rec == mi
                    hits += 1

    def test_undefined_raises(self, Q):
        # inner minor zero: recursive route undefined
        A = NcMatrix(Q, [[1, 1], [1, 0]])
        with pytest.raises(DomainError):
            qdet(A, 1, 1, "recursive")

    @pytest.mark.parametrize("n, inversions", [(4, 54), (5, 320)])
    def test_recursive_route_inverts_each_quasiminor_once(self, n, inversions):
        class CountingRationals(Rationals):
            calls = 0

            def try_invert(self, a):
                self.calls += 1
                return super().try_invert(a)

        ring = CountingRationals()
        # the Hilbert matrix is totally positive: every quasiminor is defined
        hilbert = [[Fraction(1, i + j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
        qdet(NcMatrix(ring, hilbert), 1, 1, "recursive")
        assert ring.calls == inversions
        # one Inv node per distinct quasiminor in the formula too
        formula_invs = sum(isinstance(node, Inv) for node in _postorder(qdet_formula(n)))
        assert formula_invs == inversions


class TestExpansion:
    def test_two_by_two_row_expansion_is_definition(self, rng, M2):
        A = sample_matrix(M2, 2, 2, rng)
        try:
            assert qdet_expansion(A, 1, 1, "row") == qdet(A, 1, 1)
        except DomainError:
            pass

    def test_three_by_three_expansions(self, rng, M2):
        for ring in (Rationals(), M2):
            hits = 0
            while hits < 5:
                A = sample_matrix(ring, 3, 3, rng)
                try:
                    base = qdet(A, 1, 2)
                    assert qdet_expansion(A, 1, 2, "row", 3) == base
                    assert qdet_expansion(A, 1, 2, "col", 3) == base
                except DomainError:
                    continue
                hits += 1

    @pytest.mark.parametrize("d", [1, 2])
    def test_column_expansion_with_unmatched_labels(self, d, rng):
        # |A^{iq}|_{pl}: a pivot row label with a column label, so the two
        # label sets need not match
        ring = Rationals() if d == 1 else SquareMatrices(d)
        rows, cols = (4, 6, 9), (1, 3, 5)
        defined = 0
        for _ in range(4):
            A = sample_matrix(ring, 3, 3, rng, row_labels=rows, col_labels=cols)
            for p in rows:
                for q in cols:
                    for l in cols:
                        if l == q:
                            continue
                        try:
                            expected = qdet(A, p, q)
                            assert qdet_expansion(A, p, q, "col", l) == expected
                        except DomainError:
                            continue
                        defined += 1
        assert defined > 50


class TestInverse:
    def test_diagonal(self, Q):
        # off-diagonal quasideterminants are undefined here, so the
        # entrywise route cannot apply; elimination can
        D = NcMatrix(Q, [[2, 0], [0, 3]])
        B = D.inverse()
        assert B.entries == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3)))
        with pytest.raises(DomainError):
            matrix_inverse(D)

    def test_frozen_example(self, A22):
        B = matrix_inverse(A22)
        assert B.entries == ((Fraction(-2), Fraction(1)), (Fraction(3, 2), Fraction(-1, 2)))
        assert A22.inverse() == B

    def test_qdet_entries_match_flattened_route(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 3, 3, rng)
            try:
                via_qdet = matrix_inverse(A)
            except DomainError:
                continue
            assert via_qdet == A.inverse()
            hits += 1

    def test_transposed_entrywise_inverse_of_the_inverse(self, rng, M2):
        # H(I(A)) is exactly the matrix of quasideterminants
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 3, 3, rng)
            try:
                HI = hadamard_inverse(A.inverse())
                expected = [
                    [qdet(A, i, j) for j in A.col_labels] for i in A.row_labels
                ]
            except DomainError:
                continue
            assert [list(r) for r in HI.entries] == expected
            hits += 1


class TestHadamard:
    def test_one_by_one(self, Q):
        H = hadamard_inverse(NcMatrix(Q, [[4]]))
        assert H.entry(1, 1) == Fraction(1, 4)

    def test_frozen_example(self, A22):
        H = hadamard_inverse(A22)
        assert H.entries == (
            (Fraction(1), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(1, 4)),
        )

    def test_involution_matrix_scalars(self, rng, M2):
        hits = 0
        while hits < 5:
            A = sample_matrix(M2, 2, 2, rng)
            try:
                assert hadamard_inverse(hadamard_inverse(A)) == A
            except DomainError:
                continue
            hits += 1

    def test_noninvertible_entry_raises(self, Q):
        with pytest.raises(DomainError):
            hadamard_inverse(NcMatrix(Q, [[1, 0], [2, 3]]))


class TestHeredity:
    def test_trivial_partition_is_plain_qdet(self, rng, Q):
        A = sample_matrix(Q, 3, 3, rng)
        v, _ = sample_nondegenerate(
            Q, 3, rng, lambda B: heredity_qdet(B, [3], [3], (1, 1), (2, 3))
        )
        # with one block the two-step value is the plain quasideterminant
        B = sample_matrix(Q, 3, 3, rng)
        try:
            assert heredity_qdet(B, [3], [3], (1, 1), (2, 3)) == qdet(B, 2, 3)
        except DomainError:
            pass

    def test_four_by_four_uniform_commutative(self, rng, Q):
        hits = 0
        while hits < 5:
            A = sample_matrix(Q, 4, 4, rng)
            try:
                v = heredity_qdet(A, [2, 2], [2, 2], (1, 1), (2, 2))
            except DomainError:
                continue
            full = det_leibniz([list(r) for r in A.entries])
            sub = det_leibniz([list(r) for r in A.delete_row_col(2, 2).entries])
            assert v * sub == full  # (-1)^(2+2)
            hits += 1

    def test_one_plus_three_split_matrix_scalars(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 4, 4, rng)
            try:
                v = heredity_qdet(A, [1, 3], [1, 3], (2, 2), (3, 4))
            except DomainError:
                continue
            assert v == qdet(A, 3, 4)
            hits += 1

    @pytest.mark.parametrize(
        "row_sizes, col_sizes, block_pivot",
        [([1, 2, 1], [2, 1, 1], (2, 1)), ([2, 1, 2], [1, 2, 2], (3, 3))],
    )
    def test_unequal_three_part_compositions(
        self, rng, M2, row_sizes, col_sizes, block_pivot
    ):
        # row and column compositions drawn independently; the pivot
        # block is square, so the complement is square too
        n = sum(row_sizes)
        bp, bq = block_pivot
        rows = range(sum(row_sizes[: bp - 1]) + 1, sum(row_sizes[:bp]) + 1)
        cols = range(sum(col_sizes[: bq - 1]) + 1, sum(col_sizes[:bq]) + 1)
        for ring in (Rationals(), M2, TruncatedSeriesRing(SquareMatrices(2), 2)):
            hits = 0
            while hits < 3:
                A = sample_matrix(ring, n, n, rng)
                i, j = rng.choice(rows), rng.choice(cols)
                try:
                    v = heredity_qdet(A, row_sizes, col_sizes, block_pivot, (i, j))
                    direct = qdet(A, i, j)
                    recursive = qdet(A, i, j, "recursive")
                except DomainError:
                    continue
                assert v == direct == recursive
                hits += 1

    def test_block_ring_route_agrees(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 4, 4, rng)
            try:
                v = heredity_via_block_ring(A, 2, (2, 1), (4, 2))
            except DomainError:
                continue
            assert v == qdet(A, 4, 2)
            hits += 1


class TestSylvester:
    def test_empty_pivot_set_degenerates(self, rng, Q):
        A = sample_matrix(Q, 3, 3, rng)
        assert qdet(sylvester_matrix(A, []), 2, 3) == qdet(A, 2, 3)
        assert sylvester_matrix(A, []) == A

    def test_commutative_exponent(self, rng, Q):
        # det A = det(bordered-determinant matrix) / (det A_0)^(n-k-1)
        n, k = 3, 1
        hits = 0
        while hits < 5:
            A = sample_matrix(Q, n, n, rng)
            a0 = [[A.entry(1, 1)]]
            det0 = det_leibniz(a0)
            if det0 == 0:
                continue
            tilde = []
            for p in (2, 3):
                row = []
                for q in (2, 3):
                    row.append(
                        det_leibniz(
                            [[A.entry(r, c) for c in (1, q)] for r in (1, p)]
                        )
                    )
                tilde.append(row)
            lhs = det_leibniz([list(r) for r in A.entries])
            assert lhs == det_leibniz(tilde) / det0 ** (n - k - 1)
            hits += 1

    def test_matrix_scalars(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 4, 4, rng)
            try:
                assert qdet(sylvester_matrix(A, [1, 2]), 3, 4) == qdet(A, 3, 4)
            except DomainError:
                continue
            hits += 1


class TestJacobi:
    def test_product_is_one(self, rng, M2):
        hits = 0
        while hits < 5:
            A = sample_matrix(M2, 3, 3, rng)
            try:
                f1, f2 = jacobi_factors(A, (2,), (1,), 3, 2)
            except DomainError:
                continue
            assert f1 * f2 == M2.one
            hits += 1

    def test_entry_specialization(self, rng, Q):
        hits = 0
        while hits < 5:
            A = sample_matrix(Q, 3, 3, rng)
            try:
                B = A.inverse()
                v = qdet(A, 2, 3)
            except DomainError:
                continue
            assert v * B.entry(3, 2) == 1
            hits += 1


class TestLinearSystems:
    def test_identity_system(self, Q):
        I3 = NcMatrix.identity(Q, 3)
        rhs = [Fraction(4), Fraction(-1), Fraction(2)]
        assert solve_system(I3, rhs) == rhs

    def test_diagonal(self, Q):
        # the off-diagonal quasideterminants of D are undefined, so the
        # qdet route raises; the eliminated inverse still solves
        D = NcMatrix(Q, [[2, 0], [0, 3]])
        rhs = [Fraction(4), Fraction(1)]
        with pytest.raises(DomainError):
            solve_system(D, rhs, "qdet")
        assert solve_system(D, rhs) == [Fraction(2), Fraction(1, 3)]

    def test_frozen_example(self, A22):
        x = solve_system(A22, [Fraction(1), Fraction(0)], "qdet")
        assert x == [Fraction(-2), Fraction(3, 2)]

    def test_unknown_method_raises(self, A22):
        with pytest.raises(ValueError, match="unknown method"):
            solve_system(A22, [Fraction(1), Fraction(0)], "qdte")

    def test_residual_matrix_scalars(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 3, 3, rng)
            rhs = [M2.random_element(rng) for _ in range(3)]
            try:
                x = solve_system(A, rhs, "qdet")
            except DomainError:
                continue
            from quasidet.matrix import matrix_times_col

            assert matrix_times_col(A, x) == rhs
            hits += 1

    def test_cramer_one_by_one(self, Q):
        A = NcMatrix(Q, [[5]])
        lhs, rhs = cramer_pair(A, [Fraction(3)], 1, 1)
        assert lhs == rhs == 3

    def test_cramer_frozen_example(self, A22):
        lhs, rhs = cramer_pair(A22, [Fraction(1), Fraction(0)], 1, 1)
        assert lhs == rhs == 1
        # the replaced-column matrix evaluates independently
        replaced = replace_col(A22, 1, [Fraction(1), Fraction(0)])
        assert qdet(replaced, 1, 1) == 1

    def test_cramer_matrix_scalars(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 3, 3, rng)
            rhs = [M2.random_element(rng) for _ in range(3)]
            try:
                lhs, rhs_val = cramer_pair(A, rhs, 2, 3)
            except DomainError:
                continue
            assert lhs == rhs_val
            hits += 1


class TestCayleyHamilton:
    def test_one_by_one(self, Q):
        vals = cayley_hamilton(NcMatrix(Q, [[7]]))
        assert vals[0][0].is_zero_matrix()

    def test_two_by_two_against_characteristic_polynomial(self, rng, Q):
        hits = 0
        while hits < 5:
            A = sample_matrix(Q, 2, 2, rng)
            if A.entry(1, 2) * A.entry(2, 1) == 0:
                continue
            try:
                vals = cayley_hamilton(A)
            except DomainError:
                continue
            # commutative oracle: A^2 - tr A + det I = 0
            tr = A.entry(1, 1) + A.entry(2, 2)
            det = det_leibniz([list(r) for r in A.entries])
            M = A * A - NcMatrix(Q, [[tr, 0], [0, tr]]) * A + NcMatrix(Q, [[det, 0], [0, det]])
            assert M.is_zero_matrix()
            assert all(v.is_zero_matrix() for row in vals for v in row)
            hits += 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_array_matrix_scalars(self, n, rng, M2):
        hits = 0
        while hits < 2:
            A = sample_matrix(M2, n, n, rng)
            try:
                vals = cayley_hamilton(A)
            except DomainError:
                continue
            assert all(v.is_zero_matrix() for row in vals for v in row)
            hits += 1


class TestRank:
    def test_zero_matrix(self, Q):
        assert rank_by_quasiminors(NcMatrix(Q, [[0, 0], [0, 0]])) == 0

    def test_rank_one(self, Q):
        assert rank_by_quasiminors(NcMatrix(Q, [[1, 2], [2, 4]])) == 1

    def test_identity(self, Q):
        assert rank_by_quasiminors(NcMatrix.identity(Q, 3)) == 3

    def test_matches_minor_oracle(self, rng, Q):
        for _ in range(8):
            A = sample_matrix(Q, 3, 3, rng)
            rows = [list(r) for r in A.entries]
            assert rank_by_quasiminors(A) == rank_by_minors(rows)


class TestGeneralizedHomological:
    def test_verified_configuration_deltas(self, rng, Q, M2):
        for ring in (Q, M2):
            hits = 0
            while hits < 4:
                A = sample_matrix(ring, 3, 3, rng)
                L, M = (2,), (1, 3)
                p = 1
                try:
                    rows = homological_sum_rows(A, L, M, p, [2, 1])
                    cols = homological_sum_cols(A, M, L, [2, 1], p)
                except DomainError:
                    continue
                # l = 2 lies in L (zero), l = 1 is p (one)
                assert rows == cols == [ring.zero, ring.one]
                hits += 1
