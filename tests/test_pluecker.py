from fractions import Fraction

import pytest

from oracles import det_leibniz

from quasidet.matrix import NcMatrix
from quasidet.pluecker import (
    embed_upper_identity,
    flag_coordinate,
    gauss_decompose,
    kernel_complement,
    left_qpc,
    left_qpc_values_over_rows,
    normal_form,
    right_qpc,
    right_qpc_values_over_cols,
)
from quasidet.qdet import qdet
from quasidet.rings import DomainError, Rationals
from quasidet.sampling import Draw, sample_matrix


def classical_minor(A, cols):
    """k x k minor with the columns taken in the given order."""
    return det_leibniz([[A.entry(r, c) for c in cols] for r in A.row_labels])


class TestSingleRowAndColumn:
    def test_left_collapses_to_entry_ratio(self, rng, M2):
        A = sample_matrix(M2, 1, 4, rng)
        try:
            p = left_qpc(A, 2, 3, ())
        except DomainError:
            return
        assert p == M2.invert(A.entry(1, 2)) * A.entry(1, 3)

    def test_right_collapses_to_entry_ratio(self, rng, M2):
        B = sample_matrix(M2, 4, 1, rng)
        try:
            r = right_qpc(B, 2, 3, ())
        except DomainError:
            return
        assert r == B.entry(2, 1) * M2.invert(B.entry(3, 1))

    def test_unit_loop_of_singletons_is_plus_one(self, rng, M2):
        # the cyclic triple of singleton-set coordinates telescopes to +1,
        # which is why the sign identity starts one size higher
        A = sample_matrix(M2, 1, 3, rng)
        try:
            prod = (
                left_qpc(A, 1, 2, ())
                * left_qpc(A, 2, 3, ())
                * left_qpc(A, 3, 1, ())
            )
        except DomainError:
            return
        assert prod == M2.one


class TestBasicValues:
    def test_unit_when_indices_coincide(self, rng, M2):
        A = sample_matrix(M2, 2, 4, rng)
        try:
            assert left_qpc(A, 1, 1, (3,)) == M2.one
        except DomainError:
            pass
        B = sample_matrix(M2, 4, 2, rng)
        try:
            assert right_qpc(B, 2, 2, (4,)) == M2.one
        except DomainError:
            pass

    def test_classical_three_term_relation(self, rng, Q):
        # the commutative shadow of the unit-sum relation: the alternating
        # three-term product identity of 2x2 minors
        hits = 0
        while hits < 6:
            A = sample_matrix(Q, 2, 4, rng)
            lhs = (
                classical_minor(A, [1, 2]) * classical_minor(A, [3, 4])
                - classical_minor(A, [1, 3]) * classical_minor(A, [2, 4])
                + classical_minor(A, [1, 4]) * classical_minor(A, [2, 3])
            )
            assert lhs == 0
            hits += 1

    def test_commutative_minor_ratio(self, rng, Q):
        hits = 0
        while hits < 6:
            A = sample_matrix(Q, 2, 4, rng)
            i, j, l = 1, 2, 4
            try:
                p = left_qpc(A, i, j, (l,))
            except DomainError:
                continue
            pi = classical_minor(A, [i, l])
            pj = classical_minor(A, [j, l])
            if pi == 0:
                continue
            assert p == pj / pi
            hits += 1

    def test_right_commutative_minor_ratio(self, rng, Q):
        hits = 0
        while hits < 6:
            B = sample_matrix(Q, 4, 2, rng)
            i, j, l = 2, 3, 1
            try:
                r = right_qpc(B, i, j, (l,))
            except DomainError:
                continue
            rows_i = det_leibniz([[B.entry(x, c) for c in (1, 2)] for x in (i, l)])
            rows_j = det_leibniz([[B.entry(x, c) for c in (1, 2)] for x in (j, l)])
            if rows_j == 0:
                continue
            assert r == rows_i / rows_j
            hits += 1

    def test_row_and_column_witness_independence(self, rng, M2):
        A = sample_matrix(M2, 3, 5, rng)
        values = left_qpc_values_over_rows(A, 1, 4, (2, 5))
        assert len({repr(v) for v in values}) <= 1
        B = sample_matrix(M2, 5, 3, rng)
        values = right_qpc_values_over_cols(B, 1, 4, (2, 5))
        assert len({repr(v) for v in values}) <= 1


class TestNormalForm:
    def test_identity_leading_block_is_fixed_point(self, rng, M2):
        M = sample_matrix(M2, 2, 2, rng)
        A = NcMatrix(
            M2,
            [
                [M2.one, M2.zero, M.entry(1, 1), M.entry(1, 2)],
                [M2.zero, M2.one, M.entry(2, 1), M.entry(2, 2)],
            ],
        )
        C, witness = normal_form(A)
        assert witness == NcMatrix.identity(M2, 2)
        assert C == A

    def test_commutative_last_column_ratios(self, rng, Q):
        hits = 0
        while hits < 5:
            A = sample_matrix(Q, 2, 3, rng)
            try:
                C, _ = normal_form(A)
            except DomainError:
                continue
            for i in (1, 2):
                other = 2 if i == 1 else 1
                pi = classical_minor(A, [i, other])
                pj = classical_minor(A, [3, other])
                if pi == 0:
                    continue
                assert C.entry(i, 3) == pj / pi
            hits += 1

    def test_gauge_invariance_of_form(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 2, 4, rng)
            g = Draw(rng).invertible_matrix(M2, 2)
            try:
                C1, _ = normal_form(A)
                C2, _ = normal_form(g * A)
            except DomainError:
                continue
            assert C1 == C2
            hits += 1


class TestDuality:
    def test_one_by_two_direct(self, rng, M2):
        # A = (a b), B = (-a^-1 b, 1)^T annihilates A; coordinates cancel
        hits = 0
        while hits < 4:
            a = M2.random_element(rng)
            b = M2.random_element(rng)
            ainv = M2.try_invert(a)
            if ainv is None:
                continue
            A = NcMatrix(M2, [[a, b]])
            B = NcMatrix(M2, [[-(ainv * b)], [M2.one]])
            assert (A * B).is_zero_matrix()
            p = left_qpc(A, 1, 2, ())
            r = right_qpc(B, 1, 2, ())
            assert p + r == M2.zero
            hits += 1

    def test_kernel_built_annihilator(self, rng, M2):
        hits = 0
        while hits < 3:
            A = sample_matrix(M2, 2, 4, rng)
            B = kernel_complement(A)
            if B is None:
                continue
            assert (A * B).is_zero_matrix()
            try:
                p = left_qpc(A, 1, 2, (3,))
                r = right_qpc(B, 1, 2, (4,))
            except DomainError:
                continue
            assert p + r == M2.zero
            hits += 1

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2)], ids=["square", "tall"])
    def test_kernel_of_a_matrix_that_is_not_wide_is_a_value_error(self, shape, rng, M2):
        # a square or tall matrix has no generic kernel to build B from
        with pytest.raises(ValueError, match="wide matrix"):
            kernel_complement(sample_matrix(M2, *shape, rng))

    def test_commutative_sign_ratio(self, rng, Q):
        hits = 0
        while hits < 4:
            A = sample_matrix(Q, 2, 4, rng)
            B = kernel_complement(A)
            if B is None:
                continue
            try:
                p = left_qpc(A, 1, 2, (3,))
                r = right_qpc(B, 1, 2, (4,))
            except DomainError:
                continue
            assert p == -r
            hits += 1


class TestEmbed:
    def test_two_by_two_direct(self, rng, M2):
        # k=1, n=2: X = [[a11, a12], [0, 1]], pivot (2,1) gives -a11^-1 a12?
        hits = 0
        while hits < 4:
            A = sample_matrix(M2, 1, 2, rng)
            X = embed_upper_identity(A)
            try:
                p = left_qpc(A, 2, 1, ())
            except DomainError:
                continue
            assert qdet(X, 2, 1) == -p
            hits += 1

    def test_commutative(self, rng, Q):
        hits = 0
        while hits < 4:
            A = sample_matrix(Q, 2, 4, rng)
            X = embed_upper_identity(A)
            try:
                p = left_qpc(A, 3, 1, (2,))
            except DomainError:
                continue
            assert qdet(X, 3, 1) == -p
            hits += 1


class TestInverseTimesBlock:
    def test_identity_leading_block(self, rng, M2):
        # when the leading block is the identity the trailing block IS the
        # coordinate matrix
        C = sample_matrix(M2, 2, 2, rng)
        rows = [
            [M2.one, M2.zero, C.entry(1, 1), C.entry(1, 2)],
            [M2.zero, M2.one, C.entry(2, 1), C.entry(2, 2)],
        ]
        A = NcMatrix(M2, rows)
        for i in (1, 2):
            for k in (3, 4):
                I = tuple(c for c in (1, 2) if c != i)
                try:
                    assert left_qpc(A, i, k, I) == A.entry(i, k)
                except DomainError:
                    pass


class TestRowCountStep:
    def test_matching_endpoints_both_sides_one(self, rng, M2):
        # target column equal to the source column: the left side is one
        # and the mixed term vanishes because its bordering set holds i
        hits = 0
        while hits < 4:
            A = sample_matrix(M2, 3, 5, rng)
            Ap = A.select((1, 2), A.col_labels)
            J = (4,)
            i, m = 1, 2
            try:
                lhs = left_qpc(Ap, i, i, J)
                rhs = left_qpc(A, i, i, J + (m,)) + left_qpc(
                    Ap, i, m, J
                ) * left_qpc(A, m, i, J + (i,))
            except DomainError:
                continue
            assert lhs == M2.one == rhs
            hits += 1


class TestGauss:
    def test_diagonal_matrix(self, Q):
        D = NcMatrix(Q, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        U, Y, L = gauss_decompose(D)
        assert U == L == NcMatrix.identity(Q, 3)
        assert Y == D

    def test_reassembly_exact(self, rng, M2):
        for ring in (Rationals(), M2):
            hits = 0
            while hits < 3:
                A = sample_matrix(ring, 3, 3, rng)
                try:
                    U, Y, L = gauss_decompose(A)
                except DomainError:
                    continue
                assert (U * Y) * L == A
                hits += 1

    def test_commutative_diagonal_is_minor_ratio(self, rng, Q):
        hits = 0
        while hits < 4:
            A = sample_matrix(Q, 3, 3, rng)
            try:
                _, Y, _ = gauss_decompose(A)
            except DomainError:
                continue
            for k in (1, 2, 3):
                tail = list(range(k, 4))
                num = det_leibniz([[A.entry(r, c) for c in tail] for r in tail])
                tail2 = list(range(k + 1, 4))
                den = (
                    det_leibniz([[A.entry(r, c) for c in tail2] for r in tail2])
                    if tail2
                    else Fraction(1)
                )
                assert Y.entry(k, k) * den == num
            hits += 1

    def test_singular_diagonal_raises(self, Q):
        A = NcMatrix(Q, [[1, 1], [1, 1]])  # trailing 1x1 fine, corner zero
        with pytest.raises(DomainError):
            gauss_decompose(A)


class TestFlag:
    def test_single_row_coordinates_are_entries(self, rng, M2):
        A = sample_matrix(M2, 1, 3, rng)
        for j in (1, 2, 3):
            assert flag_coordinate(A, (j,)) == A.entry(1, j)

    def test_pivot_position(self, rng, Q):
        # the coordinate is the quasideterminant at (last row, first column)
        A = sample_matrix(Q, 2, 4, rng)
        try:
            f = flag_coordinate(A, (3, 1))
        except DomainError:
            return
        assert f == qdet(A.select((1, 2), (1, 3)), 2, 3)

    def test_distinct_columns_required(self, rng, Q):
        A = sample_matrix(Q, 2, 4, rng)
        with pytest.raises(ValueError):
            flag_coordinate(A, (2, 2))
