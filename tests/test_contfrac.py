from fractions import Fraction

import pytest

from oracles import continued_fraction_tower, det_leibniz, series_sum_by_chains

from quasidet.contfrac import (
    almost_triangular,
    cf_nested,
    chain_sum,
    commutator_matrix,
    convergents_explicit,
    convergents_recurrence,
    corner_alternating_sum,
    d_product,
    descending_diagonal_product,
    draw_almost_triangular,
    general_corner_product,
    graded_series_matrix,
    heisenberg_diagonal,
    jacobi_convergents,
    jacobi_matrix,
    qz_series_ring,
    rr_continued_fraction,
    rr_ratio_sides,
    rr_sides,
    series_denominator,
    series_numerator,
)
from quasidet.qdet import qdet
from quasidet.rings import (
    DomainError,
    QRationalFunctions,
    Rationals,
    SquareMatrices,
    TruncatedSeriesRing,
)
from quasidet.sampling import Draw, ReplayDraw


class TestCornerFraction:
    def test_size_one(self, rng, M2):
        A = draw_almost_triangular(Draw(rng), M2, 1)
        assert qdet(A, 1, 1) == A.entry(1, 1) == cf_nested(A)

    def test_size_two_display(self, rng, M2):
        hits = 0
        while hits < 5:
            A = draw_almost_triangular(Draw(rng), M2, 2)
            try:
                v = qdet(A, 1, 1)
            except DomainError:
                continue
            want = A.entry(1, 1) + A.entry(1, 2) * M2.invert(A.entry(2, 2))
            assert v == want
            hits += 1

    def test_commutative_det_ratio(self, rng, Q):
        hits = 0
        while hits < 5:
            A = draw_almost_triangular(Draw(rng), Q, 3)
            try:
                v = qdet(A, 1, 1)
            except DomainError:
                continue
            full = det_leibniz([list(r) for r in A.entries])
            sub = det_leibniz([list(r) for r in A.delete_row_col(1, 1).entries])
            assert v * sub == full
            hits += 1

    def test_nested_equals_qdet(self, rng, M2):
        for n in (2, 3, 4):
            hits = 0
            while hits < 3:
                A = draw_almost_triangular(Draw(rng), M2, n)
                try:
                    assert cf_nested(A) == qdet(A, 1, 1)
                except DomainError:
                    continue
                hits += 1


class TestGeneratorReplay:
    # every generator draws through a Draw, so its log rebuilds the input
    @pytest.mark.parametrize(
        "build",
        [
            lambda draw: draw_almost_triangular(draw, SquareMatrices(2), 4),
            lambda draw: draw_almost_triangular(
                draw, SquareMatrices(2), 4, general_subdiag=True
            ),
            heisenberg_diagonal,
            lambda draw: graded_series_matrix(draw, SquareMatrices(2), 2, 4),
        ],
        ids=["almost-triangular", "general-subdiag", "heisenberg", "graded-series"],
    )
    def test_replay_rebuilds_the_input(self, build, rng):
        draw = Draw(rng)
        first = build(draw)
        assert draw.log
        replay = ReplayDraw(draw.log)
        assert build(replay) == first
        assert replay.pos == len(draw.log)


class TestConvergents:
    def test_boundary_values(self, rng, M2):
        A1 = draw_almost_triangular(Draw(rng), M2, 1)
        P, Q1 = convergents_explicit(A1)
        assert P == A1.entry(1, 1) and Q1 == M2.one
        Ps, Qs = convergents_recurrence(A1)
        assert Ps[0] == M2.one and Qs[1] == M2.one

    def test_recurrence_pattern_small(self, rng, M2):
        A = draw_almost_triangular(Draw(rng), M2, 2)
        Ps, Qs = convergents_recurrence(A)
        a = A.entry
        assert Ps[2] == a(1, 2) + a(1, 1) * a(2, 2)
        assert Qs[2] == a(2, 2)

    def test_explicit_equals_recurrence(self, rng, M2):
        for n in (2, 3, 4, 5):
            A = draw_almost_triangular(Draw(rng), M2, n)
            P, Qn = convergents_explicit(A)
            Ps, Qs = convergents_recurrence(A)
            assert P == Ps[n] and Qn == Qs[n]

    def test_corner_identities(self, rng, M2):
        for n in (2, 3, 4):
            hits = 0
            while hits < 3:
                A = draw_almost_triangular(Draw(rng), M2, n)
                P, Qn = convergents_explicit(A)
                assert P == qdet(A, 1, n)
                assert Qn == qdet(A.delete_row_col(1, 1), 2, n)
                try:
                    assert P * M2.invert(Qn) == qdet(A, 1, 1)
                except DomainError:
                    continue
                hits += 1


class TestJacobi:
    def test_convergent_seeds(self, rng, M2):
        diag = [M2.random_element(rng) for _ in range(4)]
        P, Q = jacobi_convergents(M2, diag)
        assert P[0] == M2.one and P[1] == diag[0]
        assert Q[1] == M2.one and Q[2] == diag[1]
        assert P[2] == diag[0] * diag[1] + M2.one

    def test_special_equals_general(self, rng, M2):
        diag = [M2.random_element(rng) for _ in range(4)]
        A = jacobi_matrix(M2, diag)
        P, Q = jacobi_convergents(M2, diag)
        Pg, Qg = convergents_recurrence(A)
        assert P[4] == Pg[4] and Q[4] == Qg[4]

    def test_two_terms_direct(self, rng, M2):
        hits = 0
        while hits < 4:
            diag = [M2.random_element(rng) for _ in range(2)]
            A = jacobi_matrix(M2, diag)
            try:
                v = qdet(A, 1, 1)
                want = diag[0] + M2.invert(diag[1])
            except DomainError:
                continue
            assert v == want
            P, Q = jacobi_convergents(M2, diag)
            assert P[2] * M2.invert(Q[2]) == v
            hits += 1

    def test_classical_tower_oracle(self, rng, Q):
        hits = 0
        while hits < 5:
            diag = [Fraction(rng.randint(1, 9)) for _ in range(4)]
            A = jacobi_matrix(Q, diag)
            try:
                v = qdet(A, 1, 1)
            except DomainError:
                continue
            assert v == continued_fraction_tower(diag)
            hits += 1

    def test_prefix_dependence(self, rng, M2):
        diag = [M2.random_element(rng) for _ in range(5)]
        P, Q = jacobi_convergents(M2, diag)
        other = list(diag)
        other[3] = M2.random_element(rng)
        other[4] = M2.random_element(rng)
        P2, Q2 = jacobi_convergents(M2, other)
        assert P2[3] == P[3] and Q2[3] == Q[3]


class TestCommutatorCollapse:
    def test_two_by_two_by_hand(self, rng):
        # P_2 = a_12 + a_11 a_22 collapses to a_22 a_11 when
        # a_12 is exactly their commutator
        M3 = SquareMatrices(3)
        for _ in range(5):
            a11 = heisenberg_diagonal(Draw(rng))
            a22 = heisenberg_diagonal(Draw(rng))
            a12 = a22 * a11 - a11 * a22
            assert a12 + a11 * a22 == a22 * a11

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_descending_product(self, n, rng, M3):
        diag = [heisenberg_diagonal(Draw(rng)) for _ in range(n)]
        A = commutator_matrix(M3, diag)
        P, _ = convergents_recurrence(A)
        want = descending_diagonal_product(diag)
        assert P[n] == want
        assert qdet(A, 1, n) == want

    def test_scalar_degenerate_smoke(self):
        M3 = SquareMatrices(3)
        diag = [M3.scalar_matrix(Fraction(k + 2, 3)) for k in range(3)]
        A = commutator_matrix(M3, diag)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert M3.is_zero(A.entry(i, j))
        P, _ = convergents_recurrence(A)
        assert P[3] == descending_diagonal_product(diag)


class TestSeriesRatio:
    def test_order_zero_everything_is_one(self, rng, Q):
        A = graded_series_matrix(Draw(rng), Q, 0, 3)
        T = A.ring
        assert qdet(A, 1, 1) == T.one
        assert series_numerator(A) == T.one
        assert series_denominator(A) == T.one

    def test_first_order_coefficient_by_hand(self, rng, Q):
        # to first order the corner value is 1 + t(M_11 + sum_j M_1j)
        A = graded_series_matrix(Draw(rng), Q, 2, 4)
        T = A.ring
        v = qdet(A, 1, 1)
        want1 = A.entry(1, 1).coeffs[1]
        for j in range(2, 5):
            want1 = want1 + A.entry(1, j).coeffs[1]
        assert v.coeffs[0] == T.base.one
        assert v.coeffs[1] == want1

    def test_ratio_identity_small(self, rng, Q, M2):
        for (base, L, N) in ((Q, 3, 5), (M2, 2, 4)):
            A = graded_series_matrix(Draw(rng), base, L, N)
            T = A.ring
            lhs = qdet(A, 1, 1)
            assert series_numerator(A) * T.invert(series_denominator(A)) == lhs

    @pytest.mark.parametrize("base", [Rationals(), SquareMatrices(2)], ids=lambda b: b.name)
    @pytest.mark.parametrize("size", range(1, 9))
    def test_series_sums_equal_the_chain_enumeration(self, size, base, rng):
        # generic series entries: no chain vanishes by truncation, unlike
        # the graded matrices, where a product of more than ``order`` upper
        # entries is zero
        T = TruncatedSeriesRing(base, 3)
        while True:
            A = draw_almost_triangular(Draw(rng), T, size)
            if all(T.try_invert(A.entry(r, r)) is not None for r in range(1, size + 1)):
                break
        assert series_numerator(A) == series_sum_by_chains(A, 1)
        assert series_denominator(A) == series_sum_by_chains(A, 2)
        graded = graded_series_matrix(Draw(rng), base, 6, size)
        assert series_numerator(graded) == series_sum_by_chains(graded, 1)
        assert series_denominator(graded) == series_sum_by_chains(graded, 2)

    def test_chain_sum_empty_pool(self, rng, M2):
        A = draw_almost_triangular(Draw(rng), M2, 3)
        assert chain_sum(A, 1, [], 3) == A.entry(1, 3)


class TestCornerProducts:
    def test_single_entry(self, rng, M2):
        B = draw_almost_triangular(Draw(rng), M2, 1, general_subdiag=True)
        assert d_product(B, 1, 1) == B.entry(1, 1)
        assert corner_alternating_sum(B) == B.entry(1, 1)

    def test_empty_range_is_one(self, rng, M2):
        B = draw_almost_triangular(Draw(rng), M2, 2, general_subdiag=True)
        assert d_product(B, 3, 2) == M2.one

    def test_unit_subdiagonal_commutative_is_determinant(self, rng, Q):
        hits = 0
        while hits < 5:
            upper = {
                (i, j): Q.random_element(rng)
                for i in range(1, 5)
                for j in range(i, 5)
            }
            B = almost_triangular(Q, upper, 4, subdiag={i: Fraction(1) for i in (1, 2, 3)})
            try:
                D = d_product(B, 1, 4)
            except DomainError:
                continue
            assert D == det_leibniz([list(r) for r in B.entries])
            hits += 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_product_and_sum(self, n, rng, M2):
        hits = 0
        while hits < 3:
            B = draw_almost_triangular(Draw(rng), M2, n, general_subdiag=True)
            try:
                D = d_product(B, 1, n)
                corner = qdet(B, 1, n)
                alt = corner_alternating_sum(B)
            except DomainError:
                continue
            signed = D if (n + 1) % 2 == 0 else -D
            assert signed == corner
            assert alt == corner
            hits += 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_general_pivots(self, n, rng, M2):
        hits = 0
        while hits < 2:
            B = draw_almost_triangular(Draw(rng), M2, n, general_subdiag=True)
            try:
                products = general_corner_product(B)
                for i in range(1, n + 1):
                    for j in range(i, n + 1):
                        assert qdet(B, i, j) == products[(i, j)]
            except DomainError:
                continue
            hits += 1

    @pytest.mark.parametrize("ring_name", ["Q", "M2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_corner_table_matches_per_pair_formula(self, n, ring_name, rng, request):
        # every (i, j) entry of the table against the direct quasideterminant
        # and against the D-value formula evaluated pair by pair
        ring = request.getfixturevalue(ring_name)
        hits = 0
        while hits < 2:
            B = draw_almost_triangular(Draw(rng), ring, n, general_subdiag=True)
            try:
                products = general_corner_product(B)
                for i in range(1, n + 1):
                    for j in range(i, n + 1):
                        value = d_product(B, 1, n)
                        if i > 1:
                            value = B.entry(i, i - 1) * ring.invert(d_product(B, 1, i - 1)) * value
                        if j < n:
                            value = value * ring.invert(d_product(B, j + 1, n)) * B.entry(j + 1, j)
                        want = -value if (j - i) % 2 else value
                        assert products[(i, j)] == want
                        assert products[(i, j)] == qdet(B, i, j)
            except DomainError:
                continue
            assert sorted(products) == [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            hits += 1


class TestRogersRamanujan:
    def test_leading_coefficients(self):
        lhs, rhs = rr_sides(3, 6)
        F = QRationalFunctions()
        assert lhs.coeffs[0] == F.one
        assert lhs.coeffs[1] == -F.q()
        assert rhs.coeffs[1] == -F.q()

    def test_coefficients_match_through_order_six(self):
        lhs, rhs = rr_sides(6, 10)
        for k in range(7):
            assert lhs.coeffs[k] == rhs.coeffs[k]

    def test_depth_stability(self):
        a, _ = rr_sides(4, 8)
        b, _ = rr_sides(4, 9)
        assert a.coeffs == b.coeffs

    def test_closed_form_denominators(self):
        # second ratio coefficient: q^4/((1-q)(1-q^2)) in lowest terms
        num, _ = rr_ratio_sides(2)
        F = QRationalFunctions()
        one = Fraction(1)
        from quasidet.rings import QRat, poly_mul

        fac = poly_mul((one, -one), (one, Fraction(0), -one))
        want = F.q(6) * F.invert(QRat(fac))
        assert num.coeffs[2] == want

    def test_tower_is_exact_series(self):
        cfrac = rr_continued_fraction(2, 5)
        T = qz_series_ring(2)
        assert cfrac.ring.spec() == T.spec()
