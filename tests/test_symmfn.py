from fractions import Fraction
from itertools import permutations, product

import pytest

from oracles import (
    complete_classical,
    descent_set,
    elementary_classical,
    ribbon_classical,
    vandermonde_ratio_classical,
)

from quasidet.rings import DomainError
from quasidet.symmfn import (
    annihilation_value,
    bezout_product,
    coeffs_from_roots,
    complete_from_ys,
    complete_s,
    composition_descents,
    compositions,
    dual_shift_ring,
    elementary_from_ys,
    elementary_lambda,
    hat_transform,
    ribbon_from_ys,
    ribbon_schur,
    shift_by_unit,
    vandermonde,
    vieta_from_y,
    vieta_via_qdet,
    y_chain,
    y_transform,
    z_transform,
)


def draw_independent(ring, n, rng, tries=200):
    for _ in range(tries):
        xs = [ring.random_element(rng) for _ in range(n)]
        try:
            y_transform(ring, xs)
        except DomainError:
            continue
        return xs
    raise AssertionError("no independent sequence found")


def draw_independent_with_z(ring, n, rng, tries=300):
    # z_transform inverts V(x_1..x_m, z) for m < n; V(x_1..x_n, z) last
    for _ in range(tries):
        xs = draw_independent(ring, n, rng)
        z = ring.random_element(rng)
        try:
            z_transform(ring, xs, z)
            V = vandermonde(ring, xs + [z])
        except DomainError:
            continue
        if ring.try_invert(V) is None:
            continue
        return xs, z
    raise AssertionError("no independent sequence with tail found")


class TestVandermonde:
    def test_linear_case(self, Q):
        assert vandermonde(Q, [Fraction(3), Fraction(7)]) == 4

    def test_two_values_difference(self, rng, M2):
        x1 = M2.random_element(rng)
        x2 = M2.random_element(rng)
        assert vandermonde(M2, [x1, x2]) == x2 - x1

    def test_commutative_alternant_ratio(self, Q):
        values = [Fraction(1), Fraction(2), Fraction(4)]
        assert vandermonde(Q, values) == vandermonde_ratio_classical(values)

    def test_single_value_is_one(self, Q):
        assert vandermonde(Q, [Fraction(9)]) == 1


class TestTransforms:
    def test_first_value_fixed(self, rng, M2):
        xs, z = draw_independent_with_z(M2, 3, rng)
        assert y_transform(M2, xs)[0] == xs[0]
        assert z_transform(M2, xs, z)[0] == z

    def test_commutative_collapse(self, rng, Q):
        xs = draw_independent(Q, 4, rng)
        assert y_transform(Q, xs) == xs
        z = Fraction(5, 3)
        assert z_transform(Q, xs, z) == [z] * 4

    def test_defining_relation(self, rng, M2):
        xs = draw_independent(M2, 3, rng)
        ys = y_transform(M2, xs)
        for k in (2, 3):
            V = vandermonde(M2, xs[:k])
            assert V * xs[k - 1] == ys[k - 1] * V

    def test_chain_is_the_prefix_quasideterminants(self, rng, M2):
        xs = draw_independent(M2, 4, rng)
        ys, Vs = y_chain(M2, xs)
        assert ys == y_transform(M2, xs)
        assert Vs == [vandermonde(M2, xs[:k]) for k in (2, 3, 4)]

    def test_dependent_values_raise_at_the_first_singular_prefix(self, rng, Q, M2):
        # V(1, 2) = 1 is invertible, V(1, 2, 1) = 0 is not
        with pytest.raises(DomainError):
            y_transform(Q, [Fraction(1), Fraction(2), Fraction(1)])
        x = M2.random_element(rng)
        with pytest.raises(DomainError):
            y_chain(M2, [x, x])
        # a singular prefix stops the chain before any longer prefix is built
        calls = []

        def counting(ring, values):
            calls.append(len(values))
            return vandermonde(ring, values)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("quasidet.symmfn.vandermonde", counting)
            with pytest.raises(DomainError):
                y_transform(Q, [Fraction(1), Fraction(1), Fraction(3)])
        assert calls == [2]

    def test_hat_contract_base_case(self, rng, M2):
        # one value: the hatted product degenerates to (z - x1) itself
        hits = 0
        while hits < 3:
            x1 = M2.random_element(rng)
            z = M2.random_element(rng)
            if M2.try_invert(z - x1) is None:
                continue
            hats, zhat = hat_transform(M2, [x1], z)
            assert hats == []
            assert vandermonde(M2, [zhat]) * (z - x1) == vandermonde(M2, [x1, z])
            hits += 1

    def test_hat_contract(self, rng, M2):
        hits = 0
        while hits < 3:
            try:
                xs, z = draw_independent_with_z(M2, 2, rng)
                hats, zhat = hat_transform(M2, xs, z)
                lhs = vandermonde(M2, xs + [z])
                rhs = vandermonde(M2, hats + [zhat]) * (z - xs[0])
            except (DomainError, AssertionError):
                continue
            assert lhs == rhs
            hits += 1

    def test_commutative_hats_collapse(self, rng, Q):
        xs, z = draw_independent_with_z(Q, 3, rng)
        hats, zhat = hat_transform(Q, xs, z)
        assert hats == xs[1:]
        assert zhat == z


class TestBezout:
    def test_base_case(self, rng, M2):
        x1 = M2.random_element(rng)
        z = M2.random_element(rng)
        assert bezout_product(M2, [x1], [z]) == z - x1

    def test_commutative_product_of_linear_factors(self, rng, Q):
        xs, z = draw_independent_with_z(Q, 3, rng)
        want = Fraction(1)
        for x in xs:
            want *= z - x
        assert bezout_product(Q, y_transform(Q, xs), z_transform(Q, xs, z)) == want

    def test_matrix_scalars(self, rng, M2):
        hits = 0
        while hits < 3:
            try:
                xs, z = draw_independent_with_z(M2, 3, rng)
            except AssertionError:
                continue
            lhs = vandermonde(M2, xs + [z])
            assert lhs == bezout_product(M2, y_transform(M2, xs), z_transform(M2, xs, z))
            hits += 1


class TestVieta:
    def test_single_root(self, rng, M2):
        x = M2.random_element(rng)
        assert vieta_from_y(M2, [x]) == [-x]
        if M2.try_invert(x) is not None:
            assert vieta_via_qdet(M2, [x]) == [-x]
        assert coeffs_from_roots(M2, [x]) == [-x]

    def test_second_coefficient_is_reversed_product(self, rng, M2):
        xs = draw_independent(M2, 2, rng)
        ys = y_transform(M2, xs)
        assert vieta_from_y(M2, ys)[1] == ys[1] * ys[0]

    def test_frozen_commutative_values(self, Q):
        roots = [Fraction(1), Fraction(2)]
        assert vieta_from_y(Q, roots) == [Fraction(-3), Fraction(2)]
        assert vieta_via_qdet(Q, roots) == [Fraction(-3), Fraction(2)]
        assert coeffs_from_roots(Q, roots) == [Fraction(-3), Fraction(2)]

    def test_routes_agree_and_annihilate(self, rng, M2):
        hits = 0
        while hits < 3:
            xs = draw_independent(M2, 3, rng)
            try:
                a = vieta_from_y(M2, y_transform(M2, xs))
                b = vieta_via_qdet(M2, xs)
                c = coeffs_from_roots(M2, xs)
            except DomainError:
                continue
            assert a == b == c
            for x in xs:
                assert M2.is_zero(annihilation_value(M2, a, x))
            hits += 1

    def test_central_poly_left_coefficients(self, rng, M2):
        a1, a2, w = (M2.random_element(rng) for _ in range(3))
        assert annihilation_value(M2, [], w) == M2.one
        assert annihilation_value(M2, [a1], w) == w + a1
        # degree 2: w^2 + a_1 w + a_2, the coefficient left of w
        value = annihilation_value(M2, [a1, a2], w)
        assert value == w * w + a1 * w + a2
        assert a1 * w != w * a1 and value != w * w + w * a1 + a2


class TestSymmetricFamilies:
    def test_lambda_classical(self, Q):
        xs = [Fraction(1), Fraction(2)]
        assert elementary_lambda(Q, xs) == [Fraction(3), Fraction(2)]

    def test_lambda_single(self, rng, M2):
        x = M2.random_element(rng)
        assert elementary_lambda(M2, [x]) == [x]

    def test_complete_first_equals_lambda_first(self, rng, M2):
        xs = draw_independent(M2, 2, rng)
        s = complete_s(M2, xs, 1)
        lam = elementary_lambda(M2, xs)
        assert s[0] == lam[0]

    def test_complete_frozen_value(self, Q):
        xs = [Fraction(1), Fraction(2)]
        s = complete_s(Q, xs, 2)
        assert s[1] == 7 == complete_classical(xs, 2)

    def test_complete_routes_agree(self, rng, M2):
        xs = draw_independent(M2, 2, rng)
        assert complete_s(M2, xs, 4, "series") == complete_s(M2, xs, 4, "words")

    def test_ys_level_routes_agree_on_any_alphabet(self, rng, M2):
        # lambda(-t) sigma(t) = 1 holds for every alphabet, independent or not
        for n in (1, 2, 3):
            ys = [M2.random_element(rng) for _ in range(n)]
            assert complete_from_ys(M2, ys, 4, "series") == complete_from_ys(M2, ys, 4, "words")
            assert elementary_from_ys(M2, ys)[0] == complete_from_ys(M2, ys, 1, "words")[0]

    def test_classical_families_at_dim_one(self, rng, Q):
        xs = draw_independent(Q, 3, rng)
        lam = elementary_lambda(Q, xs)
        for k in (1, 2, 3):
            assert lam[k - 1] == elementary_classical(xs, k)
        s = complete_s(Q, xs, 3, "words")
        for k in (1, 2, 3):
            assert s[k - 1] == complete_classical(xs, k)


class TestRibbon:
    def test_descent_machinery(self):
        assert descent_set((1, 3, 2, 2)) == frozenset({2})
        assert composition_descents((2, 1)) == frozenset({2})
        assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_single_part_is_complete(self, rng, M2):
        xs = draw_independent(M2, 2, rng)
        assert ribbon_schur(M2, xs, (2,)) == complete_s(M2, xs, 2, "words")[1]

    def test_all_ones_is_elementary(self, rng, M2):
        xs = draw_independent(M2, 2, rng)
        assert ribbon_schur(M2, xs, (1, 1)) == elementary_lambda(M2, xs)[1]

    def test_commutative_ribbon_oracle(self, rng, Q):
        xs = [Fraction(1), Fraction(2)]
        assert ribbon_schur(Q, xs, (2, 1)) == ribbon_classical(xs, (2, 1))
        xs3 = draw_independent(Q, 3, rng)
        for J in ((2, 1), (1, 2), (1, 1, 1)):
            assert ribbon_schur(Q, xs3, J) == ribbon_classical(xs3, J)

    def test_ribbon_words_match_the_descent_filter(self, rng, Q, M2):
        # against the sum over all n^m words kept by their descent set
        for ring in (Q, M2):
            for n in (1, 2, 3):
                ys = [ring.random_element(rng) for _ in range(n)]
                for m in range(1, 5):
                    for J in compositions(m):
                        want = ring.zero
                        for word in product(range(n), repeat=m):
                            if descent_set(word) == composition_descents(J):
                                term = ring.one
                                for i in word:
                                    term = term * ys[i]
                                want = want + term
                        assert ribbon_from_ys(ring, ys, J) == want


class TestSymmetry:
    def test_identity_permutation_trivial(self, rng, M2):
        xs = draw_independent(M2, 2, rng)
        assert elementary_lambda(M2, xs) == elementary_lambda(M2, list(xs))

    def test_lambda_two_swap_symmetric_and_y_product_not(self, rng, M2):
        found_asymmetry = False
        hits = 0
        while hits < 10:
            xs = draw_independent(M2, 2, rng)
            try:
                ys_r = y_transform(M2, xs[::-1])
            except DomainError:
                continue
            hits += 1
            assert (
                elementary_lambda(M2, xs)[1] == elementary_lambda(M2, xs[::-1])[1]
            )
            ys = y_transform(M2, xs)
            if ys[0] * ys[1] != ys_r[0] * ys_r[1]:
                found_asymmetry = True
        assert found_asymmetry

    def test_commutativity_criterion_of_the_witness(self, rng, M2):
        # the swap defect of y1 y2 vanishes exactly when x1 commutes with
        # the squared difference
        hits = 0
        while hits < 10:
            xs = draw_independent(M2, 2, rng)
            try:
                ys_r = y_transform(M2, xs[::-1])
            except DomainError:
                continue
            hits += 1
            d = xs[1] - xs[0]
            ys = y_transform(M2, xs)
            symmetric = ys[0] * ys[1] == ys_r[0] * ys_r[1]
            commutes = xs[0] * (d * d) == (d * d) * xs[0]
            assert symmetric == commutes

    def test_ribbon_symmetry_all_permutations(self, rng, M2):
        hits = 0
        while hits < 2:
            xs = draw_independent(M2, 3, rng)
            try:
                for perm in permutations((1, 2, 3)):
                    y_transform(M2, [xs[p - 1] for p in perm])
            except DomainError:
                continue
            base = ribbon_schur(M2, xs, (2, 1))
            for perm in permutations((1, 2, 3)):
                assert ribbon_schur(M2, [xs[p - 1] for p in perm], (2, 1)) == base
            hits += 1


class TestDerivation:
    def test_first_variable_moves_at_unit_rate(self, rng, M2):
        T = dual_shift_ring(M2)
        x = T.base.random_element(rng)
        lifted = shift_by_unit(T, x)
        assert lifted.coeffs[1] == T.base.one

    def test_power_matrix_quasideterminant_is_constant(self, rng, M2):
        T = dual_shift_ring(M2)
        base = T.base
        hits = 0
        while hits < 3:
            raw = [base.random_element(rng) for _ in range(3)]
            lifted = [shift_by_unit(T, x) for x in raw]
            try:
                ys, Vs = y_chain(T, lifted)
            except DomainError:
                continue
            # difference of shifted values loses the shift entirely
            assert (lifted[1] - lifted[0]).coeffs[1] == base.zero
            for k, V in zip((2, 3), Vs):
                assert V == vandermonde(T, lifted[:k])
                assert V.coeffs[1] == base.zero
            for y in ys:
                assert y.coeffs[1] == base.one
            hits += 1
