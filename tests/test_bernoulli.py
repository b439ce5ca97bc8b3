from fractions import Fraction

import pytest

from padicsum import (
    Prime,
    bernoulli_identity_partial,
    bernoulli_numbers,
    bernoulli_series_certificate,
    binomial,
    factorial_norm_exponent,
    int_poly,
    padic_distance_exponent,
    shared_family,
    volkenborn_level,
    volkenborn_poly,
    vp,
)

TABLE = bernoulli_numbers(60)


class TestBernoulliNumbers:
    def test_first_values(self):
        expect = [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
            Fraction(0),
            Fraction(-1, 30),
            Fraction(0),
            Fraction(1, 42),
        ]
        assert list(TABLE.values[:7]) == expect

    def test_B12(self):
        assert TABLE[12] == Fraction(-691, 2730)

    def test_odd_vanishing(self):
        for m in range(1, 30):
            assert TABLE[2 * m + 1] == 0

    def test_recurrence_residual_zero(self):
        # the defining recurrence starts at n = 2 (n = 1 would force B_0 = 0)
        for n in range(2, 62):
            assert sum(binomial(n, j) * TABLE[j] for j in range(n)) == 0

    def test_padic_norm_bound(self):
        # |B_n|_p <= p, i.e. v_p(B_n) >= -1
        for pi in (2, 3, 5, 7, 11):
            p = Prime(pi)
            for n in range(61):
                if TABLE[n] != 0:
                    assert vp(TABLE[n], p) >= -1


class TestVolkenbornPoly:
    def test_monomials(self):
        assert volkenborn_poly(int_poly([1]), TABLE) == 1
        assert volkenborn_poly(int_poly([0, 1]), TABLE) == Fraction(-1, 2)

    def test_V_polynomials(self):
        fam = shared_family()
        assert volkenborn_poly(fam.V(1), TABLE) == -1
        assert volkenborn_poly(fam.V(2), TABLE) == -2
        assert volkenborn_poly(fam.V(3), TABLE) == -4

    def test_table_too_short(self):
        with pytest.raises(ValueError):
            volkenborn_poly(int_poly([0, 0, 0, 1]), bernoulli_numbers(2))


class TestVolkenbornLevel:
    def test_constant(self):
        for pi, m in ((3, 1), (5, 2), (7, 3)):
            assert volkenborn_level(int_poly([1]), Prime(pi), m) == 1

    def test_linear(self):
        for pi, m in ((3, 2), (5, 3), (7, 2)):
            M = pi**m
            assert volkenborn_level(int_poly([0, 1]), Prime(pi), m) == Fraction(M - 1, 2)

    def test_matches_direct_summation(self):
        P = int_poly([2, -3, 0, 1])
        for pi, m in ((3, 2), (5, 2)):
            direct = Fraction(sum(P(j) for j in range(pi**m)), pi**m)
            assert volkenborn_level(P, Prime(pi), m) == direct

    def test_convergence_to_bernoulli(self):
        for n in range(7):
            P = int_poly([0] * n + [1])
            for pi in (3, 5, 7):
                p = Prime(pi)
                prev = None
                for m in range(1, 6):
                    level = volkenborn_level(P, p, m)
                    e = padic_distance_exponent(level, TABLE[n], p)
                    bound = m - vp(n + 1, p).value - 1
                    assert e >= bound, (n, pi, m)
                    if prev is not None and prev.finite and e.finite:
                        assert e.value >= prev.value
                    prev = e

    def test_work_limit(self, monkeypatch):
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", "100")
        with pytest.raises(ValueError):
            volkenborn_level(int_poly([0, 1]), Prime(5), 4)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            volkenborn_level(int_poly([1]), Prime(3), 0)


class TestBernoulliIdentity:
    def test_k1_N1_by_hand(self):
        # 0! [0*B_1 + U_10 B_0 + U_11 B_1] = -1 - 1/2 = -3/2
        lhs, rhs = bernoulli_identity_partial(1, 1, TABLE)
        assert lhs == Fraction(-3, 2)
        assert lhs == rhs

    def test_exact_equality_grid(self):
        for k in range(1, 7):
            for N in range(1, 21):
                lhs, rhs = bernoulli_identity_partial(k, N, TABLE)
                assert lhs == rhs, (k, N)

    def test_table_too_short(self):
        with pytest.raises(ValueError):
            bernoulli_identity_partial(3, 20, bernoulli_numbers(5))


class TestBernoulliCertificates:
    def test_k1_p5_N10(self):
        cert = bernoulli_series_certificate(1, Prime(5), 10, TABLE)
        assert cert.target == -1
        assert cert.bound_exponent == factorial_norm_exponent(10, Prime(5)) - 1 == 1
        assert cert.distance_exponent >= 1

    def test_targets(self):
        for k, target in ((1, -1), (2, -2), (3, -4)):
            cert = bernoulli_series_certificate(k, Prime(3), 5, TABLE)
            assert cert.target == target

    def test_small_N_finite_check(self):
        cert = bernoulli_series_certificate(2, Prime(7), 1, TABLE)
        assert cert.partial - cert.target == cert.tail

    def test_soundness_grid(self):
        for k in (1, 2, 3):
            for pi in (2, 3, 5, 7):
                for N in (1, 4, 9, 15):
                    cert = bernoulli_series_certificate(k, Prime(pi), N, TABLE)
                    assert cert.distance_exponent >= cert.bound_exponent
                    assert cert.ok
