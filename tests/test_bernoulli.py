import math
from fractions import Fraction

import pytest

import oracles
import padicsum.bernoulli as bernoulli
from padicsum import (
    BivarPoly,
    Prime,
    SummationTriple,
    bernoulli_identity_partial,
    bernoulli_numbers,
    bernoulli_series_certificate,
    build_triple,
    factorial_norm_exponent,
    horner,
    volkenborn_level,
    volkenborn_poly,
    vp,
)

TABLE = bernoulli_numbers(60)


def explicit_bernoulli(n: int) -> Fraction:
    """B_n = sum_{k<=n} 1/(k+1) sum_{j<=k} (-1)^j C(k,j) j^n, no recurrence."""
    return sum(
        Fraction(sum((-1) ** j * math.comb(k, j) * j**n for j in range(k + 1)), k + 1)
        for k in range(n + 1)
    )


ORACLE = tuple(explicit_bernoulli(n) for n in range(41))


def oracle_volkenborn(coeffs, shift: int = 0) -> Fraction:
    return sum((c * ORACLE[shift + l] for l, c in enumerate(coeffs)), Fraction(0))


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
        assert list(TABLE[:7]) == expect

    def test_matches_explicit_formula(self):
        assert bernoulli_numbers(40) == ORACLE
        assert bernoulli_numbers(0) == (1,)

    def test_B12(self):
        assert TABLE[12] == Fraction(-691, 2730)

    def test_odd_vanishing(self):
        for m in range(1, 30):
            assert TABLE[2 * m + 1] == 0

    def test_recurrence_residual_zero(self):
        # the defining recurrence starts at n = 2 (n = 1 would force B_0 = 0)
        for n in range(2, 62):
            assert sum(math.comb(n, j) * TABLE[j] for j in range(n)) == 0

    def test_matches_recurrence_oracle(self):
        # the recurrence builds B_0..B_n in order, so each n reads a prefix
        recurrence = oracles.bernoulli_by_recurrence(301)
        for n in (0, 1, 2, 3, 4, 41, 300, 301):
            assert bernoulli_numbers(n) == recurrence[: n + 1], n

    def test_length(self):
        for n in range(6):
            assert len(bernoulli_numbers(n)) == n + 1
        with pytest.raises(ValueError, match="nmax must be nonnegative"):
            bernoulli_numbers(-1)

    def test_von_staudt_clausen(self):
        # B_n + sum of 1/p over the primes p with (p - 1) | n is an integer
        table = bernoulli_numbers(600)
        primes = [p for p in range(2, 602) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        for n in range(2, 601, 2):
            frac = table[n] + sum(Fraction(1, p) for p in primes if n % (p - 1) == 0)
            assert frac.denominator == 1, n

    def test_signs_and_odd_zeros(self):
        table = bernoulli_numbers(601)
        for m in range(1, 301):
            assert (-1) ** (m - 1) * table[2 * m] > 0, m
        assert all(table[n] == 0 for n in range(3, 602, 2))

    def test_padic_norm_bound(self):
        # |B_n|_p <= p, i.e. v_p(B_n) >= -1
        for pi in (2, 3, 5, 7, 11):
            p = Prime(pi)
            for n in range(61):
                if TABLE[n] != 0:
                    assert vp(TABLE[n], p) >= -1


class TestVolkenbornPoly:
    def test_monomials(self):
        assert volkenborn_poly(()) == 0
        assert volkenborn_poly((1,)) == 1
        assert volkenborn_poly((7,)) == 7
        assert volkenborn_poly((0, 1)) == Fraction(-1, 2)

    def test_V_polynomials(self):
        assert volkenborn_poly(build_triple(1).V) == -1
        assert volkenborn_poly(build_triple(2).V) == -2
        assert volkenborn_poly(build_triple(3).V) == -4
        for k in (1, 2, 3):
            V = build_triple(k).V
            assert volkenborn_poly(V) == oracle_volkenborn(V)


class TestVolkenbornLevel:
    def test_constant(self):
        for pi, m in ((3, 1), (5, 2), (7, 3)):
            assert volkenborn_level((1,), Prime(pi), m) == 1

    def test_linear(self):
        for pi, m in ((3, 2), (5, 3), (7, 2)):
            M = pi**m
            assert volkenborn_level((0, 1), Prime(pi), m) == Fraction(M - 1, 2)

    def test_matches_direct_summation(self):
        P = (2, -3, 0, 1)
        for pi, m in ((3, 2), (5, 2)):
            direct = Fraction(sum(horner(P, j) for j in range(pi**m)), pi**m)
            assert volkenborn_level(P, Prime(pi), m) == direct

    def test_convergence_to_bernoulli(self):
        for n in range(7):
            P = (0,) * n + (1,)
            for pi in (3, 5, 7):
                p = Prime(pi)
                prev = None
                for m in range(1, 6):
                    level = volkenborn_level(P, p, m)
                    # None (infinite) at n = 0, where the level sum is B_0 exactly
                    e = vp(level - TABLE[n], p)
                    bound = m - vp(n + 1, p) - 1
                    assert e is None or e >= bound, (n, pi, m)
                    if prev is not None and e is not None:
                        assert e >= prev
                    prev = e

    def test_work_limit(self, monkeypatch):
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", "100")
        with pytest.raises(ValueError):
            volkenborn_level((0, 1), Prime(5), 4)

    @pytest.mark.parametrize("p, m, limit", [(5, 3, 125), (2, 6, 64), (2, 7, 128)])
    def test_work_limit_is_inclusive(self, monkeypatch, p, m, limit):
        # p^m == limit is allowed; one less refuses it, also where m is the
        # limit's bit length (2^7 against 127)
        P = (0, 1)
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", str(limit))
        assert volkenborn_level(P, Prime(p), m) == Fraction(p**m - 1, 2)
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", str(limit - 1))
        with pytest.raises(ValueError, match=rf"work limit {limit - 1}\b"):
            volkenborn_level(P, Prime(p), m)

    def test_trailing_zeros_leave_the_level_sum(self):
        for pi, m in ((2, 3), (3, 2), (5, 1)):
            p = Prime(pi)
            assert volkenborn_level((1, 2, 0, 0), p, m) == volkenborn_level((1, 2), p, m)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            volkenborn_level((1,), Prime(3), 0)


class TestBernoulliIdentity:
    def test_k1_N1_by_hand(self):
        # 0! [0*B_1 + U_10 B_0 + U_11 B_1] = -1 - 1/2 = -3/2
        lhs, rhs = bernoulli_identity_partial(1, 1)
        assert lhs == Fraction(-3, 2)
        assert lhs == rhs

    def test_exact_equality_grid(self):
        for k in range(1, 7):
            for N in range(1, 21):
                lhs, rhs = bernoulli_identity_partial(k, N)
                assert lhs == rhs, (k, N)

    def test_matches_brute_force_oracle(self):
        for k in range(1, 6):
            t = build_triple(k)
            for N in range(1, 16):
                lhs = sum(
                    math.factorial(n)
                    * (n**k * ORACLE[n + k] + oracle_volkenborn(t.U, n))
                    for n in range(N)
                )
                tail = math.factorial(N) * oracle_volkenborn(t.A.eval_n(N), N)
                rhs = oracle_volkenborn(t.V) + tail
                assert bernoulli_identity_partial(k, N) == (lhs, rhs), (k, N)

    def test_integer_lhs_at_table_size(self):
        # lhs is summed in integers scaled by the lcm of the B_j denominators;
        # here it is held to the plain Fraction sum at the size of the tables
        # benchmark, k + N = 300
        B = bernoulli_numbers(299)
        for k in (1, 3, 4, 5):
            N, U = 300 - k, build_triple(k).U
            lhs = sum(
                math.factorial(n) * (n**k * B[n + k] + sum(u * B[n + l] for l, u in enumerate(U)))
                for n in range(N)
            )
            assert bernoulli_identity_partial(k, N) == (lhs, lhs), k


class TestScaledKernels:
    """The integer kernels that bernoulli --nmax and --identity print from."""

    def test_pairs_are_the_reduced_table_to_600(self):
        pairs = bernoulli.bernoulli_pairs(600)
        assert [Fraction(*q) for q in pairs] == list(bernoulli_numbers(600))
        assert pairs[:41] == tuple((q.numerator, q.denominator) for q in ORACLE)
        for num, den in pairs:
            assert type(num) is type(den) is int and den > 0 and math.gcd(num, den) == 1
        for n in (0, 1, 2, 3, 38):
            assert bernoulli.bernoulli_pairs(n) == pairs[: n + 1]
        with pytest.raises(ValueError):
            bernoulli.bernoulli_pairs(-1)

    def test_scaled_identity_is_exact_and_matches_its_view(self):
        for k in range(1, 7):
            for N in range(1, 41):
                S, R, L = bernoulli.scaled_bernoulli_identity(k, N)
                assert S == R, (k, N)
                assert L == math.lcm(*(q.denominator for q in bernoulli_numbers(N + k - 1)))
                assert bernoulli_identity_partial(k, N) == (Fraction(S, L), Fraction(R, L))

    def test_lhs_reads_no_A(self, monkeypatch):
        # a triple whose A is wrong moves rhs only, so the identity fails
        true = {k: bernoulli.scaled_bernoulli_identity(k, 9) for k in (2, 4)}
        def wrong_A(k):
            t = build_triple(k)
            layers = [list(lay) for lay in t.A.layers]
            layers[-1][0] += 1
            return SummationTriple(k, t.U, t.V, BivarPoly.make(layers))

        monkeypatch.setattr(bernoulli, "build_triple", wrong_A)
        for k, (S, R, L) in true.items():
            S2, R2, L2 = bernoulli.scaled_bernoulli_identity(k, 9)
            assert (S2, L2) == (S, L) and R2 != R


class TestBernoulliCertificates:
    def test_k1_p5_N10(self):
        cert = bernoulli_series_certificate(1, Prime(5), 10)
        assert cert.target == -1
        assert cert.primes == (Prime(5),)
        assert cert.bound_exponents == (factorial_norm_exponent(10, Prime(5)) - 1,) == (1,)
        assert cert.distance_exponents[0] >= 1

    def test_targets(self):
        for k, target in ((1, -1), (2, -2), (3, -4)):
            cert = bernoulli_series_certificate(k, Prime(3), 5)
            assert cert.target == target

    def test_small_N_finite_check(self):
        cert = bernoulli_series_certificate(2, Prime(7), 1)
        assert cert.partial - cert.target == cert.tail

    def test_soundness_grid(self):
        for k in (1, 2, 3):
            for pi in (2, 3, 5, 7):
                for N in (1, 4, 9, 15):
                    cert = bernoulli_series_certificate(k, Prime(pi), N)
                    # None (infinite) at k = 1, N = 9 and 15, where the tail is 0
                    (e,), (bound,) = cert.distance_exponents, cert.bound_exponents
                    assert e is None or e >= bound
                    assert cert.ok

    def test_fails_when_identity_fails(self, monkeypatch):
        # lhs shifted by 3^20 stays 3-adically close, but lhs != rhs
        true_partial = bernoulli.bernoulli_identity_partial

        def shifted(k, N):
            lhs, rhs = true_partial(k, N)
            return lhs + 3**20, rhs

        monkeypatch.setattr(bernoulli, "bernoulli_identity_partial", shifted)
        cert = bernoulli_series_certificate(2, Prime(3), 6)
        assert cert.target == -2
        assert not cert.ok
