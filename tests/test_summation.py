import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicsum
from padicsum import (
    IdentityCheck,
    Prime,
    SumCertificate,
    build_triple,
    certificate_from_check,
    factorial_norm_exponent,
    factorial_series,
    horner,
    identity_checks,
    in_convergence_domain,
    invariant_sum,
    paper_sequences,
    telescope,
    truncated_combo_sum,
    truncated_padic_sum,
    verify_identity,
    vp,
)
import padicsum.recurrences as recurrences
import padicsum.summation as summation
from padicsum.recurrences import telescope_combo, unit_combo
from oracles import partial_sum_Sk
from test_padic import check_record, legendre_valuation, loop_valuation


def brute_Sk(k, N, x):
    """Independent oracle: term-by-term with math.factorial, 0^0 = 1."""
    total = Fraction(0)
    for n in range(N):
        nk = 1 if (n == 0 and k == 0) else n**k
        total += math.factorial(n) * nk * Fraction(x) ** n
    return total


class TestPartialSums:
    def test_examples(self):
        assert partial_sum_Sk(1, 2, 1) == 1
        assert partial_sum_Sk(0, 1, Fraction(3, 7)) == 1

    def test_telescoping_closed_form(self):
        # sum_{n<N} n! n = N! - 1
        for N in range(1, 31):
            assert partial_sum_Sk(1, N, 1) == math.factorial(N) - 1

    @given(
        k=st.integers(0, 6),
        N=st.integers(1, 20),
        num=st.integers(-6, 6),
        den=st.integers(1, 5),
    )
    @settings(max_examples=150)
    def test_matches_brute_force(self, k, N, num, den):
        x = Fraction(num, den)
        assert partial_sum_Sk(k, N, x) == brute_Sk(k, N, x)


class TestFactorialSeries:
    COEFFS = {
        "one": lambda n: 1,
        "n^3": lambda n: n**3,
        "rational": lambda n: Fraction(2 * n - 1, n + 3),
    }

    @pytest.mark.parametrize("name", sorted(COEFFS))
    def test_matches_brute_force(self, name):
        c = self.COEFFS[name]
        for x in map(Fraction, (1, -3, 0, "5/2", "-4/7")):
            a, b = x.numerator, x.denominator
            got = list(islice(factorial_series(c, a, b), 20))
            assert [N for N, _, _ in got] == list(range(1, 21))
            for N, fa, S in got:
                assert fa == math.factorial(N) * a**N
                brute = sum(
                    (math.factorial(n) * c(n) * x**n for n in range(N)), Fraction(0)
                )
                assert Fraction(S) / b ** (N - 1) == brute
                if name != "rational":
                    assert isinstance(S, int)


def oracle_identity(k, N, x):
    """Independent per-point evaluation of (lhs, rhs, tail) at (k, N, x):
    a math.factorial/Fraction sum for lhs, V(x) + N! x^N A(N, x) for rhs."""
    x = Fraction(x)
    trip = build_triple(k)
    lhs = sum(
        (math.factorial(n) * (n**k * x**k + horner(trip.U, x)) * x**n for n in range(N)),
        Fraction(0),
    )
    tail = math.factorial(N) * x**N * trip.A.eval(N, x)
    return lhs, horner(trip.V, x) + tail, tail


KERNEL_XS = [Fraction(v) for v in range(-3, 4)] + [
    Fraction(-5, 2), Fraction(-6, 7), Fraction(1, 3), Fraction(7, 4)
]


# partial - target != tail, and exponent 0 against bound 99
FORGED = SumCertificate(
    1, 1, Fraction(1), (Prime(2),), Fraction(7), Fraction(1), Fraction(2), (99,)
)


class TestIdentityKernel:
    def test_every_N_matches_per_point_oracle(self):
        for k in range(1, 9):
            for x in KERNEL_XS:
                checks = list(identity_checks(k, x, 20))
                assert [c.N for c in checks] == list(range(1, 21))
                for c in checks:
                    assert (c.k, c.x) == (k, x)
                    assert (c.lhs, c.rhs, c.tail) == oracle_identity(k, c.N, x)
                    assert c.ok

    @given(
        k=st.integers(1, 10),
        n_max=st.integers(1, 25),
        num=st.integers(-9, 9),
        den=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_against_oracle(self, k, n_max, num, den):
        x = Fraction(num, den)
        for c in identity_checks(k, x, n_max):
            assert (c.lhs, c.rhs, c.tail) == oracle_identity(k, c.N, x)

    def test_verify_identity_is_last_item(self):
        for k, N, x in ((1, 1, 2), (4, 9, Fraction(-6, 5)), (7, 15, 0)):
            assert verify_identity(k, N, x) == list(identity_checks(k, x, N))[-1]

    def test_integer_x_gives_int_fields_rational_x_fractions(self):
        for k in (1, 3):
            for x in (-3, 1, 2, Fraction(4)):
                for c in identity_checks(k, x, 8):
                    assert type(c.lhs) is type(c.rhs) is type(c.tail) is type(c.target) is int
            for x in (Fraction(1, 2), Fraction(-6, 5)):
                for c in identity_checks(k, x, 8):
                    assert type(c.lhs) is type(c.rhs) is type(c.tail) is Fraction

    def test_float_x_is_refused(self):
        # 0.5 would be exact in binary, and is refused all the same
        for call in (lambda: next(identity_checks(2, 0.5, 3)),
                     lambda: verify_identity(2, 3, 0.1),
                     lambda: partial_sum_Sk(2, 3, 0.5),
                     lambda: truncated_combo_sum((1, 2), 2.0, Prime(3), 4),
                     lambda: truncated_padic_sum(2, 2.0, Prime(3), 4),
                     lambda: invariant_sum(2, 2.0)):
            with pytest.raises(TypeError, match="float"):
                call()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            next(identity_checks(0, 1, 5))
        with pytest.raises(ValueError):
            next(identity_checks(1, 1, 0))
        with pytest.raises(ValueError, match="N must be >= 1"):
            partial_sum_Sk(1, 0, 1)

    def test_rejects_C_not_matching_k(self):
        with pytest.raises(ValueError, match="C must list exactly k coefficients"):
            next(identity_checks(7, 2, 1, (1,)))


class TestScaledChecks:
    """The integer kernel that verify prints from, and identity_checks is the view of."""

    def test_fields_reduce_to_identity_checks(self):
        for x in [Fraction(-6, 5), Fraction(1, 2), *map(Fraction, range(-3, 4))]:
            a, b = x.numerator, x.denominator
            for k, C in ((1, None), (3, None), (5, None), (3, (2, 0, -1))):
                scaled = list(summation.scaled_checks(k, a, b, 12, C))
                checks = list(identity_checks(k, x, 12, C))
                assert [s[0] for s in scaled] == [c.N for c in checks] == list(range(1, 13))
                for (N, L, R, T, D), c in zip(scaled, checks):
                    assert all(type(v) is int for v in (L, R, T, D))
                    assert D == b ** (N - 1 + k)
                    assert (Fraction(L, D), Fraction(R, D), Fraction(T, D)) == (
                        c.lhs, c.rhs, c.tail)
                    assert (L == R) is c.ok is True

    def test_an_integer_x_builds_no_fraction(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "fractions", None)
        for x in (-3, 0, 2, "5", "-4/2"):
            assert all(c.ok and type(c.lhs) is int for c in identity_checks(3, x, 6))
        with pytest.raises(ImportError):
            next(identity_checks(3, "1/2", 6))


class TestVerifyIdentity:
    def test_hand_worked_examples(self):
        c = verify_identity(1, 2, 2)
        assert c.lhs == 7 and c.rhs == 7 and c.ok

        for x in (Fraction(3), Fraction(-5, 2), Fraction(7, 3)):
            c = verify_identity(1, 1, x)
            assert c.lhs == x - 1 and c.rhs == -1 + x

        c = verify_identity(2, 1, 1)
        assert c.lhs == 1 and c.rhs == 1

    def test_grid_exact(self):
        for k in range(1, 8):
            for N in range(1, 15):
                for x in range(-3, 4):
                    assert verify_identity(k, N, x).ok

    @given(
        k=st.integers(1, 10),
        N=st.integers(1, 25),
        num=st.integers(-9, 9),
        den=st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_rational_fuzz(self, k, N, num, den):
        assert verify_identity(k, N, Fraction(num, den)).ok

    def test_lhs_matches_independent_termwise_sum(self):
        # oracle: evaluate each bracketed term with math.factorial directly
        k, N, x = 3, 9, Fraction(-2)
        trip = build_triple(k)
        expect = sum(
            math.factorial(n) * (n**k * x**k + horner(trip.U, x)) * x**n for n in range(N)
        )
        assert verify_identity(k, N, x).lhs == expect


class TestInvariantSum:
    def test_paper_values(self):
        assert invariant_sum(1, 1) == -1
        assert invariant_sum(2, 1) == 1
        assert invariant_sum(3, -1) == -9  # i.e. sum (-1)^n n! (n^3 + 15) = 9
        assert invariant_sum(2, -1) == -3
        assert invariant_sum(3, 1) == 1

    def test_rejects_non_integer(self):
        for x in (Fraction(1, 2), "1/2"):
            with pytest.raises(ValueError, match="x must be an integer"):
                invariant_sum(1, x)
        # an integral Fraction or string is the integer it names, as for the certificate
        for x in (Fraction(3), "3"):
            assert invariant_sum(3, x) == invariant_sum(3, 3) == -13
            assert invariant_sum(3, x) == truncated_padic_sum(3, x, Prime(3), 4).target

    def test_rejects_C_not_matching_k(self):
        with pytest.raises(ValueError, match="C must list exactly k coefficients"):
            invariant_sum(5, 3, (1, 2))


class TestCertificates:
    def test_k1_x1_p5(self):
        cert = truncated_padic_sum(1, 1, Prime(5), 10)
        assert cert.partial == math.factorial(10) - 1
        assert cert.target == -1
        assert cert.tail == math.factorial(10)
        assert cert.distance_exponents == (2,) and cert.bound_exponents == (2,)

    def test_single_term(self):
        for pi in (2, 3, 7):
            cert = truncated_padic_sum(1, 1, Prime(pi), 1)
            assert cert.partial == 0 and cert.target == -1
            assert cert.distance_exponents == (0,) and cert.bound_exponents == (0,)

    def test_k2_xm1_p3(self):
        cert = truncated_padic_sum(2, -1, Prime(3), 9)
        assert cert.target == -3
        assert cert.bound_exponents == (4,)  # v_3(9!) = 4, v_3(-1) = 0
        assert cert.distance_exponents[0] >= 4

    def test_soundness_grid(self):
        for k in (1, 2, 3):
            for pi in (2, 3, 5):
                for x in (-2, -1, 1, 2):
                    for N in (1, 5, 12):
                        cert = truncated_padic_sum(k, x, Prime(pi), N)
                        assert cert.partial - cert.target == cert.tail
                        # None (infinite) at k = 2, x = 1, N = 1, where the tail is 0
                        (e,), (bound,) = cert.distance_exponents, cert.bound_exponents
                        assert e is None or e >= bound

    def test_p_invariance_of_target(self):
        for k in (1, 2, 4):
            for x in (-3, 2):
                targets = {
                    truncated_padic_sum(k, x, Prime(pi), 6).target
                    for pi in (2, 3, 5, 7, 11)
                }
                assert len(targets) == 1
                assert targets.pop() == invariant_sum(k, x)

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            truncated_padic_sum(1, 0, Prime(3), 5)
        with pytest.raises(ValueError):
            truncated_padic_sum(1, Fraction(1, 2), Prime(2), 5)

    def test_from_check_matches_per_point_oracle(self):
        for k in (1, 3, 6):
            for x in (-3, -1, 2, 12):
                for c in identity_checks(k, x, 12):
                    lhs, _, tail = oracle_identity(k, c.N, x)
                    for pi in (2, 3, 5, 7):
                        p = Prime(pi)
                        cert = certificate_from_check(c, (p,))
                        for xv in (x, Fraction(x), str(x)):
                            assert cert == truncated_padic_sum(k, xv, p, c.N)
                        assert (cert.partial, cert.tail) == (lhs, tail)
                        assert cert.target == invariant_sum(k, x)
                        assert cert.bound_exponents == (
                            legendre_valuation(c.N, p) + c.N * vp(x, p),
                        )
                        assert cert.distance_exponents == (vp(tail, p),)
                        assert cert.ok

    def test_all_primes_match_a_field_by_field_oracle(self):
        # one certificate per check equals one built field by field from
        # verify_identity, v_p(N!) and a dividing-out v_p(x), and prime by prime
        # the certificate of that prime alone
        primes = tuple(Prime(pi) for pi in (2, 3, 5, 7))
        for k in range(1, 7):
            for x in (-3, -2, -1, 1, 2, 3):
                for c in identity_checks(k, x, 12):
                    cert = certificate_from_check(c, primes)
                    assert cert.primes == primes
                    v = verify_identity(k, c.N, x)
                    bounds = tuple(factorial_norm_exponent(c.N, p) + c.N * loop_valuation(x, p)
                                   for p in primes)
                    assert cert == SumCertificate(k, c.N, x, primes, v.lhs, v.rhs - v.tail,
                                                  v.tail, bounds)
                    for i, p in enumerate(primes):
                        one = certificate_from_check(c, (p,))
                        assert one.bound_exponents == (cert.bound_exponents[i],)
                        assert one.distance_exponents == (cert.distance_exponents[i],)
                        assert one.oks == (cert.oks[i],)
                    assert cert.ok and cert.oks == (True,) * len(primes)

    def test_x_is_rejected_before_the_identity_pass(self, monkeypatch):
        def no_pass(*args):
            raise AssertionError("the identity pass ran before x was checked")

        monkeypatch.setattr(summation, "identity_checks", no_pass)
        with pytest.raises(ValueError, match="x must be a nonzero integer"):
            truncated_combo_sum((1, 2, 3), Fraction(1, 2), Prime(3), 3000)
        with pytest.raises(ValueError, match="x must be a nonzero integer"):
            truncated_combo_sum((1, 2, 3), 0, Prime(3), 3000)
        with pytest.raises(ValueError, match="x must be a nonzero integer"):
            truncated_padic_sum(2, 0, Prime(5), 3000)

    def test_from_check_rejects_rational_or_zero_x(self):
        for x in (0, Fraction(1, 2)):
            with pytest.raises(ValueError):
                certificate_from_check(verify_identity(2, 3, x), (Prime(3),))

    def test_from_check_fails_when_identity_fails(self):
        # the target comes from the right-hand side, not from lhs - tail
        c = verify_identity(3, 8, 2)
        forged = IdentityCheck(c.k, c.N, c.x, c.lhs + 1, c.rhs, c.tail)
        cert = certificate_from_check(forged, (Prime(5),))
        assert cert.target == invariant_sum(3, 2) == -3
        assert not cert.ok

    def test_forged_certificates_fail(self):
        good = truncated_padic_sum(1, 1, Prime(5), 10)
        assert good.ok
        assert not FORGED.ok
        # right algebra, bound above the achieved exponent v_5(10!) = 2
        assert not SumCertificate(
            1, 10, Fraction(1), (Prime(5),), good.partial, good.target, good.tail, (3,)
        ).ok

    def test_forged_int_certificates_fail(self):
        # the forgeries above with int fields, as certificate_from_check stores them
        assert not SumCertificate(1, 1, Fraction(1), (Prime(2),), 7, 1, 2, (99,)).ok
        good = truncated_padic_sum(1, 1, Prime(5), 10)
        assert (type(good.partial), type(good.target), type(good.tail)) == (int, int, int)
        head = (good.k, good.N, good.x, good.primes)
        partial, target, tail, bound = good.partial, good.target, good.tail, good.bound_exponents
        assert not SumCertificate(*head, partial, target, tail, (3,)).ok
        assert not SumCertificate(*head, partial, target, tail + 5**3, bound).ok
        assert not SumCertificate(*head, partial + 5**3, target, tail, bound).ok

    def test_int_distance_matches_the_loop_oracle(self, monkeypatch):
        # int differences u * p^v, u prime to p, of either sign and v up to 60,
        # reach vp as the ints they are
        calls = []
        monkeypatch.setattr(summation, "vp", lambda q, p: calls.append(q) or vp(q, p))
        rng = random.Random(21)
        for pi in (2, 3, 5, 7, 31):
            p = Prime(pi)
            for v in [*range(8), *rng.sample(range(41, 61), 4)]:
                for _ in range(6):
                    u = rng.randrange(10**30) * pi + rng.randrange(1, pi)
                    d = rng.choice((-1, 1)) * u * pi**v
                    target = rng.randrange(-10**40, 10**40)
                    for bound in (v - 1, v, v + 1):
                        calls.clear()
                        cert = SumCertificate(1, 7, Fraction(3), (p,), target + d, target, d,
                                              (bound,))
                        assert calls == [d] and type(calls[0]) is int
                        (e,) = cert.distance_exponents
                        assert cert.difference == d and type(e) is int
                        assert e == loop_valuation(d, pi) == v
                        assert cert.ok is (bound <= v)
                        # the same fields with tail != difference fail at any bound
                        assert not SumCertificate(1, 7, Fraction(3), (p,), target + d, target,
                                                  d + pi ** (v + 1), (bound,)).ok
        exact = SumCertificate(1, 7, Fraction(3), (Prime(2),), 5, 5, 0, (99,))
        assert exact.distance_exponents == (None,) and exact.ok

    def test_non_int_fields_go_through_vp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(summation, "vp", lambda q, p: calls.append(q) or vp(q, p))
        p3 = (Prime(3),)
        cert = SumCertificate(1, 1, Fraction(1), p3, Fraction(19, 2), Fraction(1, 2), 9, (2,))
        assert calls == [9] and type(calls[0]) is Fraction
        assert cert.distance_exponents == (2,) and cert.ok
        assert SumCertificate(1, 1, 1, p3, Fraction(1, 3), 0, 0, (0,)).distance_exponents == (-1,)
        assert len(calls) == 2
        SumCertificate(1, 1, 1, p3, 12, 3, 9, (2,))  # int fields: vp reads the int
        assert len(calls) == 3 and calls[2] == 9 and type(calls[2]) is int
        with pytest.raises(TypeError, match="float"):
            SumCertificate(1, 1, 1, p3, 12.0, 3, 9, (2,))

    def test_from_check_keeps_a_denominator(self):
        c = verify_identity(2, 5, 3)
        forged = IdentityCheck(c.k, c.N, c.x, c.lhs + Fraction(1, 3), c.rhs, c.tail)
        cert = certificate_from_check(forged, (Prime(3),))
        assert cert.partial == c.lhs + Fraction(1, 3)
        assert type(cert.partial) is Fraction and cert.partial.denominator == 3
        assert cert.distance_exponents == (-1,)
        assert not cert.ok

    def test_every_prime_shares_the_check_target(self):
        primes = tuple(Prime(pi) for pi in (2, 3, 5, 7, 11))
        for k in (1, 4):
            for x in (-3, -1, 2):
                for c in identity_checks(k, x, 10):
                    # an integer x keeps every value an int, as the certificate does
                    assert type(c.lhs) is type(c.rhs) is type(c.tail) is int
                    cert = certificate_from_check(c, primes)
                    assert cert.target == c.rhs - c.tail == c.target
                    assert type(cert.target) is type(cert.tail) is int
                    assert cert.distance_exponents == tuple(vp(cert.tail, p) for p in primes)
                    assert cert.ok

    def test_distance_is_computed_not_stored(self):
        # partial - target == tail == 1, so the distance exponent is v_5(1) = 0
        cert = SumCertificate(
            1, 1, Fraction(1), (Prime(5),), Fraction(0), Fraction(-1), Fraction(1), (99,)
        )
        assert cert.distance_exponents == (0,) and type(cert.distance_exponents[0]) is int
        assert not cert.ok

    def test_infinite_distance(self):
        # partial == target: v_p(0) is None, which meets every bound, and
        # `ok` then rests on tail == 0 alone
        exact = SumCertificate(1, 1, Fraction(1), (Prime(5),), -1, -1, 0, (99,))
        assert exact.distance_exponents == (None,) and exact.ok
        forged = SumCertificate(1, 1, Fraction(1), (Prime(5),), -1, -1, 1, (99,))
        assert forged.distance_exponents == (None,) and not forged.ok

    def test_raised_bounds_fail_at_exactly_their_primes(self):
        # true values, and each subset of the primes with its bound raised one past
        # the achieved distance: `oks` is false at exactly that subset
        primes = tuple(Prime(pi) for pi in (2, 3, 5, 7))
        good = certificate_from_check(verify_identity(3, 8, 2), primes)
        assert None not in good.distance_exponents and good.oks == (True,) * 4
        for raised in product((False, True), repeat=len(primes)):
            bounds = tuple(e + 1 if r else b for e, b, r
                           in zip(good.distance_exponents, good.bound_exponents, raised))
            forged = SumCertificate(good.k, good.N, good.x, primes, good.partial,
                                    good.target, good.tail, bounds)
            assert forged.distance_exponents == good.distance_exponents
            assert forged.oks == tuple(not r for r in raised)
            assert forged.ok is not any(raised)

    def test_a_wrong_tail_fails_at_every_prime(self):
        # even a shift that is p-adically small at every prime: tail must be exact
        primes = tuple(Prime(pi) for pi in (2, 3, 5, 7))
        for k, x, N in ((1, 1, 10), (3, 2, 8), (2, -3, 5)):
            good = certificate_from_check(verify_identity(k, N, x), primes)
            assert good.ok
            for shift in (1, -1, 2**40 * 3**30 * 5**20 * 7**20):
                forged = SumCertificate(k, N, good.x, primes, good.partial, good.target,
                                        good.tail + shift, good.bound_exponents)
                assert forged.distance_exponents == good.distance_exponents
                assert forged.oks == (False,) * len(primes) and not forged.ok

    def test_each_prime_reads_its_own_distance_and_bound(self):
        primes = tuple(Prime(pi) for pi in (7, 2, 3, 5, 11))  # not in ascending order
        for k in (1, 2, 5):
            for x in (-6, -2, 1, 3, 10):
                for c in identity_checks(k, x, 9):
                    cert = certificate_from_check(c, primes)
                    assert len(cert.distance_exponents) == len(cert.bound_exponents) == 5
                    for p, e, bound, ok in zip(primes, cert.distance_exponents,
                                               cert.bound_exponents, cert.oks):
                        assert e == vp(c.tail, p)
                        assert bound == factorial_norm_exponent(c.N, p) + c.N * vp(x, p)
                        assert ok

    def test_needs_a_prime_and_one_bound_for_each(self):
        with pytest.raises(ValueError, match="needs a prime"):
            SumCertificate(1, 1, 1, (), 7, 1, 6, ())
        with pytest.raises(ValueError, match="one bound exponent for each"):
            SumCertificate(1, 1, 1, (Prime(2), Prime(3)), 7, 1, 6, (1,))
        with pytest.raises(ValueError, match="one bound exponent for each"):
            SumCertificate(1, 1, 1, (Prime(2),), 7, 1, 6, (1, 1))

    def test_forged_certificate_fails_under_O(self):
        code = (
            "from fractions import Fraction as F\n"
            "from padicsum import Prime, SumCertificate\n"
            "c = SumCertificate(1, 1, F(1), (Prime(2),), F(7), F(1), F(2), (99,))\n"
            "print(c.ok is False, c.ok is False, vars(c)['difference'])\n"
            # int fields: difference != tail, then the exponent 1 below the bound 99
            "i = SumCertificate(1, 1, 1, (Prime(2),), 7, 1, 2, (99,)), "
            "SumCertificate(1, 1, 1, (Prime(2),), 7, 1, 6, (99,))\n"
            "print([(c.ok, c.distance_exponents) for c in i])\n"
            # two primes: v_2(6) = 1 meets its bound 1, v_3(6) = 1 misses 99
            "t = SumCertificate(1, 1, 1, (Prime(2), Prime(3)), 7, 1, 6, (1, 99))\n"
            "print(t.oks, t.ok)\n"
        )
        src = str(Path(padicsum.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "True True 6\n[(False, (1,)), (False, (1,))]\n(True, False) False\n"



def brute_combo(C, N, x):
    """Independent oracle for a Theorem-2 combination: the term-by-term
    partial sum sum_{n<N} n! sum_j C_j (n^j x^j + U_j(x)) x^n and its
    target sum_j C_j V_j(x)."""
    trips = [build_triple(j) for j in range(1, len(C) + 1)]
    partial = sum(
        math.factorial(n)
        * sum(c * (n**j * x**j + horner(t.U, x)) for j, (c, t) in enumerate(zip(C, trips), 1))
        * x**n
        for n in range(N)
    )
    return partial, sum(c * horner(t.V, x) for c, t in zip(C, trips))


class TestTheorem2:
    @pytest.mark.parametrize("C", [(1,), (0, 1), (1, 1), (2, -1, 3), (0, 0, 0, 5)])
    def test_matches_brute_force_oracle(self, C):
        for x in (-3, -1, 2, 4):
            for N in (1, 4, 9):
                partial, target = brute_combo(C, N, x)
                for pi in (2, 3, 5):
                    cert = truncated_combo_sum(C, x, Prime(pi), N)
                    assert (cert.partial, cert.target) == (partial, target)
                    assert cert.ok

    def test_combo_certificates(self):
        cert = truncated_combo_sum((1,), 1, Prime(7), 7)
        assert cert.distance_exponents[0] >= 1  # v_7(7!) = 1
        assert cert.ok

        cert = truncated_combo_sum((0, 0, 1), 1, Prime(2), 4)
        assert cert.target == 1 and cert.ok

        zero = truncated_combo_sum((0, 0), 5, Prime(3), 6)
        assert zero.partial == 0 and zero.target == 0 and zero.ok
        assert (zero.k, zero.x) == (2, Fraction(5))  # k = len(C)

    def test_combo_linearity(self):
        p, N, x = Prime(5), 8, Fraction(2)
        full = truncated_combo_sum((2, -1, 3), x, p, N)
        parts = Fraction(0)
        for j, c in enumerate((2, -1, 3), start=1):
            C = tuple(c if i == j else 0 for i in range(1, 4))
            parts += truncated_combo_sum(C, x, p, N).partial
        assert full.partial == parts

    def test_combo_matches_single_route(self):
        # C = e_k reduces to the plain series
        for k in (1, 2, 3):
            C = tuple(1 if i == k else 0 for i in range(1, k + 1))
            a = truncated_combo_sum(C, -2, Prime(3), 10)
            b = truncated_padic_sum(k, -2, Prime(3), 10)
            assert (a.partial, a.target) == (b.partial, b.target)
            assert a.ok and b.ok

    def test_rejects_rational_x(self):
        for x in (Fraction(1, 2), Fraction(0)):
            with pytest.raises(ValueError):
                truncated_combo_sum((1,), x, Prime(3), 4)

    def test_rejects_empty_combination(self):
        # k = len(C) must be >= 1
        with pytest.raises(ValueError):
            truncated_combo_sum((), 1, Prime(3), 4)


def ev(poly, n):
    """The polynomial with these ascending coefficients at n."""
    return sum(c * n**m for m, c in enumerate(poly))


class TestTelescope:
    def test_identity_against_brute_force(self):
        # sum_{n<N} n! (P(n) - u) x^n = -A(0) + N! x^N A(N) for random integer
        # P and rational x = a/b, solved with the scale s = a^d
        rng = random.Random(20140101)
        for _ in range(200):
            P = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
            a, b = rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5)
            x, s = Fraction(a, b), a ** (len(P) - 1)
            us, As = telescope([s * b * p for p in P], a, b)
            u, A = Fraction(us, s * b), [Fraction(c, s) for c in As]
            lhs = Fraction(0)
            for N in range(1, 12):
                n = N - 1
                lhs += math.factorial(n) * (ev(P, n) - u) * x**n
                assert lhs == -ev(A, 0) + math.factorial(N) * x**N * ev(A, N), (P, x, N)

    @pytest.mark.parametrize("C", [(0, 0), (1,), (0, 1), (2, -1, 3), (1, 0, -2, 0, 0, 5),
                                   (0, 0, 0, 0)])
    def test_combination_is_the_weighted_sum(self, C):
        # one solve of sum_j C_j x^j n^j against sum_j C_j times the per-j
        # solves, all brought to the scale b^k of the combination
        k = len(C)
        for x in (-3, -1, 0, 2, Fraction(-5, 4), Fraction(7, 3)):
            x = Fraction(x)
            a, b = x.numerator, x.denominator
            U, A = 0, [0] * k
            for j, c in enumerate(C, 1):
                Uj, Aj = telescope_combo(unit_combo(j), a, b)
                U += c * Uj * b ** (k - j)
                for m, coeff in enumerate(Aj):
                    A[m] += c * coeff * b ** (k - j)
            got_U, got_A = telescope_combo(C, a, b)
            assert got_U == U and got_A + [0] * (k - len(got_A)) == A, (C, x)
            if x.denominator == 1:
                assert invariant_sum(k, int(x), C) == sum(
                    c * invariant_sum(j, int(x)) for j, c in enumerate(C, 1))

    def test_no_triple_on_the_numeric_paths(self, monkeypatch):
        # identity checks, certificates, combinations, invariant sums and the
        # sequences solve at the point; none of them builds a bivariate triple
        def refuse(trip):
            raise AssertionError(f"triple {trip.k + 1} built")

        monkeypatch.setattr(recurrences, "_shared", recurrences.TripleFamily())
        monkeypatch.setattr(recurrences, "_step", refuse)
        assert paper_sequences(8)["neg_ubar"][:3] == [2, 5, 15]
        assert all(c.ok for c in identity_checks(6, Fraction(-5, 4), 12))
        assert truncated_padic_sum(4, 2, Prime(3), 9).ok
        assert truncated_combo_sum((2, -1, 3), 3, Prime(5), 8).ok
        # V_1(3), V_2(3), V_3(3) = -1, 5, -13
        assert invariant_sum(3, 3, (2, -1, 3)) == 2 * -1 - 5 + 3 * -13 == -46


def test_convergence_domain_reexport():
    assert in_convergence_domain(3, Prime(2))


def test_all_lists_exactly_the_package_imports():
    # __init__.py keeps its import list and __all__ by hand; each edit must touch both
    tree = ast.parse(Path(padicsum.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert sorted(padicsum.__all__) == sorted(imported)


class TestRecords:
    def test_identity_check(self):
        c = verify_identity(2, 4, 3)
        fields = dict(k=2, N=4, x=Fraction(3), lhs=c.lhs, rhs=c.rhs, tail=c.tail)
        check = check_record(IdentityCheck, **fields)
        # target is computed on each read and stored nowhere
        assert check.target == invariant_sum(2, 3)
        assert vars(check) == fields
        assert check == IdentityCheck(**fields) != IdentityCheck(**dict(fields, N=5))
        # a record of another class is not compared field by field
        assert check.__eq__(build_triple(2)) is NotImplemented
        assert verify_identity(2, 4, 3) != build_triple(2)

    def test_sum_certificate(self):
        good = truncated_padic_sum(1, 1, Prime(5), 10)
        fields = dict(k=1, N=10, x=good.x, primes=good.primes, partial=good.partial,
                      target=good.target, tail=good.tail, bound_exponents=(2,))
        cert = check_record(SumCertificate, **fields)
        # construction stores partial - target = 10! and v_5(10!) = 2 beside
        # the fields, and equality, hash and repr leave them out
        assert vars(cert) == {**fields, "difference": math.factorial(10),
                              "distance_exponents": (2,)}
        assert cert.ok and cert.oks == (True,)
        assert cert == good != SumCertificate(**dict(fields, bound_exponents=(3,)))
        # a forged certificate fails, read after read
        forged = SumCertificate(1, 1, Fraction(1), (Prime(2),), 7, 1, 2, (99,))
        assert (forged.ok, forged.ok) == (False, False)
        assert forged.difference == 6 and forged.distance_exponents == (1,)
