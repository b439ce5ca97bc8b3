import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicsum import (
    PadicExpansion,
    Prime,
    factorial_norm_exponent,
    horner,
    in_convergence_domain,
    is_prime,
    padic_expand,
    vp,
)
from padicsum import padic
from padicsum.padic import work_limit

PRIMES = [Prime(p) for p in (2, 3, 5, 7, 11)]


def check_record(cls, **fields):
    """cls(**fields) is an immutable value: keyword and positional
    construction agree, equal fields give equal objects with equal hashes,
    the repr names the class and each field, and setting or deleting an
    attribute raises AttributeError.  Returns the keyword-built record."""
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b and a == b and hash(a) == hash(b)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(a) == f"{cls.__name__}({body})"
    for name, value in fields.items():
        assert getattr(a, name) is value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and not hasattr(a, "extra")
    return a


def brute_force_factorial_valuation(n, p):
    """Independent oracle: count factors of p in 1*2*...*n directly."""
    count = 0
    for m in range(2, n + 1):
        while m % p == 0:
            count += 1
            m //= p
    return count


def loop_valuation(n, p):
    """Independent oracle: v_p(n) for an int n != 0 by dividing out p."""
    pp, v = int(p), 0
    while n % pp == 0:
        n, v = n // pp, v + 1
    return v


def legendre_valuation(n, p):
    """Independent oracle: v_p(n!) by Legendre's floor sum sum_i floor(n / p^i)."""
    pp = int(p)
    total = 0
    q = pp
    while q <= n:
        total += n // q
        q *= pp
    return total


class TestPrime:
    def test_accepts_primes(self):
        for q in (2, 3, 5, 101, 10007):
            assert int(Prime(q)) == q

    @pytest.mark.parametrize("q", [0, 1, 4, 9, 100, 561, -7])
    def test_rejects_composites(self, q):
        with pytest.raises(ValueError):
            Prime(q)

    def test_is_prime_matches_sieve(self):
        # past 43^2 = 1,849 trial division stops deciding and Miller-Rabin
        # with the thirteen bases takes over
        bound = 200_000
        sieve = [True] * bound
        sieve[0] = sieve[1] = False
        for i in range(2, math.isqrt(bound) + 1):
            if sieve[i]:
                for j in range(i * i, bound, i):
                    sieve[j] = False
        assert [is_prime(n) for n in range(bound)] == sieve

    # psi_t, the least strong pseudoprime to the first t prime bases, for
    # t = 1..7, 9 and 12; each is composite, and below psi_13, where all
    # thirteen bases decide it
    @pytest.mark.parametrize("psi", [
        2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
        3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
        318_665_857_834_031_151_167_461,
    ])
    def test_rejects_strong_pseudoprimes(self, psi):
        assert not is_prime(psi)

    def test_mersenne_numbers(self):
        assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
        assert 2**67 - 1 == 193_707_721 * 761_838_257_287
        assert not is_prime(2**67 - 1)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="3.3e24"):
            is_prime(3_317_044_064_679_887_385_961_981)


class TestLegendreValuation:
    def test_examples(self):
        assert factorial_norm_exponent(0, Prime(7)) == 0
        assert factorial_norm_exponent(10, Prime(2)) == 8
        assert factorial_norm_exponent(6, Prime(3)) == 2  # 720 = 3^2 * 80

    def test_matches_brute_force_and_digit_formula(self):
        for p in PRIMES:
            pp = int(p)
            for n in range(0, 500):
                v = factorial_norm_exponent(n, p)
                assert v == brute_force_factorial_valuation(n, pp)
                assert v == legendre_valuation(n, p)

    def test_monotone_with_step_vp_n(self):
        for p in PRIMES:
            prev = 0
            for n in range(1, 300):
                cur = factorial_norm_exponent(n, p)
                assert cur >= prev
                assert cur - prev == vp(n, p)
                prev = cur

    def test_large_scale_digit_formula(self):
        # spot-check the digit formula against the floor sum at scale
        for p in PRIMES:
            for n in (9999, 10000):
                assert legendre_valuation(n, p) == factorial_norm_exponent(n, p)


class TestVp:
    def test_zero_is_infinite(self):
        assert vp(0, Prime(3)) is None
        assert vp(Fraction(0, 7), Prime(3)) is None and vp("0", Prime(3)) is None

    def test_examples(self):
        assert vp(Fraction(1, 6), Prime(3)) == -1
        assert vp(720, Prime(3)) == 2
        assert vp(720, Prime(3)) == factorial_norm_exponent(6, Prime(3))
        assert type(vp(720, Prime(3))) is int and type(vp(Fraction(1, 6), Prime(3))) is int

    @given(
        a=st.integers(-10**6, 10**6),
        d=st.sampled_from([1, 4, 9, 25]),
        pi=st.sampled_from([2, 3, 5, 7]),
    )
    @settings(max_examples=200)
    def test_same_for_int_fraction_and_str(self, a, d, pi):
        # an int or a Fraction is taken as it is, anything else through Fraction
        p = Prime(pi)
        q = Fraction(a, d)
        forms = [q, str(q), -q, str(-q)]
        if q.denominator == 1:
            forms += [q.numerator, -q.numerator]
        expect = vp(q, p)
        assert all(vp(form, p) == expect for form in forms)
        if q == 0:
            assert expect is None
        else:
            v, num, den = 0, q.numerator, q.denominator
            while num % pi == 0:
                num, v = num // pi, v + 1
            while den % pi == 0:
                den, v = den // pi, v - 1
            assert expect == v

    @given(
        a=st.integers(-1000, 1000),
        b=st.integers(-1000, 1000),
        c=st.integers(1, 1000),
        d=st.integers(1, 1000),
        pi=st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=300)
    def test_ultrametric_inequality(self, a, b, c, d, pi):
        p = Prime(pi)
        x, y = Fraction(a, c), Fraction(b, d)
        # v_p(0) = +infinity sorts above every finite exponent
        vx, vy, vsum = (math.inf if v is None else v
                        for v in (vp(x, p), vp(y, p), vp(x + y, p)))
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)

    @given(
        a=st.integers(-500, 500),
        b=st.integers(-500, 500),
        pi=st.sampled_from([2, 3, 5, 7]),
    )
    @settings(max_examples=200)
    def test_multiplicativity(self, a, b, pi):
        p = Prime(pi)
        if a == 0 or b == 0:
            assert vp(a * b, p) is None
            return
        assert vp(a * b, p) == vp(a, p) + vp(b, p)

    @given(m=st.integers(1, 2**80), e=st.integers(0, 150))
    @settings(max_examples=300)
    def test_two_adic_shortcut_matches_the_loop(self, m, e):
        # the lowest set bit reads v_2 in O(1), also for negatives and past 2^64
        for n in (m << e, -(m << e), m, -m):
            assert vp(n, 2) == loop_valuation(n, 2)
        assert vp(1 << 200, 2) == 200 and vp(-(3 << 70), 2) == 70

    @pytest.mark.parametrize("pi", [3, 5, 7, 11, 101])
    def test_odd_primes_by_repeated_squaring_match_the_loop(self, pi):
        # +-u p^e for units u: every e to 300 takes its own way up through p,
        # p^2, p^4, .. and back down
        for e in range(301):
            for u in (1, pi - 1, pi**40 + 1):
                n = u * pi**e
                assert vp(n, pi) == vp(-n, pi) == loop_valuation(n, pi) == e

    def test_large_valuations_take_logarithmically_many_divisions(self, monkeypatch):
        # a module-level divmod shadows the builtin the valuation calls, so each
        # big-int division is counted: a loop over the factors would take v of them.
        # A rational that is not an integer is v_p(numerator) - v_p(denominator), so
        # a large |v| in either place takes the same ladder
        calls = []
        monkeypatch.setattr(padic, "divmod", lambda n, d: calls.append(d) or divmod(n, d),
                            raising=False)
        for q, pi, e in ((2 * 3**100_000, 3, 100_000), (2 * 3**4, 3, 4),
                         (7 * 5 ** (2**14 - 1), 5, 2**14 - 1), (100 * 101**777, 101, 777),
                         (Fraction(2, 3**100_000), 3, -100_000),
                         (Fraction(7 * 5**16_383, 11), 5, 16_383),
                         (Fraction(4, 9 * 101**777), 101, -777)):
            calls.clear()
            assert vp(q, pi) == e
            assert len(calls) <= 6 + 2 * math.log2(abs(e)), (pi, e, len(calls))
        # a small valuation takes the same ladder: up while each power divides, the
        # first that does not included, then back down from the one below it
        ladders = [[3], [3, 9, 3], [3, 9, 3], [3, 9, 81, 9, 3]]
        for e, ladder in enumerate(ladders):
            calls.clear()
            assert vp(2 * 3**e, 3) == e and calls == ladder

    def test_negative_ints_for_odd_primes(self):
        for pi in (3, 5, 7):
            for n in range(1, 400):
                assert vp(-n, pi) == vp(n, pi) == loop_valuation(n, pi)


class TestFloatsAreRefused:
    # 0.1 is the binary value 3602879701896397/2^55, not 1/10: read through
    # Fraction it gives v_2 = -55 and puts 1/10 in Z_5
    def test_padic_functions(self):
        for call in (lambda: vp(0.1, Prime(2)), lambda: vp(2.0, Prime(2)),
                     lambda: in_convergence_domain(0.1, Prime(5)),
                     lambda: padic_expand(0.25, Prime(3), 4),
                     # int-only inputs: 7.0 would build Prime(p=7.0), and
                     # factorial_norm_exponent(10.0, ...) return the float 4.0
                     lambda: Prime(7.0),
                     lambda: factorial_norm_exponent(10.0, Prime(3))):
            with pytest.raises(TypeError, match="float"):
                call()

    def test_exact_forms_still_pass(self):
        assert vp("1/10", Prime(2)) == -1 and not in_convergence_domain("1/10", Prime(5))
        assert padic_expand("1/2", Prime(3), 3) == padic_expand(Fraction(1, 2), Prime(3), 3)


class TestFactorialNormExponent:
    def test_examples(self):
        assert factorial_norm_exponent(0, Prime(3)) == 0
        assert factorial_norm_exponent(10, Prime(2)) == 8
        assert factorial_norm_exponent(100, Prime(7)) == 16  # 14 + 2

    def test_matches_legendre_and_digit_formula_to_2000(self):
        # v_p(n!) = sum_i floor(n / p^i) = (n - s_p(n)) / (p - 1), s_p the base-p digit sum
        for pi in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            p = Prime(pi)
            for n in range(2001):
                s, m = 0, n
                while m:
                    s, m = s + m % pi, m // pi
                e = factorial_norm_exponent(n, p)
                assert e == legendre_valuation(n, p) == (n - s) // (pi - 1)
                assert (n - s) % (pi - 1) == 0 and type(e) is int

    def test_rejects_negative_and_non_int_n(self):
        with pytest.raises(ValueError, match="nonnegative"):
            factorial_norm_exponent(-1, Prime(5))
        for n in (10.0, Fraction(10), "10"):
            with pytest.raises(TypeError):
                factorial_norm_exponent(n, Prime(3))


class TestConvergenceDomain:
    def test_integers_always_inside(self):
        for p in PRIMES:
            for x in range(-20, 21):
                assert in_convergence_domain(x, p)

    def test_rationals(self):
        assert not in_convergence_domain(Fraction(1, 2), Prime(2))
        assert in_convergence_domain(Fraction(1, 2), Prime(3))
        # zero in any form vp takes, and a str as vp reads it
        assert all(in_convergence_domain(z, Prime(3)) for z in (0, Fraction(0), "0", "0/5"))
        assert not in_convergence_domain("1/3", Prime(3))


class TestDistance:
    def test_identity_infinite(self):
        assert vp(Fraction(5, 3) - Fraction(5, 3), Prime(7)) is None

    def test_examples(self):
        assert vp(7 - 2, Prime(5)) == 1

    def test_factorial_gap(self):
        for p in PRIMES:
            for N in (4, 7, 12):
                got = vp((math.factorial(N) - 1) - (-1), p)
                assert got == factorial_norm_exponent(N, p)


class TestPadicExpand:
    def test_zero(self):
        e = padic_expand(0, Prime(5), 4)
        assert e.digits == (0, 0, 0, 0)

    def test_minus_one(self):
        e = padic_expand(-1, Prime(5), 3)
        assert e.valuation == 0 and e.digits == (4, 4, 4)

    def test_one_third_base_two(self):
        e = padic_expand(Fraction(1, 3), Prime(2), 4)
        assert e.valuation == 0 and e.digits == (1, 1, 0, 1)

    def test_negative_valuation(self):
        e = padic_expand(Fraction(1, 5), Prime(5), 3)
        assert e.valuation == -1 and e.digits[0] == 1

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            padic_expand(1, Prime(3), 0)

    @given(
        num=st.integers(-300, 300),
        den=st.integers(1, 300),
        pi=st.sampled_from([2, 3, 5, 7]),
        prec=st.integers(1, 12),
    )
    @settings(max_examples=300)
    def test_round_trip(self, num, den, pi, prec):
        p = Prime(pi)
        q = Fraction(num, den)
        v = vp(q, p)
        e = padic_expand(q, p, prec)
        # residue of (q - truncation) must vanish mod p^(valuation + precision)
        diff = q - Fraction(p) ** e.valuation * horner(e.digits, p)
        if q == 0:
            assert not any(e.digits)
            return
        vdiff = vp(diff, p)
        assert vdiff is None or vdiff >= v + prec

    def test_canonical_form_rejected(self):
        with pytest.raises(ValueError):
            PadicExpansion(Prime(3), 0, (0, 2))


def test_work_limit_is_capped_at_maxsize(monkeypatch):
    # a limit past sys.maxsize would admit a span whose len() overflows
    monkeypatch.setenv("PADICSUM_WORK_LIMIT", str(10**29))
    assert work_limit() == sys.maxsize
    monkeypatch.setenv("PADICSUM_WORK_LIMIT", "241999")
    assert work_limit() == 241999


class TestRecords:
    def test_prime(self):
        # a checked int: equal to its value, built by position or keyword,
        # printed as its digits, and holding no attributes of its own
        p = Prime(7)
        assert p == 7 and isinstance(p, int) and Prime(p=7) == p != Prime(5)
        with pytest.raises(AttributeError):
            p.p = 7
        assert str(p) == f"{p}" == repr(p) == json.dumps(p) == "7"
        for bad, error in [(9, ValueError), (7.0, TypeError), (True, ValueError)]:
            with pytest.raises(error):
                Prime(bad)
        with pytest.raises(ValueError):
            Prime(p=9)

    def test_padic_expansion(self):
        check_record(PadicExpansion, p=Prime(5), valuation=-1, digits=(4, 0, 2))
        for digits in [(1, 5, 0), (0, 1, 0)]:
            with pytest.raises(ValueError):
                PadicExpansion(Prime(5), 0, digits)
