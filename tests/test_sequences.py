import decimal
import math
import random
import sys
import time
from types import SimpleNamespace

import pytest

import oracles
import padicsum.sequences as sequences
from padicsum import (
    KurepaReport,
    Prime,
    compute_A_family,
    horner,
    is_prime,
    kurepa_digit,
    kurepa_digit_scan,
    kurepa_gcd_scan,
    paper_sequences,
    telescope,
)
from oracles import (
    bell_numbers,
    compute_U_by_recurrence,
    compute_V_by_recurrence,
    kurepa_gcd_scan_bigint,
    left_factorial,
)
from test_padic import check_record

# the DECIMAL_FROM that puts kurepa_digits on int, and on Decimal, for any primes
ROUTES = {"int": sys.maxsize, "Decimal": 0}


def on_routes(monkeypatch):
    """Each route's name in turn, with kurepa_digits forced onto that route."""
    for route, decimal_from in ROUTES.items():
        monkeypatch.setattr(sequences, "DECIMAL_FROM", decimal_from)
        yield route


class TestLeftFactorial:
    def test_examples(self):
        assert left_factorial(0) == 0
        assert left_factorial(1) == 1
        assert left_factorial(2) == 2
        assert left_factorial(4) == 10

    def test_matches_direct_sum(self):
        for n in range(30):
            assert left_factorial(n) == sum(math.factorial(j) for j in range(n))


class TestKurepaGcd:
    def test_small_cases(self):
        assert math.gcd(left_factorial(2), math.factorial(2)) == 2
        assert math.gcd(left_factorial(3), math.factorial(3)) == 2
        assert math.gcd(left_factorial(4), math.factorial(4)) == 2

    def test_scan(self):
        report = kurepa_gcd_scan(200)
        assert report.ok and report.gcd_ok_up_to == 200

    def test_gcd_always_even(self):
        for n in range(2, 60):
            assert math.gcd(left_factorial(n), math.factorial(n)) % 2 == 0

    def test_scan_indices(self, monkeypatch):
        def scan(fail_at=None):
            seen = []

            def gcd(a, b):
                seen.append((a, b))
                forced = fail_at and b == math.factorial(fail_at)
                return 4 if forced else math.gcd(a, b)

            monkeypatch.setattr(oracles, "math", SimpleNamespace(gcd=gcd))
            return kurepa_gcd_scan_bigint(30), seen

        def pairs(m):
            return [(left_factorial(n), math.factorial(n)) for n in range(2, m + 1)]

        report, seen = scan()
        assert seen == pairs(30)
        assert report.ok and report.gcd_ok_up_to == 30
        report, seen = scan(fail_at=17)
        assert seen == pairs(17)
        assert report.first_failure == 17 and report.gcd_ok_up_to == 16

    def test_scan_matches_the_bigint_oracle(self):
        for n in [*range(2, 301), 2000]:
            assert kurepa_gcd_scan(n) == kurepa_gcd_scan_bigint(n), n

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            kurepa_gcd_scan(1)


class TestKurepaDigit:
    def test_examples(self):
        assert kurepa_digit(Prime(2)) == 0
        assert kurepa_digit(Prime(3)) == 1
        assert kurepa_digit(Prime(5)) == 4

    def test_truncation_is_stable(self):
        # adding further terms j! with j >= p never changes the residue
        for q in (3, 5, 7, 11, 13, 31):
            base = kurepa_digit(Prime(q))
            extended = sum(math.factorial(j) for j in range(q + 10)) % q
            assert base == extended

    def test_tree_matches_the_one_prime_digit(self, monkeypatch):
        odd_primes = [q for q in range(3, 2000, 2) if is_prime(q)]
        # the tree's shape depends only on the number of primes, in blocks of
        # 16: lengths 0..64 cross the block edges at 16, 32, 48 and 64, and
        # give every shape up to 4 leaves
        prefixes = [odd_primes[:n] for n in range(65)]
        for primes in (*prefixes, odd_primes, [7919]):
            want = [kurepa_digit(Prime(q)) for q in primes]
            for route in on_routes(monkeypatch):
                assert sequences.kurepa_digits(primes) == want, (route, len(primes))

    def test_decimal_route_raises_on_any_rounding(self, monkeypatch):
        # the Decimal route enters a context that traps Inexact and Rounded, so that
        # context narrowed raises where it would give wrong digits; the int route
        # enters no decimal context at all
        entered, localcontext = [], decimal.localcontext

        def narrowed(context):
            entered.append(narrow := context.copy())
            narrow.prec = 20
            return localcontext(narrow)

        monkeypatch.setattr(decimal, "localcontext", narrowed)
        primes = sequences.odd_primes(2000)
        want = [kurepa_digit(Prime(q)) for q in primes]
        for route in on_routes(monkeypatch):
            if route == "Decimal":
                with pytest.raises((decimal.Inexact, decimal.Rounded)):
                    sequences.kurepa_digits(primes)
            else:
                assert sequences.kurepa_digits(primes) == want and entered == []
        [narrow] = entered
        with pytest.raises(decimal.Inexact):
            narrow.multiply(10**15 + 1, 10**15 + 3)
        with pytest.raises(decimal.Rounded):
            narrow.multiply(10**15, 10**15)

    def test_forced_failure_at_17(self, monkeypatch):
        tree = sequences.kurepa_digits

        def forced(primes):
            # the true digits, except a zero at p = 17
            digits = tree(primes)
            assert digits == [kurepa_digit(Prime(q)) for q in primes]
            return [0 if q == 17 else d for q, d in zip(primes, digits)]

        monkeypatch.setattr(sequences, "kurepa_digits", forced)
        for _ in on_routes(monkeypatch):
            report = kurepa_gcd_scan(100)
            assert report.first_failure == 17 and report.gcd_ok_up_to == 16
            report = kurepa_digit_scan(100)
            assert report.first_failure == 17 and report.digit_checked_primes == 6

    def test_digit_scan(self):
        report = kurepa_digit_scan(500)
        assert report.ok
        assert report.digit_checked_primes == sum(
            1 for q in range(3, 501) if is_prime(q)
        )


class TestOddPrimes:
    def test_matches_is_prime(self):
        squares = [p * p + d for p in range(2, 32) if is_prime(p) for d in (-1, 0, 1)]
        for bound in (*range(3, 201), *squares, 10**5):
            want = [q for q in range(3, bound + 1, 2) if is_prime(q)]
            assert sequences.odd_primes(bound) == want, bound


class TestKurepaScans:
    # (G, D) with G < D, G = D and G > D, and bounds on and next to primes
    GRID = [(2, 3), (16, 17), (17, 17), (100, 100), (30, 200), (200, 30), (97, 50), (3, 2000)]

    def scans(self, monkeypatch, gcd_max, digit_max):
        """kurepa_scans(gcd_max, digit_max), counting its trees"""
        trees, tree = [], sequences.kurepa_digits
        monkeypatch.setattr(sequences, "kurepa_digits",
                            lambda primes: trees.append(primes) or tree(primes))
        reports = sequences.kurepa_scans(gcd_max, digit_max)
        monkeypatch.setattr(sequences, "kurepa_digits", tree)
        assert len(trees) == 1, "one tree per call"
        return reports

    @pytest.mark.parametrize("gcd_max, digit_max", GRID)
    def test_one_table_matches_the_separate_scans(self, monkeypatch, gcd_max, digit_max):
        odd = sum(1 for q in range(3, digit_max + 1, 2) if is_prime(q))
        for _ in on_routes(monkeypatch):
            want = kurepa_gcd_scan(gcd_max), kurepa_digit_scan(digit_max)
            assert self.scans(monkeypatch, gcd_max, digit_max) == want
            assert self.scans(monkeypatch, gcd_max, None) == (want[0], None)
            assert self.scans(monkeypatch, None, digit_max) == (None, want[1])
            assert want[0] == kurepa_gcd_scan_bigint(gcd_max)
            assert want[1] == KurepaReport(digit_max, 0, odd)

    @pytest.mark.parametrize("gcd_max, digit_max", [(16, 17), (10, 100), (17, 17),
                                                    (17, 100), (100, 17), (200, 30)])
    def test_forced_zero_at_17(self, monkeypatch, gcd_max, digit_max):
        tree = sequences.kurepa_digits
        monkeypatch.setattr(sequences, "kurepa_digits", lambda primes: [
            0 if q == 17 else d for q, d in zip(primes, tree(primes))])
        primes_to_d = sum(1 for q in range(3, digit_max + 1, 2) if is_prime(q))
        for _ in on_routes(monkeypatch):
            gcd, digit = sequences.kurepa_scans(gcd_max, digit_max)
            assert (gcd, digit) == (kurepa_gcd_scan(gcd_max), kurepa_digit_scan(digit_max))
            # the 6th odd prime fails both scans once a bound reaches it
            assert gcd == (KurepaReport(gcd_max, 16, 0, 17) if gcd_max >= 17
                           else KurepaReport(gcd_max, gcd_max, 0))
            assert digit == (KurepaReport(digit_max, 0, 6, 17) if digit_max >= 17
                             else KurepaReport(digit_max, 0, primes_to_d))

    @pytest.mark.parametrize("gcd_max, digit_max", [(1, None), (None, 2), (1, 100), (100, 2)])
    def test_rejects_bad_bound(self, gcd_max, digit_max):
        with pytest.raises(ValueError, match="below its least"):
            sequences.kurepa_scans(gcd_max, digit_max)

    def test_work_limit_before_the_sieve(self, monkeypatch):
        def no_sieve(bound):
            raise AssertionError(f"sieved to {bound}")

        monkeypatch.setattr(sequences, "odd_primes", no_sieve)
        monkeypatch.delenv("PADICSUM_WORK_LIMIT", raising=False)
        start = time.perf_counter()
        for gcd_max, digit_max in ((None, 10**12), (10**12, 3), (2, 10**12)):
            with pytest.raises(ValueError, match="exceeds work limit 1000000000"):
                sequences.kurepa_scans(gcd_max, digit_max)
        assert time.perf_counter() - start < 1
        # the cost is B bitlen(B)^2: 2000 * 11^2 = 242000
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", "241999")
        with pytest.raises(ValueError, match="a Kurepa table to 2000: cost 242000 exceeds"):
            kurepa_gcd_scan(2000)

    def test_work_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", "242000")
        assert kurepa_gcd_scan(2000) == kurepa_gcd_scan_bigint(2000)


class TestPaperSequences:
    def test_printed_lists(self):
        seqs = paper_sequences(6)
        assert seqs["neg_v"] == [1, -1, -1, 5, -5, -21]
        assert seqs["neg_vbar"] == [1, 3, 9, 31, 121, 523]
        assert seqs["u"] == [0, 1, -1, -2, 9, -9]
        assert seqs["neg_ubar"][:5] == [2, 5, 15, 52, 203]
        with pytest.raises(ValueError, match="kmax must be >= 1"):
            paper_sequences(0)

    def test_bell_number_oracle(self):
        bells = bell_numbers(16)
        assert bells[:8] == [1, 1, 2, 5, 15, 52, 203, 877, 4140][:8]
        seqs = paper_sequences(15)
        for k in range(1, 16):
            assert seqs["neg_ubar"][k - 1] == bells[k + 1], k

    def test_bell_numbers_to_60(self):
        # -U_k(-1) from one telescope at x = -1 per k
        bells = bell_numbers(61)
        assert paper_sequences(60)["neg_ubar"] == bells[2:]

    def test_cross_module_recurrence_path(self):
        # independent route: U/V via their own recurrences, evaluated at +-1
        kmax = 10
        us = compute_U_by_recurrence(kmax)
        vs = compute_V_by_recurrence(kmax)
        seqs = paper_sequences(kmax)
        for k in range(1, kmax + 1):
            assert seqs["neg_v"][k - 1] == -horner(vs[k - 1], 1)
            assert seqs["neg_vbar"][k - 1] == -horner(vs[k - 1], -1)
            assert seqs["u"][k - 1] == horner(us[k - 1], 1)
            assert seqs["neg_ubar"][k - 1] == -horner(us[k - 1], -1)

    def test_A_family_definitions(self):
        # the sequence definitions in terms of A_{k-1} at (0,1), (1,-1) etc.
        family = compute_A_family(7)
        seqs = paper_sequences(8)
        for k in range(1, 9):
            Akm1 = family[k - 1]
            assert seqs["neg_v"][k - 1] == Akm1.eval(0, 1)
            assert seqs["neg_vbar"][k - 1] == Akm1.eval(0, -1)
            assert seqs["u"][k - 1] == Akm1.eval(1, 1) - Akm1.eval(0, 1)
            assert seqs["neg_ubar"][k - 1] == Akm1.eval(1, -1) + Akm1.eval(0, -1)


def test_telescope_meets_the_kurepa_digits():
    # at x = 1 the telescope of an integer P has integer u and A, and N = p
    # in sum_{n<N} n! (P(n) - u) = -A(0) + N! A(N) gives
    # sum_{n<p} n! P(n) = u !p - A(0) (mod p): the solve against the
    # remainder tree's !p mod p, for the odd primes below 500
    primes = [q for q in range(3, 500, 2) if is_prime(q)]
    digits = sequences.kurepa_digits(primes)
    rng = random.Random(1975)
    for _ in range(12):
        P = [rng.randint(-50, 50) for _ in range(rng.randint(1, 7))]
        u, A = telescope(P, 1)
        A0 = A[0] if A else 0
        for q, digit in zip(primes, digits):
            total, fact = 0, 1
            for n in range(q):
                total = (total + fact * sum(c * n**m for m, c in enumerate(P))) % q
                fact = fact * (n + 1) % q
            assert total == (u * digit - A0) % q, (P, q)


def test_bell_recurrence_definition():
    bells = bell_numbers(10)
    for n in range(10):
        assert bells[n + 1] == sum(math.comb(n, i) * bells[i] for i in range(n + 1))


def test_kurepa_report_record():
    report = check_record(KurepaReport, bound=50, gcd_ok_up_to=50,
                          digit_checked_primes=0, first_failure=None)
    assert KurepaReport(50, 50, 0) == report == kurepa_gcd_scan(50) and report.ok
    assert not KurepaReport(50, 10, 0, first_failure=11).ok
