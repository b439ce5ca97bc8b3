import math
from types import SimpleNamespace

import pytest

import oracles
import padicsum.sequences as sequences
from padicsum import (
    KurepaReport,
    Prime,
    binomial,
    compute_A_family,
    is_prime,
    kurepa_digit,
    kurepa_digit_scan,
    kurepa_gcd_scan,
    paper_sequences,
)
from oracles import (
    bell_numbers,
    compute_U_by_recurrence,
    compute_V_by_recurrence,
    kurepa_gcd_scan_bigint,
    left_factorial,
)
from test_padic import check_record


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

    def test_tree_matches_the_one_prime_digit(self):
        odd_primes = [q for q in range(3, 2000, 2) if is_prime(q)]
        for primes in (odd_primes, [], [3], [3, 5], [7919]):
            want = [kurepa_digit(Prime(q)) for q in primes]
            assert sequences.kurepa_digits(primes) == want

    def test_forced_failure_at_17(self, monkeypatch):
        tree = sequences.kurepa_digits

        def forced(primes):
            # the true digits, except a zero at p = 17
            digits = tree(primes)
            assert digits == [kurepa_digit(Prime(q)) for q in primes]
            return [0 if q == 17 else d for q, d in zip(primes, digits)]

        monkeypatch.setattr(sequences, "kurepa_digits", forced)
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


class TestPaperSequences:
    def test_printed_lists(self):
        seqs = paper_sequences(6)
        assert seqs["neg_v"] == [1, -1, -1, 5, -5, -21]
        assert seqs["neg_vbar"] == [1, 3, 9, 31, 121, 523]
        assert seqs["u"] == [0, 1, -1, -2, 9, -9]
        assert seqs["neg_ubar"][:5] == [2, 5, 15, 52, 203]

    def test_bell_number_oracle(self):
        bells = bell_numbers(16)
        assert bells[:8] == [1, 1, 2, 5, 15, 52, 203, 877, 4140][:8]
        seqs = paper_sequences(15)
        for k in range(1, 16):
            assert seqs["neg_ubar"][k - 1] == bells[k + 1], k

    def test_cross_module_recurrence_path(self):
        # independent route: U/V via their own recurrences, evaluated at +-1
        kmax = 10
        us = compute_U_by_recurrence(kmax)
        vs = compute_V_by_recurrence(kmax)
        seqs = paper_sequences(kmax)
        for k in range(1, kmax + 1):
            assert seqs["neg_v"][k - 1] == -vs[k - 1](1)
            assert seqs["neg_vbar"][k - 1] == -vs[k - 1](-1)
            assert seqs["u"][k - 1] == us[k - 1](1)
            assert seqs["neg_ubar"][k - 1] == -us[k - 1](-1)

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


def test_bell_recurrence_definition():
    bells = bell_numbers(10)
    for n in range(10):
        assert bells[n + 1] == sum(binomial(n, i) * bells[i] for i in range(n + 1))


def test_kurepa_report_record():
    report = check_record(KurepaReport, bound=50, gcd_ok_up_to=50,
                          digit_checked_primes=0, first_failure=None)
    assert KurepaReport(50, 50, 0) == report == kurepa_gcd_scan(50) and report.ok
    assert not KurepaReport(50, 10, 0, first_failure=11).ok
