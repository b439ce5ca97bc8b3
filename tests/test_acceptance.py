"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic; "tolerance" for the p-adic criteria means
the certified distance-exponent lower bounds, which must hold with no slack
beyond what is stated.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from padicsum import (
    BivarPoly,
    Prime,
    bernoulli_identity_partial,
    bernoulli_numbers,
    build_triple,
    compute_A_family,
    factorial_norm_exponent,
    family_residual,
    horner,
    invariant_sum,
    kurepa_digit_scan,
    kurepa_gcd_scan,
    paper_sequences,
    truncated_padic_sum,
    verify_identity,
    volkenborn_level,
    volkenborn_poly,
    vp,
)
from oracles import (
    bell_numbers,
    compute_U,
    compute_U_by_recurrence,
    compute_V,
    compute_V_by_recurrence,
    lin,
)
from test_recurrences import A_TABLE, U_TABLE, V_TABLE

KMAX = 25


@pytest.fixture(scope="module")
def family():
    return compute_A_family(KMAX)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_table_reproduction(family):
    start = time.monotonic()
    comparisons = 0
    ok = True
    for k in range(1, 7):
        t = build_triple(k)
        # the oracle route, then the library's route
        for U, V, A in ((compute_U(k, family), compute_V(k, family), family[k - 1]),
                        (t.U, t.V, t.A)):
            ok &= U == tuple(U_TABLE[k])
            ok &= V == tuple(V_TABLE[k])
            ok &= A == BivarPoly.make(A_TABLE[k - 1])
            comparisons += 3
    elapsed = time.monotonic() - start
    ok &= comparisons == 36 and elapsed < 1.0
    report("1. table reproduction k=1..6", ok, f"{comparisons} comparisons, {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(family):
    start = time.monotonic()
    us = compute_U_by_recurrence(KMAX)
    vs = compute_V_by_recurrence(KMAX)
    ok = all(
        us[k - 1] == compute_U(k, family) and vs[k - 1] == compute_V(k, family)
        for k in range(1, KMAX + 1)
    )
    for k in range(1, KMAX + 1):
        t = build_triple(k)
        ok &= (t.U, t.V, t.A) == (us[k - 1], vs[k - 1], family[k - 1])
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report("2. oracle equivalence k<=25", ok, f"{elapsed:.3f}s")


def test_criterion_3_back_substitution(family):
    ok = all(family_residual(family, k).layers == () for k in range(1, KMAX + 1))
    # the library's triple in its telescoping equation
    # (n+1) x A(n+1; x) - A(n; x) = n^k x^k + U_k(x): both sides have degree
    # k in n, so agreeing as polynomials in x at n = 0..k makes them equal
    for k in range(1, KMAX + 1):
        t = build_triple(k)
        for n in range(k + 1):
            step = lin((n + 1, 1, t.A.eval_n(n + 1)), (-1, 0, t.A.eval_n(n)))
            ok &= step == lin((n**k, k, (1,)), (1, 0, t.U))
    report("3. symbolic back-substitution k<=25", ok)


def test_criterion_4_identity_fuzz():
    start = time.monotonic()
    failures = 0
    for k in range(1, 11):
        for N in range(1, 26):
            for x in range(-5, 6):
                if not verify_identity(k, N, x).ok:
                    failures += 1
    rng = random.Random(20260823)
    for _ in range(200):
        k = rng.randint(1, 10)
        N = rng.randint(1, 25)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if not verify_identity(k, N, x).ok:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30.0
    report("4. identity fuzz (2750 grid + 200 random rational)", ok,
           f"{failures} failures, {elapsed:.1f}s")


def test_criterion_5_structural_bullets(family):
    ok = True
    for k in range(1, KMAX + 1):
        A = family[k]
        ok &= A.layers[0] == (1,)  # A_k(n; 0) = 1
        ok &= horner(A.layers[k], 1) == (-1) ** k  # A_kk(1) = (-1)^k
        U, V = compute_U(k, family), compute_V(k, family)
        ok &= U[0] == -1 and V[0] == -1
        ok &= U[k] == (-1) ** (k + 1)
        # V_k has degree k-1; its leading coefficient carries the (-1)^k k law
        ok &= len(V) == k and V[-1] == (-1) ** k * k
        # the same laws on the library's route, whose A is A_{k-1}
        t = build_triple(k)
        ok &= t.A.layers[0] == (1,) and horner(t.A.layers[k - 1], 1) == (-1) ** (k - 1)
        ok &= t.U[0] == -1 and t.V[0] == -1
        ok &= t.U[k] == (-1) ** (k + 1)
        ok &= len(t.V) == k and t.V[-1] == (-1) ** k * k
    report("5. structural bullets k<=25", ok)


def test_criterion_6_padic_certificates():
    start = time.monotonic()
    ok = True
    checked = 0
    for k in range(1, 6):
        for x in [x for x in range(-3, 4) if x != 0]:
            targets = set()
            for pi in (2, 3, 5, 7):
                p = Prime(pi)
                for N in range(1, 51):
                    cert = truncated_padic_sum(k, x, p, N)
                    want = factorial_norm_exponent(N, p) + N * vp(x, p)
                    # None (infinite) where the tail is 0, e.g. k = 2, x = 1, N = 1
                    e = cert.distance_exponent
                    ok &= e is None or e >= want
                    ok &= cert.bound_exponent == want
                    ok &= cert.ok
                    checked += 1
                targets.add(cert.target)
            ok &= len(targets) == 1 and targets.pop() == invariant_sum(k, x)
    elapsed = time.monotonic() - start
    report("6. p-adic certificates + p-invariance", ok,
           f"{checked} certificates, {elapsed:.1f}s")


def test_criterion_7_paper_example_sums():
    checks = [
        invariant_sum(1, 1) == -1,
        invariant_sum(1, -1) == -1,  # i.e. sum (-1)^n n! (n+2) = 1
        invariant_sum(2, 1) == 1,
        invariant_sum(2, -1) == -3,
        invariant_sum(3, 1) == 1,
        invariant_sum(3, -1) == -9,  # i.e. sum (-1)^n n! (n^3+15) = 9
        volkenborn_poly(build_triple(1).V) == -1,
        volkenborn_poly(build_triple(2).V) == -2,
        volkenborn_poly(build_triple(3).V) == -4,
    ]
    report("7. nine example sums", all(checks), f"{sum(checks)}/9")


def test_criterion_8_bernoulli():
    table = bernoulli_numbers(60)
    # recurrence holds for n >= 2 (n = 1 would force B_0 = 0)
    ok = all(
        sum(math.comb(n, j) * table[j] for j in range(n)) == 0 for n in range(2, 62)
    )
    ok &= all(table[2 * m + 1] == 0 for m in range(1, 30))
    for pi in (2, 3, 5, 7, 11):
        p = Prime(pi)
        ok &= all(vp(table[n], p) >= -1 for n in range(61) if table[n] != 0)
    ok &= all(
        bernoulli_identity_partial(k, N)[0] == bernoulli_identity_partial(k, N)[1]
        for k in range(1, 7)
        for N in range(1, 21)
    )
    for n in range(7):
        P = (0,) * n + (1,)
        for pi in (3, 5, 7):
            p = Prime(pi)
            for m in range(1, 6):
                # None (infinite) at n = 0, where the level sum is B_0 exactly
                e = vp(volkenborn_level(P, p, m) - table[n], p)
                ok &= e is None or e >= m - vp(n + 1, p) - 1
    report("8. Bernoulli table, identities, Volkenborn levels", ok)


def test_criterion_9_sequences():
    seqs = paper_sequences(15)
    ok = seqs["neg_v"][:6] == [1, -1, -1, 5, -5, -21]
    ok &= seqs["neg_vbar"][:6] == [1, 3, 9, 31, 121, 523]
    ok &= seqs["u"][:6] == [0, 1, -1, -2, 9, -9]
    ok &= seqs["neg_ubar"][:5] == [2, 5, 15, 52, 203]
    bells = bell_numbers(16)
    ok &= all(seqs["neg_ubar"][k - 1] == bells[k + 1] for k in range(1, 16))
    report("9. the four sequence lists + Bell oracle", ok)


def test_criterion_10_kurepa_desk_scale():
    start = time.monotonic()
    gcd_report = kurepa_gcd_scan(2000)
    digit_report = kurepa_digit_scan(10000)
    elapsed = time.monotonic() - start
    ok = gcd_report.ok and digit_report.ok and elapsed < 60.0
    report("10. Kurepa scans (gcd<=2000, digits<=10000)", ok, f"{elapsed:.1f}s")
    # cross-check exit-code behavior through the CLI
    from padicsum.cli import main

    assert main(["kurepa", "--gcd-max", "100", "--digit-max", "100"]) == 0
