"""The benchmark's workloads and the checks of their output.

A workload is a list of `padicsum` CLI invocations in machine mode, made from
a seed.  Each invocation carries the number of records a correct run emits
and a check that recomputes, without importing padicsum, what it can of
those records: partial-sum increments and the N-independence of V_k(x) for
`verify`, the direct U/V recurrences and Bell numbers for the tables,
tangent-number Bernoulli values, and a prime sieve for `kurepa`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

DEFAULT_SEED = 0

# Sizes are about half of the ROADMAP's headline runs, so that a round of
# every workload takes 1-2 s and a run of a few tens of seconds holds ten or
# more rounds to take medians over.
VERIFY_K = 10
VERIFY_N_MAX = 15
VERIFY_PRIMES = (2, 3, 5, 7)
TABLES_KMAX = 40
BERNOULLI_NMAX = 300
IDENTITY_SIZE = 300  # k + N of the `bernoulli --identity` pair
KUREPA_GCD_MAX = 2000
KUREPA_DIGIT_MAX = 10000


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    records: int  # machine-mode records a correct run emits
    check: Callable[[list[dict]], int]  # records failing an independent check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int], list[Invocation]]


def fmt_q(q: Fraction) -> int | str:
    """The CLI's rendering of an exact rational."""
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _record_ok(rec: dict, command: str, params: dict) -> bool:
    return (
        rec.get("command") == command
        and rec.get("params") == params
        and rec.get("ok") is True
    )


def _vp(q: Fraction | int, p: int) -> int:
    """v_p of a nonzero rational."""
    q = Fraction(q)
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _legendre(n: int, p: int) -> int:
    """v_p(n!)."""
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def _polyval(coeffs: list[int], x) -> Fraction | int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# -- verify ------------------------------------------------------------------


def _small_rational(rng: random.Random, taken: list[Fraction]) -> Fraction:
    """A non-integer x = a/b with |a| and b of exactly three bits, so that
    every seed asks for the same amount of work."""
    while True:
        x = Fraction(rng.choice((-1, 1)) * rng.randint(4, 7), rng.randint(4, 7))
        if x.denominator >= 4 and x not in taken:
            return x


def make_verify(seed: int) -> list[Invocation]:
    rng = random.Random(f"verify/{seed}")
    xs = [Fraction(v) for v in range(-3, 4)]
    for _ in range(2):
        xs.append(_small_rational(rng, xs))
    x_set = "-3..3," + ",".join(str(fmt_q(x)) for x in xs[7:])
    argv = (
        "--format", "machine", "verify",
        "--k", f"1..{VERIFY_K}",
        "--n-max", str(VERIFY_N_MAX),
        f"--x-set={x_set}",
        "--p-list", ",".join(map(str, VERIFY_PRIMES)),
    )
    # x = 0 gets its identity record only; every other x one record per prime
    per_point = len(xs) + len(VERIFY_PRIMES) * sum(1 for x in xs if x != 0)
    records = VERIFY_K * VERIFY_N_MAX * per_point
    check = functools.partial(
        check_verify, range(1, VERIFY_K + 1), VERIFY_N_MAX, xs, VERIFY_PRIMES
    )
    return [Invocation(argv, records, check)]


def check_verify(ks, n_max: int, xs: list[Fraction], primes, records) -> int:
    """Identity records: lhs == rhs, rhs - tail (= V_k(x)) is the same for
    every N, and lhs grows by (N-1)! [(N-1)^k x^k + U_k(x)] x^(N-1), where
    U_k(x) is the N = 1 lhs.  Certificates: partial, target and tail agree
    with the identity, and both exponents are recomputed."""
    it = iter(records)
    bad = 0
    state: dict[tuple[int, Fraction], tuple[Fraction, Fraction, Fraction]] = {}
    for k in ks:
        for N in range(1, n_max + 1):
            for x in xs:
                rec = next(it)
                params = {"k": k, "N": N, "x": fmt_q(x)}
                try:
                    res = rec["result"]
                    lhs, rhs, tail = (Fraction(res[f]) for f in ("lhs", "rhs", "tail"))
                    V = rhs - tail
                    if N == 1:
                        state[k, x] = (lhs, V, lhs)
                    U, V1, prev = state[k, x]
                    n = N - 1
                    step = factorial(n) * (n**k * x**k + U) * x**n
                    good = (
                        _record_ok(rec, "verify", params)
                        and lhs == rhs
                        and V == V1
                        and (N == 1 or lhs - prev == step)
                    )
                    state[k, x] = (U, V1, lhs)
                except (KeyError, TypeError, ValueError, ZeroDivisionError):
                    good, lhs, V = False, None, None
                bad += not good
                for p in primes:
                    if x == 0:
                        continue  # the CLI emits no certificate record at x = 0
                    bad += not _certificate_ok(next(it), dict(params, p=p), x, p, N, lhs, V)
    return bad


def _certificate_ok(rec, params, x, p, N, lhs, V) -> bool:
    if not _record_ok(rec, "verify", params) or lhs is None:
        return False
    res = rec["result"]
    if x.denominator != 1:
        return res == {"rejected": True, "reason": f"x not in Z_{p}"}
    try:
        partial, target, tail = (Fraction(res[f]) for f in ("partial", "target", "tail"))
        achieved, bound = res["achieved_exponent"], res["bound_exponent"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
    want_achieved = "inf" if tail == 0 else _vp(tail, p)
    want_bound = _legendre(N, p) + N * _vp(x, p)
    return (
        partial == lhs
        and target == V
        and partial - target == tail
        and achieved == want_achieved
        and bound == want_bound
        and (achieved == "inf" or achieved >= bound)
    )


# -- tables ------------------------------------------------------------------


def _uv_by_recurrence(kmax: int) -> tuple[list[list[int]], list[list[int]]]:
    """U_1..U_kmax and V_1..V_kmax, ascending coefficients, from the direct
    recurrences (the route the CLI's A-family tables do not take)."""

    def step(seq, k, lead):
        acc = [0] * (k + 2)
        for i, c in enumerate(seq[k - 1]):
            acc[i] += c
        acc[k + 1] += lead
        for l in range(1, k + 1):
            b = comb(k + 1, l)
            for i, c in enumerate(seq[l - 1]):
                acc[i + k - l + 1] -= b * c
        while acc and acc[-1] == 0:
            acc.pop()
        return acc

    us, vs = [[-1, 1]], [[-1]]
    for k in range(1, kmax):
        us.append(step(us, k, 1))
        vs.append(step(vs, k, 0))
    return us, vs


def _bell(nmax: int) -> list[int]:
    """Bell numbers B(0..nmax) from the Bell triangle."""
    bells, row = [1], [1]
    for _ in range(nmax):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


def _bernoulli(nmax: int) -> list[Fraction]:
    """B_0..B_nmax (B_1 = -1/2) from tangent numbers, Brent and Harvey 2013:
    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    n = nmax // 2
    T = [0] * (n + 1)
    if n:
        T[1] = 1
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    B = [Fraction(0)] * (nmax + 1)
    B[0] = Fraction(1)
    if nmax >= 1:
        B[1] = Fraction(-1, 2)
    for k in range(1, n + 1):
        B[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * T[k], 4**k * (4**k - 1))
    return B


def check_triples(kmax: int, records) -> int:
    """U_k and V_k equal the direct recurrences; the A layers are monic of
    degree l, with A_{k-1}(0; x) = -V_k and x A_{k-1}(1; x) - A_{k-1}(0; x) = U_k."""
    us, vs = _uv_by_recurrence(kmax)
    bad = 0
    for k, rec in enumerate(records, start=1):
        try:
            res = rec["result"]
            U, V, A = res["U"], res["V"], res["A"]
            at0 = [layer[0] for layer in A]
            at1 = [sum(layer) for layer in A]
            u_from_a = [-at0[0]] + [a1 - a0 for a1, a0 in zip(at1, at0[1:] + [0])]
            good = (
                _record_ok(rec, "triples", {"k": k})
                and res["k"] == k
                and U == us[k - 1]
                and V == vs[k - 1]
                and at0 == [-v for v in V]
                and u_from_a == U
                and all(len(layer) == l + 1 and layer[-1] == 1 for l, layer in enumerate(A))
            )
        except (KeyError, TypeError, IndexError):
            good = False
        bad += not good
    return bad


def check_sequences(kmax: int, records) -> int:
    """The four sequences at x = +-1 from the direct recurrences; -U_k(-1)
    is also the Bell number B(k+1)."""
    us, vs = _uv_by_recurrence(kmax)
    bell = _bell(kmax + 1)
    want = {
        "neg_v": [-_polyval(v, 1) for v in vs],
        "neg_vbar": [-_polyval(v, -1) for v in vs],
        "u": [_polyval(u, 1) for u in us],
        "neg_ubar": [-_polyval(u, -1) for u in us],
    }
    good_bell = want["neg_ubar"] == bell[2:]
    bad = 0
    for (name, values), rec in zip(want.items(), records):
        bad += not (
            good_bell
            and _record_ok(rec, "sequences", {"kmax": kmax, "sequence": name})
            and rec.get("result") == {"values": values}
        )
    return bad


def check_bernoulli_table(nmax: int, records) -> int:
    B = _bernoulli(nmax)
    return sum(
        not (
            _record_ok(rec, "bernoulli", {"n": n})
            and rec.get("result")
            == {"numerator": B[n].numerator, "denominator": B[n].denominator}
        )
        for n, rec in enumerate(records)
    )


def check_bernoulli_identity(k: int, N: int, records) -> int:
    """lhs = sum_{n<N} n! [n^k B_{n+k} + sum_l U_kl B_{n+l}], recomputed."""
    B = _bernoulli(N + k)
    U = _uv_by_recurrence(k)[0][k - 1]
    lhs = Fraction(0)
    fact = 1
    for n in range(N):
        lhs += fact * (n**k * B[n + k] + sum(u * B[n + l] for l, u in enumerate(U)))
        fact *= n + 1
    want = {"lhs": fmt_q(lhs), "rhs": fmt_q(lhs)}
    (rec,) = records
    return not (
        _record_ok(rec, "bernoulli", {"k": k, "N": N}) and rec.get("result") == want
    )


def make_tables(seed: int) -> list[Invocation]:
    rng = random.Random(f"tables/{seed}")
    k = rng.randint(1, 5)
    N = IDENTITY_SIZE - k  # the Bernoulli table needed is the same size for every seed
    m = ("--format", "machine")
    K, B = str(TABLES_KMAX), str(BERNOULLI_NMAX)
    return [
        Invocation(m + ("triples", "--kmax", K), TABLES_KMAX,
                   functools.partial(check_triples, TABLES_KMAX)),
        Invocation(m + ("sequences", "--kmax", K), 4,
                   functools.partial(check_sequences, TABLES_KMAX)),
        Invocation(m + ("bernoulli", "--nmax", B), BERNOULLI_NMAX + 1,
                   functools.partial(check_bernoulli_table, BERNOULLI_NMAX)),
        Invocation(m + ("bernoulli", "--identity", str(k), "--N", str(N)), 1,
                   functools.partial(check_bernoulli_identity, k, N)),
    ]


# -- kurepa ------------------------------------------------------------------


def _odd_primes_upto(n: int) -> int:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return sum(sieve) - (n >= 2)


def check_kurepa(gcd_max: int, digit_max: int, records) -> int:
    """No counterexample exists this low: the gcd scan must reach gcd_max and
    the digit scan must cover every odd prime up to digit_max."""
    want = [
        ({"gcd_max": gcd_max}, {"gcd_ok_up_to": gcd_max, "first_failure": None}),
        ({"digit_max": digit_max},
         {"primes_checked": _odd_primes_upto(digit_max), "first_failure": None}),
    ]
    return sum(
        not (_record_ok(rec, "kurepa", params) and rec.get("result") == result)
        for (params, result), rec in zip(want, records)
    )


def make_kurepa(seed: int) -> list[Invocation]:
    argv = ("--format", "machine", "kurepa",
            "--gcd-max", str(KUREPA_GCD_MAX), "--digit-max", str(KUREPA_DIGIT_MAX))
    check = functools.partial(check_kurepa, KUREPA_GCD_MAX, KUREPA_DIGIT_MAX)
    return [Invocation(argv, 2, check)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "ROADMAP headline grid: summation does most work; recurrences grows the "
            "family per k and serves triple() lookups; padic.vp, BivarPoly.eval and "
            "cli emit are on its path",
            make_verify,
        ),
        Workload(
            "tables",
            "one deep recurrences build per process plus the Bernoulli table and "
            "identity; summation is skipped, so a verify-side gain that costs deep "
            "builds shows here",
            make_tables,
        ),
        Workload(
            "kurepa",
            "Kurepa gcd and digit scans: only sequences and padic.is_prime work; "
            "recurrences, summation, poly and bernoulli are skipped, so changes "
            "there leave it flat",
            make_kurepa,
        ),
    )
}
