"""Left factorials, Kurepa-hypothesis scans, and the integer sequences
obtained from U_k, V_k at x = +-1, each solved at the point by `telescope`.

A Kurepa counterexample is an open-problem finding, so scans report it as
structured data (first_failure) instead of raising.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress

from .padic import Prime, _Record, work_limit
from .padic import is_prime  # noqa: F401  perfbench/spans.py traces it here
from .recurrences import telescope_combo, unit_combo


class KurepaReport(_Record):
    """Outcome of a gcd scan and/or digit scan."""

    def __init__(self, bound: int, gcd_ok_up_to: int, digit_checked_primes: int,
                 first_failure: int | None = None):
        self.__dict__.update(bound=bound, gcd_ok_up_to=gcd_ok_up_to,
                             digit_checked_primes=digit_checked_primes,
                             first_failure=first_failure)

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def kurepa_digits(primes: list[int]) -> list[int]:
    """!p mod p for each p of an ascending list of primes, in one pass.

    (!n, n!) advances by [[1, 1], [0, n+1]]; a span's product [[1, b], [0, d]]
    is carried as (b, d).  walk() takes (!n, n!) at n = primes[lo - 1] (n = 0 at
    lo = 0) down a remainder tree (Costa, Gerbicz, Harvey 2014) depth first,
    and returns the span's product from there to primes[hi - 1] if `span`.
    Nothing reads the spans of the root and of the nodes down its right
    edge, the largest products in the tree, so they are never built."""
    digits = [0] * len(primes)

    def walk(lo: int, hi: int, lf: int, fact: int, span: bool) -> tuple[int, int] | None:
        m = math.prod(primes[lo:hi])
        lf, fact = lf % m, fact % m
        if hi - lo == 1:
            b, d = 0, 1
            for n in range(primes[lo - 1] if lo else 0, m):
                b, d = b + d, d * (n + 1)
            digits[lo] = (lf + b * fact) % m
            return b, d
        mid = (lo + hi) // 2
        bl, dl = walk(lo, mid, lf, fact, True)
        right = walk(mid, hi, lf + bl * fact, dl * fact, span)
        if span:
            br, dr = right
            return bl + br * dl, dl * dr
        return None

    if primes:
        walk(0, len(primes), 0, 1, False)
    return digits


def odd_primes(bound: int) -> list[int]:
    """The odd primes <= bound, from a bytearray sieve; byte i stands for 2i + 1."""
    sieve = bytearray([0]) + bytearray([1]) * ((bound - 1) // 2)
    for p in range(3, math.isqrt(bound) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2 * i + 1 for i in compress(range(len(sieve)), sieve)]


def kurepa_scans(gcd_max: int | None, digit_max: int | None
                 ) -> tuple[KurepaReport | None, KurepaReport | None]:
    """(the gcd scan to gcd_max, the digit scan to digit_max), None for a None
    bound, from one table: `kurepa_digits` of the `odd_primes` to the larger
    bound B, once its cost, about B log2(B)^2, is within the work limit."""
    if gcd_max is not None and gcd_max < 2 or digit_max is not None and digit_max < 3:
        raise ValueError("a scan's bound is below its least: 2 for gcd, 3 for digits")
    bound = max(gcd_max or 0, digit_max or 0)
    if bound * bound.bit_length() ** 2 > work_limit():
        raise ValueError(f"a Kurepa table to {bound} exceeds work limit {work_limit()}")
    primes = odd_primes(bound)
    digits = kurepa_digits(primes)
    z = digits.index(0) if 0 in digits else len(digits)  # the first zero digit
    gcd = digit = None
    if gcd_max is not None:
        p = primes[z] if z < bisect_right(primes, gcd_max) else None
        gcd = KurepaReport(gcd_max, gcd_max if p is None else p - 1, 0, p)
    if digit_max is not None:
        n = bisect_right(primes, digit_max)
        digit = KurepaReport(digit_max, 0, *((z + 1, primes[z]) if z < n else (n, None)))
    return gcd, digit


def kurepa_gcd_scan(nmax: int) -> KurepaReport:
    """Check gcd(!n, n!) = 2 for 2 <= n <= nmax.  The first failure is the
    least odd prime p with !p = 0 (mod p): !n = !p (mod p) for n >= p, p does
    not divide n! for n < p, and !n = 2 (mod 4) for n >= 4."""
    return kurepa_scans(nmax, None)[0]


def kurepa_digit(p: Prime) -> int:
    """0th p-adic digit of sum_j j!, i.e. (sum_{j<p} j!) mod p; the terms
    with j >= p vanish mod p, since p divides j!."""
    total = 0
    fact = 1
    for j in range(p):
        total = (total + fact) % p
        fact = fact * (j + 1) % p
    return total


def kurepa_digit_scan(pmax: int) -> KurepaReport:
    """Check !p != 0 (mod p), the 0th digit, for all odd primes p <= pmax."""
    return kurepa_scans(None, pmax)[1]


def paper_sequences(kmax: int) -> dict[str, list[int]]:
    """The four sequences, for k = 1..kmax:

    neg_v:    -V_k(1)    (A014619-style list)
    neg_vbar: -V_k(-1)   (A040027-style list)
    u:         U_k(1)    (A000587-style list)
    neg_ubar: -U_k(-1)   (Bell numbers, A000110-style list)
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    # (U_k(x), A_{k-1}(n; x)) for k = 1..kmax, at x = 1 and at x = -1
    plus, minus = ([telescope_combo(unit_combo(k), x) for k in range(1, kmax + 1)]
                   for x in (1, -1))
    return {"neg_v": [A[0] for _, A in plus], "neg_vbar": [A[0] for _, A in minus],
            "u": [U for U, _ in plus], "neg_ubar": [-U for U, _ in minus]}
