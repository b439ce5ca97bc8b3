"""Left factorials, Kurepa-hypothesis scans, and the integer sequences
obtained from U_k, V_k at x = +-1.

A Kurepa counterexample is an open-problem finding, so scans report it as
structured data (first_failure) instead of raising.
"""

from __future__ import annotations

import math

from .padic import Prime, _Record, is_prime
from .recurrences import build_triple


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
    lo = 0) down a remainder tree (Costa, Gerbicz, Harvey 2014) depth first."""
    digits = [0] * len(primes)

    def walk(lo: int, hi: int, lf: int, fact: int) -> tuple[int, int]:
        m = math.prod(primes[lo:hi])
        lf, fact = lf % m, fact % m
        if hi - lo == 1:
            b, d = 0, 1
            for n in range(primes[lo - 1] if lo else 0, m):
                b, d = b + d, d * (n + 1)
            digits[lo] = (lf + b * fact) % m
            return b, d
        mid = (lo + hi) // 2
        bl, dl = walk(lo, mid, lf, fact)
        br, dr = walk(mid, hi, lf + bl * fact, dl * fact)
        return bl + br * dl, dl * dr

    if primes:
        walk(0, len(primes), 0, 1)
    return digits


def _zero_digit_scan(bound: int) -> tuple[int, int | None]:
    """(odd primes checked, the first odd prime p <= bound with !p = 0 mod p)"""
    primes = [q for q in range(3, bound + 1, 2) if is_prime(q)]
    digits = kurepa_digits(primes)
    if 0 not in digits:
        return len(primes), None
    return digits.index(0) + 1, primes[digits.index(0)]


def kurepa_gcd_scan(nmax: int) -> KurepaReport:
    """Check gcd(!n, n!) = 2 for 2 <= n <= nmax.  The first failure is the
    least odd prime p with !p = 0 (mod p): !n = !p (mod p) for n >= p, p does
    not divide n! for n < p, and !n = 2 (mod 4) for n >= 4."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    _, p = _zero_digit_scan(nmax)
    return KurepaReport(nmax, nmax if p is None else p - 1, 0, p)


def kurepa_digit(p: Prime) -> int:
    """0th p-adic digit of sum_j j!, i.e. (sum_{j<p} j!) mod p; the terms
    with j >= p vanish mod p, since p divides j!."""
    pp = int(p)
    total = 0
    fact = 1
    for j in range(pp):
        total = (total + fact) % pp
        fact = fact * (j + 1) % pp
    return total


def kurepa_digit_scan(pmax: int) -> KurepaReport:
    """Check !p != 0 (mod p), the 0th digit, for all odd primes p <= pmax."""
    if pmax < 3:
        raise ValueError("pmax must be >= 3")
    return KurepaReport(pmax, 0, *_zero_digit_scan(pmax))


def paper_sequences(kmax: int) -> dict[str, list[int]]:
    """The four sequences, for k = 1..kmax:

    neg_v:    -V_k(1)    (A014619-style list)
    neg_vbar: -V_k(-1)   (A040027-style list)
    u:         U_k(1)    (A000587-style list)
    neg_ubar: -U_k(-1)   (Bell numbers, A000110-style list)
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    neg_v, neg_vbar, u, neg_ubar = [], [], [], []
    for k in range(1, kmax + 1):
        trip = build_triple(k)
        U, V = trip.U, trip.V
        neg_v.append(-V(1))
        neg_vbar.append(-V(-1))
        u.append(U(1))
        neg_ubar.append(-U(-1))
    return {"neg_v": neg_v, "neg_vbar": neg_vbar, "u": u, "neg_ubar": neg_ubar}
