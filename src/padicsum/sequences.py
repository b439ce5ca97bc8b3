"""Left factorials, Kurepa-hypothesis scans, and the integer sequences
obtained from U_k, V_k at x = +-1.

A Kurepa counterexample is an open-problem finding, so scans report it as
structured data (first_failure) instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .padic import Prime, is_prime
from .recurrences import build_triple
from .summation import factorial_series


@dataclass(frozen=True)
class KurepaReport:
    """Outcome of a gcd scan and/or digit scan."""

    bound: int
    gcd_ok_up_to: int
    digit_checked_primes: int
    first_failure: int | None = None

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def kurepa_gcd_scan(nmax: int) -> KurepaReport:
    """Check gcd(!n, n!) = 2 for 2 <= n <= nmax, with incremental !n and n!."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    first_failure = None
    ok_up_to = 1
    # (n, n!, !n) for n = 2..nmax
    for n, fact, lf in islice(factorial_series(lambda j: 1), 1, nmax):
        if math.gcd(lf, fact) != 2:
            first_failure = n
            break
        ok_up_to = n
    return KurepaReport(nmax, ok_up_to, 0, first_failure)


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
    """Check kurepa_digit(p) != 0 for all odd primes p <= pmax."""
    if pmax < 3:
        raise ValueError("pmax must be >= 3")
    checked = 0
    first_failure = None
    for q in range(3, pmax + 1, 2):
        if not is_prime(q):
            continue
        checked += 1
        if kurepa_digit(Prime(q)) == 0:
            first_failure = q
            break
    return KurepaReport(pmax, 0, checked, first_failure)


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
