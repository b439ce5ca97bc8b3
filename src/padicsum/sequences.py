"""Left factorials, Kurepa-hypothesis scans, and the integer sequences
obtained from U_k, V_k at x = +-1, each solved at the point by `telescope`.

A Kurepa counterexample is an open-problem finding, so scans report it as
structured data (first_failure) instead of raising.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress
from operator import mul

from .padic import Prime, _Record, require_within_limit
from .padic import is_prime  # noqa: F401  perfbench/spans.py traces it here
from .recurrences import telescope_combo, unit_combo


# kurepa_digits runs on Decimal from this largest prime up, on int below it
DECIMAL_FROM = 150_000


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
    """!p mod p for each p of an ascending list of primes, by `_remainder_tree`: on int,
    or from the prime DECIMAL_FROM up on libmpdec's Decimal, at its widest precision
    and exponent range, with Inexact and Rounded trapped, so that nothing rounds."""
    if not primes or primes[-1] < DECIMAL_FROM:
        return _remainder_tree(primes, int) if primes else []
    import decimal
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    exact.traps[decimal.Inexact] = exact.traps[decimal.Rounded] = True
    with decimal.localcontext(exact):
        return _remainder_tree(primes, decimal.Decimal)


def _remainder_tree(primes: list[int], num) -> list[int]:
    """The digits of `kurepa_digits`, on nodes of type num, in one pass.

    (!n, n!) advances by [[1, 1], [0, n+1]]; a span's product [[1, b], [0, d]]
    is carried as (b, d).  walk() takes (!n, n!), reduced by each node's modulus,
    depth first down a remainder tree (Costa, Gerbicz, Harvey 2014) on a kept
    product tree of 16-prime blocks; a leaf block makes one pass over its gaps,
    reading each digit.  A node's span is read only modulo `after`, the product of
    the moduli to its right: on int a larger span is reduced by it, and on the
    right edge, after = 1, none is built; on Decimal spans stay unreduced."""
    digits = [0] * len(primes)

    def walk(k: int, i: int, lf, fact, after) -> tuple:
        lf, fact = lf % (m := tree[k][i]), fact % m
        if k == 0:
            lf, fact, b, d, n = int(lf), int(fact), 0, 1, primes[16 * i - 1] if i else 0
            for j in range(16 * i, min(16 * i + 16, len(primes))):
                for n in range(n + 1, primes[j] + 1):
                    b, d = b + d, d * n
                digits[j] = (lf + b * fact) % primes[j]
            b, d = num(b), num(d)
        elif 2 * i + 1 == len(tree[k - 1]):  # a lone child, on the right edge
            return walk(k - 1, 2 * i, lf, fact, after)
        else:
            mr = tree[k - 1][2 * i + 1]  # on Decimal, after only marks the right edge
            bl, dl = walk(k - 1, 2 * i, lf, fact, mr * after if num is int else mr)
            fr = fact % mr  # the right child's inputs, each already reduced by mr
            br, dr = walk(k - 1, 2 * i + 1, lf % mr + bl % mr * fr, dl % mr * fr, after)
            b, d = (bl + br * dl, dl * dr) if after != 1 else (0, 0)  # 0 modulo 1
        if num is int and d > after:
            b, d = b % after, d % after
        return b, d

    tree = [[num(math.prod(primes[j : j + 16])) for j in range(0, len(primes), 16)]]
    while len(row := tree[-1]) > 1:
        tree.append([*map(mul, row[::2], row[1::2]), *row[len(row) & ~1 :]])
    walk(len(tree) - 1, 0, 0, 1, 1)
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
    require_within_limit(f"a Kurepa table to {bound}", bound * bound.bit_length() ** 2)
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
    total, fact = 0, 1
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
    # (U_k(x), A_{k-1}(0; x)) for k = 1..kmax at x = 1 and x = -1, the rest of each A dropped
    plus, minus = ([(U, A[0]) for k in range(1, kmax + 1)
                    for U, A in [telescope_combo(unit_combo(k), x)]] for x in (1, -1))
    return {"neg_v": [a for _, a in plus], "neg_vbar": [a for _, a in minus],
            "u": [U for U, _ in plus], "neg_ubar": [-U for U, _ in minus]}
