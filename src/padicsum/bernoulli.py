"""Exact Bernoulli numbers, finite-level Volkenborn functionals, and the
Bernoulli-weighted images of the factorial-series identity.

The Volkenborn integral sends x^n to B_n; applying it termwise to the exact
finite identity yields finite Bernoulli identities that must hold with exact
rational equality, plus certified p-adic limits (-1, -2, -4 for k = 1, 2, 3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .padic import Prime, factorial_norm_exponent
from .poly import Poly, binomial
from .recurrences import build_triple
from .summation import SumCertificate, factorial_series

WORK_LIMIT_ENV = "PADICSUM_WORK_LIMIT"
DEFAULT_WORK_LIMIT = 10**9


def work_limit() -> int:
    return int(os.environ.get(WORK_LIMIT_ENV, DEFAULT_WORK_LIMIT))


@dataclass(frozen=True)
class BernoulliTable:
    """B_0..B_nmax as exact rationals, index n holds B_n."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        assert self.values[0] == 1
        if len(self.values) > 1:
            assert self.values[1] == Fraction(-1, 2)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]


def bernoulli_numbers(nmax: int) -> BernoulliTable:
    """B_0..B_nmax via the defining recurrence sum_{j<n} C(n,j) B_j = 0."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    values = [Fraction(1)]
    for m in range(1, nmax + 1):
        # isolate B_m in sum_{j=0}^{m} C(m+1, j) B_j = 0
        acc = sum(binomial(m + 1, j) * values[j] for j in range(m))
        values.append(Fraction(-acc, m + 1))
    return BernoulliTable(tuple(values))


def volkenborn_poly(P: Poly, table: BernoulliTable) -> Fraction:
    """Exact Volkenborn integral of a polynomial: sum_l coeff_l * B_l."""
    if P.degree >= len(table):
        raise ValueError("Bernoulli table too short for this polynomial")
    return sum((Fraction(c) * table[l] for l, c in enumerate(P.coeffs)), Fraction(0))


def volkenborn_level(P: Poly, p: Prime, m: int) -> Fraction:
    """Finite-level Volkenborn sum p^(-m) * sum_{j=0}^{p^m - 1} P(j), exact.

    Uses the Bernoulli closed form for the power sums, so the cost is
    independent of p^m; the work limit still guards absurd exponents.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    pp = int(p)
    M = pp**m
    if M > work_limit():
        raise ValueError(f"p^m = {M} exceeds work limit {work_limit()}")
    table = bernoulli_numbers(P.degree + 1 if P.degree >= 0 else 1)
    total = Fraction(0)
    for n, c in enumerate(P.coeffs):
        if c == 0:
            continue
        # sum_{j=0}^{M-1} j^n = (1/(n+1)) sum_{i=0}^{n} C(n+1,i) B_i M^(n+1-i)
        ps = sum(
            binomial(n + 1, i) * table[i] * Fraction(M) ** (n + 1 - i)
            for i in range(n + 1)
        )
        total += c * ps / (n + 1)
    return total / M


def bernoulli_identity_partial(
    k: int, N: int, table: BernoulliTable
) -> tuple[Fraction, Fraction]:
    """Both sides of the Volkenborn image of the finite identity at (k, N).

    lhs = sum_{n<N} n! [n^k B_{n+k} + sum_l U_kl B_{n+l}]
    rhs = sum_l V_kl B_l + N! sum_l A_{k-1,l}(N) B_{N+l}

    These are exactly equal for every k, N (image of a polynomial identity).
    """
    if k < 1 or N < 1:
        raise ValueError("k and N must be >= 1")
    if N + k - 1 >= len(table):
        raise ValueError("Bernoulli table too short")
    trip = build_triple(k)

    def c(n: int) -> Fraction:
        return n**k * table[n + k] + sum(
            (u * table[n + l] for l, u in enumerate(trip.U.coeffs)), Fraction(0)
        )

    _, fact, lhs = next(islice(factorial_series(c), N - 1, None))  # fact == N!
    A_at_N = trip.A.eval_n(N)  # polynomial in x, coeff l = A_{k-1,l}(N)
    tail = fact * sum(
        (Fraction(a) * table[N + l] for l, a in enumerate(A_at_N.coeffs)),
        Fraction(0),
    )
    rhs = volkenborn_poly(trip.V, table) + tail
    return lhs, rhs


def bernoulli_series_certificate(
    k: int, p: Prime, N: int, table: BernoulliTable
) -> SumCertificate:
    """Certificate that the Bernoulli-weighted partial sum approaches
    volkenborn_poly(V_k) with exponent at least v_p(N!) - 1.

    The -1 slack comes from |B_n|_p <= p.
    """
    lhs, rhs = bernoulli_identity_partial(k, N, table)
    target = volkenborn_poly(build_triple(k).V, table)
    tail = lhs - target  # == N! sum_l A_{k-1,l}(N) B_{N+l}
    bound = factorial_norm_exponent(N, p) - 1
    return SumCertificate(k, N, Fraction(1), p, lhs, target, tail, bound)
