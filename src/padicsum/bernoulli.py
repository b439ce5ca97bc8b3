"""Exact Bernoulli numbers, finite-level Volkenborn functionals, and the
Bernoulli-weighted images of the factorial-series identity.

The Volkenborn integral sends x^n to B_n; applying it termwise to the exact
finite identity yields finite Bernoulli identities that must hold with exact
rational equality, plus certified p-adic limits (-1, -2, -4 for k = 1, 2, 3).
"""

from __future__ import annotations

from itertools import islice, starmap
from math import comb, factorial, gcd, lcm
from operator import mul

from .padic import Prime, factorial_norm_exponent, work_limit
from .recurrences import build_triple
from .summation import SumCertificate, factorial_series


def bernoulli_pairs(nmax: int) -> tuple[tuple[int, int], ...]:
    """B_0..B_nmax (index n holds B_n) as reduced (numerator, denominator) pairs, from the
    tangent numbers T_1..T_h, h = nmax // 2, built in place in integers (Brent and Harvey,
    "Fast computation of Bernoulli, tangent and secant numbers", 2013), then
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)); odd B_n vanish for n >= 3."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    h = nmax // 2
    T = [0] + [factorial(k) for k in range(h)]  # T[k] = (k-1)! before the sweeps
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    B = [(1, 1), (-1, 2)][: nmax + 1] + [(0, 1)] * (nmax - 1)
    for m in range(1, h + 1):
        num, den = (-1) ** (m - 1) * 2 * m * T[m], 4**m * (4**m - 1)
        B[2 * m] = num // (g := gcd(num, den)), den // g
    return tuple(B)


def bernoulli_numbers(nmax: int) -> tuple[Fraction, ...]:
    """B_0..B_nmax as Fractions: bernoulli_pairs' view."""
    from fractions import Fraction
    return tuple(starmap(Fraction, bernoulli_pairs(nmax)))


def volkenborn_poly(coeffs) -> Fraction:
    """Exact Volkenborn integral (x^n -> B_n) of the polynomial with these coefficients:
    sum_l coeffs[l] * B_l."""
    from fractions import Fraction
    return sum(map(mul, coeffs, bernoulli_numbers(max(len(coeffs) - 1, 0))), Fraction(0))


def volkenborn_level(coeffs, p: Prime, m: int) -> Fraction:
    """Finite-level Volkenborn sum p^(-m) * sum_{j=0}^{p^m - 1} P(j), exact, of
    the polynomial P with these coefficients.

    Uses the Bernoulli closed form for the power sums, so the cost is
    independent of p^m; the work limit still guards absurd exponents.  It is
    checked before p^m is built: p >= 2, so p^m > L whenever m > L.bit_length().
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    limit = work_limit()
    if m > limit.bit_length() or p**m > limit:
        raise ValueError(f"p^m exceeds work limit {limit} (p = {p}, m = {m})")
    from fractions import Fraction
    M = p**m
    B = bernoulli_numbers(max(len(coeffs) - 1, 0))
    # each nonzero c times sum_{j=0}^{M-1} j^n = (1/(n+1)) sum_{i=0}^{n} C(n+1,i) B_i M^(n+1-i)
    return sum((c * sum(comb(n + 1, i) * M ** (n + 1 - i) * B[i] for i in range(n + 1)) / (n + 1)
                for n, c in enumerate(coeffs) if c), Fraction(0)) / M


def scaled_bernoulli_identity(k: int, N: int) -> tuple[int, int, int]:
    """(S, R, L): both sides of the Volkenborn image of the finite identity at (k, N),

    lhs = sum_{n<N} n! [n^k B_{n+k} + sum_l U_kl B_{n+l}]
    rhs = sum_l V_kl B_l + N! sum_l A_{k-1,l}(N) B_{N+l},

    times L, the lcm of the denominators of the B_j, so that both are sums of ints; they
    are exactly equal for every k, N (image of a polynomial identity).  lhs reads no A."""
    if k < 1 or N < 1:
        raise ValueError("k and N must be >= 1")
    B = bernoulli_pairs(N + k - 1)
    trip = build_triple(k)
    L = lcm(*(den for _, den in B))
    BL = [num * (L // den) for num, den in B]

    def c(n: int) -> int:
        return n**k * BL[n + k] + sum(u * BL[n + l] for l, u in enumerate(trip.U))

    _, fact, S = next(islice(factorial_series(c), N - 1, None))  # fact == N!
    return S, sum(map(mul, trip.V, BL)) + fact * sum(map(mul, trip.A.eval_n(N), BL[N:])), L


def bernoulli_identity_partial(k: int, N: int) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) at (k, N) as Fractions: S / L and R / L of scaled_bernoulli_identity."""
    from fractions import Fraction
    S, R, L = scaled_bernoulli_identity(k, N)
    return Fraction(S, L), Fraction(R, L)


def bernoulli_series_certificate(k: int, p: Prime, N: int) -> SumCertificate:
    """Certificate at the one prime p that the Bernoulli-weighted partial sum approaches
    volkenborn_poly(V_k) with exponent at least v_p(N!) - 1.

    The -1 slack comes from |B_n|_p <= p.
    """
    lhs, rhs = bernoulli_identity_partial(k, N)
    target = volkenborn_poly(build_triple(k).V)
    tail = rhs - target  # == N! sum_l A_{k-1,l}(N) B_{N+l}
    bound = factorial_norm_exponent(N, p) - 1
    return SumCertificate(k, N, 1, (p,), lhs, target, tail, (bound,))
