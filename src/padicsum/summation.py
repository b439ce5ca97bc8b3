"""Exact partial sums, identity verification, and certified p-adic summation.

The central identity is

    sum_{n=0}^{N-1} n! [n^k x^k + U_k(x)] x^n = V_k(x) + N! x^N A_{k-1}(N; x)

which holds as an exact polynomial statement for any rational x.  For
integer x the tail vanishes p-adically, so the truncated sum converges to
V_k(x) in every Q_p at the same value; one certificate per partial sum records,
at each of its primes, the achieved p-adic distance exponent together with the
provable lower bound v_p(N!) + N*v_p(x).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import count, islice

from .padic import Prime, _rational, _Record, factorial_norm_exponent, ratio, vp
from .poly import horner
from .recurrences import telescope_combo, unit_combo


class SumCertificate(_Record):
    """Exact witness for one truncated summation, in Q_p for every p of `primes`.

    tail is the finite-identity remainder N! x^N A_{k-1}(N; x), so partial - target = tail
    holds exactly, the same rationals in every Q_p, and the p-adic distance from the partial
    sum to the target is at most p^(-b), b the bound exponent of p.  Building the certificate
    computes `difference` = partial - target once and, per prime, its valuation in
    `distance_exponents` (None when partial = target) from its own fields, and `oks` reads
    them, so a forged one fails.  Neither is a field.  partial, target and tail are its
    identity check's values, ints for an integer x; vp reads an int directly.
    """

    def __init__(self, k: int, N: int, x: Fraction | int, primes: tuple[Prime, ...],
                 partial: Fraction | int, target: Fraction | int, tail: Fraction | int,
                 bound_exponents: tuple[int, ...]):
        if not primes or len(primes) != len(bound_exponents):
            raise ValueError("a certificate needs a prime, and one bound exponent for each")
        difference = partial - target
        self.__dict__.update(k=k, N=N, x=x, primes=primes, partial=partial, target=target,
                             tail=tail, bound_exponents=bound_exponents, difference=difference,
                             distance_exponents=tuple(vp(difference, p) for p in primes))

    @property
    def oks(self) -> tuple[bool, ...]:
        """One verdict per prime: difference == tail, and the distance meets the bound."""
        exact = self.difference == self.tail
        return tuple(exact and (e is None or e >= b)
                     for e, b in zip(self.distance_exponents, self.bound_exponents))

    @property
    def ok(self) -> bool:
        return all(self.oks)


class IdentityCheck(_Record):
    """Both sides of the finite identity at (k, N, x), ints for an integer x; lhs == rhs."""

    def __init__(self, k: int, N: int, x: Fraction | int, lhs: Fraction | int,
                 rhs: Fraction | int, tail: Fraction | int):
        self.__dict__.update(k=k, N=N, x=x, lhs=lhs, rhs=rhs, tail=tail)

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    @property
    def target(self) -> Fraction | int:
        """rhs - tail = V_k(x), the p-adic sum for integer x in every Q_p."""
        return self.rhs - self.tail


def factorial_series(
    c: Callable[[int], int | Fraction], a: int = 1, b: int = 1
) -> Iterator[tuple[int, int, int | Fraction]]:
    """The factorial series sum_n n! c(n) x^n at x = a/b, one N at a time.

    Yields (N, N! a^N, S_N) for N = 1, 2, ..., where

        S_N = b^(N-1) sum_{n<N} n! c(n) (a/b)^n,  S_{N+1} = b S_N + N! a^N c(N),

    so integer c, a and b keep every S_N an integer and no step takes a
    gcd.  c(N) is evaluated only when S_{N+1} is requested.
    """
    S, fa = c(0), a  # S_1 and 1! a^1
    for N in count(1):
        yield N, fa, S
        S = b * S + fa * c(N)
        fa *= (N + 1) * a


def _combo(k: int, C: tuple[int, ...] | None) -> tuple[int, ...]:
    """C, or the unit combination of k when C is None; ValueError unless len(C) == k."""
    if C is None:
        return unit_combo(k)
    if len(C) != k:
        raise ValueError("C must list exactly k coefficients")
    return C


def scaled_checks(k: int, a: int, b: int, n_max: int,
                  C: tuple[int, ...] | None = None) -> Iterator[tuple[int, int, int, int, int]]:
    """(N, L_N, R_N, T_N, D_N), both sides of the finite identity at (k, N, a/b), b > 0, and
    its tail, for N = 1..n_max, in one pass from one telescope; with C, those of the Theorem-2
    combination sum_j C_j [n^j x^j + U_j(x)], k = len(C).  Step N scales every value to an
    integer by D_N = b^(N-1+k), so no running sum takes a gcd:

        L_N = b^(N-1) sum_{n<N} n! (sum_j C_j n^j a^j b^(k-j) + U(x) b^k) (a/b)^n
        T_N = N! a^N * A(N; x) b^(k-1),  R_N = V(x) b^(k-1) * b^N + T_N

    are lhs, rhs and tail times D_N; L_N does not read A, so a wrong solve fails."""
    C = _combo(k, C)
    if n_max < 1:
        raise ValueError("N must be >= 1")
    Ub, A = telescope_combo(C, a, b)
    Vb = -A[0]
    terms = [(j, c * a**j * b ** (k - j)) for j, c in enumerate(C, 1) if c]
    series = factorial_series(lambda n: sum(c * n**j for j, c in terms) + Ub, a, b)
    bpow, D = b, b**k  # b^N, D_N at N = 1
    for N, fa, L in islice(series, n_max):
        T = fa * horner(A, N)
        yield N, L, Vb * bpow + T, T, D
        bpow *= b
        D *= b


def identity_checks(k: int, x: Fraction | int, n_max: int,
                    C: tuple[int, ...] | None = None) -> Iterator[IdentityCheck]:
    """The checks of scaled_checks at x, each value over D_N: ints for an integer x,
    where D_N = 1, and Fractions, which only then load `fractions`, for any other."""
    a, b = ratio(x)
    if b != 1:
        from fractions import Fraction
        x = Fraction(a, b)
    for N, L, R, T, D in scaled_checks(k, a, b, n_max, C):
        yield IdentityCheck(k, N, a, L, R, T) if D == 1 else IdentityCheck(
            k, N, x, Fraction(L, D), Fraction(R, D), Fraction(T, D))


def verify_identity(k: int, N: int, x: Fraction | int) -> IdentityCheck:
    """Both sides of the finite identity at (k, N, x), evaluated exactly; they differ only
    through a bug, since the identity holds for every rational x."""
    *_, check = identity_checks(k, x, N)
    return check


def _integer(x: Fraction | int, nonzero: bool = False) -> int:
    """x as an int; ValueError unless it is an integer, and a nonzero one if asked."""
    x = _rational(x)
    if x.denominator != 1 or (nonzero and x == 0):
        raise ValueError(f"x must be {'a nonzero' if nonzero else 'an'} integer")
    return x.numerator


@lru_cache(maxsize=4096)
def _bound(N: int, n: int, p: Prime) -> int:
    """v_p(N!) + N v_p(n), the bound exponent at x = n, shared by every k."""
    return factorial_norm_exponent(N, p) + N * vp(n, p)


def certificate_from_check(check: IdentityCheck, primes: tuple[Prime, ...]) -> SumCertificate:
    """The certificate at every prime of primes off an identity check at a nonzero integer x:
    its lhs, target V_k(x) and tail, the same in every Q_p; only the bounds are per prime."""
    N, n = check.N, _integer(check.x, nonzero=True)
    return SumCertificate(check.k, N, check.x, primes, check.lhs, check.target, check.tail,
                          tuple(_bound(N, n, p) for p in primes))


def invariant_sum(k: int, x: Fraction | int, C: tuple[int, ...] | None = None) -> Fraction:
    """The common p-adic value V_k(x) of the infinite series, for integer x;
    with C, sum_j C_j V_j(x), that of the combination, k = len(C)."""
    from fractions import Fraction
    return Fraction(-telescope_combo(_combo(k, C), _integer(x))[1][0])


def truncated_padic_sum(k: int, x: Fraction | int, p: Prime, N: int) -> SumCertificate:
    """Certificate at the one prime p that the N-term partial sum is p-adically close to V_k(x)."""
    return truncated_combo_sum(unit_combo(k), x, p, N)


def truncated_combo_sum(C: tuple[int, ...], x: Fraction | int, p: Prime,
                        N: int) -> SumCertificate:
    """Certificate that the N-term partial sum of the Theorem-2 combination
    sum_n n! sum_j C_j [n^j x^j + U_j(x)] x^n, j = 1..k = len(C), is
    p-adically close to sum_j C_j V_j(x), from one telescope of
    P = sum_j C_j x^j n^j."""
    *_, check = identity_checks(len(C), _integer(x, nonzero=True), N, C)  # x checked first
    return certificate_from_check(check, (p,))
