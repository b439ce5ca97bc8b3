"""Exact partial sums, identity verification, and certified p-adic summation.

The central identity is

    sum_{n=0}^{N-1} n! [n^k x^k + U_k(x)] x^n = V_k(x) + N! x^N A_{k-1}(N; x)

which holds as an exact polynomial statement for any rational x.  For
integer x the tail vanishes p-adically, so the truncated sum converges to
V_k(x) in every Q_p at the same value; certificates record the achieved
p-adic distance exponent together with the provable lower bound
v_p(N!) + N*v_p(x).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import cached_property
from itertools import count, islice

from .padic import Prime, ValExponent, _Record, factorial_norm_exponent, vp
from .poly import Poly
from .recurrences import build_triple


class SeriesSpec(_Record):
    """A Theorem-2 style linear combination: coefficients C_1..C_k and point x."""

    def __init__(self, k: int, C: tuple[int, ...], x: Fraction):
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(C) != k:
            raise ValueError("need exactly k coefficients C_1..C_k")
        self.__dict__.update(k=k, C=C, x=x)


class SumCertificate(_Record):
    """Exact witness for one truncated p-adic summation.

    tail is the finite-identity remainder N! x^N A_{k-1}(N; x), so
    partial - target = tail holds exactly, and the p-adic distance from the
    partial sum to the target is at most p^(-bound_exponent).  The achieved
    distance exponent and `ok` both read one difference partial - target,
    computed from the certificate's own fields, so a forged one fails.
    A field is an int where its value is integral and a Fraction otherwise.
    """

    def __init__(self, k: int, N: int, x: Fraction, p: Prime, partial: Fraction | int,
                 target: Fraction | int, tail: Fraction | int, bound_exponent: int):
        self.__dict__.update(k=k, N=N, x=x, p=p, partial=partial, target=target,
                             tail=tail, bound_exponent=bound_exponent)

    @cached_property
    def difference(self) -> Fraction | int:
        """partial - target."""
        return self.partial - self.target

    @cached_property
    def distance_exponent(self) -> ValExponent:
        """v_p(partial - target)."""
        return vp(self.difference, self.p)

    @property
    def ok(self) -> bool:
        return self.difference == self.tail and self.distance_exponent >= self.bound_exponent


class IdentityCheck(_Record):
    """Both sides of the finite identity at (k, N, x); lhs == rhs always."""

    def __init__(self, k: int, N: int, x: Fraction, lhs: Fraction, rhs: Fraction,
                 tail: Fraction):
        self.__dict__.update(k=k, N=N, x=x, lhs=lhs, rhs=rhs, tail=tail)

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    @cached_property
    def target(self) -> Fraction:
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


def partial_sum_Sk(k: int, N: int, x: Fraction | int) -> Fraction:
    """Exact S_k(N; x) = sum_{n=0}^{N-1} n! n^k x^n, with 0^0 = 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    x = Fraction(x)
    b = x.denominator
    series = factorial_series(lambda n: n**k, x.numerator, b)
    _, _, S = next(islice(series, N - 1, None))
    return Fraction(S, b ** (N - 1))


def identity_checks(k: int, x: Fraction | int, n_max: int) -> Iterator[IdentityCheck]:
    """Both sides of the finite identity at (k, N, x) for N = 1..n_max, in one pass.

    With x = a/b, step N keeps every quantity as an integer scaled by
    D_N = b^(N-1+k), so the running sums take no gcd:

        L_N = b^(N-1) sum_{n<N} n! (n^k a^k + U_k(x) b^k) (a/b)^n
        T_N = N! a^N * A_{k-1}(N; x) b^(k-1)
        R_N = V_k(x) b^(k-1) * b^N + T_N

    L_N is the factorial_series sum; L_N, R_N and T_N are lhs, rhs and
    tail times D_N, and Fraction is built only for the returned fields.
    """
    if k < 1 or n_max < 1:
        raise ValueError("k and N must be >= 1")
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    trip = build_triple(k)
    Ub = int(trip.U(x) * b**k)
    Vb = int(trip.V(x) * b ** (k - 1))
    # A_{k-1}(n; x) b^(k-1) as an integer polynomial in n
    Ab = sum(
        (lay.scale(a**l * b ** (k - 1 - l)) for l, lay in enumerate(trip.A.layers)),
        Poly.make([], "n"),
    )
    ak = a**k
    series = factorial_series(lambda n: n**k * ak + Ub, a, b)
    bpow, D = b, b**k  # b^N, D_N at N = 1
    for N, fa, L in islice(series, n_max):
        T = fa * Ab(N)
        R = Vb * bpow + T
        # integer x keeps D = 1, where Fraction(v) takes no gcd
        exact = (Fraction(v, D) if D > 1 else Fraction(v) for v in (L, R, T))
        yield IdentityCheck(k, N, x, *exact)
        bpow *= b
        D *= b


def verify_identity(k: int, N: int, x: Fraction | int) -> IdentityCheck:
    """Evaluate both sides of the finite identity exactly and compare.

    Inequality can only arise from an implementation bug; the identity
    itself holds for every rational x.
    """
    *_, check = identity_checks(k, x, N)
    return check


def certificate_from_check(check: IdentityCheck, p: Prime) -> SumCertificate:
    """The p-adic certificate read off an identity check at a nonzero integer x.

    The target rhs - tail = V_k(x) is the same in every Q_p, so `ok` fails
    whenever lhs != rhs; only the exponents depend on p.  Integral values are ints.
    """
    x, N = check.x, check.N
    if x.denominator != 1 or x == 0:
        raise ValueError("x must be a nonzero integer")
    bound = factorial_norm_exponent(N, p) + N * vp(x, p).value
    fields = (check.lhs, check.target, check.tail)
    partial, target, tail = (q.numerator if q.denominator == 1 else q for q in fields)
    return SumCertificate(check.k, N, x, p, partial, target, tail, bound)


def invariant_sum(k: int, x: int) -> Fraction:
    """The common p-adic value V_k(x) of the infinite series, for integer x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not isinstance(x, int):
        raise TypeError("p-adic invariance holds for integer x only")
    return Fraction(build_triple(k).V(x))


def truncated_padic_sum(k: int, x: int, p: Prime, N: int) -> SumCertificate:
    """Certificate that the N-term partial sum is p-adically close to V_k(x)."""
    if not isinstance(x, int):
        raise ValueError("x must be a nonzero integer")
    return certificate_from_check(verify_identity(k, N, x), p)


def truncated_combo_sum(spec: SeriesSpec, p: Prime, N: int) -> SumCertificate:
    """Certificate that the N-term partial sum of the Theorem-2 combination
    sum_n n! sum_j C_j [n^j x^j + U_j(x)] x^n is p-adically close to
    sum_j C_j V_j(x).

    Its identity at N is the C-weighted sum of the per-j identities.
    """
    lhs = rhs = tail = Fraction(0)
    for j, c in enumerate(spec.C, start=1):
        if c:
            check = verify_identity(j, N, spec.x)
            lhs += c * check.lhs
            rhs += c * check.rhs
            tail += c * check.tail
    return certificate_from_check(IdentityCheck(spec.k, N, spec.x, lhs, rhs, tail), p)
