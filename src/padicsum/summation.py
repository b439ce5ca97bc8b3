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

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .padic import (
    Prime,
    ValExponent,
    factorial_norm_exponent,
    padic_distance_exponent,
    vp,
)
from .poly import BivarPoly, Poly
from .recurrences import TripleFamily, shared_family


@dataclass(frozen=True)
class SeriesSpec:
    """A Theorem-2 style linear combination: coefficients C_1..C_k and point x."""

    k: int
    C: tuple[int, ...]
    x: Fraction

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.C) != self.k:
            raise ValueError("need exactly k coefficients C_1..C_k")


@dataclass(frozen=True)
class SumCertificate:
    """Exact witness for one truncated p-adic summation.

    tail is the finite-identity remainder N! x^N A_{k-1}(N; x), so
    partial - target = tail holds exactly, and the p-adic distance from the
    partial sum to the target is at most p^(-bound_exponent).  `ok` checks
    both from the certificate's own fields, so a forged one fails.
    """

    k: int
    N: int
    x: Fraction
    p: Prime
    partial: Fraction
    target: Fraction
    tail: Fraction
    distance_exponent: ValExponent
    bound_exponent: int

    @property
    def ok(self) -> bool:
        return (
            self.partial - self.target == self.tail
            and self.distance_exponent >= self.bound_exponent
        )


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the finite identity at (k, N, x); lhs == rhs always."""

    k: int
    N: int
    x: Fraction
    lhs: Fraction
    rhs: Fraction
    tail: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def partial_sum_Sk(k: int, N: int, x: Fraction | int) -> Fraction:
    """Exact S_k(N; x) = sum_{n=0}^{N-1} n! n^k x^n, with 0^0 = 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    x = Fraction(x)
    total = Fraction(1) if k == 0 else Fraction(0)  # n = 0 term, 0^0 = 1
    fact = 1
    xpow = x
    for n in range(1, N):
        total += fact * n**k * xpow
        fact *= n + 1
        xpow *= x
    return total


def identity_checks(
    k: int, x: Fraction | int, n_max: int, family: TripleFamily | None = None
) -> Iterator[IdentityCheck]:
    """Both sides of the finite identity at (k, N, x) for N = 1..n_max, in one pass.

    With x = a/b, step N keeps every quantity as an integer scaled by
    D_N = b^(N-1+k), so the running sums take no gcd:

        L_1 = U_k(x) b^k,  L_{N+1} = b L_N + N! (N^k a^k + U_k(x) b^k) a^N
        T_N = N! a^N * A_{k-1}(N; x) b^(k-1)
        R_N = V_k(x) b^(k-1) * b^N + T_N

    L_N, R_N and T_N are lhs, rhs and tail times D_N; Fraction is built
    only for the returned fields.
    """
    if k < 1 or n_max < 1:
        raise ValueError("k and N must be >= 1")
    fam = family or shared_family()
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    trip = fam.triple(k)
    Ub = int(trip.U(x) * b**k)
    Vb = int(trip.V(x) * b ** (k - 1))
    # A_{k-1}(n; x) b^(k-1) as an integer polynomial in n
    Ab = sum(
        (lay.scale(a**l * b ** (k - 1 - l)) for l, lay in enumerate(trip.A.layers)),
        Poly.make([], "n"),
    )
    ak = a**k
    L = Ub
    fact, apow, bpow, D = 1, a, b, b**k  # N!, a^N, b^N, D_N at N = 1
    for N in range(1, n_max + 1):
        T = fact * apow * Ab(N)
        R = Vb * bpow + T
        yield IdentityCheck(k, N, x, Fraction(L, D), Fraction(R, D), Fraction(T, D))
        L = b * L + fact * (N**k * ak + Ub) * apow
        fact *= N + 1
        apow *= a
        bpow *= b
        D *= b


def verify_identity(
    k: int, N: int, x: Fraction | int, family: TripleFamily | None = None
) -> IdentityCheck:
    """Evaluate both sides of the finite identity exactly and compare.

    Inequality can only arise from an implementation bug; the identity
    itself holds for every rational x.
    """
    *_, check = identity_checks(k, x, N, family)
    return check


def certificate_from_check(check: IdentityCheck, p: Prime) -> SumCertificate:
    """The p-adic certificate read off an identity check at a nonzero integer x.

    The target lhs - tail = V_k(x) is the same in every Q_p; only the two
    exponents depend on p.
    """
    x, N = check.x, check.N
    if x.denominator != 1 or x == 0:
        raise ValueError("x must be a nonzero integer")
    target = check.lhs - check.tail
    bound = factorial_norm_exponent(N, p) + N * vp(x, p).value
    dist = padic_distance_exponent(check.lhs, target, p)
    return SumCertificate(check.k, N, x, p, check.lhs, target, check.tail, dist, bound)


def invariant_sum(k: int, x: int, family: TripleFamily | None = None) -> Fraction:
    """The common p-adic value V_k(x) of the infinite series, for integer x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not isinstance(x, int):
        raise TypeError("p-adic invariance holds for integer x only")
    fam = family or shared_family()
    return Fraction(fam.V(k)(x))


def truncated_padic_sum(
    k: int, x: int, p: Prime, N: int, family: TripleFamily | None = None
) -> SumCertificate:
    """Certificate that the N-term partial sum is p-adically close to V_k(x)."""
    if not isinstance(x, int):
        raise ValueError("x must be a nonzero integer")
    return certificate_from_check(verify_identity(k, N, x, family), p)


def build_P_Q(
    spec: SeriesSpec, family: TripleFamily | None = None
) -> tuple[BivarPoly, Poly]:
    """P(n; x) = sum_j C_j [n^j x^j + U_j(x)] and Q(x) = sum_j C_j V_j(x).

    The sum of the series at integer x is Q(x); linearity over the per-j
    identities forces Q to combine the V_j (not the U_j).
    """
    fam = family or shared_family()
    P = BivarPoly.make([])
    Q = Poly.make([], "x")
    for j in range(1, spec.k + 1):
        c = spec.C[j - 1]
        if c == 0:
            continue
        nj_xj = BivarPoly.make([Poly.make([], "n")] * j + [Poly.monomial(j, 1, "n")])
        Uj_layers = BivarPoly.make([Poly.const(u, "n") for u in fam.U(j).coeffs])
        P = P + (nj_xj + Uj_layers).scale(c)
        Q = Q + fam.V(j).scale(c)
    return P, Q


def truncated_combo_sum(
    spec: SeriesSpec, p: Prime, N: int, family: TripleFamily | None = None
) -> SumCertificate:
    """Certificate for the Theorem-2 combination sum_n n! P(n; x) x^n -> Q(x)."""
    x = spec.x
    if x.denominator != 1:
        raise ValueError("p-adic invariance requires integer x")
    xi = int(x)
    fam = family or shared_family()
    P, Q = build_P_Q(spec, fam)
    target = Fraction(Q(xi))
    total = Fraction(0)
    fact = 1
    xpow = Fraction(1)
    for n in range(N):
        total += fact * P.eval(n, xi) * xpow
        fact *= n + 1
        xpow *= xi
    tail = total - target  # == N! x^N sum_j C_j A_{j-1}(N; x)
    dist = padic_distance_exponent(total, target, p)
    if xi == 0:
        bound = 0
    else:
        bound = factorial_norm_exponent(N, p) + N * vp(xi, p).value
    return SumCertificate(spec.k, N, x, p, total, target, tail, dist, bound)
