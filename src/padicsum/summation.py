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

from itertools import count, islice, repeat
from operator import add, ge, mul

from .padic import Prime, _rational, _Record, factorial_norm_exponent, ratio, vp
from .poly import horner
from .recurrences import telescope_combo, unit_combo


class SumCertificate(_Record):
    """Exact witness for one truncated summation, in Q_p for every p of `primes`.

    tail is the finite-identity remainder N! x^N A_{k-1}(N; x), so partial - target = tail
    holds exactly, the same rationals in every Q_p, and the p-adic distance from the partial
    sum to the target is at most p^(-b), b the bound exponent of p.  Construction computes,
    once and from the fields, `difference` = partial - target, its valuation per prime in
    `distance_exponents` (vp's guess is b; None, which meets any b, when partial = target), `oks`,
    per prime difference == tail and the distance meets b, and `ok` = all(oks).
    """

    def __init__(self, k: int, N: int, x: Rational, primes: tuple[Prime, ...],
                 partial: Rational, target: Rational, tail: Rational,
                 bound_exponents: tuple[int, ...]):
        if not primes or len(primes) != len(bound_exponents):
            raise ValueError("a certificate needs a prime, and one bound exponent for each")
        difference = partial - target
        distances = tuple(map(vp, repeat(difference), primes, bound_exponents))
        oks = ((False,) * len(primes) if difference != tail else
               tuple(map(ge, distances, bound_exponents)) if difference else (True,) * len(primes))
        self.__dict__.update(k=k, N=N, x=x, primes=primes, partial=partial, target=target,
                             tail=tail, bound_exponents=bound_exponents, difference=difference,
                             distance_exponents=distances, oks=oks, ok=all(oks))


class IdentityCheck(_Record):
    """Both sides of the finite identity at (k, N, x), ints for an integer x; lhs == rhs."""

    def __init__(self, k: int, N: int, x: Rational, lhs: Rational, rhs: Rational, tail: Rational):
        self.__dict__.update(k=k, N=N, x=x, lhs=lhs, rhs=rhs, tail=tail)

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    @property
    def target(self) -> Rational:
        """rhs - tail = V_k(x), the p-adic sum for integer x in every Q_p."""
        return self.rhs - self.tail


def factorial_series(c: Callable[[int], list],
                     points: list[tuple[int, int]] = ((1, 1),)) -> Iterator[tuple[int, list, list]]:
    """The factorial series sum_n n! c(n) x^n at every x = a/b of points, stepped together one
    N at a time, c(n) listing its value at each point.  Yields (N, F, S) for N = 1, 2, ...,
    where F lists N! a^N and S lists

        S_N = b^(N-1) sum_{n<N} n! c(n) (a/b)^n,  S_{N+1} = b S_N + N! a^N c(N),

    one entry per point, so integer c, a and b keep every S_N an integer and no step takes a
    gcd.  c(N) is evaluated only when S_{N+1} is requested."""
    S, F = c(0), [a for a, _ in points]  # S_1 and 1! a^1
    for N in count(1):
        yield N, F, S
        S = [b * s + f * v for (_, b), s, f, v in zip(points, S, F, c(N))]
        F = [f * (N + 1) * a for (a, _), f in zip(points, F)]


def _combo(k: int, C: tuple[int, ...] | None) -> tuple[int, ...]:
    """C, or the unit combination of k when C is None; ValueError unless len(C) == k."""
    if C is None:
        return unit_combo(k)
    if len(C) != k:
        raise ValueError("C must list exactly k coefficients")
    return C


def scaled_checks(k: int, points: list[tuple[int, int]], n_max: int,
                  C: tuple[int, ...] | None = None) -> Iterator[tuple[int, list, list, list, list]]:
    """(N, L, R, T, D) for N = 1..n_max, where L, R, T and D list, at each x = a/b of points
    (b > 0), both sides of the finite identity at (k, N, x), its tail and their scale, from
    one telescope per x and one pass that steps every x; with C, those of the Theorem-2
    combination sum_j C_j [n^j x^j + U_j(x)], k = len(C).  Step N scales every value to an
    integer by D_N = b^(N-1+k), so no running sum takes a gcd:

        L_N = b^(N-1) sum_{n<N} n! (sum_j C_j n^j a^j b^(k-j) + U(x) b^k) (a/b)^n
        T_N = N! a^N * A(N; x) b^(k-1),  R_N = V(x) b^(k-1) * b^N + T_N

    are lhs, rhs and tail times D_N; L_N does not read A, so a wrong solve fails."""
    C = _combo(k, C)
    if n_max < 1:
        raise ValueError("N must be >= 1")
    U, A = [], []  # per x: U(x) b^k, and the coefficients in n of A(n; x) b^(k-1)
    for a, b in points:
        Ub, Ax = telescope_combo(C, a, b)
        U.append(Ub)
        A.append(Ax)
    # per nonzero C_j: j and C_j a^j b^(k-j) at every x, so c(n) takes n^j once a step
    terms = [(j, [c * a**j * b ** (k - j) for a, b in points]) for j, c in enumerate(C, 1) if c]

    def c(n):
        values = U
        for j, Cj in terms:
            values = list(map(add, values, map(mul, Cj, repeat(n**j))))
        return values

    bs = [b for _, b in points]
    W, D = [-Ax[0] * b for Ax, b in zip(A, bs)], [b**k for b in bs]  # at N = 1
    for N, F, L in islice(factorial_series(c, points), n_max):
        T = list(map(mul, F, map(horner, A, repeat(N))))
        yield N, L, list(map(add, W, T)), T, D  # W = V(x) b^(k-1) b^N
        W, D = list(map(mul, W, bs)), list(map(mul, D, bs))


def identity_checks(k: int, x: Rational, n_max: int,
                    C: tuple[int, ...] | None = None) -> Iterator[IdentityCheck]:
    """The checks of scaled_checks at x, each value over D_N: ints for an integer x,
    where D_N = 1, and Fractions, which only then load `fractions`, for any other."""
    a, b = ratio(x)
    if b != 1:
        from fractions import Fraction
        x = Fraction(a, b)
    for N, (L,), (R,), (T,), (D,) in scaled_checks(k, [(a, b)], n_max, C):
        yield IdentityCheck(k, N, a, L, R, T) if D == 1 else IdentityCheck(
            k, N, x, Fraction(L, D), Fraction(R, D), Fraction(T, D))


def verify_identity(k: int, N: int, x: Rational) -> IdentityCheck:
    """Both sides of the finite identity at (k, N, x), evaluated exactly; they differ only
    through a bug, since the identity holds for every rational x."""
    *_, check = identity_checks(k, x, N)
    return check


def _integer(x: Rational, nonzero: bool = False) -> int:
    """x as an int; ValueError unless it is an integer, and a nonzero one if asked."""
    x = _rational(x)
    if x.denominator != 1 or (nonzero and x == 0):
        raise ValueError(f"x must be {'a nonzero' if nonzero else 'an'} integer")
    return x.numerator


def bound_table(Ns: Iterable[int], points: list[tuple[int, int]],
                primes: tuple[Prime, ...]) -> list[list]:
    """Per N of Ns, per x = a/b of points: the bounds v_p(N!) + N v_p(x) at each prime for a
    nonzero integer x, else a false value; each v_p(N!) and v_p(x) is taken once."""
    vs = [b == 1 and a and list(map(vp, repeat(a), primes)) for a, b in points]
    table = []
    for N in Ns:
        fs = list(map(factorial_norm_exponent, repeat(N), primes))
        table.append([v and tuple(map(add, fs, map(mul, v, repeat(N)))) for v in vs])
    return table


# the one certificate path, as the CLI calls it: a SumCertificate at the fields of a check,
# its bounds the (N, x) entry of a bound_table
certify = SumCertificate


def certificate_from_check(check: IdentityCheck, primes: tuple[Prime, ...]) -> SumCertificate:
    """certify at an identity check's lhs, target and tail; x must be a nonzero integer."""
    bounds = bound_table((check.N,), [(_integer(check.x, nonzero=True), 1)], primes)[0][0]
    return certify(check.k, check.N, check.x, primes, check.lhs, check.target, check.tail, bounds)


def invariant_sum(k: int, x: Rational, C: tuple[int, ...] | None = None) -> Fraction:
    """The common p-adic value V_k(x) of the infinite series, for integer x;
    with C, sum_j C_j V_j(x), that of the combination, k = len(C)."""
    from fractions import Fraction
    return Fraction(-telescope_combo(_combo(k, C), _integer(x))[1][0])


def truncated_padic_sum(k: int, x: Rational, p: Prime, N: int) -> SumCertificate:
    """Certificate at the one prime p that the N-term partial sum is p-adically close to V_k(x)."""
    return truncated_combo_sum(unit_combo(k), x, p, N)


def truncated_combo_sum(C: tuple[int, ...], x: Rational, p: Prime, N: int) -> SumCertificate:
    """Certificate that the N-term partial sum of the Theorem-2 combination
    sum_n n! sum_j C_j [n^j x^j + U_j(x)] x^n, j = 1..k = len(C), is
    p-adically close to sum_j C_j V_j(x), from one telescope of
    P = sum_j C_j x^j n^j."""
    *_, check = identity_checks(len(C), _integer(x, nonzero=True), N, C)  # x checked first
    return certificate_from_check(check, (p,))
