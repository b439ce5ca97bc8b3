"""Slow reference routes that the tests hold the library to.

They take paths the library does not: U_k and V_k from the whole A-family
or from their own recurrences, and each triple solved from scratch
(`solve_triple`), in polynomial arithmetic of their own on coefficient
tuples (`lin`), Bell numbers from their recurrence, left factorials as one
factorial-series sum each, the Kurepa gcd scan from bigint gcds of !n and
n!, and Bernoulli numbers from their defining recurrence.  `partial_sum_Sk`,
which only tests call, is S_k(N; x) as one factorial-series sum; the tests
hold it to a term-by-term sum.
"""

import math
from fractions import Fraction
from itertools import islice

from padicsum import BivarPoly, KurepaReport, SummationTriple, factorial_series
from padicsum.padic import ratio


def lin(*terms) -> tuple:
    """sum of c * var^s * P over the terms (c, s, P), P coefficient sequences
    of polynomials in one var, as a tuple without trailing zeros."""
    coeffs = []
    for c, s, P in terms:
        coeffs += [0] * (s + len(P) - len(coeffs))
        for i, a in enumerate(P, s):
            coeffs[i] += c * a
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def compute_U(k: int, A: list[BivarPoly]) -> tuple:
    """U_k(x) = x*A_{k-1}(1; x) - A_{k-1}(0; x)."""
    if k < 1:
        raise ValueError("k must be positive")
    Akm1 = A[k - 1]
    return lin((1, 1, Akm1.eval_n(1)), (-1, 0, Akm1.eval_n(0)))


def compute_V(k: int, A: list[BivarPoly]) -> tuple:
    """V_k(x) = -A_{k-1}(0; x)."""
    if k < 1:
        raise ValueError("k must be positive")
    return lin((-1, 0, A[k - 1].eval_n(0)))


def compute_U_by_recurrence(kmax: int) -> list[tuple]:
    """U_1 .. U_kmax from the direct recurrence

    U_{k+1}(x) = x^(k+1) + U_k(x) - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) U_l(x),

    starting from U_1 = x - 1.  Index 0 of the result holds U_1.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    us = [(-1, 1)]
    for k in range(1, kmax):
        us.append(lin((1, k + 1, (1,)), (1, 0, us[k - 1]),
                      *((-math.comb(k + 1, l), k - l + 1, us[l - 1]) for l in range(1, k + 1))))
    return us


def compute_V_by_recurrence(kmax: int) -> list[tuple]:
    """V_1 .. V_kmax from V_{k+1}(x) = V_k(x) - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) V_l(x),

    starting from V_1 = -1.  Index 0 of the result holds V_1.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    vs = [(-1,)]
    for k in range(1, kmax):
        vs.append(lin((1, 0, vs[k - 1]),
                      *((-math.comb(k + 1, l), k - l + 1, vs[l - 1]) for l in range(1, k + 1))))
    return vs


def solve_triple(k: int) -> SummationTriple:
    """(U_k, V_k, A_{k-1}) from the telescoping equation (n+1) x A(n+1) - A(n) =
    n^k x^k + U_k(x) alone, in O(k^3) steps: the n^m coefficients a_m of A, from
    m = k-1 down, are a_{m-1} = a_m / x - sum_{j=m}^{k-1} C(j+1, m) a_j with
    a_{k-1} = x^(k-1); then U_k = x A(1) - A(0) and V_k = -A(0).  a_m has no
    x-power below x^m, so dividing by x is an exact shift of integer lists."""
    if k < 1:
        raise ValueError("k must be positive")
    # a[m][i]: coefficient of n^m x^i, zero unless m <= i < k
    a = [[0] * k for _ in range(k)]
    a[k - 1][k - 1] = 1
    for m in range(k - 1, 0, -1):
        row = a[m - 1]
        row[m - 1 : k - 1] = a[m][m:]
        for j in range(m, k):
            c, aj = math.comb(j + 1, m), a[j]
            for i in range(j, k):
                row[i] -= c * aj[i]
    at0, at1 = a[0], [sum(col) for col in zip(*a)]
    U = lin((1, 1, at1), (-1, 0, at0))
    A = BivarPoly.make([[a[m][l] for m in range(l + 1)] for l in range(k)])
    return SummationTriple(k, U, lin((-1, 0, at0)), A)


def partial_sum_Sk(k: int, N: int, x) -> Fraction:
    """Exact S_k(N; x) = sum_{n=0}^{N-1} n! n^k x^n, with 0^0 = 1, from the library's
    factorial_series at x = a/b; a float x is refused, as the library refuses it."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a, b = ratio(x)
    _, _, (S,) = next(islice(factorial_series(lambda n: [n**k], [(a, b)]), N - 1, None))
    return Fraction(S, b ** (N - 1))


def bell_numbers(nmax: int) -> list[int]:
    """Bell numbers B(0..nmax) via B(n+1) = sum_i C(n,i) B(i); independent
    oracle for the -U_k(-1) sequence."""
    bells = [1]
    for n in range(nmax):
        bells.append(sum(math.comb(n, i) * bells[i] for i in range(n + 1)))
    return bells


def left_factorial(n: int) -> int:
    """!n = sum_{j=0}^{n-1} j!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    _, _, (total,) = next(islice(factorial_series(lambda j: [1]), n - 1, None))
    return total


def kurepa_gcd_scan_bigint(nmax: int) -> KurepaReport:
    """Check gcd(!n, n!) = 2 for 2 <= n <= nmax, with incremental !n and n!."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    first_failure = None
    ok_up_to = 1
    # (n, n!, !n) for n = 2..nmax
    for n, (fact,), (lf,) in islice(factorial_series(lambda j: [1]), 1, nmax):
        if math.gcd(lf, fact) != 2:
            first_failure = n
            break
        ok_up_to = n
    return KurepaReport(nmax, ok_up_to, 0, first_failure)


def bernoulli_by_recurrence(nmax: int) -> tuple[Fraction, ...]:
    """B_0..B_nmax via the defining recurrence sum_{j<n} C(n,j) B_j = 0;
    index n holds B_n."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    B = [Fraction(1)]
    for m in range(1, nmax + 1):
        # isolate B_m in sum_{j=0}^{m} C(m+1, j) B_j = 0
        acc = sum(math.comb(m + 1, j) * B[j] for j in range(m))
        B.append(Fraction(-acc, m + 1))
    return tuple(B)
