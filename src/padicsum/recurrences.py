"""Construction of the summation triples (U_k(x), V_k(x), A_{k-1}(n; x)).

The finite identity sum_{n<N} n! [n^k x^k + U_k(x)] x^n = V_k(x) +
N! x^N A_{k-1}(N; x) telescopes: it holds for every N exactly when

    (n+1) x A_{k-1}(n+1; x) - A_{k-1}(n; x) = n^k x^k + U_k(x),

whose polynomial solution A_{k-1} in n is unique (the polynomial-solution
step of Gosper's algorithm).  `telescope` solves it for any P(n) at one
point x, as every numeric path does; `solve_triple` in polynomials in x.
`compute_A_family` is the reference route, the paper's recurrence over the
whole A-family on integer coefficient rows; no command runs it, and the tests
hold `solve_triple` to it.
"""

from __future__ import annotations

from itertools import repeat, zip_longest
from math import comb
from operator import mul

from .padic import _Record
from .poly import BivarPoly, _trim


def _recurrence_rows(A: list[list[list[int]]], k: int) -> list[list[int]]:
    """n^k x^k + A_{k-1} - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) A_{l-1} from the
    rows of A_0 .. A_{k-1}, where rows[i][m] is the coefficient of x^i n^m."""
    terms = [(1, k, [[0] * k + [1]]), (1, 0, A[k - 1])]
    terms += [(-comb(k + 1, l), k - l + 1, A[l - 1]) for l in range(1, k + 1)]
    width = max(len(row) for _, _, P in terms for row in P)
    rows = [[0] * width for _ in range(max(s + len(P) for _, s, P in terms))]
    for c, s, P in terms:
        for row, P_row in zip(rows[s:], P):
            for m, v in enumerate(P_row):
                row[m] += c * v
    return rows


def compute_A_family(kmax: int) -> list[BivarPoly]:
    """A_0 .. A_kmax, where A_0 = 1 and

    A_k(n;x) = n^k x^k + A_{k-1}(n;x)
               - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) A_{l-1}(n;x).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    family = [[[1]]]
    for k in range(1, kmax + 1):
        family.append(_recurrence_rows(family, k))
    return [BivarPoly.make(A) for A in family]


def family_residual(family: list[BivarPoly], k: int) -> BivarPoly:
    """Residual of the defining relation at index k:

    sum_{l=1}^{k+1} C(k+1,l) x^(k-l+1) A_{l-1}(n;x) - A_{k-1}(n;x) - n^k x^k,

    that is A_k minus the recurrence's right-hand side.  Zero for a correctly
    constructed family.  Defined for 1 <= k < len(family): A_0 = 1 is the base.
    """
    if not 1 <= k < len(family):
        raise ValueError(f"k = {k} is outside 1..{len(family) - 1}")
    A = [P.layers for P in family[: k + 1]]
    rhs = _recurrence_rows(A, k)
    return BivarPoly.make([[a - b for a, b in zip_longest(Ak_row, rhs_row, fillvalue=0)]
                           for Ak_row, rhs_row in zip_longest(A[k], rhs, fillvalue=[])])


class SummationTriple(_Record):
    """The triple (U_k, V_k, A_{k-1}) for one degree k."""

    def __init__(self, k: int, U: tuple[int, ...], V: tuple[int, ...], A: BivarPoly):
        self.__dict__.update(k=k, U=U, V=V, A=A)


def telescope(P: list[int], a: int, b: int = 1) -> tuple[int, list[int]]:
    """u and the polynomial A solving (n+1) x A(n+1) - A(n) = P(n) - u at
    x = a/b != 0, so that sum_{n<N} n! (P(n) - u) x^n = -A(0) + N! x^N A(N),
    in O(d^2) integer operations, d = deg P: a_{d-1} = p_d / x, then
    a_{m-1} = (p_m + a_m) / x - sum_{j=m}^{d-1} C(j+1, m) a_j for m = d-1 .. 1
    and u = p_0 - (x A(1) - A(0)), from the n^m coefficients.  P lists s b p_0,
    .., s b p_d for a scale s that makes every division by a exact: s = b^(d-1)
    for P = sum_j C_j x^j n^j with integer C_j (a_m has no x-power below x^m),
    s = a^d for any integer P.  Returns s b u and s a_0, .., s a_{d-1}.
    """
    d = len(P) - 1
    A = [0] * (d + 1)  # A[d] = 0 starts the recurrence
    for m in range(d, 0, -1):
        q, r = divmod(P[m] + b * A[m], a)
        if r:
            raise ValueError("the scale of P leaves a division by a inexact")
        # sum_{j=m}^{d-1} C(j+1, m) a_j
        A[m - 1] = q - sum(map(mul, map(comb, range(m + 1, d + 1), repeat(m)), A[m:d]))
    return P[0] - a * sum(A) + b * A[0], A[:d]


def telescope_combo(C: tuple[int, ...], a: int, b: int = 1) -> tuple[int, list[int]]:
    """U(x) b^k and the coefficients in n of A(n; x) b^(k-1), x = a/b, for the
    Theorem-2 combination C = (C_1, .., C_k): U = sum_j C_j U_j, A = sum_j C_j
    A_{j-1}, V = sum_j C_j V_j = -A(0), from one telescope of sum_j C_j x^j n^j.
    At x = 0, which leaves A open, it takes U_j(0) = -1 and A_{j-1}(n; 0) = 1."""
    k = len(C)
    if k < 1:
        raise ValueError("need k = len(C) >= 1")
    if a == 0:
        return -sum(C), [sum(C)]
    u, A = telescope([0] + [c * a**j * b ** (k - j) for j, c in enumerate(C, 1)], a, b)
    return -u, A


def unit_combo(k: int) -> tuple[int, ...]:
    """(0, .., 0, 1), the combination of n^k x^k + U_k(x) alone; () for k < 1."""
    return tuple(int(j == k) for j in range(1, k + 1))


def solve_triple(k: int) -> SummationTriple:
    """(U_k, V_k, A_{k-1}), the solve of `telescope` for P = n^k x^k in
    polynomials in x: U_k = -u, V_k = -A_{k-1}(0; x).  a_m has no x-power
    below x^m, so dividing by x is an exact shift of integer lists."""
    if k < 1:
        raise ValueError("k must be positive")
    # a[m][i]: coefficient of n^m x^i, zero unless m <= i < k
    a = [[0] * k for _ in range(k)]
    a[k - 1][k - 1] = 1
    for m in range(k - 1, 0, -1):
        row = a[m - 1]
        row[m - 1 : k - 1] = a[m][m:]
        for j in range(m, k):
            c, aj = comb(j + 1, m), a[j]
            for i in range(j, k):
                row[i] -= c * aj[i]
    at0, at1 = a[0], [sum(col) for col in zip(*a)]
    U = _trim([-at0[0]] + [s - c for s, c in zip(at1, at0[1:] + [0])])
    V = _trim(-c for c in at0)
    A = BivarPoly.make([[a[m][l] for m in range(l + 1)] for l in range(k)])
    return SummationTriple(k, U, V, A)


class TripleFamily:
    """Memo of solved triples: `triple(k)` solves k once and then returns
    the same object."""

    def __init__(self):
        self._triples: dict[int, SummationTriple] = {}

    def triple(self, k: int) -> SummationTriple:
        """(U_k, V_k, A_{k-1}) as polynomials in x, for `triples` and the
        Bernoulli image; the numeric paths solve at their point by `telescope`."""
        trip = self._triples.get(k)
        if trip is None:
            trip = self._triples.setdefault(k, solve_triple(k))
        return trip


_shared = TripleFamily()


def build_triple(k: int) -> SummationTriple:
    """Module-level memoised triple."""
    return _shared.triple(k)
