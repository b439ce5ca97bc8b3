"""Construction of the summation triples (U_k(x), V_k(x), A_{k-1}(n; x)).

The finite identity sum_{n<N} n! [n^k x^k + U_k(x)] x^n = V_k(x) +
N! x^N A_{k-1}(N; x) telescopes: it holds for every N exactly when

    (n+1) x A_{k-1}(n+1; x) - A_{k-1}(n; x) = n^k x^k + U_k(x),

whose polynomial solution A_{k-1} in n is unique (the polynomial-solution
step of Gosper's algorithm).  `telescope` solves it for any P(n) at one
point x, as every numeric path does; `iter_triples` streams the triples in x,
each by `_step` from the one before, and `TripleFamily` keeps those asked for.
`compute_A_family` is the reference route, the paper's recurrence over the
whole A-family on integer coefficient rows; no command runs it, and the tests
hold the stepped triples to it.
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


def _step(trip: SummationTriple) -> SummationTriple:
    """Triple k+1 from triple k in O(k^2) integer steps: A_k = x (n - k) A_{k-1}
    + x^2 dA_{k-1}/dx - U_k, U_{k+1} = (1 - (k+1) x) U_k + x^2 dU_k/dx and V_{k+1}
    = -A_k(0; x).  Putting in the equation for A_{k-1} and x^2 times its
    x-derivative shows that A_k solves it at k+1, and its solution is unique."""
    k, U = trip.k, trip.U
    A = [(1,)]  # layer i: (n - (k+1-i)) times layer i-1 of A_{k-1}, less U_{k,i}
    for i, lay in enumerate(trip.A.layers, 1):
        row = [a - (k + 1 - i) * b for a, b in zip((0,) + lay, lay + (0,))]
        row[0] -= U[i]
        A.append(row)
    U = tuple(a - (k + 2 - j) * b for j, (a, b) in enumerate(zip(U + (0,), (0,) + U)))
    return SummationTriple(k + 1, U, _trim(-lay[0] for lay in A), BivarPoly.make(A))


_ZERO = SummationTriple(0, (-1,), (), BivarPoly(()))  # U_0 = -1, V_0 = A_{-1} = 0


def iter_triples(kmax, trip=_ZERO):
    """Triples trip.k + 1 .. kmax in order, each by `_step` from the one before; only
    the current one is held."""
    while trip.k < kmax:
        trip = _step(trip)
        yield trip


class TripleFamily:
    """Memo of the triples asked for, each stepped up from the largest k it holds."""

    def __init__(self):
        self._triples = {0: _ZERO}

    def triple(self, k: int) -> SummationTriple:
        """(U_k, V_k, A_{k-1}) as polynomials in x, for the Bernoulli image; `triples`
        streams them, and the numeric paths solve at their point by `telescope`."""
        if k < 1:
            raise ValueError("k must be positive")
        if k not in self._triples:
            for trip in iter_triples(k, self._triples[max(j for j in self._triples if j < k)]):
                pass
            self._triples[k] = trip
        return self._triples[k]


_shared = TripleFamily()


def build_triple(k: int) -> SummationTriple:
    """Module-level memoised triple."""
    return _shared.triple(k)
