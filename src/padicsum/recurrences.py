"""Construction of the summation triples (U_k(x), V_k(x), A_{k-1}(n; x)).

The finite identity sum_{n<N} n! [n^k x^k + U_k(x)] x^n = V_k(x) +
N! x^N A_{k-1}(N; x) telescopes: it holds for every N exactly when

    (n+1) x A_{k-1}(n+1; x) - A_{k-1}(n; x) = n^k x^k + U_k(x),

whose polynomial solution A_{k-1} in n is unique (the polynomial-solution
step of Gosper's algorithm).  `solve_triple` solves it for one k in integer
arithmetic; `compute_A_family` is the slow reference route, the paper's
recurrence over the whole A-family, kept for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import BivarPoly, Poly, binomial, int_poly


def compute_A_family(kmax: int) -> list[BivarPoly]:
    """A_0 .. A_kmax, where A_0 = 1 and

    A_k(n;x) = n^k x^k + A_{k-1}(n;x)
               - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) A_{l-1}(n;x).
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    family = [BivarPoly.const(1)]
    for k in range(1, kmax + 1):
        nk_xk = BivarPoly.make(
            [Poly.make([], "n")] * k + [Poly.monomial(k, 1, "n")]
        )
        acc = nk_xk + family[k - 1]
        for l in range(1, k + 1):
            term = family[l - 1].scale(binomial(k + 1, l)).shift_x(k - l + 1)
            acc = acc - term
        family.append(acc)
    return family


def family_residual(family: list[BivarPoly], k: int) -> BivarPoly:
    """Residual of the defining relation at index k:

    sum_{l=1}^{k+1} C(k+1,l) x^(k-l+1) A_{l-1}(n;x) - A_{k-1}(n;x) - n^k x^k.

    Zero for a correctly constructed family.
    """
    acc = BivarPoly.make([])
    for l in range(1, k + 2):
        acc = acc + family[l - 1].scale(binomial(k + 1, l)).shift_x(k - l + 1)
    acc = acc - family[k - 1]
    nk_xk = BivarPoly.make([Poly.make([], "n")] * k + [Poly.monomial(k, 1, "n")])
    return acc - nk_xk


@dataclass(frozen=True)
class SummationTriple:
    """The triple (U_k, V_k, A_{k-1}) for one degree k."""

    k: int
    U: Poly
    V: Poly
    A: BivarPoly


def solve_triple(k: int) -> SummationTriple:
    """(U_k, V_k, A_{k-1}) from the telescoping equation.

    With A_{k-1} = sum_{m<k} a_m(x) n^m, comparing the n^m coefficients gives,
    from the top down, a_{k-1} = x^(k-1) and, for m = k-1 .. 1,

        a_{m-1} = a_m / x - sum_{j=m}^{k-1} C(j+1, m) a_j;

    the n^0 coefficient then gives U_k = x A_{k-1}(1; x) - A_{k-1}(0; x),
    and V_k = -A_{k-1}(0; x).  a_m has no x-power below x^m, so dividing by
    x is an exact shift and every coefficient stays an integer.
    """
    if k < 1:
        raise ValueError("k must be positive")
    # a[m][i]: coefficient of n^m x^i, zero unless m <= i < k
    a = [[0] * k for _ in range(k)]
    a[k - 1][k - 1] = 1
    for m in range(k - 1, 0, -1):
        row = a[m - 1]
        row[m - 1 : k - 1] = a[m][m:]
        for j in range(m, k):
            c, aj = binomial(j + 1, m), a[j]
            for i in range(j, k):
                row[i] -= c * aj[i]
    at0, at1 = a[0], [sum(col) for col in zip(*a)]
    U = int_poly([-at0[0]] + [s - c for s, c in zip(at1, at0[1:] + [0])])
    V = int_poly([-c for c in at0])
    A = BivarPoly.make([[a[m][l] for m in range(l + 1)] for l in range(k)])
    return SummationTriple(k, U, V, A)


class TripleFamily:
    """Memo of solved triples: `triple(k)` solves k once and then returns
    the same object."""

    def __init__(self):
        self._triples: dict[int, SummationTriple] = {}

    def triple(self, k: int) -> SummationTriple:
        """(U_k, V_k, A_{k-1}); the library reads U_k and V_k only from here."""
        trip = self._triples.get(k)
        if trip is None:
            trip = self._triples.setdefault(k, solve_triple(k))
        return trip


_shared = TripleFamily()


def build_triple(k: int) -> SummationTriple:
    """Module-level memoised triple."""
    return _shared.triple(k)
