"""Construction of the summation polynomial families A_k(n; x), U_k(x), V_k(x).

Two independent construction paths are provided and used as mutual oracles:
the A-family route (U_k = x*A_{k-1}(1;x) - A_{k-1}(0;x), V_k = -A_{k-1}(0;x))
and the direct U/V recurrences.  All recurrences are solved by isolating the
top term, whose binomial coefficient is 1, so everything stays in integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock

from .poly import BivarPoly, Poly, binomial, int_poly


def compute_A_family(
    kmax: int, start: list[BivarPoly] | None = None
) -> list[BivarPoly]:
    """A_0 .. A_kmax, where A_0 = 1 and

    A_k(n;x) = n^k x^k + A_{k-1}(n;x)
               - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) A_{l-1}(n;x).

    Given start = [A_0 .. A_j], only A_{j+1} .. A_kmax are built; start itself
    is not changed.  Each new A_k is verified against its defining relation
    before being returned.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    family = list(start) if start else [BivarPoly.const(1)]
    for k in range(len(family), kmax + 1):
        nk_xk = BivarPoly.make(
            [Poly.make([], "n")] * k + [Poly.monomial(k, 1, "n")]
        )
        acc = nk_xk + family[k - 1]
        for l in range(1, k + 1):
            term = family[l - 1].scale(binomial(k + 1, l)).shift_x(k - l + 1)
            acc = acc - term
        _check_A_shape(acc, k)
        assert family_residual(family + [acc], k).is_zero
        family.append(acc)
    return family[: kmax + 1]


def _check_A_shape(A: BivarPoly, k: int) -> None:
    # layer l must be monic of degree exactly l in n; layer 0 must be 1
    assert A.degree_x == k, f"A_{k} has x-degree {A.degree_x}"
    assert A.layer(0) == Poly.const(1, "n"), f"A_{k} constant layer != 1"
    for l in range(k + 1):
        lay = A.layer(l)
        assert lay.degree == l and lay.leading() == 1, (
            f"A_{k} layer {l} not monic of degree {l}"
        )


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


def compute_U(k: int, A: list[BivarPoly]) -> Poly:
    """U_k(x) = x*A_{k-1}(1; x) - A_{k-1}(0; x)."""
    if k < 1:
        raise ValueError("k must be positive")
    Akm1 = A[k - 1]
    return Akm1.eval_n(1).shift(1) - Akm1.eval_n(0)


def compute_V(k: int, A: list[BivarPoly]) -> Poly:
    """V_k(x) = -A_{k-1}(0; x)."""
    if k < 1:
        raise ValueError("k must be positive")
    return -A[k - 1].eval_n(0)


def compute_U_by_recurrence(kmax: int) -> list[Poly]:
    """U_1 .. U_kmax from the direct recurrence

    U_{k+1}(x) = x^(k+1) + U_k(x) - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) U_l(x),

    starting from U_1 = x - 1.  Index 0 of the result holds U_1.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    us = [int_poly([-1, 1])]
    for k in range(1, kmax):
        acc = Poly.monomial(k + 1) + us[k - 1]
        for l in range(1, k + 1):
            acc = acc - us[l - 1].scale(binomial(k + 1, l)).shift(k - l + 1)
        us.append(acc)
    return us


def compute_V_by_recurrence(kmax: int) -> list[Poly]:
    """V_1 .. V_kmax from V_{k+1}(x) = V_k(x) - sum_{l=1}^{k} C(k+1,l) x^(k-l+1) V_l(x),

    starting from V_1 = -1.  Index 0 of the result holds V_1.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    vs = [int_poly([-1])]
    for k in range(1, kmax):
        acc = vs[k - 1]
        for l in range(1, k + 1):
            acc = acc - vs[l - 1].scale(binomial(k + 1, l)).shift(k - l + 1)
        vs.append(acc)
    return vs


@dataclass(frozen=True)
class SummationTriple:
    """The triple (U_k, V_k, A_{k-1}) for one degree k."""

    k: int
    U: Poly
    V: Poly
    A: BivarPoly

    def __post_init__(self):
        k = self.k
        assert k >= 1
        # structural checks from the family's five properties; V_k inherits
        # degree k-1 from A_{k-1}(0; x), with leading coefficient (-1)^k * k
        assert self.U.degree == k, f"deg U_{k} = {self.U.degree}"
        assert self.V.degree == k - 1, f"deg V_{k} = {self.V.degree}"
        assert self.A.degree_x == k - 1
        assert self.U.coeff(0) == -1, "U constant term must be -1"
        assert self.V.coeff(0) == -1, "V constant term must be -1"
        assert self.U.leading() == (-1) ** (k + 1), "U leading coefficient"
        assert self.V.leading() == (-1) ** k * k, "V leading coefficient"
        assert self.A.layer(0) == Poly.const(1, "n")
        for l in range(k):
            lay = self.A.layer(l)
            assert lay.degree == l and lay.leading() == 1


class TripleFamily:
    """Incremental, cached construction of A/U/V triples.

    `ensure` extends the A-family from its current length, so each A_k is
    built and checked once per family; `triple` assembles and checks each
    SummationTriple once and then returns the same object.  Construction
    is sequential in k (each A_k depends on all earlier ones); once built,
    the immutable lists and triples may be read concurrently.
    """

    def __init__(self):
        self._A: list[BivarPoly] = [BivarPoly.const(1)]
        self._triples: dict[int, SummationTriple] = {}
        self._lock = Lock()

    def ensure(self, kmax: int) -> None:
        with self._lock:
            if len(self._A) <= kmax:
                self._A = compute_A_family(kmax, self._A)

    def A(self, k: int) -> BivarPoly:
        """A_k(n; x)."""
        self.ensure(k)
        return self._A[k]

    def triple(self, k: int) -> SummationTriple:
        """(U_k, V_k, A_{k-1}), assembled with all structural invariants
        checked on the first call for k; the library reads U_k and V_k only
        from here."""
        if k < 1:
            raise ValueError("k must be positive")
        trip = self._triples.get(k)
        if trip is None:
            self.ensure(k - 1)
            A = self._A
            trip = SummationTriple(k, compute_U(k, A), compute_V(k, A), A[k - 1])
            trip = self._triples.setdefault(k, trip)
        return trip


_shared = TripleFamily()


def build_triple(k: int) -> SummationTriple:
    """Module-level cached triple construction."""
    return _shared.triple(k)


def shared_family() -> TripleFamily:
    return _shared
