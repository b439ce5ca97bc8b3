"""Exact p-adic valuations, norms, digit expansions and the convergence test.

Everything here works on plain ints and fractions.Fraction; all results are
exact.  The valuation of 0 is represented by an explicit infinite value
(ValExponent) rather than a sentinel integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed base set).

    The base set {2,3,5,7,11,13,17,19,23,29,31,37} is known to be
    deterministic for all n < 3.317e24, far beyond anything this library
    handles.  Larger inputs are rejected.
    """
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError("primality test only deterministic below 3.3e24")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A verified prime p >= 2; construction of a composite raises."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __int__(self) -> int:
        return self.p


@total_ordering
@dataclass(frozen=True)
class ValExponent:
    """A valuation exponent: a finite integer or +infinity (for v_p(0))."""

    finite: bool
    value: int = 0

    def __post_init__(self):
        if not self.finite and self.value != 0:
            raise ValueError("infinite exponent carries no value")

    @classmethod
    def of(cls, value: int) -> "ValExponent":
        return cls(True, value)

    @classmethod
    def infinite(cls) -> "ValExponent":
        return cls(False)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = ValExponent.of(other)
        if not isinstance(other, ValExponent):
            return NotImplemented
        return (self.finite, self.value if self.finite else 0) == (
            other.finite,
            other.value if other.finite else 0,
        )

    def __lt__(self, other) -> bool:
        if isinstance(other, int):
            other = ValExponent.of(other)
        if not self.finite:
            return False
        if not other.finite:
            return True
        return self.value < other.value

    def __hash__(self):
        return hash((self.finite, self.value))

    def __str__(self) -> str:
        return str(self.value) if self.finite else "inf"


def digit_sum(n: int, p: Prime) -> int:
    """Sum of base-p digits of n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pp = int(p)
    s = 0
    while n:
        n, d = divmod(n, pp)
        s += d
    return s


def factorial_norm_exponent(n: int, p: Prime) -> int:
    """Exponent e with |n!|_p = p^(-e), i.e. (n - s_n)/(p - 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n - digit_sum(n, p)) // (int(p) - 1)


def _int_valuation(n: int, pp: int) -> int:
    # n != 0
    v = 0
    n = abs(n)
    while n % pp == 0:
        n //= pp
        v += 1
    return v


def vp(q: Fraction | int, p: Prime) -> ValExponent:
    """p-adic valuation of a rational; v_p(0) is infinite."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if q == 0:
        return ValExponent.infinite()
    pp = int(p)
    return ValExponent.of(_int_valuation(q.numerator, pp) - _int_valuation(q.denominator, pp))


def in_convergence_domain(x: Fraction | int, p: Prime) -> bool:
    """True iff |x|_p <= 1, i.e. x lies in Z_p."""
    return vp(x, p) >= 0


def padic_distance_exponent(a: Fraction | int, b: Fraction | int, p: Prime) -> ValExponent:
    """v_p(a - b); infinite iff a = b."""
    return vp(Fraction(a) - Fraction(b), p)


@dataclass(frozen=True)
class PadicExpansion:
    """Canonical truncated p-adic expansion: p^valuation * sum(digits[i] p^i).

    digits[0] is nonzero unless the value is 0; len(digits) == precision.
    """

    p: Prime
    valuation: int
    digits: tuple[int, ...]
    precision: int

    def __post_init__(self):
        pp = int(self.p)
        if len(self.digits) != self.precision:
            raise ValueError("digit count must equal precision")
        if any(d < 0 or d >= pp for d in self.digits):
            raise ValueError("digits out of range")
        if any(self.digits) and self.digits[0] == 0:
            raise ValueError("not canonical: unit part must start with a nonzero digit")

    @property
    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    def truncated_value(self) -> Fraction:
        """The rational p^valuation * sum(d_i p^i) represented by the digits."""
        pp = int(self.p)
        acc = 0
        for d in reversed(self.digits):
            acc = acc * pp + d
        return Fraction(pp) ** self.valuation * acc

    def __str__(self) -> str:
        body = ",".join(str(d) for d in self.digits)
        return f"({body})*{int(self.p)}^{self.valuation}"


def padic_expand(q: Fraction | int, p: Prime, precision: int) -> PadicExpansion:
    """Canonical digits of a rational with finite valuation.

    For q != 0 the unit part u = q / p^v has a denominator coprime to p, so
    its residue mod p^precision is well defined; negative rationals get the
    standard eventually periodic expansion, truncated.
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    q = Fraction(q)
    pp = int(p)
    if q == 0:
        return PadicExpansion(p, 0, (0,) * precision, precision)
    v = vp(q, p).value
    unit = q / Fraction(pp) ** v
    modulus = pp**precision
    num = unit.numerator % modulus
    den_inv = pow(unit.denominator, -1, modulus)
    t = num * den_inv % modulus
    digits = []
    for _ in range(precision):
        t, d = divmod(t, pp)
        digits.append(d)
    return PadicExpansion(p, v, tuple(digits), precision)
