"""Exact p-adic valuations, norms, digit expansions and the convergence test.

Everything here works on plain ints and fractions.Fraction; all results are
exact.  A valuation is an int; v_p(0) = +infinity is None, not a sentinel
int, so a comparison that forgets the case raises instead of passing.
"""

from __future__ import annotations

import os
from fractions import Fraction


class _Record:
    """Base of the immutable value classes.

    The fields are the parameters of the subclass's `__init__`, which stores
    them, and any value it derives from them, in one `self.__dict__.update`
    call.  Equality, hash and repr go by the fields alone, and
    assigning or deleting an attribute raises AttributeError.  These are
    plain classes, not dataclasses: importing `dataclasses` (and with it
    `inspect`) and generating its methods took a third of the time to
    import the CLI.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# the trial divisors, and the Miller-Rabin bases in this order
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_t, t): psi_t is the least strong pseudoprime to all of the first t
# primes as bases, so those t bases decide every n < psi_t (Jaeschke, Math.
# Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017, for t = 12, 13)
_MILLER_RABIN_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def work_limit() -> int:
    """PADICSUM_WORK_LIMIT (default 10^9), the largest cost a guarded call takes on."""
    return int(os.environ.get("PADICSUM_WORK_LIMIT", 10**9))


def _int(n) -> int:
    """n itself; TypeError unless it is an int, so a float such as 7.0 is refused."""
    if not isinstance(n, int):
        raise TypeError(f"{type(n).__name__} {n!r} is not an int")
    return n


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24; larger n raise ValueError.

    Trial division by the primes up to 41 decides every n < 43^2; above
    that, Miller-Rabin runs only as many of those primes as bases as are
    proven to decide n's size class (_MILLER_RABIN_TIERS): one below 2,047,
    two below 1,373,653, all thirteen at the top.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 1_849:
        return True
    for bound, t in _MILLER_RABIN_TIERS:
        if n < bound:
            break
    else:
        raise ValueError("primality test only deterministic below 3.3e24")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES[:t]:
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


class Prime(_Record):
    """A verified prime p >= 2; construction of a composite raises."""

    def __init__(self, p: int):
        if not is_prime(_int(p)):
            raise ValueError(f"{p} is not prime")
        self.__dict__.update(p=p)

    def __int__(self) -> int:
        return self.p


def digit_sum(n: int, p: Prime) -> int:
    """Sum of base-p digits of n >= 0."""
    if _int(n) < 0:
        raise ValueError("n must be nonnegative")
    pp = int(p)
    s = 0
    while n:
        n, d = divmod(n, pp)
        s += d
    return s


def factorial_norm_exponent(n: int, p: Prime) -> int:
    """Exponent e with |n!|_p = p^(-e), i.e. (n - s_n)/(p - 1); digit_sum checks n."""
    return (n - digit_sum(n, p)) // (int(p) - 1)


def _int_valuation(n: int, pp: int) -> int:
    # n != 0; n & -n is the lowest set bit of n, also for n < 0
    if pp == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % pp == 0:
        n //= pp
        v += 1
    return v


def _rational(q) -> Fraction | int:
    """An int or a Fraction as it is, a float refused, anything else through Fraction."""
    if isinstance(q, float):
        raise TypeError(f"float {q!r} is inexact: pass an int, a Fraction or a string")
    return q if isinstance(q, (int, Fraction)) else Fraction(q)


def vp(q: Fraction | int, p: Prime) -> int | None:
    """p-adic valuation of a rational; None for v_p(0) = +infinity."""
    q = _rational(q)
    if q == 0:
        return None
    pp = int(p)
    return _int_valuation(q.numerator, pp) - _int_valuation(q.denominator, pp)


def in_convergence_domain(x: Fraction | int, p: Prime) -> bool:
    """True iff |x|_p <= 1, i.e. x lies in Z_p; 0 (valuation None) does."""
    return (vp(x, p) or 0) >= 0


class PadicExpansion(_Record):
    """Canonical truncated p-adic expansion: p^valuation * sum(digits[i] p^i).

    digits[0] is nonzero unless the value is 0; len(digits) == precision.
    """

    def __init__(self, p: Prime, valuation: int, digits: tuple[int, ...], precision: int):
        pp = int(p)
        if len(digits) != precision:
            raise ValueError("digit count must equal precision")
        if any(d < 0 or d >= pp for d in digits):
            raise ValueError("digits out of range")
        if any(digits) and digits[0] == 0:
            raise ValueError("not canonical: unit part must start with a nonzero digit")
        self.__dict__.update(p=p, valuation=valuation, digits=digits, precision=precision)

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
    q = _rational(q)
    pp = int(p)
    if q == 0:
        return PadicExpansion(p, 0, (0,) * precision, precision)
    v = vp(q, p)
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
