"""Exact p-adic valuations, norms, digit expansions and the convergence test.

Everything here works on plain ints and fractions.Fraction; all results are
exact.  A valuation is an int; v_p(0) = +infinity is None, not a sentinel
int, so a comparison that forgets the case raises instead of passing.
"""

from __future__ import annotations

import os
import sys
from math import gcd


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


# the trial divisors, and the Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all thirteen of them as bases, so those
# bases decide every n below it (Sorenson and Webster, Math. Comp. 86, 2017)
_PSI_13 = 3_317_044_064_679_887_385_961_981
_SQUARES: dict[int, list[int]] = {}  # p -> [p, p^2, p^4, ..], vp's ladder, grown on demand


def work_limit() -> int:
    """PADICSUM_WORK_LIMIT (default 10^9), the largest cost a guarded call takes on,
    read as at most sys.maxsize, so that every span a limit admits has a len()."""
    return min(int(os.environ.get("PADICSUM_WORK_LIMIT", 10**9)), sys.maxsize)


def require_within_limit(what: str, cost: int) -> None:
    """ValueError naming `what` when a closed-form cost, decided from the arguments
    before any work, exceeds the work limit.  The CLI's forms are fitted to measured
    times, about 5 ns a unit on CPython 3.11, so the default limit is about 5 s of work."""
    if cost > (limit := work_limit()):
        raise ValueError(f"{what}: cost {cost} exceeds work limit {limit}")


def _int(n) -> int:
    """n itself; TypeError unless it is an int, so a float such as 7.0 is refused."""
    if not isinstance(n, int):
        raise TypeError(f"{type(n).__name__} {n!r} is not an int")
    return n


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24; larger n raise ValueError.

    Trial division by the primes up to 41 decides every n < 43^2; above
    that, Miller-Rabin with all thirteen of them as bases decides n < psi_13.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 1_849:
        return True
    if n >= _PSI_13:
        raise ValueError("primality test only deterministic below 3.3e24")
    r = vp(n - 1, 2)  # n - 1 = 2^r d, d odd
    d = (n - 1) >> r
    for a in _SMALL_PRIMES:
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


class Prime(int):
    """A verified prime p >= 2, an int in every other respect; construction of
    a composite or a non-int raises.  It prints as its digits."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(_int(p)):
            raise ValueError(f"{p} is not prime")
        return int.__new__(cls, p)


def factorial_norm_exponent(n: int, p: Prime) -> int:
    """Exponent e with |n!|_p = p^(-e), i.e. v_p(n!) = sum_i floor(n / p^i) for n >= 0."""
    if _int(n) < 0:
        raise ValueError("n must be nonnegative")
    e = 0
    while n:
        n //= p
        e += n
    return e


def _rational(q) -> Fraction | int:
    """An int or a Fraction as it is, a float refused, anything else through Fraction."""
    if isinstance(q, int):  # before `fractions` is imported
        return q
    if isinstance(q, float):
        raise TypeError(f"float {q!r} is inexact: pass an int, a Fraction or a string")
    from fractions import Fraction
    return q if isinstance(q, Fraction) else Fraction(q)


def ratio(q) -> tuple[int, int]:
    """q as (numerator, denominator) in lowest terms, denominator > 0: a text [+-]digits[/digits]
    of ASCII digits by int() and one gcd, any other q (or a zero denominator) by _rational."""
    if isinstance(q, str) and q.isascii():
        num, slash, den = q.partition("/")
        if (num[1:] if num[:1] in "+-" else num).isdigit() and (den.isdigit() or not slash):
            num, den = int(num), int(den or 1)
            if den:
                return num // (g := gcd(num, den)), den // g
    q = _rational(q)  # an int as it is
    return q.numerator, q.denominator


def vp(q: Fraction | int, p: Prime) -> int | None:
    """p-adic valuation of a rational; None for v_p(0) = +infinity.  An int is read
    directly, anything else through Fraction as v_p(numerator) - v_p(denominator)."""
    if not isinstance(q, int):
        q = _rational(q)
        return vp(q.numerator, p) - vp(q.denominator, p) if q else None
    if not q:
        return None
    if p == 2:  # q & -q is the lowest set bit of q, also for q < 0
        return (q & -q).bit_length() - 1
    # by p, p^2, p^4, .. while it divides and back down by each that still does:
    # O(log v) divisions, not v, on p's ladder, kept from call to call
    powers, i, v = _SQUARES.get(p) or _SQUARES.setdefault(p, [p]), 0, 0
    while not (qr := divmod(q, powers[i]))[1]:
        q, v, i = qr[0], v + (1 << i), i + 1
        if i == len(powers):  # past the largest valuation yet seen at p: a longer copy
            _SQUARES[p] = powers = [*powers, powers[-1] ** 2]
    for i in range(i - 1, -1, -1):
        if not (qr := divmod(q, powers[i]))[1]:
            q, v = qr[0], v + (1 << i)
    return v


def in_convergence_domain(x: Fraction | int, p: Prime) -> bool:
    """True iff |x|_p <= 1, i.e. x lies in Z_p; 0 (valuation None) does."""
    return (vp(x, p) or 0) >= 0


class PadicExpansion(_Record):
    """Canonical truncated p-adic expansion: p^valuation * sum(digits[i] p^i).

    digits[0] is nonzero unless the value is 0; the precision is len(digits).
    """

    def __init__(self, p: Prime, valuation: int, digits: tuple[int, ...]):
        if any(d < 0 or d >= p for d in digits):
            raise ValueError("digits out of range")
        if any(digits) and digits[0] == 0:
            raise ValueError("not canonical: unit part must start with a nonzero digit")
        self.__dict__.update(p=p, valuation=valuation, digits=digits)

    def __str__(self) -> str:
        return f"({','.join(map(str, self.digits))})*{self.p}^{self.valuation}"


def padic_expand(q: Fraction | int, p: Prime, precision: int) -> PadicExpansion:
    """Canonical digits of a rational with finite valuation.

    For q != 0 the unit part u = q / p^v has a denominator coprime to p, so
    its residue mod p^precision is well defined; negative rationals get the
    standard eventually periodic expansion, truncated.
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    q = _rational(q)
    if q == 0:
        return PadicExpansion(p, 0, (0,) * precision)
    v, modulus = vp(q, p), p**precision
    # the unit part q / p^v, p^|v| dividing q's numerator or its denominator
    t = q.numerator // p ** max(v, 0) * pow(q.denominator // p ** max(-v, 0), -1, modulus) % modulus
    digits = []
    for _ in range(precision):
        t, d = divmod(t, p)
        digits.append(d)
    return PadicExpansion(p, v, tuple(digits))
