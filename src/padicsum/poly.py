"""Exact polynomials as integer coefficient tuples: evaluation and canonical text.

A polynomial in one variable is a tuple of its coefficients in little-endian
power order with no trailing zero, as `triples` prints it.  BivarPoly stacks
such tuples, polynomials in n, as the coefficients of successive powers of x;
that is the shape of the tail-polynomial family A_k(n; x).  Nothing here does
arithmetic: the library builds its coefficients as integer lists.
"""

from __future__ import annotations

from .padic import _Record


def horner(coeffs, x0):
    """sum_i coeffs[i] * x0**i by Horner's rule, exact over int and Fraction."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


def _trim(coeffs) -> tuple:
    """coeffs as a tuple without trailing zeros (0, or () for a layer)."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _power(var: str, i: int) -> str:
    """var**i as text: '' for i = 0, then 'x', 'x^2', ..."""
    return "" if i == 0 else var if i == 1 else f"{var}^{i}"


def _term(c, power: str) -> tuple[bool, str]:
    """(negative, body) of the nonzero c at `power`: '3', 'x' or '3*x'."""
    return c < 0, str(abs(c)) if not power else power if abs(c) == 1 else f"{abs(c)}*{power}"


def _terms(coeffs, var: str) -> list[tuple[bool, str]]:
    """The terms of the nonzero coefficients, highest power first."""
    return [_term(coeffs[i], _power(var, i))
            for i in range(len(coeffs) - 1, -1, -1) if coeffs[i]]


def _join(terms: list[tuple[bool, str]]) -> str:
    """Terms as 'a - b + c', a leading '-' on a negative first; '0' for none."""
    if not terms:
        return "0"
    negative, text = terms[0]
    if negative:
        text = "-" + text
    for negative, body in terms[1:]:
        text += (" - " if negative else " + ") + body
    return text


def render_poly(coeffs, var: str = "x") -> str:
    """Canonical text: descending powers, explicit signs, e.g. 'x^3 - 7*x^2 + 6*x - 1'."""
    return _join(_terms(coeffs, var))


# the only class here: perfbench/spans.py traces BivarPoly.eval, so A_{k-1}
# keeps this type while the benchmark binds it
class BivarPoly(_Record):
    """Polynomial in x whose x^l coefficient is a polynomial in n (layer l)."""

    def __init__(self, layers: tuple[tuple[int, ...], ...]):
        self.__dict__.update(layers=layers)

    @classmethod
    def make(cls, layers) -> "BivarPoly":
        return cls(_trim(map(_trim, layers)))

    def eval_n(self, n0) -> tuple:
        """Substitute n = n0, returning the coefficients of a polynomial in x."""
        return _trim(horner(lay, n0) for lay in self.layers)

    def eval(self, n0, x0):
        """Full exact evaluation at (n0, x0)."""
        return horner(self.eval_n(n0), x0)

    def __str__(self) -> str:
        """Layer l >= 1 as c*x^l or (layer)*x^l, then layer 0's own terms."""
        terms = []
        for l in range(len(self.layers) - 1, 0, -1):
            lay = self.layers[l]
            if len(lay) == 1:
                terms.append(_term(lay[0], _power("x", l)))
            elif lay:
                terms.append((False, f"({render_poly(lay, 'n')})*{_power('x', l)}"))
        return _join(terms + _terms(self.layers[0] if self.layers else (), "n"))
