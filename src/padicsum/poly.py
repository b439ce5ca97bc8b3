"""Exact dense univariate and bivariate polynomials: coefficients, exact
evaluation and canonical text.

Poly holds arbitrary-precision integer (or rational) coefficients in
little-endian power order with canonical trimming.  BivarPoly stacks
polynomials in n as the coefficients of successive powers of x; that is the
shape of the tail-polynomial family A_k(n; x).  Neither does arithmetic: the
library builds its coefficients as integer lists.
"""

from __future__ import annotations

from .padic import _Record


class Poly(_Record):
    """Dense univariate polynomial; coeffs[i] multiplies var**i."""

    def __init__(self, coeffs: tuple, var: str = "x"):
        self.__dict__.update(coeffs=coeffs, var=var)

    @classmethod
    def make(cls, coeffs, var: str = "x") -> "Poly":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs), var)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __call__(self, x0):
        """Horner evaluation, exact over int/Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __str__(self) -> str:
        return render_poly(self)


def _power(var: str, i: int) -> str:
    """var**i as text: '' for i = 0, then 'x', 'x^2', ..."""
    if i == 0:
        return ""
    return var if i == 1 else f"{var}^{i}"


def _term(c, power: str) -> tuple[bool, str]:
    """(negative, body) of the nonzero c at `power`: '3', 'x' or '3*x'."""
    if not power:
        return c < 0, str(abs(c))
    return c < 0, power if abs(c) == 1 else f"{abs(c)}*{power}"


def _terms(P: Poly) -> list[tuple[bool, str]]:
    """The terms of P's nonzero coefficients, highest power first."""
    return [_term(P.coeffs[i], _power(P.var, i))
            for i in range(P.degree, -1, -1) if P.coeffs[i]]


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


def render_poly(P: Poly) -> str:
    """Canonical text: descending powers, explicit signs, e.g. 'x^3 - 7*x^2 + 6*x - 1'."""
    return _join(_terms(P))


class BivarPoly(_Record):
    """Polynomial in x whose x^l coefficient is a polynomial in n (layer l)."""

    def __init__(self, layers: tuple[Poly, ...]):
        self.__dict__.update(layers=layers)

    @classmethod
    def make(cls, layers) -> "BivarPoly":
        layers = [lay if isinstance(lay, Poly) else Poly.make(lay, "n") for lay in layers]
        while layers and layers[-1].is_zero:
            layers.pop()
        return cls(tuple(layers))

    @property
    def is_zero(self) -> bool:
        return not self.layers

    @property
    def degree_x(self) -> int:
        return len(self.layers) - 1

    def layer(self, l: int) -> Poly:
        if 0 <= l < len(self.layers):
            return self.layers[l]
        return Poly.make([], "n")

    def eval_n(self, n0) -> Poly:
        """Substitute n = n0, returning a univariate polynomial in x."""
        return Poly.make([lay(n0) for lay in self.layers], "x")

    def eval(self, n0, x0):
        """Full exact evaluation at (n0, x0)."""
        return self.eval_n(n0)(x0)

    def __str__(self) -> str:
        """Layer l >= 1 as c*x^l or (layer)*x^l, then layer 0's own terms."""
        terms = []
        for l in range(self.degree_x, 0, -1):
            lay = self.layers[l]
            if lay.degree == 0:
                terms.append(_term(lay.coeffs[0], _power("x", l)))
            elif lay.degree > 0:
                terms.append((False, f"({lay})*{_power('x', l)}"))
        return _join(terms + _terms(self.layer(0)))


def int_poly(coeffs) -> Poly:
    """Polynomial in x with integer coefficients (little-endian powers)."""
    return Poly.make(coeffs, "x")


def n_poly(coeffs) -> Poly:
    """Polynomial in n with integer coefficients (little-endian powers)."""
    return Poly.make(coeffs, "n")
