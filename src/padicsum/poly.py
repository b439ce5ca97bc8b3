"""Exact dense univariate and bivariate polynomial algebra.

Poly holds arbitrary-precision integer (or rational) coefficients in
little-endian power order with canonical trimming.  BivarPoly stacks
polynomials in n as the coefficients of successive powers of x; that is the
shape of the tail-polynomial family A_k(n; x).
"""

from __future__ import annotations

import math

from .padic import _Record


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k > n or k < 0."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


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

    @classmethod
    def const(cls, c, var: str = "x") -> "Poly":
        return cls.make([c], var)

    @classmethod
    def monomial(cls, power: int, coeff=1, var: str = "x") -> "Poly":
        return cls.make([0] * power + [coeff], var)

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

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(
            [self.coeff(i) + other.coeff(i) for i in range(n)], self.var
        )

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(
            [self.coeff(i) - other.coeff(i) for i in range(n)], self.var
        )

    def __neg__(self) -> "Poly":
        return Poly.make([-c for c in self.coeffs], self.var)

    def scale(self, c) -> "Poly":
        return Poly.make([c * a for a in self.coeffs], self.var)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.make([], self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.make(out, self.var)

    def shift(self, power: int) -> "Poly":
        """Multiply by var**power."""
        if self.is_zero:
            return self
        return Poly.make([0] * power + list(self.coeffs), self.var)

    def __call__(self, x0):
        """Horner evaluation, exact over int/Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __str__(self) -> str:
        return render_poly(self)


def render_poly(P: Poly) -> str:
    """Canonical text: descending powers, explicit signs, e.g. 'x^3 - 7*x^2 + 6*x - 1'."""
    if P.is_zero:
        return "0"
    parts = []
    for i in range(P.degree, -1, -1):
        c = P.coeff(i)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = P.var if i == 1 else f"{P.var}^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


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

    @classmethod
    def const(cls, c) -> "BivarPoly":
        return cls.make([Poly.const(c, "n")])

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

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        m = max(len(self.layers), len(other.layers))
        return BivarPoly.make([self.layer(l) + other.layer(l) for l in range(m)])

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        m = max(len(self.layers), len(other.layers))
        return BivarPoly.make([self.layer(l) - other.layer(l) for l in range(m)])

    def scale(self, c) -> "BivarPoly":
        return BivarPoly.make([lay.scale(c) for lay in self.layers])

    def shift_x(self, power: int) -> "BivarPoly":
        """Multiply by x**power."""
        if self.is_zero:
            return self
        pad = [Poly.make([], "n")] * power
        return BivarPoly.make(pad + list(self.layers))

    def eval_n(self, n0) -> Poly:
        """Substitute n = n0, returning a univariate polynomial in x."""
        return Poly.make([lay(n0) for lay in self.layers], "x")

    def eval(self, n0, x0):
        """Full exact evaluation at (n0, x0)."""
        return self.eval_n(n0)(x0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for l in range(self.degree_x, -1, -1):
            lay = self.layer(l)
            if lay.is_zero:
                continue
            if l == 0:
                body = str(lay)
            else:
                xv = "x" if l == 1 else f"x^{l}"
                if lay.degree == 0:
                    c = lay.coeff(0)
                    if c == 1:
                        body = xv
                    elif c == -1:
                        body = f"-{xv}"
                    else:
                        body = f"{c}*{xv}"
                else:
                    body = f"({lay})*{xv}"
            parts.append(body)
        text = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                text += f" - {body[1:]}"
            else:
                text += f" + {body}"
        return text


def int_poly(coeffs) -> Poly:
    """Polynomial in x with integer coefficients (little-endian powers)."""
    return Poly.make(coeffs, "x")


def n_poly(coeffs) -> Poly:
    """Polynomial in n with integer coefficients (little-endian powers)."""
    return Poly.make(coeffs, "n")
