from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicsum import BivarPoly, Poly, int_poly, n_poly, render_poly
from oracles import lin
from test_padic import check_record

small_polys = st.lists(st.integers(-9, 9), max_size=5).map(int_poly)


def test_canonical_trimming():
    assert int_poly([1, 2, 0, 0]) == int_poly([1, 2])
    assert int_poly([0, 0]).is_zero
    assert int_poly([]).degree == -1


def test_add_mul_examples():
    # oracles.lin, the arithmetic of the U/V oracle routes
    P = int_poly([3, 0, 2])
    zero = int_poly([])
    assert lin((1, 0, P), (1, 0, zero)) == P
    assert lin((2, 1, P), (-1, 0, P)) == int_poly([-3, 6, -2, 4])
    assert lin((1, 0, P), (-1, 0, P)).is_zero
    assert lin((1, 2, n_poly([1]))) == n_poly([0, 0, 1])


def test_eval_examples():
    U1 = int_poly([-1, 1])
    V2 = int_poly([-1, 2])
    assert U1(1) == 0
    assert V2(1) == 1
    assert int_poly([])(Fraction(7, 3)) == 0
    assert U1(Fraction(1, 2)) == Fraction(-1, 2)


@given(a=small_polys, b=small_polys, c=small_polys)
@settings(max_examples=200)
def test_ring_axioms(a, b, c):
    def add(p, q):
        return lin((1, 0, p), (1, 0, q))

    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))


@given(a=small_polys, b=small_polys, x0=st.integers(-10, 10),
       c=st.integers(-5, 5), s=st.integers(0, 3))
@settings(max_examples=200)
def test_eval_is_ring_homomorphism(a, b, x0, c, s):
    assert lin((1, 0, a), (1, 0, b))(x0) == a(x0) + b(x0)
    assert lin((c, s, a), (1, 0, b))(x0) == c * x0**s * a(x0) + b(x0)


class TestBivar:
    A1 = BivarPoly.make([n_poly([1]), n_poly([-2, 1])])  # (n-2)x + 1
    A2 = BivarPoly.make([n_poly([1]), n_poly([-5, 1]), n_poly([3, -3, 1])])

    def test_eval_n_constant(self):
        A0 = BivarPoly.make([[1]])
        for n0 in (-3, 0, 5):
            assert A0.eval_n(n0) == Poly.make([1], "x")

    def test_eval_n_examples(self):
        assert self.A1.eval_n(2) == Poly.make([1], "x")
        assert self.A2.eval_n(0) == int_poly([1, -5, 3])

    def test_full_eval(self):
        assert BivarPoly.make([[1]]).eval(17, Fraction(3, 5)) == 1
        assert self.A1.eval(0, 1) == -1
        for n0 in range(-4, 5):
            assert self.A1.eval(n0, 0) == 1

    @given(
        n0=st.integers(-8, 8),
        x0=st.fractions(max_denominator=7).filter(lambda q: abs(q) < 10),
    )
    @settings(max_examples=100)
    def test_eval_consistency(self, n0, x0):
        assert self.A2.eval(n0, x0) == self.A2.eval_n(n0)(x0)


def test_rendering():
    assert render_poly(int_poly([-1, 6, -7, 1])) == "x^3 - 7*x^2 + 6*x - 1"
    assert render_poly(int_poly([-1, 2])) == "2*x - 1"
    assert render_poly(int_poly([-1])) == "-1"
    assert render_poly(int_poly([])) == "0"
    assert str(BivarPoly.make([n_poly([1]), n_poly([-2, 1])])) == "(n - 2)*x + 1"


@pytest.mark.parametrize(
    "layers, text",
    [
        # a constant layer at x^l, l >= 1: coefficient 1, -1, -3
        ([[], [], [1]], "x^2"),
        ([[5], [-1]], "-x + 5"),
        ([[0, 2], [-3]], "-3*x + 2*n"),
        ([[], [-3]], "-3*x"),
        # a nonconstant layer 0 whose own text starts with '-'
        ([[1, -1], [2]], "2*x - n + 1"),
        ([[1, -1], [-1, 1]], "(n - 1)*x - n + 1"),
        ([[1, 0, -1], [0, 1]], "(n)*x - n^2 + 1"),
        # zero layers between nonzero ones
        ([[-1], [], [], [4, 0, 1]], "(n^2 + 4)*x^3 - 1"),
        ([[2], [0], [-1, 1]], "(n - 1)*x^2 + 2"),
        # the zero polynomial and layer 0 alone
        ([], "0"),
        ([[-3, 0, 1]], "n^2 - 3"),
        ([[0, -1]], "-n"),
        ([[-1]], "-1"),
    ],
)
def test_bivar_rendering_edge_cases(layers, text):
    assert str(BivarPoly.make(layers)) == text


@pytest.mark.parametrize(
    "coeffs, text",
    [([1, 0, -2], "-2*n^2 + 1"), ([0, -1], "-n"), ([-4, 0, 0, -1], "-n^3 - 4")],
)
def test_n_poly_negative_leading_rendering(coeffs, text):
    assert render_poly(n_poly(coeffs)) == text == str(n_poly(coeffs))


def test_records():
    P = check_record(Poly, coeffs=(1, -2), var="n")
    assert Poly((1, -2)) == Poly(coeffs=(1, -2), var="x") == int_poly([1, -2]) != P
    check_record(BivarPoly, layers=(n_poly([1]), n_poly([0, 1])))
    assert BivarPoly((n_poly([1]),)) != BivarPoly((n_poly([2]),))
