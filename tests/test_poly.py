from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicsum import BivarPoly, horner, render_poly
from padicsum.poly import _trim
from oracles import lin
from test_padic import check_record

small_polys = st.lists(st.integers(-9, 9), max_size=5).map(_trim)


def test_canonical_trimming():
    assert _trim([1, 2, 0, 0]) == _trim((1, 2)) == (1, 2)
    assert _trim([0, 0]) == _trim([]) == ()
    assert lin((1, 0, (1, 2, 0, 0))) == (1, 2)
    assert BivarPoly.make([[1, 0], [0, 0], []]) == BivarPoly(((1,),))


def test_add_mul_examples():
    # oracles.lin, the arithmetic of the U/V oracle routes
    P = (3, 0, 2)
    assert lin((1, 0, P), (1, 0, ())) == P
    assert lin((2, 1, P), (-1, 0, P)) == (-3, 6, -2, 4)
    assert lin((1, 0, P), (-1, 0, P)) == ()
    assert lin((1, 2, (1,))) == (0, 0, 1)


def test_eval_examples():
    U1, V2 = (-1, 1), (-1, 2)
    assert horner(U1, 1) == 0
    assert horner(V2, 1) == 1
    assert horner((), Fraction(7, 3)) == 0
    assert horner(U1, Fraction(1, 2)) == Fraction(-1, 2)


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
    assert horner(lin((1, 0, a), (1, 0, b)), x0) == horner(a, x0) + horner(b, x0)
    assert horner(lin((c, s, a), (1, 0, b)), x0) == c * x0**s * horner(a, x0) + horner(b, x0)


class TestBivar:
    A1 = BivarPoly.make([[1], [-2, 1]])  # (n-2)x + 1
    A2 = BivarPoly.make([[1], [-5, 1], [3, -3, 1]])

    def test_eval_n_constant(self):
        A0 = BivarPoly.make([[1]])
        for n0 in (-3, 0, 5):
            assert A0.eval_n(n0) == (1,)

    def test_eval_n_examples(self):
        assert self.A1.eval_n(2) == (1,)
        assert self.A2.eval_n(0) == (1, -5, 3)

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
        assert self.A2.eval(n0, x0) == horner(self.A2.eval_n(n0), x0)


def test_rendering():
    assert render_poly((-1, 6, -7, 1)) == "x^3 - 7*x^2 + 6*x - 1"
    assert render_poly((-1, 2)) == "2*x - 1"
    assert render_poly((-1,)) == "-1"
    assert render_poly(()) == "0"
    assert str(BivarPoly.make([[1], [-2, 1]])) == "(n - 2)*x + 1"


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
    assert render_poly(coeffs, "n") == text


def test_records():
    check_record(BivarPoly, layers=((1,), (0, 1)))
    assert BivarPoly(((1,),)) != BivarPoly(((2,),))
    assert BivarPoly.make([[1, 0], [0, 1]]).layers == ((1,), (0, 1))
