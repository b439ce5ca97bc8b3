from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padicsum import BivarPoly, Poly, binomial, int_poly, n_poly, render_poly
from test_padic import check_record

small_polys = st.lists(st.integers(-9, 9), max_size=5).map(int_poly)


def test_binomial():
    assert binomial(7, 3) == 35
    assert binomial(4, 5) == 0
    assert binomial(12, 0) == 1
    # Pascal identity
    for n in range(1, 12):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_canonical_trimming():
    assert int_poly([1, 2, 0, 0]) == int_poly([1, 2])
    assert int_poly([0, 0]).is_zero
    assert int_poly([]).degree == -1


def test_add_mul_examples():
    P = int_poly([3, 0, 2])
    zero = int_poly([])
    assert P + zero == P
    assert int_poly([-1, 1]) * int_poly([1, 1]) == int_poly([-1, 0, 1])
    U1 = int_poly([-1, 1])
    assert U1 * U1 == int_poly([1, -2, 1])


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
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=small_polys, b=small_polys, x0=st.integers(-10, 10))
@settings(max_examples=200)
def test_eval_is_ring_homomorphism(a, b, x0):
    assert (a * b)(x0) == a(x0) * b(x0)
    assert (a + b)(x0) == a(x0) + b(x0)


class TestBivar:
    A1 = BivarPoly.make([n_poly([1]), n_poly([-2, 1])])  # (n-2)x + 1
    A2 = BivarPoly.make([n_poly([1]), n_poly([-5, 1]), n_poly([3, -3, 1])])

    def test_eval_n_constant(self):
        A0 = BivarPoly.const(1)
        for n0 in (-3, 0, 5):
            assert A0.eval_n(n0) == Poly.const(1, "x")

    def test_eval_n_examples(self):
        assert self.A1.eval_n(2) == Poly.const(1, "x")
        assert self.A2.eval_n(0) == int_poly([1, -5, 3])

    def test_full_eval(self):
        assert BivarPoly.const(1).eval(17, Fraction(3, 5)) == 1
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


def test_records():
    P = check_record(Poly, coeffs=(1, -2), var="n")
    assert Poly((1, -2)) == Poly(coeffs=(1, -2), var="x") == int_poly([1, -2]) != P
    check_record(BivarPoly, layers=(n_poly([1]), n_poly([0, 1])))
    assert BivarPoly((n_poly([1]),)) != BivarPoly((n_poly([2]),))
