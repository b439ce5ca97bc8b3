import pytest

import padicsum.recurrences as recurrences
from padicsum import (
    BivarPoly,
    TripleFamily,
    build_triple,
    compute_A_family,
    compute_U,
    compute_U_by_recurrence,
    compute_V,
    compute_V_by_recurrence,
    family_residual,
    int_poly,
    n_poly,
    shared_family,
)

# Published tables for k = 1..6, little-endian power order.
U_TABLE = {
    1: [-1, 1],
    2: [-1, 3, -1],
    3: [-1, 6, -7, 1],
    4: [-1, 10, -25, 15, -1],
    5: [-1, 15, -65, 90, -31, 1],
    6: [-1, 21, -140, 350, -301, 63, -1],
}
V_TABLE = {
    1: [-1],
    2: [-1, 2],
    3: [-1, 5, -3],
    4: [-1, 9, -17, 4],
    5: [-1, 14, -52, 49, -5],
    6: [-1, 20, -121, 246, -129, 6],
}
A_TABLE = {
    0: [[1]],
    1: [[1], [-2, 1]],
    2: [[1], [-5, 1], [3, -3, 1]],
    3: [[1], [-9, 1], [17, -7, 1], [-4, 6, -4, 1]],
    4: [[1], [-14, 1], [52, -12, 1], [-49, 31, -9, 1], [5, -10, 10, -5, 1]],
    5: [
        [1],
        [-20, 1],
        [121, -18, 1],
        [-246, 88, -15, 1],
        [129, -111, 49, -11, 1],
        [-6, 15, -20, 15, -6, 1],
    ],
}

KMAX = 25


@pytest.fixture(scope="module")
def family():
    return compute_A_family(KMAX)


def as_bivar(layers):
    return BivarPoly.make([n_poly(lay) for lay in layers])


class TestTableReproduction:
    def test_A_family_matches_tables(self, family):
        for k, layers in A_TABLE.items():
            assert family[k] == as_bivar(layers), f"A_{k} mismatch"

    def test_U_matches_tables(self, family):
        for k, coeffs in U_TABLE.items():
            assert compute_U(k, family) == int_poly(coeffs), f"U_{k} mismatch"

    def test_V_matches_tables(self, family):
        for k, coeffs in V_TABLE.items():
            assert compute_V(k, family) == int_poly(coeffs), f"V_{k} mismatch"


class TestOracleEquivalence:
    def test_U_paths_agree(self, family):
        us = compute_U_by_recurrence(KMAX)
        for k in range(1, KMAX + 1):
            assert us[k - 1] == compute_U(k, family), f"U_{k} paths disagree"

    def test_V_paths_agree(self, family):
        vs = compute_V_by_recurrence(KMAX)
        for k in range(1, KMAX + 1):
            assert vs[k - 1] == compute_V(k, family), f"V_{k} paths disagree"

    def test_recurrence_tables(self):
        us = compute_U_by_recurrence(6)
        vs = compute_V_by_recurrence(6)
        assert us[1] == int_poly([-1, 3, -1])
        assert vs[1] == int_poly([-1, 2])
        assert vs[5] == int_poly(V_TABLE[6])


class TestBackSubstitution:
    def test_symbolic_zero_remainder(self, family):
        for k in range(1, KMAX + 1):
            assert family_residual(family, k).is_zero, f"residual at k={k}"


class TestStructuralProperties:
    def test_five_bullets(self, family):
        for k in range(1, KMAX + 1):
            A = family[k]
            assert A.layer(0) == n_poly([1])
            assert A.layer(k)(1) == (-1) ** k
            U = compute_U(k, family)
            V = compute_V(k, family)
            assert U.coeff(0) == -1 and V.coeff(0) == -1
            assert U.coeff(k) == (-1) ** (k + 1)
            # leading coefficient of V_k sits at degree k-1
            assert V.leading() == (-1) ** k * k

    def test_layer_shapes(self, family):
        for k in range(KMAX + 1):
            A = family[k]
            assert A.degree_x == k
            for l in range(k + 1):
                lay = A.layer(l)
                assert lay.degree == l and lay.leading() == 1

    def test_sequence_identities(self, family):
        for k in range(1, KMAX + 1):
            U = compute_U(k, family)
            V = compute_V(k, family)
            Akm1 = family[k - 1]
            assert U(-1) == -(Akm1.eval(1, -1) + Akm1.eval(0, -1))
            assert V(1) == -Akm1.eval(0, 1)


class TestBuildTriple:
    def test_examples(self):
        t1 = build_triple(1)
        assert (t1.U, t1.V, t1.A) == (int_poly([-1, 1]), int_poly([-1]), BivarPoly.const(1))
        t2 = build_triple(2)
        assert t2.U == int_poly([-1, 3, -1])
        assert t2.V == int_poly([-1, 2])
        assert t2.A == as_bivar(A_TABLE[1])
        t5 = build_triple(5)
        assert t5.U == int_poly(U_TABLE[5])
        assert t5.V == int_poly(V_TABLE[5])
        assert t5.A == as_bivar(A_TABLE[4])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_triple(0)

    def test_triple_is_memoised(self):
        fam = TripleFamily()
        for k in (1, 4, 9):
            assert fam.triple(k) is fam.triple(k)
        assert build_triple(3) is build_triple(3)

    def test_shared_cache_consistency(self):
        fam = shared_family()
        fam.ensure(8)
        assert fam.triple(8).U == compute_U(8, compute_A_family(8))


class TestIncrementalFamily:
    def test_ensure_extends_to_the_scratch_build(self, monkeypatch):
        builds = []
        original = recurrences.compute_A_family

        def spy(kmax, start=None):
            builds.append((kmax, len(start)))
            return original(kmax, start)

        monkeypatch.setattr(recurrences, "compute_A_family", spy)
        fam = TripleFamily()
        fam.ensure(3)
        fam.ensure(8)
        fam.ensure(5)
        assert [fam.A(k) for k in range(9)] == original(8)
        # each call builds only the missing A_k: A_1..A_3, then A_4..A_8
        assert builds == [(3, 1), (8, 4)]

    def test_extending_a_prefix(self):
        prefix = compute_A_family(3)
        assert compute_A_family(8, prefix) == compute_A_family(8)
        assert len(prefix) == 4
        assert compute_A_family(2, prefix) == prefix[:3]


def test_compute_A_family_base_case():
    assert compute_A_family(0) == [BivarPoly.const(1)]
