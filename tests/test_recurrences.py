import weakref
from fractions import Fraction

import pytest

import padicsum.recurrences as recurrences
from padicsum import (
    BivarPoly,
    SummationTriple,
    TripleFamily,
    build_triple,
    compute_A_family,
    family_residual,
    horner,
    paper_sequences,
    telescope,
)
from padicsum.cli import main
from padicsum.recurrences import iter_triples, telescope_combo, unit_combo
from oracles import (
    compute_U,
    compute_U_by_recurrence,
    compute_V,
    compute_V_by_recurrence,
    lin,
    solve_triple,
)
from test_padic import check_record

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


class TestTableReproduction:
    def test_A_family_matches_tables(self, family):
        for k, layers in A_TABLE.items():
            assert family[k] == BivarPoly.make(layers), f"A_{k} mismatch"

    def test_U_matches_tables(self, family):
        for k, coeffs in U_TABLE.items():
            assert compute_U(k, family) == tuple(coeffs), f"U_{k} mismatch"

    def test_V_matches_tables(self, family):
        for k, coeffs in V_TABLE.items():
            assert compute_V(k, family) == tuple(coeffs), f"V_{k} mismatch"


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
        assert us[1] == (-1, 3, -1)
        assert vs[1] == (-1, 2)
        assert vs[5] == tuple(V_TABLE[6])


class TestBackSubstitution:
    def test_symbolic_zero_remainder(self, family):
        for k in range(1, KMAX + 1):
            assert family_residual(family, k).layers == (), f"residual at k={k}"

    @pytest.mark.parametrize("k", [0, -1, KMAX + 1, KMAX + 2])
    def test_index_outside_the_recurrence_is_refused(self, family, k):
        # A_0 = 1 is the base, not a case of the recurrence, and k past the
        # family has no A_k to compare
        assert len(family) == KMAX + 1
        with pytest.raises(ValueError, match=rf"k = {k} is outside 1\.\.{KMAX}"):
            family_residual(family, k)

    @pytest.mark.parametrize("j", [1, 4, 9])
    def test_perturbed_family_leaves_a_residual(self, family, j):
        # A_j + delta: one coefficient off by one, then a term x^(j+1) n^(j+2)
        # above both of A_j's degrees, which the residual must pad to reach
        rows = [list(lay) for lay in family[j].layers]
        bumped = [row[:] for row in rows]
        bumped[j - 1][0] += 1
        raised = rows + [[0] * (j + 2) + [1]]
        for forged_Aj, delta in ((bumped, [[]] * (j - 1) + [[1]]),
                                 (raised, [[]] * (j + 1) + [[0] * (j + 2) + [1]])):
            forged = family[:j] + [BivarPoly.make(forged_Aj)] + family[j + 1 :]
            assert all(family_residual(forged, i).layers == () for i in range(1, j)), j
            assert family_residual(forged, j) == BivarPoly.make(delta), j


class TestStructuralProperties:
    def test_five_bullets(self, family):
        for k in range(1, KMAX + 1):
            A = family[k]
            assert A.layers[0] == (1,)
            assert horner(A.layers[k], 1) == (-1) ** k
            U = compute_U(k, family)
            V = compute_V(k, family)
            assert U[0] == -1 and V[0] == -1
            assert U[k] == (-1) ** (k + 1)
            # leading coefficient of V_k sits at degree k-1
            assert len(V) == k and V[-1] == (-1) ** k * k

    def test_layer_shapes(self, family):
        for k in range(KMAX + 1):
            A = family[k]
            assert len(A.layers) == k + 1
            for l, lay in enumerate(A.layers):
                assert len(lay) == l + 1 and lay[-1] == 1

    def test_sequence_identities(self, family):
        for k in range(1, KMAX + 1):
            U = compute_U(k, family)
            V = compute_V(k, family)
            Akm1 = family[k - 1]
            assert horner(U, -1) == -(Akm1.eval(1, -1) + Akm1.eval(0, -1))
            assert horner(V, 1) == -Akm1.eval(0, 1)


class TestBuildTriple:
    def test_examples(self):
        t1 = build_triple(1)
        assert (t1.U, t1.V, t1.A) == ((-1, 1), (-1,), BivarPoly.make([[1]]))
        t2 = build_triple(2)
        assert t2.U == (-1, 3, -1)
        assert t2.V == (-1, 2)
        assert t2.A == BivarPoly.make(A_TABLE[1])
        t5 = build_triple(5)
        assert t5.U == tuple(U_TABLE[5])
        assert t5.V == tuple(V_TABLE[5])
        assert t5.A == BivarPoly.make(A_TABLE[4])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            build_triple(0)

    def test_triple_is_memoised(self):
        fam = TripleFamily()
        for k in (1, 4, 9):
            assert fam.triple(k) is fam.triple(k)
        assert build_triple(3) is build_triple(3)


class TestIncrementalFamily:
    def test_triples_and_sequences_build_only_what_they_read(self, monkeypatch):
        built = []
        original = recurrences._step

        def spy(trip):
            built.append(trip.k + 1)
            return original(trip)

        monkeypatch.setattr(recurrences, "_step", spy)
        monkeypatch.setattr(recurrences, "_shared", TripleFamily())
        # one step per k, each from the one before, and the sequences build none
        assert main(["--format", "machine", "triples", "--kmax", "6"]) == 0
        assert built == [1, 2, 3, 4, 5, 6]
        paper_sequences(6)
        assert built == [1, 2, 3, 4, 5, 6]


class TestStep:
    def test_matches_the_reference_routes_to_60(self):
        kmax = 60
        fam = TripleFamily()
        stepped = [fam.triple(k) for k in range(1, kmax + 1)]
        family = compute_A_family(kmax - 1)
        us, vs = compute_U_by_recurrence(kmax), compute_V_by_recurrence(kmax)
        for k, t in enumerate(stepped, 1):
            assert t == solve_triple(k), k
            assert (t.A, t.U, t.V) == (family[k - 1], us[k - 1], vs[k - 1]), k
        A = [t.A for t in stepped]
        assert all(family_residual(A, k).layers == () for k in range(1, kmax)), kmax

    def test_any_order_equals_an_ascending_build(self, monkeypatch):
        ascending = TripleFamily()
        want = {k: ascending.triple(k) for k in range(1, 11)}
        steps = []
        original = recurrences._step

        def spy(trip):
            steps.append(trip.k)
            return original(trip)

        monkeypatch.setattr(recurrences, "_step", spy)
        fam = TripleFamily()
        # each k steps up from the largest k below it that the memo holds, else from 0
        got = [fam.triple(k) for k in (9, 4, 1, 9)]
        assert got == [want[k] for k in (9, 4, 1, 9)] and got[3] is got[0]
        assert steps == list(range(9)) + list(range(4)) + [0]
        steps.clear()
        assert (fam.triple(10), fam.triple(5)) == (want[10], want[5])
        assert steps == [9, 4]


class TestStream:
    def test_equals_the_memo_and_the_oracle_to_60(self):
        fam = TripleFamily()
        streamed = list(iter_triples(60))
        assert [t.k for t in streamed] == list(range(1, 61))
        for t in streamed:
            assert t == fam.triple(t.k) == solve_triple(t.k), t.k

    def test_resumes_from_a_given_triple(self):
        start = build_triple(4)
        assert list(iter_triples(7, start)) == [build_triple(k) for k in (5, 6, 7)]
        assert list(iter_triples(4, start)) == list(iter_triples(0)) == []

    def test_holds_one_triple(self):
        refs = []
        for trip in iter_triples(20):
            refs.append(weakref.ref(trip))
            # drawing triple k let go of triple k - 2 and every one below it
            assert all(ref() is None for ref in refs[:-2]), trip.k
        assert len(refs) == 20

    def test_triples_command_keeps_none(self, capsys, monkeypatch):
        refs = []
        original = recurrences._step

        def spy(trip):
            trip = original(trip)
            refs.append(weakref.ref(trip))
            return trip

        monkeypatch.setattr(recurrences, "_step", spy)
        assert main(["--format", "machine", "triples", "--kmax", "8"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(refs) == 8
        assert all(ref() is None for ref in refs)


class TestSolveTriple:
    def test_triple_laws(self):
        for k in range(1, 61):
            t = solve_triple(k)
            U, V, A = t.U, t.V, t.A
            assert (len(U), len(V), len(A.layers)) == (k + 1, k, k), k
            assert U[0] == V[0] == -1, k
            assert U[-1] == (-1) ** (k + 1), k
            assert V[-1] == (-1) ** k * k, k
            # layer l of A_{k-1} is monic of degree l in n; layer 0 is 1
            assert A.layers[0] == (1,), k
            for l, lay in enumerate(A.layers):
                assert len(lay) == l + 1 and lay[-1] == 1, (k, l)

    def test_telescoping_equation(self):
        # (n+1) x A(n+1; x) - A(n; x) - n^k x^k = U_k(x), as polynomials in x
        for k in range(1, 61):
            t = solve_triple(k)
            for n in range(k + 2):
                lhs = lin((n + 1, 1, t.A.eval_n(n + 1)), (-1, 0, t.A.eval_n(n)),
                          (-(n**k), k, (1,)))
                assert lhs == t.U, (k, n)

    def test_matches_the_oracle_routes(self):
        kmax = 30
        family = compute_A_family(kmax - 1)
        us, vs = compute_U_by_recurrence(kmax), compute_V_by_recurrence(kmax)
        for k in range(1, kmax + 1):
            t = solve_triple(k)
            assert t.A == family[k - 1], k
            assert t.U == compute_U(k, family) == us[k - 1], k
            assert t.V == compute_V(k, family) == vs[k - 1], k


TELESCOPE_XS = [Fraction(v) for v in range(-3, 4)] + [
    Fraction(-5, 4), Fraction(6, 5), Fraction(7, 4)
]


class TestTelescope:
    def test_matches_solve_triple(self):
        # U_k(x) b^k, V_k(x) b^(k-1) and A_{k-1}(n; x) b^(k-1), coefficient by
        # coefficient in n, at x = a/b; x = 0 takes the family's values
        for k in range(1, 31):
            t = solve_triple(k)
            for x in TELESCOPE_XS:
                a, b = x.numerator, x.denominator
                Ub, A = telescope_combo(unit_combo(k), a, b)
                assert Ub == horner(t.U, x) * b**k, (k, x)
                assert -A[0] == horner(t.V, x) * b ** (k - 1), (k, x)
                # layer l holds the n^m coefficient for m <= l
                want = [sum(lay[m] * x**l for l, lay in enumerate(t.A.layers) if m < len(lay))
                        for m in range(k)]
                assert lin((1, 0, A)) == lin((b ** (k - 1), 0, want)), (k, x)
                for N in (0, 1, 5, 12):
                    assert horner(A, N) == t.A.eval(N, x) * b ** (k - 1), (k, x, N)

    def test_x_zero_values(self):
        for k in range(1, 31):
            t = solve_triple(k)
            assert horner(t.U, 0) == horner(t.V, 0) == -1 and horner(t.A.eval_n(7), 0) == 1
            assert telescope_combo(unit_combo(k), 0) == (-1, [1])
        assert telescope_combo((2, 0, -5), 0) == (3, [-3])

    def test_degree_zero_and_scale(self):
        # P = 7: A = 0 and u = 7.  P = n at x = 2 has A = 1/2 and u = -1/2,
        # so it needs the scale s = a^d = 2: P lists s p_m, and the result is
        # s u = -1 and s A = 1
        assert telescope([7], 3) == (7, [])
        with pytest.raises(ValueError, match="inexact"):
            telescope([0, 1], 2)
        assert telescope([0, 2], 2) == (-1, [1])

    def test_unit_combo(self):
        assert unit_combo(1) == (1,) and unit_combo(4) == (0, 0, 0, 1)
        assert unit_combo(0) == ()
        with pytest.raises(ValueError):
            telescope_combo(unit_combo(0), 1)


def test_compute_A_family_base_case():
    assert compute_A_family(0) == [BivarPoly.make([[1]])]
    with pytest.raises(ValueError, match="kmax must be nonnegative"):
        compute_A_family(-1)


def test_summation_triple_record():
    t = build_triple(2)
    check_record(SummationTriple, k=2, U=t.U, V=t.V, A=t.A)
    assert t == solve_triple(2) != build_triple(3)
