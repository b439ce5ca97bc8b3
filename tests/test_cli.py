import dataclasses
import json
from fractions import Fraction

import pytest

import padicsum.cli as cli
from padicsum import Prime, ValExponent, truncated_padic_sum, verify_identity
from padicsum.cli import fmt_exp, fmt_q, main, parse_int_set, parse_rational_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def machine_records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestFlagParsing:
    def test_int_sets(self):
        assert parse_int_set("2,3,5") == [2, 3, 5]
        assert parse_int_set("-3..3") == [-3, -2, -1, 0, 1, 2, 3]
        assert parse_int_set("1..2,7") == [1, 2, 7]

    def test_rational_sets(self):
        assert parse_rational_set("1/2,-3") == [Fraction(1, 2), Fraction(-3)]
        assert parse_rational_set("0..2") == [0, 1, 2]

    @pytest.mark.parametrize("text", ["5..1", "1..2..3", "a..2", "1..", "3,2..1"])
    def test_bad_ranges_raise(self, text):
        with pytest.raises(ValueError, match="range"):
            parse_int_set(text)
        with pytest.raises(ValueError, match="range"):
            parse_rational_set(text)


class TestTriples:
    def test_human_k1(self, capsys):
        code, out = run(capsys, "triples", "--kmax", "1")
        assert code == 0
        assert "U_1 = x - 1; V_1 = -1; A_0 = 1" in out

    def test_human_k6_matches_table(self, capsys):
        code, out = run(capsys, "triples", "--kmax", "6")
        assert code == 0
        assert "V_6 = 6*x^5 - 129*x^4 + 246*x^3 - 121*x^2 + 20*x - 1" in out

    def test_machine_coefficients(self, capsys):
        code, out = run(capsys, "--format", "machine", "triples", "--kmax", "2")
        assert code == 0
        recs = machine_records(out)
        assert recs[0]["result"]["U"] == [-1, 1]
        assert recs[1]["result"]["V"] == [-1, 2]
        assert recs[1]["result"]["A"] == [[1], [-2, 1]]

    def test_kmax_zero_is_usage_error(self, capsys):
        code, _ = run(capsys, "triples", "--kmax", "0")
        assert code == 2


class TestVerify:
    def test_telescoping_grid(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "verify", "--k", "1", "--n-max", "5",
            "--x-set", "1",
        )
        assert code == 0
        recs = machine_records(out)
        assert len(recs) == 5
        assert all(r["ok"] for r in recs)

    def test_grid_with_primes(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "verify", "--k", "2", "--n-max", "4",
            "--x-set=-2..2", "--p-list", "2,3",
        )
        assert code == 0
        recs = machine_records(out)
        identity = [r for r in recs if "lhs" in r["result"]]
        certs = [r for r in recs if "achieved_exponent" in r["result"]]
        assert len(identity) == 5 * 4
        # x = 0 emits no certificate
        assert len(certs) == 4 * 4 * 2
        for r in certs:
            ach, bound = r["result"]["achieved_exponent"], r["result"]["bound_exponent"]
            assert ach == "inf" or ach >= bound

    def test_rejection_record(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "verify", "--k", "1", "--n-max", "1",
            "--x-set", "1/2", "--p-list", "2",
        )
        assert code == 0
        recs = machine_records(out)
        rejected = [r for r in recs if r["result"].get("rejected")]
        assert len(rejected) == 1
        assert "Z_2" in rejected[0]["result"]["reason"]

    def test_deterministic_ordering(self, capsys):
        args = ("--format", "machine", "verify", "--k", "1..2", "--n-max", "2",
                "--x-set", "1,2", "--p-list", "2,3")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2
        keys = [
            (r["params"]["k"], r["params"]["N"], r["params"]["x"], r["params"].get("p", 0))
            for r in machine_records(out1)
        ]
        assert keys == sorted(keys)


    def test_matches_per_point_certificates(self, capsys):
        xs = [Fraction(v) for v in range(-2, 3)] + [Fraction(-5, 3)]
        code, out = run(
            capsys, "--format", "machine", "verify", "--k", "1..3", "--n-max", "6",
            "--x-set=-2..2,-5/3", "--p-list", "2,3",
        )
        assert code == 0
        expected = []
        for k in range(1, 4):
            for N in range(1, 7):
                for x in xs:
                    c = verify_identity(k, N, x)
                    params = {"k": k, "N": N, "x": fmt_q(x)}
                    result = {"lhs": fmt_q(c.lhs), "rhs": fmt_q(c.rhs), "tail": fmt_q(c.tail)}
                    expected.append(
                        {"command": "verify", "params": params, "result": result, "ok": True}
                    )
                    for p in (2, 3):
                        if x.denominator != 1:
                            result = {"rejected": True, "reason": f"x not in Z_{p}"}
                        elif x == 0:
                            continue
                        else:
                            cert = truncated_padic_sum(k, int(x), Prime(p), N)
                            result = {
                                "partial": fmt_q(cert.partial),
                                "target": fmt_q(cert.target),
                                "tail": fmt_q(cert.tail),
                                "achieved_exponent": fmt_exp(cert.distance_exponent),
                                "bound_exponent": cert.bound_exponent,
                            }
                        expected.append({
                            "command": "verify", "params": dict(params, p=p),
                            "result": result, "ok": True,
                        })
        assert machine_records(out) == expected

    def test_failed_certificate_is_reported(self, capsys, monkeypatch):
        real = cli.certificate_from_check

        def forged(check, p):
            cert = real(check, p)
            return dataclasses.replace(
                cert, distance_exponent=ValExponent.of(0), bound_exponent=99
            )

        monkeypatch.setattr(cli, "certificate_from_check", forged)
        argv = ("verify", "--k", "1", "--n-max", "2", "--x-set", "1", "--p-list", "2")
        code, out = run(capsys, "--format", "machine", *argv)
        assert code == 1
        certs = [r for r in machine_records(out) if "p" in r["params"]]
        assert len(certs) == 2 and not any(r["ok"] for r in certs)
        assert certs[0]["result"]["bound_exponent"] == 99
        code, out = run(capsys, *argv)
        assert code == 1
        assert out.count("bound=99 FAIL") == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--k", "5..1", "--n-max", "3", "--x-set", "1"), "empty range '5..1'"),
            (("--k", "1", "--n-max", "3", "--x-set=2..1"), "empty range '2..1'"),
            (("--k", "1", "--n-max", "0", "--x-set", "1"), "--n-max must be >= 1"),
            (("--k", "1..2..3", "--n-max", "3", "--x-set", "1"), "malformed range '1..2..3'"),
            (("--k", "0..2", "--n-max", "3", "--x-set", "1"), "k must be >= 1"),
        ],
    )
    def test_range_errors_are_usage_errors(self, capsys, flags, message):
        code = main(["verify", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "unpack" not in captured.err


class TestSum:
    def test_paper_values(self, capsys):
        for argv, expect in [
            (("sum", "--k", "1", "--x", "1"), -1),
            (("sum", "--k", "2", "--x", "-1"), -3),
            (("sum", "--k", "2", "--C", "1,1", "--x", "1"), 0),
        ]:
            code, out = run(capsys, "--format", "machine", *argv)
            assert code == 0
            assert machine_records(out)[0]["result"]["sum"] == expect

    def test_rejects_rational_x(self, capsys):
        code, _ = run(capsys, "sum", "--k", "1", "--x", "1/2")
        assert code == 2


class TestPadic:
    def test_minus_one(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "padic", "--value", "-1", "--p", "5",
            "--digits", "4",
        )
        assert code == 0
        rec = machine_records(out)[0]
        assert rec["result"]["digits"] == [4, 4, 4, 4]

    def test_one_third(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "padic", "--value", "1/3", "--p", "2",
            "--digits", "4",
        )
        rec = machine_records(out)[0]
        assert rec["result"]["digits"] == [1, 1, 0, 1]

    def test_negative_valuation_flagged(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "padic", "--value", "1/5", "--p", "5",
        )
        rec = machine_records(out)[0]
        assert rec["result"]["valuation"] == -1
        assert rec["result"]["in_Zp"] is False

    def test_composite_p_is_usage_error(self, capsys):
        code, _ = run(capsys, "padic", "--value", "1", "--p", "4")
        assert code == 2


class TestBernoulli:
    def test_table(self, capsys):
        code, out = run(capsys, "--format", "machine", "bernoulli", "--nmax", "4")
        assert code == 0
        recs = machine_records(out)
        got = [(r["result"]["numerator"], r["result"]["denominator"]) for r in recs]
        assert got == [(1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30)]

    def test_identity(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "bernoulli", "--identity", "2", "--N", "6",
        )
        assert code == 0
        rec = machine_records(out)[0]
        assert rec["result"]["lhs"] == rec["result"]["rhs"]

    def test_level(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "bernoulli", "--level", "5", "2",
            "--poly", "0,1",
        )
        assert code == 0
        rec = machine_records(out)[0]
        assert rec["result"]["value"] == 12  # (25 - 1)/2


class TestKurepa:
    def test_scans(self, capsys):
        code, out = run(
            capsys, "--format", "machine", "kurepa", "--gcd-max", "50",
            "--digit-max", "100",
        )
        assert code == 0
        recs = machine_records(out)
        assert recs[0]["result"]["gcd_ok_up_to"] == 50
        assert recs[1]["result"]["first_failure"] is None

    def test_no_flags_is_usage_error(self, capsys):
        code, _ = run(capsys, "kurepa")
        assert code == 2


class TestSequences:
    def test_lists(self, capsys):
        code, out = run(capsys, "--format", "machine", "sequences", "--kmax", "6")
        assert code == 0
        recs = {r["params"]["sequence"]: r["result"]["values"] for r in machine_records(out)}
        assert recs["neg_v"] == [1, -1, -1, 5, -5, -21]
        assert recs["neg_vbar"] == [1, 3, 9, 31, 121, 523]
        assert recs["u"] == [0, 1, -1, -2, 9, -9]
        assert recs["neg_ubar"] == [2, 5, 15, 52, 203, 877]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag(self, capsys):
        assert main(["triples", "--bogus"]) == 2

    def test_human_and_machine_same_numbers(self, capsys):
        _, human = run(capsys, "sum", "--k", "3", "--x", "-1")
        _, machine = run(capsys, "--format", "machine", "sum", "--k", "3", "--x", "-1")
        value = machine_records(machine)[0]["result"]["sum"]
        assert str(value) in human
