import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicsum.cli as cli
import padicsum.sequences as sequences
from padicsum import (
    Prime, SumCertificate, bernoulli_identity_partial, bernoulli_numbers, factorial_norm_exponent,
    truncated_padic_sum, verify_identity, vp,
)
from padicsum.cli import count, expand, fmt_q, main, parse_parts
from test_sequences import on_routes


def parse_set(text, kind=int):
    """The values of a comma-list flag, as the commands read them."""
    return expand(parse_parts(text, kind), kind)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def machine_records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestFlagParsing:
    def test_int_sets(self):
        assert parse_set("2,3,5") == [2, 3, 5]
        assert parse_set("-3..3") == [-3, -2, -1, 0, 1, 2, 3]
        assert parse_set("1..2,7") == [1, 2, 7]
        # a span stays a range until expanded; count includes repeats
        parts = parse_parts(f" 1..{10**9}, 7,7")
        assert parts == [range(1, 10**9 + 1), (7,), (7,)] and count(parts) == 10**9 + 2

    def test_rational_sets(self):
        assert parse_set("1/2,-3", Fraction) == [Fraction(1, 2), Fraction(-3)]
        xs = parse_set("0..2", Fraction)
        assert xs == [0, 1, 2] and all(type(x) is Fraction for x in xs)

    def test_rationals_are_charged_for_every_exponent(self, monkeypatch):
        monkeypatch.delenv("PADICSUM_WORK_LIMIT", raising=False)
        # d^2 // 128 at d = len(text) + |exponent|, read as Fraction reads one:
        # 357,770 digits pass, 357,771 do not
        assert cli.rationals("1e357762") == "1e357762"
        with pytest.raises(ValueError, match="^about 357771 digits: cost 1000000690 exceeds"):
            cli.rationals("1e357763")
        with pytest.raises(ValueError, match="^about 357771 digits"):
            cli.rationals("-1E-357_760")
        # every exponent of a list counts: each of these passes alone, not both together
        assert cli.rationals("1e200000") == "1e200000"
        with pytest.raises(ValueError, match="^about 400019 digits"):
            cli.rationals("1e200000,1E+200_000")
        assert cli.rationals("-3..3,1/2,0.25") == "-3..3,1/2,0.25"

    def test_exponents_read_as_fraction_reads_them(self, capsys):
        code, out = run(capsys, "--format", "machine", "padic", "--value", "1e5", "--p", "3")
        assert code == 0 and machine_records(out)[0]["params"]["value"] == 100000
        code, out = run(capsys, "--format", "machine", "verify", "--k", "1", "--n-max", "1",
                        "--x-set", "1e2,-2.5e-1,1_0E-1")
        assert code == 0
        assert [rec["params"]["x"] for rec in machine_records(out)] == [100, "-1/4", 1]

    @pytest.mark.parametrize("text", ["5..1", "1..2..3", "a..2", "1..", "3,2..1"])
    def test_bad_ranges_raise(self, text):
        with pytest.raises(ValueError, match="range"):
            parse_set(text)
        with pytest.raises(ValueError, match="range"):
            parse_set(text, Fraction)


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
        self.check_per_point_certificates(capsys, (2, 3))

    def test_matches_per_point_certificates_at_four_primes(self, capsys):
        # four primes, as in the verify benchmark workload, share each check's certificate text
        self.check_per_point_certificates(capsys, (2, 3, 5, 7))

    @staticmethod
    def check_per_point_certificates(capsys, primes):
        xs = [Fraction(v) for v in range(-2, 3)] + [Fraction(-5, 3)]
        code, out = run(
            capsys, "--format", "machine", "verify", "--k", "1..3", "--n-max", "6",
            "--x-set=-2..2,-5/3", "--p-list", ",".join(map(str, primes)),
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
                    for p in primes:
                        if x.denominator != 1:
                            result = {"rejected": True, "reason": f"x not in Z_{p}"}
                        elif x == 0:
                            continue
                        else:
                            cert = truncated_padic_sum(k, int(x), Prime(p), N)
                            (e,) = cert.distance_exponents
                            result = {
                                "partial": fmt_q(cert.partial),
                                "target": fmt_q(cert.target),
                                "tail": fmt_q(cert.tail),
                                "achieved_exponent": "inf" if e is None else e,
                                # the bound from its definition, not from the certificate
                                "bound_exponent": factorial_norm_exponent(N, Prime(p))
                                + N * vp(x, Prime(p)),
                            }
                        expected.append({
                            "command": "verify", "params": dict(params, p=p),
                            "result": result, "ok": True,
                        })
        assert machine_records(out) == expected

    def test_one_write_per_step(self, monkeypatch):
        # each step N writes the records of every x at once: one system call
        # per step, not per record, when stdout is unbuffered
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": writes.append})())
        for fmt in ("machine", "human"):
            writes.clear()
            code = main(["--format", fmt, "verify", "--k", "1..2", "--n-max", "3",
                         "--x-set=0,2,1/2", "--p-list", "2,3"])
            assert code == 0 and len(writes) == 2 * 3
            # per step: 3 identities, 2 certificates at x = 2, 2 rejections at x = 1/2
            assert [w.count("\n") for w in writes] == [7] * 6 and writes[0].endswith("\n")

    def test_failed_certificate_is_reported(self, capsys, monkeypatch):
        real = cli.certificate_from_check

        def forged(check, primes):
            c = real(check, primes)
            return SumCertificate(c.k, c.N, c.x, c.primes, c.partial, c.target, c.tail,
                                  (99,) * len(c.primes))

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

    def test_spliced_lines_are_json_dumps(self, capsys, monkeypatch):
        real = cli.certificate_from_check

        def forge(check, primes):
            c = real(check, primes)
            if c.x == -2:  # partial - target != tail: ok false at every prime
                return SumCertificate(c.k, c.N, c.x, c.primes, c.partial + 1, c.target, c.tail,
                                      c.bound_exponents)
            if c.x == -1:  # partial == target and tail 0: achieved exponent inf at every prime
                return SumCertificate(c.k, c.N, c.x, c.primes, c.target, c.target, 0,
                                      c.bound_exponents)
            if c.x == 1:  # a bound of 99 at p = 2 alone
                return SumCertificate(c.k, c.N, c.x, c.primes, c.partial, c.target, c.tail,
                                      (99,) + c.bound_exponents[1:])
            return c

        # a forged bound at one prime shows in that prime's record alone
        monkeypatch.setattr(cli, "certificate_from_check", forge)
        code, out = run(
            capsys, "--format", "machine", "verify", "--k", "1..2", "--n-max", "3",
            "--x-set=-2..1,3/2,-5/4", "--p-list", "2,3,5",
        )
        assert code == 1
        lines = out.splitlines()
        # k 2 * N 3 * (6 identities + 3 primes * (3 nonzero integers + 2 rejected))
        assert len(lines) == 6 * (6 + 3 * 5)
        for line in lines:
            assert json.dumps(json.loads(line)) == line
        recs = machine_records(out)
        assert {r["params"]["x"] for r in recs} == {-2, -1, 0, 1, "3/2", "-5/4"}
        certs = {x: [r for r in recs if r["params"]["x"] == x and "partial" in r["result"]]
                 for x in (-2, -1, 1)}
        assert all(len(certs[x]) == 6 * 3 for x in certs)
        assert not any(r["ok"] for r in certs[-2])
        assert all(r["ok"] and r["result"]["achieved_exponent"] == "inf"
                   and r["result"]["tail"] == 0 for r in certs[-1])
        # at p = 2 only an infinite distance, where k = 2 and N = 1 leave tail 0, meets 99
        assert all(r["ok"] is (r["params"]["p"] != 2 or r["result"]["achieved_exponent"] == "inf")
                   and (r["result"]["bound_exponent"] == 99) is (r["params"]["p"] == 2)
                   for r in certs[1])
        assert sum(not r["ok"] for r in certs[1]) == 5
        assert any(isinstance(r["result"].get("lhs"), str) for r in recs)
        assert all(r["result"] == {"rejected": True, "reason": f"x not in Z_{r['params']['p']}"}
                   for r in recs if r["params"]["x"] in ("3/2", "-5/4") and "p" in r["params"])
        # the same forgeries in human mode
        code, out = run(
            capsys, "verify", "--k", "1..2", "--n-max", "3", "--x-set=-2..1,3/2,-5/4",
            "--p-list", "2,3,5",
        )
        assert code == 1
        human = {x: [line for line in out.splitlines()
                     if line.startswith("certificate ") and f" x={x} p=" in line
                     and ": partial=" in line] for x in (-2, -1, 1)}
        assert all(len(human[x]) == 6 * 3 for x in human)
        assert all(line.endswith(" FAIL") for line in human[-2])
        assert all(" achieved=inf " in line and line.endswith(" ok") for line in human[-1])
        assert all(line.endswith(" bound=99 FAIL" if " p=2:" in line and " achieved=inf "
                                 not in line else " ok") for line in human[1])
        assert sum(line.endswith(" FAIL") for line in human[1]) == 5

    def test_each_certificate_prints_its_own_fields(self, capsys, monkeypatch):
        real = cli.certificate_from_check

        def forge(check, primes):  # the middle x of three: partial - target != tail
            c = real(check, primes)
            if c.x != 1:
                return c
            return SumCertificate(c.k, c.N, c.x, c.primes, c.partial + 1, c.target - 1,
                                  c.tail + 3, c.bound_exponents)

        monkeypatch.setattr(cli, "certificate_from_check", forge)
        argv = ("verify", "--k", "1..2", "--n-max", "3", "--x-set=-2,1,3", "--p-list", "2,3,5")

        def expected(k, N, x, p):
            c = verify_identity(k, N, x)
            shift = (1, -1, 3) if x == 1 else (0, 0, 0)
            return tuple(v + s for v, s in zip((c.lhs, c.target, c.tail), shift))

        code, out = run(capsys, "--format", "machine", *argv)
        assert code == 1
        certs = [r for r in machine_records(out) if "p" in r["params"]]
        assert len(certs) == 2 * 3 * 3 * 3
        for r in certs:
            shown = tuple(r["result"][f] for f in ("partial", "target", "tail"))
            assert shown == expected(*r["params"].values())
            assert r["ok"] is (r["params"]["x"] != 1)
        # human mode prints partial and target
        code, out = run(capsys, *argv)
        assert code == 1
        lines = [line for line in out.splitlines() if line.startswith("certificate ")]
        assert len(lines) == len(certs)
        for line in lines:
            head, _, rest = line.partition(": ")
            k, N, x, p = (int(word.split("=")[1]) for word in head.split()[1:])
            partial, target, _ = expected(k, N, x, p)
            assert rest.startswith(f"partial={partial} target={target} achieved=")
            assert rest.endswith(" FAIL" if x == 1 else " ok")

    def test_one_certificate_per_check_on_the_benchmark_grid(self, capsys, monkeypatch):
        # the seed-0 verify workload: k 1..10 and N 1..15 at six nonzero integer x
        # build 900 certificates, each for all four primes, and print 3,600 records
        built = []
        init = SumCertificate.__init__
        monkeypatch.setattr(SumCertificate, "__init__",
                            lambda self, *args: built.append(args[3]) or init(self, *args))
        code, out = run(capsys, "--format", "machine", "verify", "--k", "1..10", "--n-max",
                        "15", "--x-set=-3..3,-6/5,-6/7", "--p-list", "2,3,5,7")
        assert code == 0
        assert len(built) == 10 * 15 * 6 == 900
        assert set(built) == {(2, 3, 5, 7)}
        assert sum('"achieved_exponent"' in line for line in out.splitlines()) == 4 * 900

    def test_repeated_grid_values_are_read_once(self, capsys):
        # k, x (by value) and p each once: a repeat adds no record
        code, once = run(capsys, "--format", "machine", "verify", "--k", "1", "--n-max", "1",
                         "--x-set", "2", "--p-list", "3")
        assert code == 0 and len(once.splitlines()) == 2
        code, out = run(capsys, "--format", "machine", "verify", "--k", "1,1", "--n-max", "1",
                        "--x-set", "2,2,4/2", "--p-list", "3,3")
        assert code == 0 and out == once
        # k ascending, x and p in first-seen order
        code, out = run(capsys, "--format", "machine", "verify", "--k", "2,1,2", "--n-max", "1",
                        "--x-set", "3,1,6/2,1", "--p-list", "5,2,5")
        assert code == 0
        heads = [(r["params"]["k"], r["params"]["x"], r["params"].get("p"))
                 for r in machine_records(out)]
        assert heads == [(k, x, p) for k in (1, 2) for x in (3, 1) for p in (None, 5, 2)]

    def test_machine_mode_builds_lines_without_encode_json(self, capsys, monkeypatch):
        def refuse(record):
            raise RuntimeError("encode_json called")

        monkeypatch.setattr(cli, "encode_json", refuse)
        with pytest.raises(RuntimeError):  # the patch reaches the other commands
            main(["--format", "machine", "sum", "--k", "1", "--x", "1"])
        code, out = run(
            capsys, "--format", "machine", "verify", "--k", "1..2", "--n-max", "3",
            "--x-set=-1..1,1/2", "--p-list", "2,3",
        )
        assert code == 0
        assert len(machine_records(out)) == 6 * (4 + 2 * 3)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--k", "5..1", "--n-max", "3", "--x-set", "1"), "empty range '5..1'"),
            (("--k", "1", "--n-max", "3", "--x-set=2..1"), "empty range '2..1'"),
            (("--k", "1", "--n-max", "0", "--x-set", "1"), "--n-max must be >= 1"),
            (("--k", "1..2..3", "--n-max", "3", "--x-set", "1"), "malformed range '1..2..3'"),
            (("--k", "0..2", "--n-max", "3", "--x-set", "1"), "--k must be >= 1"),
            (("--k", "1", "--n-max", "1", "--x-set=1/0"),
             "--x-set has a zero denominator: '1/0'"),
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
            (("sum", "--k", "3", "--C", "2,-1,3", "--x", "-2"), -66),
            (("sum", "--k", "4", "--C", "0,0,0,1", "--x", "3"), -19),
            (("sum", "--k", "4", "--x", "3"), -19),
        ]:
            code, out = run(capsys, "--format", "machine", *argv)
            assert code == 0
            assert machine_records(out)[0]["result"]["sum"] == expect

    def test_rejects_rational_x(self, capsys):
        code, _ = run(capsys, "sum", "--k", "1", "--x", "1/2")
        assert code == 2

    def test_k_below_one_names_the_flag(self, capsys):
        code = main(["sum", "--k", "0", "--x", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: --k must be >= 1\n")

    def test_C_of_the_wrong_length_is_refused_before_its_values(self, capsys):
        # 2 * 10^6 values took 0.45 s and 94 MB to build before the length was checked
        start = time.perf_counter()
        code = main(["sum", "--k", "1", "--C", "1..900000000", "--x", "1"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: --C must list exactly k coefficients\n"

    def test_zero_denominator_names_the_flag(self, capsys):
        code = main(["sum", "--k", "1", "--x", "1/0"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: --x has a zero denominator: '1/0'\n")


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

    def test_zero(self, capsys):
        code, out = run(capsys, "--format", "machine", "padic", "--value", "0", "--p", "3")
        assert code == 0
        rec = machine_records(out)[0]
        assert rec["result"] == {"valuation": "inf", "digits": [0] * 10, "in_Zp": True}
        code, out = run(capsys, "padic", "--value", "0", "--p", "3")
        assert (code, out) == (0, "0 = (0,0,0,0,0,0,0,0,0,0)*3^0\n")

    def test_composite_p_is_usage_error(self, capsys):
        code, _ = run(capsys, "padic", "--value", "1", "--p", "4")
        assert code == 2

    def test_digits_below_one_names_the_flag(self, capsys):
        code = main(["padic", "--value", "1", "--p", "3", "--digits", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: --digits must be >= 1\n")

    def test_zero_denominator_names_the_flag(self, capsys):
        code = main(["padic", "--value", "1/0", "--p", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", "error: --value has a zero denominator: '1/0'\n")


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

    @pytest.mark.parametrize(
        "k, N, flag", [("2", "-5", "--N"), ("0", "3", "--identity")], ids=["2--5", "0-3"]
    )
    def test_bad_identity_is_usage_error(self, capsys, k, N, flag):
        code = main(["bernoulli", "--identity", k, "--N", N])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--nmax", "-1"], "--nmax must be >= 0"),
            (["--level", "3", "0"], "--level M must be >= 1"),
            # refused before 3^2000000 is built, without its digits
            (["--level", "3", "2000000"],
             "--level: p^m exceeds work limit 1000000000 (p = 3, m = 2000000)"),
        ],
    )
    def test_bad_bound_is_usage_error_before_any_work(
        self, capsys, monkeypatch, argv, message
    ):
        monkeypatch.delenv("PADICSUM_WORK_LIMIT", raising=False)
        code = main(["--format", "machine", "bernoulli", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nmax", "3", "--identity", "2", "--N", "3"],
            ["--identity", "2", "--N", "3", "--level", "5", "1"],
            ["--nmax", "3", "--level", "5", "1"],
            [],
        ],
        ids=["nmax-identity", "identity-level", "nmax-level", "none"],
    )
    def test_exactly_one_mode(self, capsys, argv):
        for fmt in ("human", "machine"):
            code = main(["--format", fmt, "bernoulli", *argv])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err == (
                "error: bernoulli takes exactly one of --nmax, --identity and --level\n")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit cap"
    )
    def test_table_past_the_int_digit_cap(self, capsys):
        # CPython caps int <-> decimal str conversion; B_450's numerator has
        # 649 digits, past the least cap of 640, and still prints exactly
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["--format", "machine", "bernoulli", "--nmax", "450"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(cap)
        assert code == 0
        last = machine_records(capsys.readouterr().out)[-1]["result"]
        assert Fraction(last["numerator"], last["denominator"]) == bernoulli_numbers(450)[450]


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

    def test_forced_failure_human(self, capsys, monkeypatch):
        # the true digits, except a zero at p = 17, the 6th odd prime
        tree = sequences.kurepa_digits
        monkeypatch.setattr(sequences, "kurepa_digits", lambda primes: [
            0 if q == 17 else d for q, d in zip(primes, tree(primes))])
        for _ in on_routes(monkeypatch):
            code, out = run(capsys, "kurepa", "--digit-max", "100")
            assert (code, out) == (
                1, "0th digit nonzero for the 5 odd primes below 17; FAILURE at p = 17\n")
            code, out = run(capsys, "--format", "machine", "kurepa", "--digit-max", "100")
            assert code == 1
            assert machine_records(out)[0]["result"] == {"primes_checked": 6, "first_failure": 17}

    def test_no_flags_is_usage_error(self, capsys):
        code, _ = run(capsys, "kurepa")
        assert code == 2

    def test_one_table_for_both_scans(self, capsys, monkeypatch):
        trees, tree = [], sequences.kurepa_digits
        monkeypatch.setattr(sequences, "kurepa_digits",
                            lambda primes: trees.append(primes) or tree(primes))
        for _ in on_routes(monkeypatch):
            trees.clear()
            code, out = run(capsys, "--format", "machine", "kurepa", "--gcd-max", "200",
                            "--digit-max", "100")
            assert code == 0 and [len(primes) for primes in trees] == [45]  # odd primes to 200
            assert [rec["result"] for rec in machine_records(out)] == [
                {"gcd_ok_up_to": 200, "first_failure": None},
                {"primes_checked": 24, "first_failure": None}]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--digit-max", str(10**12)], "--digit-max"),
            (["--gcd-max", str(10**12), "--digit-max", "100"], "--gcd-max"),
            (["--gcd-max", "100", "--digit-max", str(10**12)], "--digit-max"),
            # 2,097,152 * 22^2 > 10^9 >= 2,097,151 * 21^2
            (["--digit-max", "2097152"], "--digit-max"),
        ],
    )
    def test_over_the_work_limit_is_usage_error_before_the_sieve(
        self, capsys, monkeypatch, argv, flag
    ):
        monkeypatch.delenv("PADICSUM_WORK_LIMIT", raising=False)
        start = time.perf_counter()
        code = main(["--format", "machine", "kurepa", *argv])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {flag}: a Kurepa table to ")
        assert "exceeds work limit 1000000000" in captured.err

    def test_digit_max_to_a_million_is_within_the_default_limit(self, capsys, monkeypatch):
        # the guard alone: the sieve is replaced, so no table is built
        sieved = []
        monkeypatch.setattr(sequences, "odd_primes", lambda bound: sieved.append(bound) or [])
        monkeypatch.delenv("PADICSUM_WORK_LIMIT", raising=False)
        for bound in (10**6, 2097151):
            code, _ = run(capsys, "kurepa", "--digit-max", str(bound))
            assert code == 0
        assert sieved == [10**6, 2097151]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--gcd-max", "10", "--digit-max", "2"], "--digit-max must be >= 3"),
            (["--gcd-max", "1", "--digit-max", "100"], "--gcd-max must be >= 2"),
            (["--gcd-max", "1"], "--gcd-max must be >= 2"),
            (["--digit-max", "-5"], "--digit-max must be >= 3"),
        ],
    )
    def test_bad_bound_is_usage_error_before_any_scan(self, capsys, argv, flag):
        code = main(["--format", "machine", "kurepa", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flag}\n"


class TestSequences:
    def test_lists(self, capsys):
        code, out = run(capsys, "--format", "machine", "sequences", "--kmax", "6")
        assert code == 0
        recs = {r["params"]["sequence"]: r["result"]["values"] for r in machine_records(out)}
        assert recs["neg_v"] == [1, -1, -1, 5, -5, -21]
        assert recs["neg_vbar"] == [1, 3, 9, 31, 121, 523]
        assert recs["u"] == [0, 1, -1, -2, 9, -9]
        assert recs["neg_ubar"] == [2, 5, 15, 52, 203, 877]


class Reached(Exception):
    """Raised in place of a command's work, so that a test of its guard runs none."""


def refuse_work(monkeypatch, command):
    def reached(*args, **kwargs):
        raise Reached(command)
    # the kernels each command calls: verify and bernoulli --nmax/--identity run on scaled
    # ints, not on the Fraction views identity_checks, bernoulli_numbers and
    # bernoulli_identity_partial
    names = {"triples": ["iter_triples"], "verify": ["scaled_checks"],
             "sum": ["invariant_sum"], "sequences": ["paper_sequences"],
             "bernoulli": ["bernoulli_pairs", "scaled_bernoulli_identity", "volkenborn_level"],
             "padic": ["padic_expand"]}[command]
    for name in names:
        monkeypatch.setattr(cli, name, reached)


class TestWorkLimit:
    # costs: verify (#x) max(work, held), work = sum_k k^3 (kmax + 8 X) // 256 + (#k)(2500
    # + kmax^2 + n (kmax + 700 + 700 min(#p, 1) + 500 #p) + n B (B (1 + min(#p, 1))
    # + 3 n (1 + X) #odd p) // 8192) and held = 10600 + (kmax + 4)(B + 170) + (1 + #p)(4000
    # + 16 B), the lists' lengths counted with repeats, X the largest bitlen(|a| b) of an
    # x = a/b and B = n (bitlen(n) + X) + kmax (bitlen(kmax) + bitlen(n) + X), sum
    # k^3 (k + 20 bitlen(x)) // 500, triples
    # kmax^4 bitlen(kmax) // 4, sequences kmax^4, bernoulli --nmax nmax^3 // 32,
    # --identity K --N N (N + K - 1)^3 // 32 + K^4 // 24, --level P M with a
    # d-coefficient --poly d^3 (M bitlen(P) + bitlen(d)) // 5, padic D^2 bitlen(p - 1) // 32
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["triples", "--kmax", "10000"], "--kmax"),
            (["triples", "--kmax", "150"], "--kmax"),  # 150^4 * 8 // 4 > 10^9
            (["sequences", "--kmax", "1001"], "--kmax"),
            (["sum", "--k", "832", "--x", "2"], "--k"),  # 832^3 * 872 // 500 > 10^9
            (["verify", "--k", "1..30", "--n-max", "10000000", "--x-set=-3..3",
              "--p-list", "2,3,5"], "--k, --x-set, --n-max and --p-list"),
            # a range is refused before the list of its values is built
            (["verify", "--k", f"1..{10**12}", "--n-max", "3", "--x-set=1"],
             "--k: range '1..1000000000000': cost 1000000000000 exceeds"),
            (["sequences", "--kmax", "1000"], "--kmax"),
            # unbounded, these ran 30.8, 11.8, 14.8, 123 and 12.7 s (CPython 3.11, 2 vCPUs)
            (["bernoulli", "--nmax", "6000"], "--nmax"),
            (["bernoulli", "--identity", "5", "--N", "4000"], "--identity and --N"),
            (["bernoulli", "--identity", "500", "--N", "1"], "--identity and --N"),
            (["bernoulli", "--level", "2", "1", "--poly", "1..2000"], "--level and --poly"),
            (["padic", "--value", "1/3", "--p", "2", "--digits", "300000"], "--digits"),
            # refused from the span's length, before 9 * 10^8 values are built
            (["verify", "--k", "1", "--n-max", "1", "--x-set=1..900000000"],
             "--k, --x-set, --n-max and --p-list"),
            # these passed the operation counts of k^3 and k^2, and ran 47 s and 41 s
            (["triples", "--kmax", "250"], "--kmax"),
            (["sum", "--k", "1600", "--x", "2"], "--k and --x"),
            (["sum", "--k", "31622", "--x", "2"], "--k and --x"),
            # x's size counts: --k 200 took 1.7 s at a 1000-bit x and 6.5 s at 3000 bits
            (["sum", "--k", "200", "--x", str(10**3000)], "--k and --x"),
            # these passed (#k)(#x)(kmax^2 + n_max (kmax + #p)), the form before the
            # bits of a step, the valuation of each odd p and the telescopes counted:
            # more than a day extrapolated from --n-max 2000 (0.8 s) as n^3, then 5.2 s,
            # 4.9 s (both with the O(log v) valuation), and 20 minutes extrapolated
            # from --k 1..200 (0.75 s) as k^5
            (["verify", "--k", "1", "--n-max", "100000", "--x-set", "2"],
             "--k, --x-set, --n-max and --p-list"),
            (["verify", "--k", "1", "--n-max", "2500", "--x-set", "2", "--p-list", "2,3,5,7"],
             "--k, --x-set, --n-max and --p-list"),
            (["verify", "--k", "1", "--n-max", "1050", "--x-set", str(3**20), "--p-list", "3"],
             "--k, --x-set, --n-max and --p-list"),
            (["verify", "--k", "1..900", "--n-max", "1", "--x-set", "2"],
             "--k, --x-set, --n-max and --p-list"),
            # an exponent's zeros are charged before Fraction builds the value: these
            # ran more than 60 s, more than 60 s and 44 s (to build 10^30000000)
            (["padic", "--value", "1e3000000", "--p", "2", "--digits", "1"],
             "--value: about 3000009 digits"),
            (["sum", "--k", "1", "--x", "1e3000000"], "--x: about 3000009 digits"),
            (["verify", "--k", "1", "--n-max", "1", "--x-set", "1e30000000"],
             "--x-set: about 30000010 digits"),
            (["padic", "--value", "1e3_000_000", "--p", "2"], "--value: about 3000011 digits"),
            (["verify", "--k", "1", "--n-max", "1", "--x-set=0,-1E-3000000"],
             "--x-set: about 3000013 digits"),
            # the whole list is charged before any value is built; each value charged
            # alone passes, and building the 50 took about 1.5 s
            (["verify", "--k", "1", "--n-max", "1", "--x-set", ",".join(["1e300000"] * 50)],
             "--x-set: about 15000449 digits"),
            # these passed at about 2 units an x, each x's stream and step held at once:
            # 10^5 values ran 1.65 s and peaked at 288 MB, and 10^6 would need about 2.7 GB
            (["verify", "--k", "1", "--n-max", "1", "--x-set=1..100000"],
             "--k, --x-set, --n-max and --p-list"),
            (["verify", "--k", "1", "--n-max", "1", "--x-set=1..1000000"],
             "--k, --x-set, --n-max and --p-list"),
        ],
    )
    def test_over_budget_is_usage_error_before_any_work(
        self, capsys, monkeypatch, argv, flag
    ):
        monkeypatch.delenv("PADICSUM_WORK_LIMIT", raising=False)
        refuse_work(monkeypatch, argv[0])
        start = time.perf_counter()
        code = main(["--format", "machine", *argv])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {flag}")
        assert "work limit 1000000000" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["triples", "--kmax", "120"],
            ["triples", "--kmax", "149"],
            ["sequences", "--kmax", "60"],
            ["sum", "--k", "831", "--x", "2"],
            ["verify", "--k", "1..30", "--n-max", "40", "--x-set=-3..3", "--p-list", "2,3,5"],
            ["bernoulli", "--nmax", "3000"],
            ["bernoulli", "--nmax", "300"],
            ["bernoulli", "--identity", "5", "--N", "295"],
            ["bernoulli", "--identity", "1", "--N", "299"],
            ["bernoulli", "--level", "3", "2", "--poly", "1,2,0,0"],
        ],
    )
    def test_benchmark_sizes_pass_the_default_limit(self, monkeypatch, argv):
        monkeypatch.delenv("PADICSUM_WORK_LIMIT", raising=False)
        refuse_work(monkeypatch, argv[0])
        with pytest.raises(Reached):
            main(["--format", "machine", *argv])

    @pytest.mark.parametrize(
        "argv, cost",
        [
            (["triples", "--kmax", "3"], 40),  # 3^4 * 2 // 4
            (["sequences", "--kmax", "3"], 81),
            (["sum", "--k", "3", "--x", "256"], 9),  # 3^3 (3 + 20 * 9) // 500
            (["sum", "--k", "2", "--C", "1,1", "--x", "4096"], 4),  # 2^3 (2 + 20 * 13) // 500
            # 2 x * held, 10600 + (2 + 4)(24 + 170) + 2 (4000 + 16 * 24) at B = 24, above
            # the work 2 k * (2500 + 2^2 + 3 (2 + 700 + 700 + 500 * 1 prime)) + 13
            (["verify", "--k", "1..2", "--n-max", "3", "--x-set", "1,2", "--p-list", "2"],
             41064),
            # held, 10600 + (2 + 4)(24 + 170) + 4000 + 16 * 24, above the work 4610
            (["verify", "--k", "2", "--n-max", "3", "--x-set", "1/2"], 16148),
            (["bernoulli", "--nmax", "12"], 54),
            (["bernoulli", "--identity", "2", "--N", "6"], 10),  # 7^3 // 32 + 2^4 // 24
            (["bernoulli", "--level", "3", "1", "--poly", "1..4"], 64),  # 4^3 (2 + 3) // 5
            (["padic", "--value", "1/3", "--p", "5", "--digits", "10"], 9),  # 10^2 * 3 // 32
            (["sum", "--k", "6", "--x", "2"], 19),  # 6^3 (6 + 20 * 2) // 500
            (["sum", "--k", "5", "--C", "1,0,0,0,1", "--x", "3"], 11),  # 5^3 (5 + 40) // 500
            # spans and single values mixed in each list; a single k counts k^3 in the
            # telescope term, and a 3..3 span is not the prime 2
            (["verify", "--k", "2..3,5", "--n-max", "4", "--x-set=-4..1,3/2",
              "--p-list", "2,3"], 255297),
            (["verify", "--k", "1..3,7,2..2", "--n-max", "5", "--x-set=5,-7/3,0..2",
              "--p-list", "5,2,3..3"], 428180),
            # a rational flag's d = len(text) + |exponent|: (8 + 100)^2 // 128
            (["padic", "--value", "-1e-1_00", "--p", "2", "--digits", "1"], 91),
        ],
    )
    def test_limit_is_inclusive(self, capsys, monkeypatch, argv, cost):
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", str(cost))
        code, out = run(capsys, "--format", "machine", *argv)
        assert code == 0 and all(rec["ok"] for rec in machine_records(out))
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", str(cost - 1))
        code = main(["--format", "machine", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.endswith(f": cost {cost} exceeds work limit {cost - 1}\n")

    def test_x_span_over_a_lowered_limit_is_refused_before_its_values(
        self, capsys, monkeypatch
    ):
        # 9 * 10^5 values took 1.5 s to build before the cost was decided
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", "1000000")
        refuse_work(monkeypatch, "verify")
        start = time.perf_counter()
        code = main(["--format", "machine", "verify", "--k", "1", "--n-max", "1",
                     "--x-set=1..900000"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: --k, --x-set, --n-max and --p-list: cost 14717700000 "
                                "exceeds work limit 1000000\n")

    def test_limit_past_maxsize_refuses_a_span_len_cannot_count(self, capsys, monkeypatch):
        # read as sys.maxsize; a 10^19-value span once ended in OverflowError from len()
        monkeypatch.setenv("PADICSUM_WORK_LIMIT", str(10**29))
        refuse_work(monkeypatch, "verify")
        code = main(["--format", "machine", "verify", "--k", "1", "--n-max", "1",
                     f"--x-set=1..{10**19}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: --x-set: ")
        assert captured.err.endswith(f"exceeds work limit {sys.maxsize}\n")  # 2^63 - 1 on 64 bits


class TestKernelFailures:
    """A wrong lhs from the integer kernels reaches the record and the exit code."""

    def test_verify_with_a_shifted_lhs_fails(self, capsys, monkeypatch):
        true_checks = cli.scaled_checks

        def shifted(k, a, b, n_max):  # lhs off by one at N = 3
            for N, L, R, T, D in true_checks(k, a, b, n_max):
                yield N, L + D * (N == 3), R, T, D

        monkeypatch.setattr(cli, "scaled_checks", shifted)
        argv = ["verify", "--k", "1..2", "--n-max", "4", "--x-set=-6/5,2", "--p-list", "3"]
        code, out = run(capsys, "--format", "machine", *argv)
        assert code == 1
        recs = machine_records(out)
        assert [(r["params"]["N"], r["params"]["x"], "p" in r["params"]) for r in recs
                if not r["ok"]] == [(3, "-6/5", False), (3, 2, False), (3, 2, True)] * 2
        for r in recs:
            if not r["ok"] and "lhs" in r["result"]:
                lhs, rhs = (Fraction(r["result"][side]) for side in ("lhs", "rhs"))
                assert lhs == rhs + 1
        code, out = run(capsys, *argv)
        assert code == 1 and sum(line.endswith(" FAIL") for line in out.splitlines()) == 6

    def test_bernoulli_identity_with_a_shifted_lhs_fails(self, capsys, monkeypatch):
        true_identity = cli.scaled_bernoulli_identity

        def shifted(k, N):
            S, R, L = true_identity(k, N)
            return S + 1, R, L

        monkeypatch.setattr(cli, "scaled_bernoulli_identity", shifted)
        code, out = run(capsys, "--format", "machine", "bernoulli", "--identity", "3", "--N", "20")
        assert code == 1
        (rec,) = machine_records(out)
        (lhs, rhs), L = bernoulli_identity_partial(3, 20), true_identity(3, 20)[2]
        assert rec["ok"] is False
        assert rec["result"] == {"lhs": fmt_q(lhs + Fraction(1, L)), "rhs": fmt_q(rhs)}
        code, out = run(capsys, "bernoulli", "--identity", "3", "--N", "20")
        assert code == 1 and out.endswith(" FAIL\n")


class TestHumanOutput:
    # digests of human-mode stdout; the verify grid holds ok, rejected and
    # x = 0 lines (192 in all)
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("verify", "--k", "1..3", "--n-max", "4", "--x-set=-2..2,3/2",
              "--p-list", "2,3"),
             "deda188ea2a623f57c7850bcfaf8be83d4fd0766537bd3dbe0411474ea974371"),
            (("triples", "--kmax", "6"),
             "654206528b2e41cd3d1beb5343b64c010d24af3a2b0dd819e383ee6ec1c5fe44"),
            (("sequences", "--kmax", "6"),
             "f4be2bbf9d3ca4e047d8b9dbd78319659834b2e9bb64d220b96242699638ce81"),
            (("kurepa", "--gcd-max", "50", "--digit-max", "50"),
             "e750788157fbe0f949e00321557deed2ae047e94b6ae036747340de276eeb996"),
            (("bernoulli", "--nmax", "12"),
             "65b47f717ba41b8ff30a1fefec07fad2dff49e01a5141c2aa713fd2f78da59ea"),
        ],
        ids=["verify", "triples", "sequences", "kurepa", "bernoulli"],
    )
    def test_pinned_digest(self, capsys, argv, digest):
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if argv[0] == "verify":
            assert out.count("\n") == 192


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag(self, capsys):
        assert main(["triples", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "argv, err",
        [
            (("verify", "--k", "abc", "--n-max", "1", "--x-set", "1"),
             "--k: invalid literal for int() with base 10: 'abc'"),
            (("verify", "--k", "1,,2", "--n-max", "1", "--x-set", "1"),
             "--k: invalid literal for int() with base 10: ''"),
            (("verify", "--k", "1", "--n-max", "1", "--x-set=abc"),
             "--x-set: Invalid literal for Fraction: 'abc'"),
            (("verify", "--k", "1", "--n-max", "1", "--x-set", "1", "--p-list", "4"),
             "--p-list: 4 is not prime"),
            (("sum", "--k", "2", "--C", "1,a", "--x", "1"),
             "--C: invalid literal for int() with base 10: 'a'"),
            (("sum", "--k", "1", "--x", "abc"), "--x: Invalid literal for Fraction: 'abc'"),
            (("padic", "--value", "abc", "--p", "3"),
             "--value: Invalid literal for Fraction: 'abc'"),
            (("padic", "--value", "1", "--p", "4"), "--p: 4 is not prime"),
            (("bernoulli", "--level", "5", "1", "--poly", "0,q"),
             "--poly: invalid literal for int() with base 10: 'q'"),
            (("bernoulli", "--level", "4", "1"), "--level P: 4 is not prime"),
            # 399,165,290,221 * 798,330,580,441, a strong pseudoprime to
            # the twelve prime bases 2..37
            (("padic", "--value", "1", "--p", "318665857834031151167461"),
             "--p: 318665857834031151167461 is not prime"),
            # a modifier without its mode
            (("bernoulli", "--nmax", "3", "--N", "4"), "--N needs --identity"),
            (("bernoulli", "--level", "5", "1", "--N", "2"), "--N needs --identity"),
            (("bernoulli", "--nmax", "3", "--poly", "1,2"), "--poly needs --level"),
            (("bernoulli", "--identity", "2", "--N", "3", "--poly", "0,1"),
             "--poly needs --level"),
            # an empty value is malformed, not absent
            (("bernoulli", "--level", "5", "1", "--poly", ""),
             "--poly: invalid literal for int() with base 10: ''"),
            (("sum", "--k", "1", "--C", "", "--x", "1"),
             "--C: invalid literal for int() with base 10: ''"),
            (("verify", "--k", "1", "--n-max", "1", "--x-set", "1", "--p-list", ""),
             "--p-list: invalid literal for int() with base 10: ''"),
            # a mode without its modifier
            (("bernoulli", "--identity", "2"), "--identity needs --N"),
            # the flags themselves: a required one missing, an unknown one, a prefix
            # (argparse read --km as --kmax), a flag without its value or values, a
            # flag's name read as a value, a non-int value and a bad --format
            (("verify", "--k", "1", "--x-set", "1"), "verify needs --n-max"),
            (("verify", "--x-set", "1"), "verify needs --k, --n-max"),
            (("padic", "--value", "1"), "padic needs --p"),
            (("triples", "--kmax", "2", "--bogus", "1"), "triples has no flag --bogus"),
            (("triples", "--km", "2"), "triples has no flag --km"),
            (("sum", "--k", "1", "--x=1", "--c", "1"), "sum has no flag --c"),
            (("triples", "--kmax"), "--kmax needs 1 value"),
            (("triples", "--kmax="), "--kmax: invalid literal for int() with base 10: ''"),
            (("bernoulli", "--level", "3"), "--level needs 2 values"),
            (("verify", "--k", "--n-max", "3", "--x-set", "1"), "--k needs 1 value"),
            (("triples", "--kmax", "2.0"),
             "--kmax: invalid literal for int() with base 10: '2.0'"),
            (("bernoulli", "--level", "3", "x"),
             "--level: invalid literal for int() with base 10: 'x'"),
            (("--format", "json", "triples", "--kmax", "1"), "--format must be human or machine"),
            (("frobnicate",), "unknown command 'frobnicate': one of triples, verify, sum, padic, "
             "bernoulli, kurepa, sequences"),
            ((), "need a command: one of triples, verify, sum, padic, bernoulli, kurepa, "
             "sequences"),
        ],
    )
    def test_malformed_value_names_the_flag(self, capsys, argv, err):
        for fmt in ("human", "machine"):
            code = main(["--format", fmt, *argv])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"], ["--format", "machine", "--help"]])
    def test_help_lists_every_command_and_flag(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        lines = captured.out.splitlines()
        for name, (about, flags) in cli.COMMANDS.items():
            # each command's line names every flag it reads, optional ones in []
            words = next(line.split() for line in lines if line.startswith(f"  {name} "))
            assert [w.strip("[]") for w in words[1:]] == list(flags)
            assert all((f"[{w}]" in words) == (w not in cli.REQUIRED) for w in flags)
            assert f"      {about}" in lines
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "padicsum.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, captured.out, "")

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (["padic", "--value", "-6/5", "--p", "2", "--digits", "12"],
             ["padic", "--value=-6/5", "--p=2", "--digits=12"]),
            (["verify", "--k", "1..2", "--n-max", "3", "--x-set", "-3..3", "--p-list", "2,3"],
             ["verify", "--k=1..2", "--n-max=3", "--x-set=-3..3", "--p-list=2,3"]),
            (["sum", "--k", "2", "--x", "-1"], ["sum", "--k=2", "--x=-1"]),
            (["bernoulli", "--level", "5", "2", "--poly", "-1,2"],
             ["bernoulli", "--level=5", "2", "--poly=-1,2"]),
        ],
    )
    def test_a_value_starting_with_minus_may_follow_a_space(self, capsys, spaced, joined):
        # argparse took -6/5 and -3..3 for flags, so these needed --flag=value
        for fmt in ("human", "machine"):
            code, out = run(capsys, "--format", fmt, *spaced)
            assert code == 0 and out
            assert run(capsys, "--format", fmt, *joined) == (code, out)

    def test_human_and_machine_same_numbers(self, capsys):
        _, human = run(capsys, "sum", "--k", "3", "--x", "-1")
        _, machine = run(capsys, "--format", "machine", "sum", "--k", "3", "--x", "-1")
        value = machine_records(machine)[0]["result"]["sum"]
        assert str(value) in human


def flag(name, values):
    """[name, value] with a value drawn from `values`, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


SMALL = st.integers(-2, 6)
# every subcommand with small, bounded flag values, valid or not
ARGV = st.one_of(
    st.tuples(st.just(["triples"]), flag("--kmax", SMALL)),
    st.tuples(
        st.just(["verify"]),
        flag("--k", st.sampled_from(["1", "0..2", "1..3", "3,1", "2..1", "x"])),
        flag("--n-max", SMALL),
        flag("--x-set", st.sampled_from(["1", "-2..2", "3/2,0", "1/0", "5..1", "y"])),
        flag("--p-list", st.sampled_from(["2,3", "5", "4", "", "1..3"])),
    ),
    st.tuples(
        st.just(["sum"]),
        flag("--k", SMALL),
        flag("--x", st.sampled_from(["1", "-2", "0", "1/2", "1/0", "z"])),
        flag("--C", st.sampled_from(["1", "1,1", "2,-1,3", "a"])),
    ),
    st.tuples(
        st.just(["padic"]),
        flag("--value", st.sampled_from(["1", "-1", "0", "1/5", "-7/12", "1/0", "v"])),
        flag("--p", st.integers(-1, 12)),
        flag("--digits", SMALL),
    ),
    st.tuples(
        st.just(["bernoulli"]),
        flag("--nmax", st.integers(-1, 20)),
        flag("--identity", SMALL),
        flag("--N", SMALL),
        st.one_of(st.just([]), st.tuples(st.integers(-1, 7), st.integers(-1, 3)).map(
            lambda pm: ["--level", str(pm[0]), str(pm[1])])),
        flag("--poly", st.sampled_from(["0,1", "1,0,2", "", "q"])),
    ),
    st.tuples(
        st.just(["kurepa"]),
        flag("--gcd-max", st.integers(-1, 60)),
        flag("--digit-max", st.integers(-1, 60)),
    ),
    st.tuples(st.just(["sequences"]), flag("--kmax", SMALL)),
).map(lambda parts: [a for part in parts for a in part])


@given(argv=ARGV, machine=st.booleans())
@settings(max_examples=150, deadline=None)
def test_main_fuzz(argv, machine):
    argv = (["--format", "machine"] if machine else []) + argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if machine:
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert all(isinstance(r, dict) for r in records), argv
        # past a usage error, the exit code is 1 exactly when a record is not ok
        if code != 2:
            assert (code == 1) == any(r["ok"] is False for r in records), argv


def test_closed_pipe_exits_141_without_traceback():
    # about 0.5 MB of records, more than the pipe holds, so writing past the
    # first line meets the closed pipe
    argv = ["--format", "machine", "verify", "--k", "1..10", "--n-max", "15",
            "--x-set=-3..3", "--p-list", "2,3"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "padicsum.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["command"] == "verify"
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_emit_writes_each_step_as_given_in_one_write(monkeypatch, capsys):
    # a verify step's text is one line per (x, p): at --x-set=1..20000 and the 25 primes
    # below 100 it is tens of MB, so emit writes the object it gets, with no copy
    argv = ["--format", "machine", "verify", "--k", "1..2", "--n-max", "3", "--x-set=-1..2",
            "--p-list", "2,3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(argv) == 0
    assert len(writes) == 2 * 3 and all(text.endswith("\n") for text in writes)
    assert "".join(writes) == expected
    em, text = cli.Emitter("verify", True), "".join(["{}\n", "{}\n"])
    em.emit(text, False)
    assert writes[-1] is text and em.ok is False


def test_main_freezes_the_heap_at_exit_once_a_process():
    # finalization's collections skip a frozen heap, about 6 ms of each run; the script
    # calls main three times in one process and checks the hook from an earlier one
    script = Path(__file__).with_name("exit_freeze_check.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(line.endswith(" ok") for line in lines), lines


def test_shutdown_under_dev_mode_warns_of_nothing_and_flushes_every_record():
    # -X dev reports unclosed files and unraisable exceptions at shutdown, and -W error
    # makes any warning fatal; the heap frozen at exit must add neither, nor lose a record
    argv = ["--format", "machine", "bernoulli", "--nmax", "600"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", "-m", "padicsum.cli",
                             *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert out.endswith(b"\n")
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 601 and records[-1]["params"] == {"n": 600}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # importing them took a third of the time to import the CLI; -S keeps
    # site-packages .pth files, which may import either, out of the check
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import padicsum.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_main_loads_no_argparse_gettext_or_locale():
    # argparse, and gettext and locale on its first message lookup, took about
    # 3.5 ms of every run; locale was loaded inside main, not at import
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import padicsum.cli; "
            "padicsum.cli.main(['--format', 'machine', 'sequences', '--kmax', '1']); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_commands_without_a_rational_load_neither_fractions_nor_decimal():
    # kurepa below the Decimal route, triples and sequences build no Fraction and no
    # Decimal, and verify with integer and a/b x and bernoulli --nmax and --identity
    # compute on scaled ints and print each value reduced by one gcd, so none loads
    # either module, nor numbers with them: about 2 ms of a run, 10 ms under -S
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = [["kurepa", "--gcd-max", "50", "--digit-max", "50"], ["triples", "--kmax", "3"],
            ["sequences", "--kmax", "3"],
            ["verify", "--k", "1..3", "--n-max", "6", "--x-set=-3..3,-6/5", "--p-list", "2,3"],
            ["bernoulli", "--nmax", "30"], ["bernoulli", "--identity", "3", "--N", "20"]]
    code = (f"import sys; sys.path.insert(0, {src!r}); import padicsum.cli; "
            f"codes = [padicsum.cli.main(['--format', 'machine', *argv]) for argv in {runs!r}]; "
            "print(codes, sorted({'fractions', 'decimal', '_decimal', 'numbers'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"
