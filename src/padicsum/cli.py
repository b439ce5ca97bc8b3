"""Command-line front end.

Machine mode emits one self-contained JSON record per line with fields
{command, params, result, ok}; every number is an exact integer or a
"num/den" string, never a decimal.  Exit codes: 0 all ok, 1 verification
failure or hypothesis counterexample, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from fractions import Fraction

from .bernoulli import (
    bernoulli_identity_partial,
    bernoulli_numbers,
    volkenborn_level,
)
from .padic import Prime, ValExponent, in_convergence_domain, padic_expand, vp
from .poly import int_poly
from .recurrences import build_triple
from .sequences import kurepa_digit_scan, kurepa_gcd_scan, paper_sequences
# verify_identity and truncated_padic_sum are not called here; they stay
# importable from this module, where perfbench/spans.py traces them
from .summation import (  # noqa: F401
    certificate_from_check,
    identity_checks,
    invariant_sum,
    truncated_padic_sum,
    verify_identity,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# json.dumps with its defaults, without the per-call argument checks
encode_json = json.JSONEncoder().encode


def fmt_q(q: Fraction | int) -> int | str:
    """Exact rendering: plain int or 'num/den'."""
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"


def fmt_exp(e: ValExponent) -> int | str:
    return e.value if e.finite else "inf"


def parse_range(part: str) -> range:
    """Inclusive integer span 'a..b'; empty and malformed spans are errors."""
    try:
        lo, hi = map(int, part.split(".."))
    except ValueError:
        raise ValueError(
            f"malformed range {part!r}: expected a..b with integers a, b"
        ) from None
    if lo > hi:
        raise ValueError(f"empty range {part!r}: {lo} > {hi}")
    return range(lo, hi + 1)


def parse_set(text: str, kind=int) -> list:
    """Comma list of `kind` values (int or Fraction) and inclusive integer
    'a..b' ranges."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            out.extend(map(kind, parse_range(part)))
        else:
            out.append(kind(part))
    return out


def parse_exact(flag: str, text: str, parse: Callable = Fraction):
    """`parse(text)`, with a zero denominator reported as a usage error of `flag`."""
    try:
        return parse(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator: {text!r}") from None


def require_at_least(bounds: dict) -> None:
    """Usage error for the first flag whose value is below its least; bounds
    maps each flag to (value, least), with value None when not given."""
    for flag, (value, least) in bounds.items():
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}")


class Emitter:
    def __init__(self, command: str, machine: bool):
        self.command = command
        self.machine = machine

    def emit(self, params: dict, result: dict, ok: bool, human: Callable[[], str]) -> None:
        """One JSON line in machine mode, else the line `human()` builds, called here."""
        if self.machine:
            record = {
                "command": self.command,
                "params": params,
                "result": result,
                "ok": ok,
            }
            print(encode_json(record))
        else:
            print(human())


def cmd_triples(args, machine: bool) -> int:
    require_at_least({"--kmax": (args.kmax, 1)})
    em = Emitter("triples", machine)
    for k in range(1, args.kmax + 1):
        trip = build_triple(k)
        result = {
            "k": k,
            "U": [int(c) for c in trip.U.coeffs],
            "V": [int(c) for c in trip.V.coeffs],
            "A": [[int(c) for c in layer.coeffs] for layer in trip.A.layers],
        }
        em.emit({"k": k}, result, True,
                lambda: f"U_{k} = {trip.U}; V_{k} = {trip.V}; A_{k - 1} = {trip.A}")
    return EXIT_OK


def cmd_verify(args, machine: bool) -> int:
    em = Emitter("verify", machine)
    ks = sorted(parse_set(args.k))
    xs = parse_exact("--x-set", args.x_set, lambda text: parse_set(text, Fraction))
    primes = [Prime(p) for p in parse_set(args.p_list)] if args.p_list else []
    require_at_least({"--k": (ks[0], 1), "--n-max": (args.n_max, 1)})
    all_ok = True
    for k in ks:
        # one running pass per x, advanced together so records stay in N, x order
        for checks in zip(*(identity_checks(k, x, args.n_max) for x in xs)):
            for check in checks:
                x, N, ok = check.x, check.N, check.ok
                all_ok = all_ok and ok
                xq, lhs, rhs = fmt_q(x), fmt_q(check.lhs), fmt_q(check.rhs)
                params = {"k": k, "N": N, "x": xq}
                em.emit(
                    params,
                    {"lhs": lhs, "rhs": rhs, "tail": fmt_q(check.tail)},
                    ok,
                    lambda: f"identity k={k} N={N} x={xq}: lhs={lhs} rhs={rhs} "
                    f"{'ok' if ok else 'FAIL'}",
                )
                for p in primes:
                    params_p = dict(params, p=int(p))
                    if x.denominator != 1:
                        em.emit(
                            params_p,
                            {"rejected": True, "reason": f"x not in Z_{int(p)}"},
                            True,
                            lambda: f"certificate k={k} N={N} x={xq} p={int(p)}: "
                            f"rejected (x not in Z_{int(p)})",
                        )
                        continue
                    if x == 0:
                        continue
                    cert = certificate_from_check(check, p)
                    cert_ok = cert.ok
                    all_ok = all_ok and cert_ok
                    partial, target = fmt_q(cert.partial), fmt_q(cert.target)
                    achieved = fmt_exp(cert.distance_exponent)
                    result_p = {
                        "partial": partial,
                        "target": target,
                        "tail": fmt_q(cert.tail),
                        "achieved_exponent": achieved,
                        "bound_exponent": cert.bound_exponent,
                    }
                    em.emit(
                        params_p,
                        result_p,
                        cert_ok,
                        lambda: f"certificate k={k} N={N} x={xq} p={int(p)}: "
                        f"partial={partial} target={target} achieved={achieved} "
                        f"bound={cert.bound_exponent} {'ok' if cert_ok else 'FAIL'}",
                    )
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_sum(args, machine: bool) -> int:
    require_at_least({"--k": (args.k, 1)})
    em = Emitter("sum", machine)
    x = parse_exact("--x", args.x)
    if x.denominator != 1:
        raise ValueError("--x must be an integer (p-adic invariance)")
    if args.C:
        C = parse_set(args.C)
        if len(C) != args.k:
            raise ValueError("--C must list exactly k coefficients")
        value = sum(
            (c * invariant_sum(j, int(x)) for j, c in enumerate(C, start=1)),
            Fraction(0),
        )
        params = {"k": args.k, "C": C, "x": fmt_q(x)}
    else:
        value = invariant_sum(args.k, int(x))
        params = {"k": args.k, "x": fmt_q(x)}
    em.emit(params, {"sum": fmt_q(value)}, True, lambda: f"sum = {fmt_q(value)}")
    return EXIT_OK


def cmd_padic(args, machine: bool) -> int:
    require_at_least({"--digits": (args.digits, 1)})
    em = Emitter("padic", machine)
    q = parse_exact("--value", args.value)
    p = Prime(args.p)
    exp = padic_expand(q, p, args.digits)
    v = vp(q, p)
    result = {
        "valuation": fmt_exp(v) if q == 0 else exp.valuation,
        "digits": list(exp.digits),
        "in_Zp": in_convergence_domain(q, p),
    }
    note = "" if in_convergence_domain(q, p) else "  [outside Z_p: negative valuation]"
    em.emit(
        {"value": fmt_q(q), "p": int(p), "digits": args.digits},
        result,
        True,
        lambda: f"{fmt_q(q)} = {exp}{note}",
    )
    return EXIT_OK


def cmd_bernoulli(args, machine: bool) -> int:
    p_raw, m = args.level or (None, None)
    require_at_least({"--nmax": (args.nmax, 0), "--identity": (args.identity, 1),
                      "--N": (args.N, 1), "--level M": (m, 1)})
    em = Emitter("bernoulli", machine)
    if args.identity is not None:
        if args.N is None:
            raise ValueError("--identity needs --N")
        k, N = args.identity, args.N
        lhs, rhs = bernoulli_identity_partial(k, N)
        ok = lhs == rhs
        em.emit(
            {"k": k, "N": N},
            {"lhs": fmt_q(lhs), "rhs": fmt_q(rhs)},
            ok,
            lambda: f"bernoulli identity k={k} N={N}: lhs={fmt_q(lhs)} rhs={fmt_q(rhs)} "
            f"{'ok' if ok else 'FAIL'}",
        )
        return EXIT_OK if ok else EXIT_FAIL
    if args.level:
        p = Prime(p_raw)
        coeffs = parse_set(args.poly) if args.poly else [0, 1]
        P = int_poly(coeffs)
        value = volkenborn_level(P, p, m)
        em.emit(
            {"p": int(p), "m": m, "poly": coeffs},
            {"value": fmt_q(value)},
            True,
            lambda: f"volkenborn level p={int(p)} m={m}: {fmt_q(value)}",
        )
        return EXIT_OK
    if args.nmax is None:
        raise ValueError("one of --nmax, --identity, --level required")
    for n, b in enumerate(bernoulli_numbers(args.nmax)):
        em.emit(
            {"n": n},
            {"numerator": b.numerator, "denominator": b.denominator},
            True,
            lambda: f"B_{n} = {fmt_q(b)}",
        )
    return EXIT_OK


def cmd_kurepa(args, machine: bool) -> int:
    bounds = {"--gcd-max": (args.gcd_max, 2), "--digit-max": (args.digit_max, 3)}
    if all(bound is None for bound, _ in bounds.values()):
        raise ValueError("need --gcd-max and/or --digit-max")
    require_at_least(bounds)
    em = Emitter("kurepa", machine)
    all_ok = True
    if args.gcd_max is not None:
        report = kurepa_gcd_scan(args.gcd_max)
        all_ok = all_ok and report.ok
        em.emit(
            {"gcd_max": args.gcd_max},
            {
                "gcd_ok_up_to": report.gcd_ok_up_to,
                "first_failure": report.first_failure,
            },
            report.ok,
            lambda: f"gcd(!n, n!) = 2 verified for 2 <= n <= {report.gcd_ok_up_to}"
            + ("" if report.ok else f"; FAILURE at n = {report.first_failure}"),
        )
    if args.digit_max is not None:
        report = kurepa_digit_scan(args.digit_max)
        all_ok = all_ok and report.ok
        em.emit(
            {"digit_max": args.digit_max},
            {
                "primes_checked": report.digit_checked_primes,
                "first_failure": report.first_failure,
            },
            report.ok,
            lambda: f"0th digit nonzero for all {report.digit_checked_primes} odd primes "
            f"<= {args.digit_max}"
            + ("" if report.ok else f"; FAILURE at p = {report.first_failure}"),
        )
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_sequences(args, machine: bool) -> int:
    require_at_least({"--kmax": (args.kmax, 1)})
    em = Emitter("sequences", machine)
    seqs = paper_sequences(args.kmax)
    labels = {
        "neg_v": "-V_k(1)",
        "neg_vbar": "-V_k(-1)",
        "u": "U_k(1)",
        "neg_ubar": "-U_k(-1)",
    }
    for name, values in seqs.items():
        em.emit(
            {"kmax": args.kmax, "sequence": name},
            {"values": values},
            True,
            lambda: f"{labels[name]}: {', '.join(str(v) for v in values)}",
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicsum",
        description="Exact p-adic invariant summation of factorial series.",
    )
    ap.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="machine mode prints one JSON record per line",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("triples", help="render the U_k, V_k, A_{k-1} families")
    p.add_argument("--kmax", type=int, required=True)

    p = sub.add_parser("verify", help="check the finite identity on a grid")
    p.add_argument("--k", required=True, help="k values: comma list or a..b")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--x-set", required=True, help="rationals: comma list or a..b")
    p.add_argument("--p-list", help="primes for truncation certificates")

    p = sub.add_parser("sum", help="p-adic invariant sum V_k(x) or combo Q(x)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--C", help="comma list C_1..C_k for a linear combination")

    p = sub.add_parser("padic", help="canonical p-adic expansion of a rational")
    p.add_argument("--value", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--digits", type=int, default=10)

    p = sub.add_parser("bernoulli", help="Bernoulli table / identity / level sums")
    p.add_argument("--nmax", type=int)
    p.add_argument("--identity", type=int, metavar="K")
    p.add_argument("--N", type=int)
    p.add_argument("--level", type=int, nargs=2, metavar=("P", "M"))
    p.add_argument("--poly", help="integer coefficients, ascending powers")

    p = sub.add_parser("kurepa", help="left-factorial hypothesis scans")
    p.add_argument("--gcd-max", type=int)
    p.add_argument("--digit-max", type=int)

    p = sub.add_parser("sequences", help="the four U/V sequences at x = +-1")
    p.add_argument("--kmax", type=int, required=True)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    machine = args.format == "machine"
    handlers = {
        "triples": cmd_triples,
        "verify": cmd_verify,
        "sum": cmd_sum,
        "padic": cmd_padic,
        "bernoulli": cmd_bernoulli,
        "kurepa": cmd_kurepa,
        "sequences": cmd_sequences,
    }
    # exact output prints integers of any length, past CPython's cap on
    # decimal conversion (from 3.10.7; B_n passes it at n = 2064)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_cap(0)
    try:
        return handlers[args.cmd](args, machine)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        set_cap(cap)


if __name__ == "__main__":
    sys.exit(main())
