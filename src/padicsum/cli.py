"""Command-line front end.

Machine mode emits one self-contained JSON record per line with fields
{command, params, result, ok}; every number is an exact integer or a
"num/den" string, never a decimal.  Exit codes: 0 every record ok, 1 some
record not ok (a verification failure or hypothesis counterexample), 2 usage
error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
from math import gcd
from types import SimpleNamespace

from .bernoulli import bernoulli_pairs, scaled_bernoulli_identity, volkenborn_level
from .padic import (Prime, _rational, in_convergence_domain, padic_expand, ratio, rationals,
                    require_within_limit)
from .poly import render_poly
from .recurrences import iter_triples
from .sequences import kurepa_scans, paper_sequences
from .summation import bound_table, certify, invariant_sum, scaled_checks
# not called here: importable from this module, where perfbench/spans.py traces them
from .bernoulli import bernoulli_numbers  # noqa: F401
from .sequences import kurepa_digit_scan, kurepa_gcd_scan  # noqa: F401
from .summation import truncated_padic_sum, verify_identity  # noqa: F401

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer whose reader left

# json.dumps with its defaults, without the per-call argument checks
encode_json = json.JSONEncoder().encode
freezes_at_exit = False  # gc.freeze is registered with atexit, by main, once a process


def fmt_q(q: Rational, den: int = 1, quote: str = "") -> int | str:
    """Exact rendering of q, or of q / den for an int q, reduced by one gcd: plain int
    or 'num/den', between two `quote`s."""
    num, den = (q // (g := gcd(q, den)), den // g) if den != 1 else (q.numerator, q.denominator)
    return num if den == 1 else f"{quote}{num}/{den}{quote}"


def parse_range(part: str) -> range:
    """Inclusive integer span 'a..b'; empty and malformed spans are errors."""
    try:
        lo, hi = map(int, part.split(".."))
    except ValueError:
        raise ValueError(f"malformed range {part!r}: expected a..b with integers a, b") from None
    if lo > hi:
        raise ValueError(f"empty range {part!r}: {lo} > {hi}")
    require_within_limit(f"range {part!r}", hi - lo + 1)  # before its list is built
    return range(lo, hi + 1)


def parse_parts(text: str, kind=int) -> list:
    """Comma list of `kind` values (an int, or ratio's (num, den)) and inclusive integer
    'a..b' ranges, each part a sequence: a `range`, its values not yet built,
    or a 1-tuple."""
    return [parse_range(part) if ".." in part else (kind(part),)
            for part in map(str.strip, text.split(","))]


def count(parts: list) -> int:
    """How many values `parts` lists, repeats included, without building them."""
    return sum(map(len, parts))


def expand(parts: list, kind=int) -> list:
    """The values `parts` lists, in order, each as `kind`."""
    return [kind(v) for part in parts for v in part]


def parse_exact(flag: str, text, parse: Callable):
    """`parse(text)`, with a value it refuses or a zero denominator reported
    as a usage error of `flag`."""
    try:
        return parse(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator: {text!r}") from None
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


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
        self.ok = True  # until a record is not ok

    def record(self, params: dict, result: dict, ok: bool, human: Callable[[], str]) -> None:
        """One JSON line in machine mode, else the line `human()` builds, called here."""
        record = {"command": self.command, "params": params, "result": result, "ok": ok}
        self.emit((encode_json(record) if self.machine else human()) + "\n", ok)

    def emit(self, text: str, ok: bool) -> None:
        """Write `text` as given, in one write: one record's line, or the lines of several
        records with the `ok` of them all, each line ending in a newline; every record and
        its `ok` pass here once."""
        self.ok = self.ok and ok
        sys.stdout.write(text)


def cmd_triples(args, em: Emitter) -> None:
    require_at_least({"--kmax": (args.kmax, 1)})
    # grows as the output, O(kmax^4 log kmax) digits, not as the kmax^3 steps that build it
    require_within_limit("--kmax", args.kmax**4 * args.kmax.bit_length() // 4)
    for k, trip in enumerate(iter_triples(args.kmax), 1):  # one triple held at a time
        result = {"k": k, "U": trip.U, "V": trip.V, "A": trip.A.layers}
        em.record({"k": k}, result, True, lambda: f"U_{k} = {render_poly(trip.U)}; "
                  f"V_{k} = {render_poly(trip.V)}; A_{k - 1} = {trip.A}")


def cmd_verify(args, em: Emitter) -> None:
    machine = em.machine
    ks = parse_exact("--k", args.k, parse_parts)
    xs = parse_exact("--x-set", args.x_set, lambda text: parse_parts(text, ratio))
    pair = lambda x: x if type(x) is tuple else (x, 1)  # x = a/b as (a, b), a range's a as a/1
    ps = parse_exact("--p-list", args.p_list, parse_parts) if args.p_list is not None else []
    ends = [e for k in ks for e in (k[0], k[-1])]
    require_at_least({"--k": (min(ends), 1), "--n-max": (args.n_max, 1)})
    # the cost from the lists' lengths and ends, repeats included, before a range's values
    # are built: per x, the larger of its work, 5 ns a unit, and what it holds while a k runs,
    # 5 units a byte.  Work per (k, x): a stream, kmax^2 steps, n steps of 1 + #p records and
    # on values of up to B bits and their text, shared by all p, and per odd p a valuation of
    # up to N (1 + X) bits at step N, X = max bitlen(|a| b) of x = a/b, fitted to child CPU
    # against p = 2; per x, the telescopes.  Held: its state in the one pass, kmax + 4 values
    # of up to B bits, and 1 + #p record texts (its n bound tuples stay within the work term)
    kmax, n, P = max(ends), args.n_max, count(ps)
    X = max((abs(a) * b).bit_length() for x in xs for a, b in map(pair, (x[0], x[-1])))
    B = n * (n.bit_length() + X) + kmax * (kmax.bit_length() + n.bit_length() + X)
    k3 = sum((k[-1] * (k[-1] + 1) // 2) ** 2 - ((k[0] - 1) * k[0] // 2) ** 2 for k in ks)
    work = k3 * (kmax + 8 * X) // 256 + count(ks) * (2500 + kmax * kmax + n * (
        kmax + 700 + 700 * min(P, 1) + 500 * P) + n * B * (
        B * (1 + min(P, 1)) + n * (1 + X) * (P - ps.count((2,)))) // 8192)
    held = 3000 + (kmax + 4) * (B + 170) + (1 + P) * (4000 + 16 * B)
    require_within_limit("--k, --x-set, --n-max and --p-list", count(xs) * max(work, held))
    # each grid value once: k ascending, x and p in first-seen order
    ks, xs = sorted(set(expand(ks))), list(dict.fromkeys(expand(xs, pair)))
    primes = parse_exact("--p-list", ps, lambda ps: tuple(map(Prime, dict.fromkeys(expand(ps)))))
    # a machine line is json.dumps of {command, params, result, ok}, spliced from fields
    # formatted once: per grid, each x, each p's fragment after a head and its rejection, the
    # bounds and the texts that end a record; per check, its head and values
    quote, inf, step_fmt, p_fmt, reject_fmt, bound_at, verdicts = (
        '"', '"inf"', '{"command": "verify", "params": {"k": %d, "N": %d, "x": ',
        ', "p": %d}, "result": {',
        ', "p": %d}, "result": {"rejected": true, "reason": "x not in Z_%d"}, "ok": true}',
        ', "bound_exponent": ', ('}, "ok": false}', '}, "ok": true}')) if machine else (
        "", "inf", "certificate k=%d N=%d x=", " p=%d: ", " p=%d: rejected (x not in Z_%d)",
        " bound=", (" FAIL", " ok"))
    x_texts = [fmt_q(a, b, quote) for a, b in xs]
    p_texts, rejected = [p_fmt % p for p in primes], [reject_fmt % (p, p) for p in primes]
    table = bound_table(range(1, args.n_max + 1), xs, primes)
    for k in ks:
        # every x in one pass: the scaled sides L, R and tail T, each over D; L == R is the check
        for N, Ls, Rs, Ts, Ds in scaled_checks(k, xs, args.n_max):
            lines, step_ok = [], True
            at = step_fmt % (k, N)
            for (a, b), x, L, R, T, D, bounds in zip(xs, x_texts, Ls, Rs, Ts, Ds, table[N - 1]):
                ok = L == R
                step_ok &= ok
                head = f"{at}{x}"
                lhs, tail = (str(L), str(T)) if D == 1 else (fmt_q(L, D, quote), fmt_q(T, D, quote))
                rhs = lhs if ok else fmt_q(R, D, quote)  # equal values print the same text
                lines.append((f'{head}}}, "result": {{"lhs": {lhs}, "rhs": {rhs}, "tail": {tail}'
                              if machine else f"identity k={k} N={N} x={x}: lhs={lhs} rhs={rhs}")
                             + verdicts[ok])
                if b != 1:
                    lines += [head + suffix for suffix in rejected]
                elif bounds:  # x a nonzero integer, D == 1: the certificate's fields are ints
                    cert = certify(k, N, a, primes, L, R - T, T, bounds)
                    partial = lhs if cert.partial is L else cert.partial  # the text of L, reused
                    text = (f'"partial": {partial}, "target": {cert.target}, "tail": '
                            f'{tail if cert.tail is T else cert.tail}, "achieved_exponent": '
                            if machine else f"partial={partial} target={cert.target} achieved=")
                    for p_text, e, bound, cert_ok in zip(p_texts, cert.distance_exponents,
                                                         cert.bound_exponents, cert.oks):
                        step_ok &= cert_ok
                        lines.append(f"{head}{p_text}{text}{inf if e is None else e}{bound_at}"
                                     f"{bound}{verdicts[cert_ok]}")
            lines.append("")  # so the join ends the step's last line
            em.emit("\n".join(lines), step_ok)


def cmd_sum(args, em: Emitter) -> None:
    require_at_least({"--k": (args.k, 1)})
    x = parse_exact("--x", args.x, _rational)
    if x.denominator != 1:
        raise ValueError("--x must be an integer (p-adic invariance)")
    # k^2 steps on ints of k (log k + bitlen x) bits; --k 800 took 4 s at x = 2
    require_within_limit("--k and --x", args.k**3 * (args.k + 20 * x.numerator.bit_length()) // 500)
    C, params = None, {"k": args.k, "x": fmt_q(x)}
    if args.C is not None:
        C = parse_exact("--C", args.C, parse_parts)
        if count(C) != args.k:  # before a range's values are built
            raise ValueError("--C must list exactly k coefficients")
        C = expand(C)
        params = {"k": args.k, "C": C, "x": fmt_q(x)}
    value = invariant_sum(args.k, int(x), C)
    em.record(params, {"sum": fmt_q(value)}, True, lambda: f"sum = {fmt_q(value)}")


def cmd_padic(args, em: Emitter) -> None:
    digits = 10 if args.digits is None else args.digits
    require_at_least({"--digits": (digits, 1)})
    q = parse_exact("--value", args.value, _rational)
    p = parse_exact("--p", args.p, Prime)
    # D divmods of a residue of D log2(p) bits
    require_within_limit("--digits", digits**2 * (p - 1).bit_length() // 32)
    exp = padic_expand(q, p, digits)
    in_Zp = in_convergence_domain(q, p)
    result = {"valuation": "inf" if q == 0 else exp.valuation, "digits": list(exp.digits),
              "in_Zp": in_Zp}
    note = "" if in_Zp else "  [outside Z_p: negative valuation]"
    em.record({"value": fmt_q(q), "p": p, "digits": digits}, result, True,
              lambda: f"{fmt_q(q)} = {exp}{note}")


def cmd_bernoulli(args, em: Emitter) -> None:
    if [args.nmax, args.identity, args.level].count(None) != 2:
        raise ValueError("bernoulli takes exactly one of --nmax, --identity and --level")
    if (args.N is None) != (args.identity is None):
        raise ValueError("--N needs --identity" if args.identity is None
                         else "--identity needs --N")
    if args.poly is not None and args.level is None:
        raise ValueError("--poly needs --level")
    p_raw, m = args.level or (None, None)
    require_at_least({"--nmax": (args.nmax, 0), "--identity": (args.identity, 1),
                      "--N": (args.N, 1), "--level M": (m, 1)})
    if args.identity is not None:
        k, N = args.identity, args.N
        # the table to N + k - 1, as for --nmax, and the k-th triple
        require_within_limit("--identity and --N", (N + k - 1) ** 3 // 32 + k**4 // 24)
        S, R, L = scaled_bernoulli_identity(k, N)  # lhs = S / L and rhs = R / L
        ok, lhs, rhs = S == R, fmt_q(S, L), fmt_q(R, L)
        em.record({"k": k, "N": N}, {"lhs": lhs, "rhs": rhs}, ok,
                  lambda: f"bernoulli identity k={k} N={N}: lhs={lhs} rhs={rhs} "
                  f"{'ok' if ok else 'FAIL'}")
    elif args.level is not None:
        p = parse_exact("--level P", p_raw, Prime)
        parts = parse_exact("--poly", "0,1" if args.poly is None else args.poly, parse_parts)
        # a sum of Fractions for each degree below d, of about d log2(p^m d) bits
        d = count(parts)
        require_within_limit("--level and --poly",
                             d**3 * (m * p.bit_length() + d.bit_length()) // 5)
        coeffs = expand(parts)
        value = parse_exact("--level", coeffs, lambda coeffs: volkenborn_level(coeffs, p, m))
        em.record({"p": p, "m": m, "poly": coeffs}, {"value": fmt_q(value)}, True,
                  lambda: f"volkenborn level p={p} m={m}: {fmt_q(value)}")
    else:
        # the tangent sweep's nmax^2 / 8 updates on ints of up to about nmax / 3 digits
        require_within_limit("--nmax", args.nmax**3 // 32)
        for n, (num, den) in enumerate(bernoulli_pairs(args.nmax)):
            em.record({"n": n}, {"numerator": num, "denominator": den}, True,
                      lambda: f"B_{n} = {fmt_q(num, den)}")


def cmd_kurepa(args, em: Emitter) -> None:
    bounds = {"--gcd-max": (args.gcd_max, 2), "--digit-max": (args.digit_max, 3)}
    if all(bound is None for bound, _ in bounds.values()):
        raise ValueError("need --gcd-max and/or --digit-max")
    require_at_least(bounds)
    try:
        gcd, digit = kurepa_scans(args.gcd_max, args.digit_max)
    except ValueError as exc:  # the work limit, which the larger bound sets
        raise ValueError(f"{max(bounds, key=lambda f: bounds[f][0] or 0)}: {exc}") from None
    if gcd is not None:
        em.record(
            {"gcd_max": args.gcd_max},
            {"gcd_ok_up_to": gcd.gcd_ok_up_to, "first_failure": gcd.first_failure},
            gcd.ok,
            lambda: f"gcd(!n, n!) = 2 verified for 2 <= n <= {gcd.gcd_ok_up_to}"
            + ("" if gcd.ok else f"; FAILURE at n = {gcd.first_failure}"),
        )
    if digit is not None:
        em.record(
            {"digit_max": args.digit_max},
            {"primes_checked": digit.digit_checked_primes, "first_failure": digit.first_failure},
            digit.ok,
            lambda: (
                f"0th digit nonzero for all {digit.digit_checked_primes} odd primes "
                f"<= {args.digit_max}"
                if digit.ok
                # digit_checked_primes counts the failing prime too
                else f"0th digit nonzero for the {digit.digit_checked_primes - 1} odd "
                f"primes below {digit.first_failure}; FAILURE at p = {digit.first_failure}"
            ),
        )


def cmd_sequences(args, em: Emitter) -> None:
    require_at_least({"--kmax": (args.kmax, 1)})
    # about kmax^3 operations on ints of about kmax digits; the time grows as kmax^3.9
    require_within_limit("--kmax", args.kmax**4)
    seqs = paper_sequences(args.kmax)
    labels = {"neg_v": "-V_k(1)", "neg_vbar": "-V_k(-1)", "u": "U_k(1)", "neg_ubar": "-U_k(-1)"}
    for name, values in seqs.items():
        em.record({"kmax": args.kmax, "sequence": name}, {"values": values}, True,
                  lambda: f"{labels[name]}: {', '.join(str(v) for v in values)}")


# each command's help and flags: a flag reads one value of its type, or one value of
# each type of a tuple (--level P M), and a flag not given reads None
COMMANDS = {
    "triples": ("render the U_k, V_k, A_{k-1} families", {"--kmax": int}),
    "verify": ("check the finite identity on a grid",
               {"--k": str, "--n-max": int, "--x-set": rationals, "--p-list": str}),
    "sum": ("p-adic invariant sum V_k(x) or combo Q(x)",
            {"--k": int, "--x": rationals, "--C": str}),
    "padic": ("canonical p-adic expansion of a rational",
              {"--value": rationals, "--p": int, "--digits": int}),
    "bernoulli": ("Bernoulli table / identity / level sums", {
        "--nmax": int, "--identity": int, "--N": int, "--level": (int, int), "--poly": str}),
    "kurepa": ("left-factorial hypothesis scans", {"--gcd-max": int, "--digit-max": int}),
    "sequences": ("the four U/V sequences at x = +-1", {"--kmax": int}),
}
REQUIRED = {"--kmax", "--k", "--n-max", "--x-set", "--x", "--value", "--p"}


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """argv's command and flags, each under its name less the dashes (--n-max as n_max),
    or the help text -h or --help asks for.  A flag is spelled in full, its value follows
    after = or a space, even one starting with -, and a repeated flag keeps its last."""
    cmd, flags, given = None, {"--format": str}, {"--format": "human"}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):  # every command's flags, the required ones bare
            return ("usage: padicsum [--format human|machine] <command> [flags], each flag "
                    "with one value (--level with two: P M)\n" + "".join(
                        f"  {name} {' '.join(f if f in REQUIRED else f'[{f}]' for f in names)}\n"
                        f"      {about}\n" for name, (about, names) in COMMANDS.items()))
        if cmd is None and not token.startswith("-"):
            if token not in COMMANDS:
                raise ValueError(f"unknown command {token!r}: one of {', '.join(COMMANDS)}")
            cmd, flags = token, COMMANDS[token][1]
            continue
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise ValueError(f"{cmd or 'padicsum'} has no flag {flag}")
        kinds = flags[flag] if type(flags[flag]) is tuple else (flags[flag],)
        texts = [text] if eq else []
        texts += [next(tokens, None) for _ in range(len(kinds) - len(texts))]
        if None in texts or not flags.keys().isdisjoint(texts):
            raise ValueError(f"{flag} needs {len(kinds)} value" + "s" * (len(kinds) > 1))
        values = [parse_exact(flag, text, kind) for kind, text in zip(kinds, texts)]
        given[flag] = values if len(kinds) > 1 else values[0]
    if cmd is None:
        raise ValueError(f"need a command: one of {', '.join(COMMANDS)}")
    if given["--format"] not in ("human", "machine"):
        raise ValueError("--format must be human or machine")
    if missing := [flag for flag in flags if flag in REQUIRED and flag not in given]:
        raise ValueError(f"{cmd} needs {', '.join(missing)}")
    return SimpleNamespace(cmd=cmd, format=given["--format"], **{
        flag[2:].replace("-", "_"): given.get(flag) for flag in flags})


def main(argv: list[str] | None = None) -> int:
    global freezes_at_exit
    # at exit, gc.freeze moves the live heap to the permanent generation, which finalization's
    # collections skip: about 6 ms a run.  Not sooner, or a caller that stays leaks its cycles
    if not freezes_at_exit:
        atexit.register(gc.freeze)
        freezes_at_exit = True
    # exact output prints integers of any length, past CPython's cap on
    # decimal conversion (from 3.10.7; B_n passes it at n = 2064)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_cap(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            sys.stdout.write(args)
            return EXIT_OK
        em = Emitter(args.cmd, args.format == "machine")
        globals()[f"cmd_{args.cmd}"](args, em)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout: the rest goes to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    finally:
        set_cap(cap)
    return EXIT_OK if em.ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
