"""Spans around padicsum's layer functions, recorded from outside the program.

`Tracer.install` wraps each function named in `WRAPPED` and replaces every
binding of it: the module global, every `from ... import` copy in the other
padicsum modules, and the class attribute for methods.  Each call records a
span (name, start, end, parent) in memory; `Tracer.dump` hands them to
run.py at the end of the invocation.  `layer_metrics` turns the spans of one
round of a workload into the per-layer metrics of `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from fractions import Fraction

# span name -> (module, attribute) of the wrapped function; the CLI's
# `cmd_*` handlers are added by `Tracer.install`.  Poly.__call__ (about
# 10^5 calls per verify round) is left unwrapped: tracing it would swamp
# the run.
WRAPPED = {
    "cli.main": ("padicsum.cli", "main"),
    "cli.Emitter.emit": ("padicsum.cli", "Emitter.emit"),
    "summation.verify_identity": ("padicsum.summation", "verify_identity"),
    "summation.truncated_padic_sum": ("padicsum.summation", "truncated_padic_sum"),
    "recurrences.compute_A_family": ("padicsum.recurrences", "compute_A_family"),
    "recurrences.family_residual": ("padicsum.recurrences", "family_residual"),
    "recurrences.TripleFamily.triple": ("padicsum.recurrences", "TripleFamily.triple"),
    "padic.vp": ("padicsum.padic", "vp"),
    "padic.is_prime": ("padicsum.padic", "is_prime"),
    "poly.BivarPoly.eval": ("padicsum.poly", "BivarPoly.eval"),
    "bernoulli.bernoulli_numbers": ("padicsum.bernoulli", "bernoulli_numbers"),
    "bernoulli.bernoulli_identity_partial": ("padicsum.bernoulli", "bernoulli_identity_partial"),
    "sequences.kurepa_gcd_scan": ("padicsum.sequences", "kurepa_gcd_scan"),
    "sequences.kurepa_digit_scan": ("padicsum.sequences", "kurepa_digit_scan"),
    "sequences.kurepa_digit": ("padicsum.sequences", "kurepa_digit"),
    "sequences.paper_sequences": ("padicsum.sequences", "paper_sequences"),
}


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


# span name -> argument key kept per call, for distinct-call and build ratios
KEYS = {
    "summation.verify_identity": lambda a, kw: "%s,%s,%s" % (
        _arg(a, kw, 0, "k"), _arg(a, kw, 1, "N"), Fraction(_arg(a, kw, 2, "x"))),
    "recurrences.TripleFamily.triple": lambda a, kw: _arg(a, kw, 1, "k"),
    "recurrences.compute_A_family": lambda a, kw: _arg(a, kw, 0, "kmax"),
}

# spans whose result's integers feed summation.max_bits
BITS = ("summation.verify_identity", "summation.truncated_padic_sum")


def _bits(result) -> int:
    """Largest bit length of the integers and rationals held by a result record."""
    best = 0
    for v in vars(result).values():
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            q = Fraction(v)
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent index]
        self.keys: dict[str, list] = {name: [] for name in KEYS}
        self.max_bits = 0
        self.originals: dict[str, object] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        key, keys = KEYS.get(name), self.keys.get(name)
        bits = name in BITS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [nid, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            # bookkeeping after the span closes is charged to the caller
            if key is not None:
                keys.append(key(args, kwargs))
            if bits:
                self.max_bits = max(self.max_bits, _bits(result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function of WRAPPED and the CLI handlers, at every binding."""
        import padicsum.cli as cli  # imports every layer

        targets = dict(WRAPPED)
        for attr in vars(cli):
            if attr.startswith("cmd_"):
                targets[f"cli.{attr}"] = ("padicsum.cli", attr)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "padicsum"]
        for name, (modname, attr) in targets.items():
            owner = sys.modules[modname]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original)
            self.originals[name] = original
            setattr(owner, leaf, wrapper)
            for mod in modules:
                for gname, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, gname, wrapper)

    def unpatched(self) -> list[str]:
        """Bindings in padicsum modules and classes still holding an original."""
        originals = {id(f): name for name, f in self.originals.items()}
        left = []
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "padicsum":
                continue
            for gname, value in vars(mod).items():
                if id(value) in originals:
                    left.append(f"{modname}.{gname}")
                if isinstance(value, type) and value.__module__ == modname:
                    for cname, cvalue in vars(value).items():
                        if id(cvalue) in originals:
                            left.append(f"{modname}.{gname}.{cname}")
        return left

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "keys": self.keys,
            "max_bits": self.max_bits,
        }


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


# per-layer metric -> (unit, better, workloads on which it should move wall_ref_s)
LAYER_METRICS = {
    "summation.verify_identity.calls": ("count", "lower", ("verify",)),
    "summation.verify_identity_self_s": ("s", "lower", ("verify",)),
    "summation.identity_unique_ratio": ("ratio", "higher", ("verify",)),
    "summation.truncated_padic_sum.calls": ("count", "lower", ("verify",)),
    "summation.truncated_padic_sum_self_s": ("s", "lower", ("verify",)),
    "summation.max_bits": ("bits", "lower", ("verify",)),
    "recurrences.compute_A_family.calls": ("count", "lower", ("verify", "tables")),
    "recurrences.compute_A_family_self_s": ("s", "lower", ("verify", "tables")),
    "recurrences.family_residual_s": ("s", "lower", ("verify", "tables")),
    "recurrences.A_build_useful_ratio": ("ratio", "higher", ("verify", "tables")),
    "recurrences.triple.calls": ("count", "lower", ("verify", "tables")),
    "recurrences.triple_self_s": ("s", "lower", ("verify", "tables")),
    "recurrences.triple_unique_ratio": ("ratio", "higher", ("verify", "tables")),
    "padic.vp.calls": ("count", "lower", ("verify",)),
    "padic.vp_s": ("s", "lower", ("verify",)),
    "padic.is_prime.calls": ("count", "lower", ("kurepa",)),
    "padic.is_prime_s": ("s", "lower", ("kurepa",)),
    "poly.BivarPoly.eval.calls": ("count", "lower", ("verify",)),
    "poly.BivarPoly.eval_s": ("s", "lower", ("verify",)),
    "bernoulli.bernoulli_numbers.calls": ("count", "lower", ("tables",)),
    "bernoulli.bernoulli_numbers_s": ("s", "lower", ("tables",)),
    "bernoulli.identity_partial_s": ("s", "lower", ("tables",)),
    "sequences.kurepa_gcd_scan_s": ("s", "lower", ("kurepa",)),
    "sequences.kurepa_digit_scan_self_s": ("s", "lower", ("kurepa",)),
    "sequences.kurepa_digit.calls": ("count", "lower", ("kurepa",)),
    "sequences.kurepa_digit_s": ("s", "lower", ("kurepa",)),
    "sequences.paper_sequences_s": ("s", "lower", ("tables",)),
    "cli.records": ("count", "lower", ("verify",)),
    "cli.output_bytes": ("bytes", "lower", ("verify",)),
    "cli.emit_self_s": ("s", "lower", ("verify",)),
    "cli.handler_self_s": ("s", "lower", ("verify",)),
    "trace.overhead_s": ("s", "lower", ("verify", "tables", "kurepa")),
}


def layer_metrics(traces: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one round, from the dumps of its invocations.

    Every metric of LAYER_METRICS but trace.overhead_s, which needs the
    untraced rounds too.  Ratios read 0 where the layer was not called.
    """
    calls, total, own = Counter(), Counter(), Counter()
    distinct, built, asked = Counter(), 0, 0
    max_bits = 0
    for t in traces:
        names = t["names"]
        for (nid, start, end, _), self_ns in zip(t["spans"], self_times(t["spans"])):
            name = names[nid]
            if name.startswith("cli.cmd_"):
                name = "cli.handler"
            calls[name] += 1
            total[name] += end - start
            own[name] += self_ns
        for name, keys in t["keys"].items():
            distinct[name] += len(set(keys))
        kmaxes = t["keys"]["recurrences.compute_A_family"]
        built += max(kmaxes, default=0)
        asked += sum(kmaxes)
        max_bits = max(max_bits, t["max_bits"])

    def ratio(num, den):
        return num / den if den else 0.0

    def s(ns):
        return ns / 1e9

    VI, TP = "summation.verify_identity", "summation.truncated_padic_sum"
    CA, TR = "recurrences.compute_A_family", "recurrences.TripleFamily.triple"
    return {
        "summation.verify_identity.calls": calls[VI],
        "summation.verify_identity_self_s": s(own[VI]),
        "summation.identity_unique_ratio": ratio(distinct[VI], calls[VI]),
        "summation.truncated_padic_sum.calls": calls[TP],
        "summation.truncated_padic_sum_self_s": s(own[TP]),
        "summation.max_bits": max_bits,
        "recurrences.compute_A_family.calls": calls[CA],
        "recurrences.compute_A_family_self_s": s(own[CA]),
        "recurrences.family_residual_s": s(total["recurrences.family_residual"]),
        "recurrences.A_build_useful_ratio": ratio(built, asked),
        "recurrences.triple.calls": calls[TR],
        "recurrences.triple_self_s": s(own[TR]),
        "recurrences.triple_unique_ratio": ratio(distinct[TR], calls[TR]),
        "padic.vp.calls": calls["padic.vp"],
        "padic.vp_s": s(total["padic.vp"]),
        "padic.is_prime.calls": calls["padic.is_prime"],
        "padic.is_prime_s": s(total["padic.is_prime"]),
        "poly.BivarPoly.eval.calls": calls["poly.BivarPoly.eval"],
        "poly.BivarPoly.eval_s": s(total["poly.BivarPoly.eval"]),
        "bernoulli.bernoulli_numbers.calls": calls["bernoulli.bernoulli_numbers"],
        "bernoulli.bernoulli_numbers_s": s(total["bernoulli.bernoulli_numbers"]),
        "bernoulli.identity_partial_s": s(total["bernoulli.bernoulli_identity_partial"]),
        "sequences.kurepa_gcd_scan_s": s(total["sequences.kurepa_gcd_scan"]),
        "sequences.kurepa_digit_scan_self_s": s(own["sequences.kurepa_digit_scan"]),
        "sequences.kurepa_digit.calls": calls["sequences.kurepa_digit"],
        "sequences.kurepa_digit_s": s(total["sequences.kurepa_digit"]),
        "sequences.paper_sequences_s": s(total["sequences.paper_sequences"]),
        "cli.records": calls["cli.Emitter.emit"],
        "cli.output_bytes": output_bytes,
        "cli.emit_self_s": s(own["cli.Emitter.emit"]),
        "cli.handler_self_s": s(own["cli.handler"]),
    }
