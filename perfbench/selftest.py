"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks the self-time arithmetic, the seeded inputs, that the output checks
and digest pins reject corrupted output, that run.py's invocations
behave byte for byte like `python -m padicsum.cli`, that tracing wraps every
binding of each layer function, and that every per-layer metric reads
non-zero on the workload it is mapped to.  Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from fractions import Fraction

import workloads as wl
from run import CLI, END_TO_END, ROOT, Tally, count_bad, invoke, load_pins
from spans import LAYER_METRICS, Tracer, self_times


def expect(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def test_self_times_on_a_nested_tree():
    # root [0, 100] has children [10, 30] and [20, 40] (overlapping, union 30)
    # and [90, 120] (clipped to 10); [20, 40] has a child [25, 35]
    spans = [[0, 0, 100, -1], [1, 10, 30, 0], [1, 20, 40, 0], [1, 90, 120, 0],
             [2, 25, 35, 2]]
    expect(self_times(spans) == [60, 20, 10, 30, 10], self_times(spans))
    expect(self_times([]) == [], "empty trace")


def test_benchmark_json_matches_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(w["name"], w["why"]) for w in doc["workloads"]]
           == [(w.name, w.why) for w in wl.WORKLOADS.values()], "workloads")
    expect({m["name"]: m["unit"] for m in doc["end_to_end"]}
           == {name: unit for name, (unit, _, _) in END_TO_END.items()}, "end_to_end")
    expect([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
           == [(n, unit, better) for n, (unit, better, _) in LAYER_METRICS.items()],
           "per_layer")


def test_seeded_inputs():
    for seed in range(20):
        for w in wl.WORKLOADS.values():
            a = [inv.argv for inv in w.make(seed)]
            expect(a == [inv.argv for inv in w.make(seed)], f"{w.name} seed {seed} not repeatable")
        (verify,) = wl.make_verify(seed)
        x_set = next(a for a in verify.argv if a.startswith("--x-set="))
        head, *rest = x_set.removeprefix("--x-set=").split(",")
        rationals = [Fraction(x) for x in rest]
        expect(head == "-3..3" and len(set(rationals)) == 2, x_set)
        for x in rationals:
            expect(x.denominator > 1 and 4 <= abs(x.numerator) <= 7 and x.denominator <= 7, x)
        ident = wl.make_tables(seed)[3].argv
        k, N = int(ident[ident.index("--identity") + 1]), int(ident[ident.index("--N") + 1])
        expect(k + N == wl.IDENTITY_SIZE and 1 <= k <= 5, ident)
    argvs = {wl.make_verify(s)[0].argv for s in range(20)}
    expect(len(argvs) > 10, "seeds barely change the verify inputs")
    pins = load_pins(wl.DEFAULT_SEED)
    for name, w in wl.WORKLOADS.items():
        pinned = [tuple(p["argv"]) for p in pins[name]]
        expect(pinned == [inv.argv for inv in w.make(wl.DEFAULT_SEED)],
               f"{name}: expected.json pins other argv than the default seed makes")


def _bump(obj) -> bool:
    """Add 1 to the first number inside obj, an int or a "num/den" string,
    in place; False if there is none."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, int) and not isinstance(value, bool):
            obj[key] = value + 1
            return True
        if isinstance(value, str) and "/" in value:
            obj[key] = str(Fraction(value) + 1)
            return True
        if isinstance(value, (dict, list)) and _bump(value):
            return True
    return False


def test_checks_reject_corrupt_output(outputs):
    for name, w in wl.WORKLOADS.items():
        invs = w.make(wl.DEFAULT_SEED)
        for inv, out in zip(invs, outputs[name]):
            expect(count_bad(inv, out) == 0, f"{name}: seed output fails its check")
            lines = out.splitlines()
            for i in range(len(lines) // 2, len(lines)):
                rec = json.loads(lines[i])
                if _bump(rec["result"]):
                    break
            lines[i] = json.dumps(rec).encode()
            bad = b"\n".join(lines) + b"\n"
            expect(count_bad(inv, bad) >= 1, f"{name}: corrupted record {i} passes")
            expect(count_bad(inv, out[: len(out) // 2]) == inv.records,
                   f"{name}: truncated output passes")
        # a digest or exit code that differs from the pin fails every record
        tally = Tally(invs, load_pins(wl.DEFAULT_SEED)[name])
        tally.outcomes = [[(0, "0" * 64)], *([(0, p["sha256"])] for p in tally.pinned[1:])]
        for i, out in enumerate(outputs[name]):
            tally.outputs[tally.pinned[i]["sha256"]] = out
        attempted, failed, _ = tally.verdict()
        expect(attempted == sum(i.records for i in invs), "attempted")
        expect(failed == invs[0].records, f"{name}: digest mismatch not failed")


def test_invocations_match_python_m(outputs):
    env = dict(os.environ, PYTHONPATH=str(CLI.parents[1]))
    argvs = [inv.argv for w in wl.WORKLOADS.values() for inv in w.make(wl.DEFAULT_SEED)]
    argvs.append(("--format", "machine", "verify", "--k", "1..2..3", "--n-max", "2",
                  "--x-set", "1"))  # a usage error: exit 2 and a message on stderr
    for argv in argvs:
        ours = invoke(argv, traced=False)
        ref = subprocess.run([sys.executable, "-m", "padicsum.cli", *argv],
                             capture_output=True, env=env, cwd=ROOT)
        expect(ours.stdout == ref.stdout, f"stdout differs for {argv}")
        expect(ours.stderr == ref.stderr, f"stderr differs for {argv}")
        expect(ours.exit_code == ref.returncode, f"exit code differs for {argv}")
        expect(ours.setup_s is not None and 0 < ours.setup_s < ours.wall_s, "setup time")
    expect(ours.exit_code == 2, "usage error not exit 2")
    for name, w in wl.WORKLOADS.items():
        outputs[name] = [invoke(inv.argv, traced=False).stdout
                         for inv in w.make(wl.DEFAULT_SEED)]


def test_layer_metrics_nonzero_where_mapped():
    for name, w in wl.WORKLOADS.items():
        tally = Tally(w.make(wl.DEFAULT_SEED), load_pins(wl.DEFAULT_SEED)[name])
        tally.run_round(traced=False)
        tally.run_round(traced=True)
        attempted, failed, _ = tally.verdict()
        expect(failed == 0, f"{name}: traced output differs from the pinned one")
        m = dict(tally.layers[0])
        m["trace.overhead_s"] = tally.traced_wall[0] - tally.rounds[0]["wall_s"]
        expect(set(m) == set(LAYER_METRICS), "metric names")
        for metric, (_, _, mapped) in LAYER_METRICS.items():
            if name in mapped:
                expect(m[metric] != 0, f"{metric} reads 0 on {name}")
        expect(m["cli.records"] == sum(i.records for i in tally.invocations), "records")
        if name == "verify":
            K, N = wl.VERIFY_K, wl.VERIFY_N_MAX
            identities = K * N * 9  # -3..3 and two rationals
            certificates = K * N * 6 * len(wl.VERIFY_PRIMES)  # nonzero integer x
            calls = identities + certificates
            expect(m["summation.verify_identity.calls"] == calls, m)
            expect(m["summation.identity_unique_ratio"] == identities / calls, m)
            expect(m["summation.truncated_padic_sum.calls"] == certificates, m)
            expect(m["recurrences.compute_A_family.calls"] == K - 1, m)
            expect(m["recurrences.A_build_useful_ratio"] == (K - 1) / sum(range(K)), m)
            expect(m["recurrences.triple_unique_ratio"] == K / calls, m)
        if name == "tables":
            expect(m["recurrences.A_build_useful_ratio"] == 1.0, m)


def test_tracing_wraps_every_binding():
    sys.path.insert(0, str(CLI.parents[1]))
    import padicsum.cli as cli
    import padicsum.recurrences as rec
    import padicsum.sequences as seq
    import padicsum.summation as summ
    from padicsum.poly import BivarPoly

    tracer = Tracer()
    tracer.install()
    expect(tracer.unpatched() == [], tracer.unpatched())
    for binding in (cli.verify_identity, cli.truncated_padic_sum, cli.bernoulli_numbers,
                    cli.kurepa_gcd_scan, cli.kurepa_digit_scan, cli.paper_sequences,
                    seq.is_prime, summ.verify_identity, summ.vp, rec.compute_A_family,
                    rec.TripleFamily.triple, BivarPoly.eval, cli.Emitter.emit, cli.cmd_verify):
        expect(hasattr(binding, "__wrapped__"), f"{binding.__qualname__} is not wrapped")
    # the scan itself must see a binding left behind
    seq.stale_copy = tracer.originals["padic.is_prime"]
    expect(tracer.unpatched() == ["padicsum.sequences.stale_copy"], tracer.unpatched())
    del seq.stale_copy


def main() -> int:
    outputs: dict[str, list[bytes]] = {}
    tests = [
        (test_self_times_on_a_nested_tree, ()),
        (test_benchmark_json_matches_code, ()),
        (test_seeded_inputs, ()),
        (test_invocations_match_python_m, (outputs,)),
        (test_checks_reject_corrupt_output, (outputs,)),
        (test_layer_metrics_nonzero_where_mapped, ()),
        (test_tracing_wraps_every_binding, ()),  # last: it patches this process
    ]
    failures = 0
    for test, args in tests:
        try:
            test(*args)
            print(f"PASS {test.__name__}")
        except Exception:
            failures += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
