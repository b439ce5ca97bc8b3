"""Benchmark of the padicsum CLI.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, interleaved

Each workload is a list of real `padicsum --format machine ...` invocations
(see workloads.py), run one at a time from this process, each in a fresh
interpreter, so that no cache survives from one invocation to the next, as
for a user of the CLI, with stdout and stderr written to unnamed files in
.perfbench/.  A round runs every invocation of a workload once;
rounds repeat, interleaved round-robin across the chosen workloads, until
--seconds per workload have passed, and every metric is a median over
rounds.

With --trace 0 the end-to-end metrics are reported, per round:
  wall_ref_s   spawn to exit, summed over invocations
  setup_s      spawn to the entry of padicsum.cli.main, summed
  cpu_ref_s    user + sys time of the children, from os.wait4, summed
  peak_rss_mb  highest peak resident set size (VmHWM) among the invocations
The three times are scaled to a host of fixed speed: every round is followed
by a run of reference.py, a fixed program that does not use padicsum, in a
fresh interpreter, and a round's time is multiplied by REFERENCE_S over the
mean wall time of the reference runs before and after it.  A shared host's
speed can drift by tens of percent over minutes; the reference runs drift
with it, so the scaled times follow the program and not the host.  The raw
seconds are printed beside them.
With --trace 1 untraced and traced rounds alternate, and the per-layer
metrics of spans.LAYER_METRICS come from the traced ones; trace.overhead_s
is the traced minus the untraced median raw wall time.  The spans of the last
traced round are written to .perfbench/.

Every output is checked: the exit code, the sha256 of stdout against the
digest pinned in expected.json for the default seed (and against the first
round for other seeds), and the record-level checks of workloads.py.  One
operation is one output record; a wrong exit code or digest fails all of an
invocation's records.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 1 when
correct is false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from spans import LAYER_METRICS, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Invocation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI = ROOT / "src" / "padicsum" / "cli.py"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
REFERENCE_OUTPUT = b"78663 1796 254290 650041\n"
# about reference.py's spawn-to-exit time on a 2-vCPU Xeon VM at its usual
# speed, so that scaled times read close to raw seconds there
REFERENCE_S = 0.25
EXPECTED = HERE / "expected.json"
# children's output files and the spans of traced runs
WORK_DIR = ROOT / ".perfbench"
INVOCATION_TIMEOUT_S = 120

# end-to-end metric: (unit, the round's raw measurement, scaled to REFERENCE_S)
END_TO_END = {
    "wall_ref_s": ("s", "wall_s", True),
    "setup_s": ("s", "setup_s", True),
    "cpu_ref_s": ("s", "cpu_s", True),
    "peak_rss_mb": ("MB", "peak_rss_mb", False),
}


def clock_ns() -> int:
    # CLOCK_MONOTONIC is one clock for every process, so a child can
    # timestamp its entry into main against run.py's spawn time
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """One finished invocation."""

    exit_code: int
    wall_s: float
    setup_s: float | None  # None: main was never entered
    cpu_s: float
    rss_mb: float | None  # None: main did not return
    stdout: bytes
    stderr: bytes
    trace: dict | None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def _drain(proc: subprocess.Popen, fd: int) -> bytes:
    """Read a pipe to EOF, killing the child if it overruns its time."""
    chunks = []
    deadline = time.monotonic() + INVOCATION_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 and proc.poll() is None:
                proc.kill()
            if sel.select(timeout=max(left, 1.0)):
                data = os.read(fd, 1 << 16)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)


class Exited(NamedTuple):
    t0: int  # spawn time, CLOCK_MONOTONIC ns
    exit_code: int
    wall_s: float
    cpu_s: float
    stdout: bytes
    stderr: bytes
    report: bytes  # what the child wrote to the file descriptor in its argv[1]


def spawn(script: Path, *args: str) -> Exited:
    """Run a script in a fresh interpreter and wait for it to end.

    stdout and stderr go to unnamed files rather than pipes, so that the
    child never waits for this process to be scheduled to drain its output:
    on a shared host that wait came and went with the host's load."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK_DIR) as out, \
            tempfile.TemporaryFile(dir=WORK_DIR) as err:
        rfd, wfd = os.pipe()
        try:
            t0 = clock_ns()
            proc = subprocess.Popen(
                [sys.executable, str(script), str(wfd), *args],
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                pass_fds=(wfd,),
                cwd=ROOT,
            )
        finally:
            os.close(wfd)
        try:
            report = _drain(proc, rfd)
        finally:
            os.close(rfd)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = clock_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Exited(t0, proc.returncode, (t1 - t0) / 1e9, usage.ru_utime + usage.ru_stime,
                      out.read(), err.read(), report)


def invoke(argv: tuple[str, ...], traced: bool) -> Outcome:
    """Run one CLI invocation in a fresh interpreter and wait for it to end."""
    done = spawn(CHILD, "1" if traced else "0", *argv)
    head, _, rest = done.report.partition(b"\n")
    setup = (int(head) - done.t0) / 1e9 if head else None
    try:
        after = json.loads(rest)
    except ValueError:  # main raised, or the child was killed mid-report
        after = {"peak_rss_kb": None, "trace": None}
    return Outcome(
        exit_code=done.exit_code,
        wall_s=done.wall_s,
        setup_s=setup,
        cpu_s=done.cpu_s,
        rss_mb=after["peak_rss_kb"] and after["peak_rss_kb"] / 1024,
        stdout=done.stdout,
        stderr=done.stderr,
        trace=after["trace"],
    )


def reference() -> float:
    """Wall time of one run of reference.py, spawn to exit."""
    done = spawn(REFERENCE)
    if done.exit_code != 0 or done.stdout != REFERENCE_OUTPUT:
        raise RuntimeError(f"reference.py failed: {done.stderr.decode(errors='replace')}")
    return done.wall_s


def count_bad(inv: Invocation, stdout: bytes) -> int:
    """Records of one output that fail the workload's checks."""
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return inv.records
    if len(records) != inv.records or not all(isinstance(r, dict) for r in records):
        return inv.records
    return inv.check(records)


@dataclass
class Tally:
    """Everything one workload's rounds produced in a run."""

    invocations: list[Invocation]
    pinned: list[dict] | None  # expected.json entries, for the default seed
    rounds: list[dict] = field(default_factory=list)  # untraced raw measurements
    traced_wall: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    last_traces: list[dict] = field(default_factory=list)
    outcomes: list[list[tuple[int, str]]] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)  # digest -> stdout
    stderr: set[bytes] = field(default_factory=set)

    def __post_init__(self):
        self.outcomes = [[] for _ in self.invocations]

    def run_round(self, traced: bool) -> None:
        results = [invoke(inv.argv, traced) for inv in self.invocations]
        for i, r in enumerate(results):
            digest = r.digest
            self.outcomes[i].append((r.exit_code, digest))
            self.outputs.setdefault(digest, r.stdout)
            if r.stderr:
                self.stderr.add(r.stderr)
        if traced:
            self.traced_wall.append(sum(r.wall_s for r in results))
            if any(r.trace is None for r in results):
                return  # a child that died before dumping fails its records
            self.last_traces = [r.trace for r in results]
            self.layers.append(
                layer_metrics(self.last_traces, sum(len(r.stdout) for r in results))
            )
            return
        setups, rss = [r.setup_s for r in results], [r.rss_mb for r in results]
        self.rounds.append(
            {
                "wall_s": sum(r.wall_s for r in results),
                "setup_s": None if None in setups else sum(setups),
                "cpu_s": sum(r.cpu_s for r in results),
                "peak_rss_mb": None if None in rss else max(rss),
            }
        )

    def verdict(self) -> tuple[int, int, bool]:
        """(attempted, failed, counts repeat): every run of every invocation
        against its pinned exit code and digest, then the record checks."""
        attempted = failed = 0
        checked: dict[str, int] = {}
        for i, inv in enumerate(self.invocations):
            runs = self.outcomes[i]
            if self.pinned:
                want_exit, want_digest = self.pinned[i]["exit"], self.pinned[i]["sha256"]
            else:
                want_exit, want_digest = 0, runs[0][1]
            for exit_code, digest in runs:
                attempted += inv.records
                if exit_code != want_exit or digest != want_digest:
                    failed += inv.records
                    continue
                if digest not in checked:
                    checked[digest] = count_bad(inv, self.outputs[digest])
                failed += checked[digest]
        counts = [
            {k: v for k, v in m.items() if LAYER_METRICS[k][0] != "s"} for m in self.layers
        ]
        return attempted, failed, all(c == counts[0] for c in counts)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)  # med equals statistics.median
    return q1, med, q3


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def load_pins(seed: int) -> dict[str, list[dict]]:
    pins = json.loads(EXPECTED.read_text())
    return pins["workloads"] if seed == pins["seed"] else {}


def report(names, tallies, verdicts, seed, traced, refs) -> dict[str, dict]:
    """Print the human-readable report; return the metrics, prefixed by
    workload name when there is more than one."""
    print(f"padicsum benchmark: python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, commit {commit()}, seed {seed}, "
          f"trace {int(traced)}")
    q1, med, q3 = quartiles(refs)
    print(f"reference.py: median {med:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, "
          f"min {min(refs):.4f}, max {max(refs):.4f}, n={len(refs)}; "
          f"times below are scaled to {REFERENCE_S} s")
    metrics: dict[str, dict] = {}
    for name in names:
        t = tallies[name]
        attempted, failed, _ = verdicts[name]
        print(f"\n[{name}] {WORKLOADS[name].why}")
        for i, inv in enumerate(t.invocations):
            digest = t.outcomes[i][0][1]
            pin = "pinned" if t.pinned else "first round"
            print(f"  $ padicsum {' '.join(inv.argv)}\n    sha256 {digest} ({pin})")
        for err in sorted(t.stderr):
            print(f"  stderr: {err.decode(errors='replace').strip()[:200]}")
        print(f"  fail_ratio {failed / attempted:.6f} ({failed}/{attempted} records)")
        values: dict[str, tuple[float, str]] = {}
        if not traced:
            for metric, (unit, raw, scaled) in END_TO_END.items():
                rounds = [r for r in t.rounds if r[raw] is not None]
                series = [r[raw] * (REFERENCE_S / r["reference_s"] if scaled else 1)
                          for r in rounds]
                q1, med, q3 = quartiles(series or [0.0])
                line = (f"  {metric:<12} {med:.6f} {unit}  q1 {q1:.6f}  q3 {q3:.6f}  "
                        f"n={len(series)}")
                if scaled:
                    line += f"  (raw {raw} median {statistics.median(r[raw] for r in rounds):.6f})"
                print(line)
                values[metric] = (med, unit)
        else:
            untraced = statistics.median(r["wall_s"] for r in t.rounds)
            for metric, (unit, _, moves) in LAYER_METRICS.items():
                if metric == "trace.overhead_s":
                    value = statistics.median(t.traced_wall) - untraced
                    n = len(t.traced_wall)
                elif unit != "s":  # counts repeat exactly (verdict checks it)
                    value = t.layers[-1][metric] if t.layers else 0
                    n = len(t.layers)
                else:
                    value = statistics.median([m[metric] for m in t.layers] or [0.0])
                    n = len(t.layers)
                print(f"  {metric:<38} {value:.6g} {unit}  n={n}  "
                      f"moves wall_ref_s on {', '.join(moves)}")
                values[metric] = (value, unit)
            path = WORK_DIR / f"trace-{name}-seed{seed}.json"
            path.write_text(json.dumps([
                {"invocation": i, "argv": list(inv.argv),
                 "names": tr["names"], "spans": tr["spans"]}
                for i, (inv, tr) in enumerate(zip(t.invocations, t.last_traces))
            ]))
            print(f"  spans of the last traced round: {path.relative_to(ROOT)}")
        for metric, (value, unit) in values.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring time per workload (BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not CLI.is_file():
        print(f"error: {CLI} not found; run from a padicsum checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    pins = load_pins(args.seed)
    tallies = {n: Tally(WORKLOADS[n].make(args.seed), pins.get(n)) for n in names}
    # compiles padicsum's bytecode and warms the file cache, as for an installed CLI
    invoke(("--format", "machine", "sequences", "--kmax", "1"), traced=False)
    refs = [reference()]
    deadline = time.monotonic() + args.seconds * len(names)
    while True:
        for name in names:
            tallies[name].run_round(traced=False)
            refs.append(reference())
            tallies[name].rounds[-1]["reference_s"] = (refs[-2] + refs[-1]) / 2
            if args.trace:
                tallies[name].run_round(traced=True)
        if time.monotonic() >= deadline:
            break

    verdicts = {name: t.verdict() for name, t in tallies.items()}
    metrics = report(names, tallies, verdicts, args.seed, bool(args.trace), refs)
    attempted = sum(v[0] for v in verdicts.values())
    failed = sum(v[1] for v in verdicts.values())
    # counts_repeat is vacuous without traced rounds; with them, each
    # workload must have at least one complete trace
    correct = failed == 0 and all(
        counts_repeat and (t.layers or not args.trace)
        for t, (_, _, counts_repeat) in zip(tallies.values(), verdicts.values())
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
