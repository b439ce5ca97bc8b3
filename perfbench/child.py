"""Run one padicsum CLI invocation in this fresh interpreter.

    python3 perfbench/child.py REPORT_FD TRACE ARGV...

Calls `padicsum.cli.main(ARGV)` and exits with its code, as the `padicsum`
console script does, importing padicsum from the `src` directory next to
this benchmark.  Before entering main it writes the CLOCK_MONOTONIC time in
nanoseconds as one line to file descriptor REPORT_FD.  When main returns it
writes a JSON object after that line: the peak resident set size of this
interpreter and, with TRACE = 1, the spans recorded around the layer
functions it wrapped before entering main.
"""

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_kb() -> int:
    """VmHWM of this process.  Unlike ru_maxrss it starts afresh at exec, so
    it does not include the memory of the parent that forked it."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    report = os.fdopen(int(sys.argv[1]), "w")
    traced = sys.argv[2] == "1"
    argv = sys.argv[3:]
    sys.path.insert(0, str(SRC))
    from padicsum import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"padicsum was imported from {cli.__file__}, not from {SRC}")
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with report:
        report.write(f"{time.clock_gettime_ns(time.CLOCK_MONOTONIC)}\n")
        report.flush()
        code = cli.main(argv)
        json.dump({"peak_rss_kb": peak_rss_kb(),
                   "trace": tracer and tracer.dump()}, report)
    sys.exit(code)


if __name__ == "__main__":
    main()
