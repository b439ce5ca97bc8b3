"""padicsum.cli.main freezes the heap at exit, once per process, and never before.

    python tests/exit_freeze_check.py

Registers an atexit hook, then calls main three times in this process, as a
long-lived caller does.  After them the heap must be unfrozen and the atexit
list must have grown by exactly one entry, main's gc.freeze.  Hooks run last
registered first, so the hook registered before main runs after gc.freeze and
must find the heap frozen.  Prints one line per check and exits 1 if one fails.
Standard library only, so that it runs where pytest is not installed.
"""

import atexit
import contextlib
import gc
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from padicsum import cli  # noqa: E402


def after_main_hook() -> None:
    frozen = gc.get_freeze_count()
    print(f"at exit, after main's hook: {frozen} objects frozen {'ok' if frozen else 'WRONG'}",
          flush=True)
    if not frozen:
        os._exit(1)  # an exception in a hook is reported but does not change the exit code


atexit.register(after_main_hook)
hooks = atexit._ncallbacks()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["--format", "machine", "sequences", "--kmax", "1"]) for _ in range(3)]
added, frozen = atexit._ncallbacks() - hooks, gc.get_freeze_count()
ok = codes == [0, 0, 0] and added == 1 and frozen == 0
print(f"after 3 main calls: exit codes {codes}, {added} atexit hook added, {frozen} objects "
      f"frozen {'ok' if ok else 'WRONG'}", flush=True)
sys.exit(0 if ok else 1)
