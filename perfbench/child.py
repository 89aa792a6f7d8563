"""Run one `wgl` command in this fresh process and report on it.

    python3 perfbench/child.py REPORT TRACE TRACE_ID -- WGL-ARGS...

Imports `wgl.cli` from the checkout's `src/`, notes the monotonic time when
that import finished, installs the tracing wrappers of `tracer.py` when TRACE
is 1, and runs `wgl.cli.main(WGL-ARGS)` with stdout untouched.  It then
writes REPORT as JSON: the import time stamp, the exit code, this process's
own peak resident memory (`VmHWM`), and, when traced, the spans and cache
sizes.  The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def vm_hwm_kb() -> int:
    """Peak resident set of this process, from its own /proc status.

    `ru_maxrss` from wait4 is not used: Linux carries a parent's high-water
    mark into children it forks, so a parent that once held a large buffer
    would see that figure on every later command.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list) -> int:
    report_path, trace, trace_id, sep, *wgl_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE TRACE_ID -- WGL-ARGS...")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import wgl.cli

    imported = time.monotonic()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(trace_id)
        tracer.install()
    try:
        rc = wgl.cli.main(wgl_args)
    except SystemExit as exc:  # argparse rejects usage this way
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    report = {"imported": imported, "rc": rc, "vm_hwm_kb": vm_hwm_kb()}
    if tracer is not None:
        report.update(tracer.dump())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
