"""Run `wgl` commands one fresh process each and print what each one cost.

    python3 tools/frontier.py 'check yangian --partition 2,1,1 --floor -5 --format json' ...

Each argument is one cell: a `wgl` command line, split as a shell splits it.
The cells run one after another, each through `perfbench/child.py` in a
process of its own, so every cell starts with cold caches.  One JSON line is
printed per cell:

- `argv`: the command;
- `rc`: its exit code;
- `cpu_s`: user plus system CPU seconds of the process, from wait4;
- `vm_hwm_mb`: its peak resident memory, read by the child from its own
  /proc status at exit (null if the child wrote no report);
- `pass`, `strategy`: those fields of the command's report, null when
  stdout is not a JSON report object (give `--format json` to a check).

The child's report goes to a temporary directory and the child writes no
bytecode, so a run leaves nothing in the checkout.  Standard library only;
it lives outside the test paths and is not part of the benchmark.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
# a check's JSON report is a few kB; longer output (L(z)) is counted, not kept
_REPORT_CAP = 1 << 20


def run_cell(argv: list, work: Path) -> dict:
    """Run one `wgl` argv through the child and describe what it did."""
    report_path = work / "report.json"
    cmd = [sys.executable, str(CHILD), str(report_path), "0", "frontier", "--", *argv]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    kept, size = [], 0
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env)
    try:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            if size <= _REPORT_CAP:
                kept.append(chunk)
            size += len(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    child = {}
    if report_path.exists():
        child = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
    report = None
    if size <= _REPORT_CAP:
        try:
            report = json.loads(b"".join(kept))
        except ValueError:
            pass
    if not isinstance(report, dict):
        report = {}
    return {
        "argv": argv,
        "rc": proc.returncode,
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "vm_hwm_mb": round(child["vm_hwm_kb"] / 1024, 1) if child else None,
        "pass": report.get("pass"),
        "strategy": report.get("strategy"),
    }


def main(cells: list) -> int:
    if not cells:
        print("usage: frontier.py 'WGL-ARGS' ...", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="wgl-frontier-") as work:
        for cell in cells:
            print(json.dumps(run_cell(shlex.split(cell), Path(work))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
