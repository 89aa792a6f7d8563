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

The child's report and the package's bytecode go to a temporary directory
(`PYTHONPYCACHEPREFIX`), so a run leaves nothing in the checkout.  One import
of `wgl.cli` compiles the package there before the first cell, so no cell's
peak memory includes the compiler's, which grows with the source.  Standard
library only; it lives outside the test paths and is not part of the
benchmark.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
# a check's JSON report is a few kB; longer output (L(z)) is counted, not kept
_REPORT_CAP = 1 << 20


def _env(work: Path) -> dict:
    """The environment of every process: bytecode goes under work."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(work / "pycache")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cell(argv: list, work: Path) -> dict:
    """Run one `wgl` argv through the child and describe what it did."""
    report_path = work / "report.json"
    cmd = [sys.executable, str(CHILD), str(report_path), "0", "frontier", "--", *argv]
    env = _env(work)
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
        subprocess.run([sys.executable, "-c", "import wgl.cli"], check=True,
                       env={**_env(Path(work)), "PYTHONPATH": str(ROOT / "src")})
        for cell in cells:
            print(json.dumps(run_cell(shlex.split(cell), Path(work))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
