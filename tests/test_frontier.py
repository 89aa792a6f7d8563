"""`tools/frontier.py`, run the way its docstring shows, on one small cell."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _paths() -> set:
    """Every file and directory of the checkout outside .git."""
    out = set()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = [x for x in dirs if x != ".git"]
        out.update(os.path.join(d, x) for x in dirs + files)
    return out


def test_frontier_prints_one_line_per_cell_and_leaves_no_file():
    before = _paths()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "frontier.py"),
         "check membership --partition 2,1 --floor -2 --format json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    cell = json.loads(lines[0])
    assert cell["argv"] == ["check", "membership", "--partition", "2,1",
                            "--floor", "-2", "--format", "json"]
    assert cell["rc"] == 0 and cell["pass"] is True and cell["strategy"] is None
    assert cell["vm_hwm_mb"] > 0
    assert _paths() == before
