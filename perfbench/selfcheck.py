"""Check the benchmark harness itself in well under a minute.

    python3 perfbench/selfcheck.py

Runs `run.py --tiny` (one small command per workload) untraced and traced on
every workload, and checks the last stdout line of each: its keys, that the
run was correct, and that it names exactly the metrics of BENCHMARK.json,
each with its unit and a numeric value.  Then copies only BENCHMARK.json and
the benchmark's own files into a scratch directory inside the checkout and
checks that the benchmark refuses to run there without printing a result.
Exits 1 on the first problem, 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(line: str, expected: list) -> list:
    problems = []
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        problems.append(f"correct={res.get('correct')} failed={res.get('failed')}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append(f"attempted={res.get('attempted')}")
    metrics = res.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, want {m['unit']!r}")
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{m['name']}: value {value!r} is not a number")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in bench["workloads"]:
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = run(ROOT, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--tiny")
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}"] if proc.returncode else []
            problems += check_result(lines[-1], expected) if lines else ["no output"]
            label = f"{w['name']} --trace {trace}"
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems) + "\n" + proc.stderr)
                return 1
            print(f"ok   {label}")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selfcheck-", dir=ROOT))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for rel in bench["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        w = bench["workloads"][0]["name"]
        proc = run(bare, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            print(f"FAIL without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
            return 1
        print("ok   refuses to run without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
