"""The wgl benchmark: cold `wgl` processes in a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record   # rewrite reference.json from this tree

Run it from anywhere; it finds the checkout from its own path and runs
`src/wgl` of that checkout.  Each command of a workload is one fresh process
(`child.py`), started only after the previous one has exited, so every
command starts with cold caches as a user's does.  A pass runs the
workload's set-up (writing its input files) and then all its commands, in an
order drawn from `--seed`.  Passes repeat while the next one is expected to
end within `--seconds`; at least one always runs.

With `--trace 0` the last stdout line reports, as medians over the passes:

- `wall_s`: the sum over commands of wall time from spawn to reap;
- `cpu_s`: the sum of the commands' user and system CPU time (wait4);
- `setup_s`: the sum over commands of the time from spawn until `wgl.cli`
  was imported, plus the time to generate the workload's input files;
- `peak_rss_mb`: the largest peak memory of any command, read by each
  command from its own /proc/self/status at exit;
- `match_ratio`: commands whose exit code and stdout SHA-256 match
  `reference.json`, over commands run.  Its complement, the fail ratio, is
  printed on stderr; any mismatch also makes `correct` false.

With `--trace 1` it runs one untraced pass and two traced ones (`tracer.py`)
and reports the per-layer figures of the traced passes: counts from the
first, which must equal the second's exactly, and times as their mean.
`trace.overhead` is traced wall time over untraced wall time.

Metric names and units come from BENCHMARK.json.  A line before the result
records the run: a machine-speed reference loop timed before the run, the
line count of `src/`, and every pass's figures.  `--tiny` runs one small
command per workload instead, for `selfcheck.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, all_commands, key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
CHILD = HERE / "child.py"


# -- one command ------------------------------------------------------------------


def run_command(argv: list, work: Path, trace: bool, trace_id: str,
                save_to: Path = None) -> dict:
    """Spawn one `wgl` command, hash its stdout as it streams, reap it."""
    report_path = work / f"{trace_id}.json"
    cmd = [sys.executable, str(CHILD), str(report_path), "1" if trace else "0",
           trace_id, "--", *argv]
    digest, nbytes = hashlib.sha256(), 0
    sink = open(save_to, "wb") if save_to is not None else None
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        while True:
            chunk = proc.stdout.read(1 << 16)
            if not chunk:
                break
            digest.update(chunk)
            nbytes += len(chunk)
            if sink is not None:
                sink.write(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if sink is not None:
            sink.close()
        if proc.returncode is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    report = {}
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
    return {
        "rc": proc.returncode,
        "sha256": digest.hexdigest(),
        "bytes": nbytes,
        "wall_s": reaped - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "import_s": report["imported"] - spawned if report else None,
        "rss_mb": report["vm_hwm_kb"] / 1024 if report else None,
        "report": report,
    }


def expand(argv: list, inputs: dict) -> list:
    return [inputs.get(a[1:-1], a) if a.startswith("{") else a for a in argv]


def verdict(result: dict, reference: dict, template: list) -> str:
    """None when the command matches its reference, else what differs."""
    want = reference.get(key(template))
    if want is None:
        return "no reference recorded"
    if not result["report"]:
        return f"no report from the child (exit {result['rc']})"
    if result["rc"] != want["rc"]:
        return f"exit code {result['rc']}, reference {want['rc']}"
    if result["sha256"] != want["sha256"]:
        return (f"stdout sha256 {result['sha256'][:16]}.. ({result['bytes']} B), "
                f"reference {want['sha256'][:16]}.. ({want['bytes']} B)")
    return None


# -- one pass ---------------------------------------------------------------------


class Pass:
    """The workload's set-up, then its commands in the given order."""

    def __init__(self, spec: dict, commands: list, work: Path, trace: bool,
                 tag: str, reference: dict):
        self.spec, self.commands, self.work = spec, commands, work
        self.trace, self.tag, self.reference = trace, tag, reference
        self.failures: list = []
        self.inputs: list = []
        self.results: list = []

    def _run(self, template: list, trace: bool, trace_id: str, inputs: dict,
             save_to: Path = None) -> dict:
        result = run_command(expand(template, inputs), self.work, trace, trace_id,
                             save_to)
        result["key"] = key(template)
        why = verdict(result, self.reference, template)
        if why is not None:
            self.failures.append(f"{key(template)}: {why}")
        return result

    def run(self) -> "Pass":
        started = time.monotonic()
        inputs = {}
        for n, (name, argv) in enumerate(sorted(self.spec["inputs"].items())):
            path = self.work / f"{self.tag}-{name}.json"
            self.inputs.append(self._run(argv, False, f"{self.tag}-in{n}", {}, path))
            inputs[name] = str(path)
        for n, template in enumerate(self.commands):
            self.results.append(self._run(template, self.trace, f"{self.tag}-c{n}",
                                          inputs))
        for path in inputs.values():
            os.unlink(path)
        self.elapsed_s = time.monotonic() - started
        return self

    @property
    def attempted(self) -> int:
        return len(self.inputs) + len(self.results)

    def figures(self) -> dict:
        rs = self.results
        import_s = sum(r["import_s"] or 0.0 for r in rs)
        return {
            "wall_s": sum(r["wall_s"] for r in rs),
            "cpu_s": sum(r["cpu_s"] for r in rs),
            "setup_s": sum(r["wall_s"] for r in self.inputs) + import_s,
            "import_s": import_s,
            "peak_rss_mb": max(r["rss_mb"] or 0.0 for r in rs),
        }

    def layers(self):
        """Per-layer (counts, times) of a traced pass, summed over commands."""
        counts, times = [], []
        for r in self.results:
            rep = r["report"]
            if "spans" not in rep:  # the command failed; already counted
                continue
            c, t = tracer.aggregate(rep["spans"], rep["caches"])
            counts.append(c)
            times.append(t)
        return tracer.combine(counts), tracer.combine(times)


def end_to_end(passes: list) -> dict:
    """Medians over the passes of each pass's figures."""
    return {k: statistics.median(p.figures()[k] for p in passes)
            for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}


# -- the run ------------------------------------------------------------------------


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed today."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(300_000):
            k = (i * 7919) % 1021
            acc[k] = acc.get(k, 0) + i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def layer_metrics(counts: dict, times: dict, wanted: list) -> dict:
    table = {**times, **counts}
    calls = table.get("series.quasidet.calls", 0)
    table["series.quasidet.inverts"] = (
        table.get("series.quasidet.inverts", 0) / calls if calls else 0)
    out = {}
    for m in wanted:
        value = table.get(m["name"], 0)
        out[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one small command per workload (harness self-check)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from this source tree")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wgl" / "cli.py").is_file():
        print(f"error: no wgl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    spec = WORKLOADS[args.workload]
    commands = spec["tiny"] if args.tiny else spec["commands"]
    rng = random.Random(args.seed)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # compile and cache the package's bytecode before anything is timed
        run_command(["--help"], work, False, "warmup")
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "tiny": args.tiny, "ref_loop_s": reference_loop_s(),
                "src_lines": src_lines()}
        passes = []
        started = time.monotonic()
        while True:
            traced = args.trace == 1 and len(passes) > 0
            order = rng.sample(commands, len(commands))
            passes.append(Pass(spec, order, work, traced, f"p{len(passes)}",
                               reference).run())
            if args.trace == 1:
                if len(passes) == 3:
                    break
            elif (time.monotonic() - started
                  + statistics.median(p.elapsed_s for p in passes) > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"MISMATCH {f}", file=sys.stderr)
    info["passes"] = [p.figures() for p in passes]
    correct = not failures

    if args.trace == 0:
        figures = end_to_end(passes)
        figures["match_ratio"] = (attempted - len(failures)) / attempted
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        (c1, t1), (c2, t2) = passes[1].layers(), passes[2].layers()
        if c1 != c2:
            correct = False
            for k in sorted(set(c1) | set(c2)):
                if c1.get(k) != c2.get(k):
                    print(f"COUNT NOT REPEATABLE {k}: {c1.get(k)} then {c2.get(k)}",
                          file=sys.stderr)
        times = {k: (t1.get(k, 0) + t2.get(k, 0)) / 2 for k in set(t1) | set(t2)}
        times["cli.import.s"] = statistics.mean(
            p.figures()["import_s"] for p in passes[1:])
        times["trace.overhead"] = (
            statistics.mean(p.figures()["wall_s"] for p in passes[1:])
            / passes[0].figures()["wall_s"])
        times["bench.ref_loop_s"] = info["ref_loop_s"]
        c1["cli.render.bytes"] = sum(r["bytes"] for r in passes[1].results)
        c1["bench.src_lines"] = info["src_lines"]
        metrics = layer_metrics(c1, times, bench["per_layer"])

    summary = [f"{args.workload} seed {args.seed}: {len(passes)} passes, "
               f"{attempted} commands, fail_ratio {len(failures) / attempted:.4g}"]
    summary += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def record() -> int:
    """Run every command once and store its exit code and stdout digest."""
    table = {}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = {}
        for spec in WORKLOADS.values():
            for name, argv in spec["inputs"].items():
                path = work / f"{name}.json"
                run_command(argv, work, False, f"in-{name}", path)
                inputs[name] = str(path)
        for n, template in enumerate(all_commands()):
            r = run_command(expand(template, inputs), work, False, f"rec{n}")
            table[key(template)] = {"rc": r["rc"], "sha256": r["sha256"],
                                    "bytes": r["bytes"]}
            print(f"{r['wall_s']:7.2f} s  rc {r['rc']}  {key(template)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
