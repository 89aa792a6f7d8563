"""The benchmark tracer's view of the package.

`perfbench/tracer.py` wraps methods and functions of `wgl` by name and reads
cache sizes by attribute name, but it only runs in traced benchmark passes.
This test installs it in a fresh process, so a renamed or reshaped internal
fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import wgl.cli
from tracer import Tracer, aggregate

tracer = Tracer("contract")
tracer.install()
from wgl.pyramid import Partition
from wgl.walgebra import GeneratorBasis, family_generators

basis = GeneratorBasis(family_generators(Partition((2, 1)), "minimal"))
product = basis.poly_mul({(4,): 1}, {(0, 1): 1})
rc = wgl.cli.main(["check", "yangian", "--partition", "2,1", "--floor", "-2",
                   "--format", "json"])
dump = tracer.dump()
counts, _ = aggregate(dump["spans"], dump["caches"])
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "product": len(product), "caches": dump["caches"],
               "counts": counts}, fh)
"""


def test_tracer_wraps_and_reads_the_package(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    subprocess.run([sys.executable, "-c", SCRIPT, str(out)], env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    got = json.loads(out.read_text())
    assert got["rc"] == 0 and got["product"] > 0
    assert set(got["caches"]) == {
        "uea.lm_cache.entries", "uea.comm_cache.entries",
        "walgebra.basis.nf_cache.entries", "walgebra.basis.eval_cache.entries"}
    for key, value in got["caches"].items():
        assert type(value) is int and value > 0, key
    counts = got["counts"]
    assert counts["walgebra.basis.poly_mul.calls"] == 1
    assert counts["walgebra.basis.poly_mul.terms_out"] == got["product"]
    assert counts["uea.mul.calls"] > 0 and counts["quotient.w_product.calls"] > 0
