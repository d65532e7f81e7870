"""The benchmark tracer still sees the layers it attributes time to.

bench/spans.py wraps functions by the names one module imports from
another; a refactor that moves a call inside a module silently drops its
span.  One tsweep job runs under the tracer in a fresh interpreter, with
bench/ on the path as bench/worker.py has it and no bytecode written there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

JOB = """
import json, sys
from fractions import Fraction
from spans import Tracer, install
tracer = Tracer()
install(tracer)
from rank2verma import products
from rank2verma.cartan import CartanData
from workloads import TSWEEP_FAMILIES
records = []
for p, q, case, n, m in TSWEEP_FAMILIES:
    records += products.end_to_end(case, n, m, CartanData(p, q), t_samples=(Fraction(2, 9),))
summary = tracer.summary()
print(json.dumps({
    "self_s": sorted(summary["self_s"]),
    "counts": summary["counts"],
    "statuses": [r.status for r in records],
    "supports": sum(len(r.vector.coeffs) for r in records if r.vector is not None),
}))
"""


def test_tsweep_job_records_layer_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    env.pop("VERMA_GRADE_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", JOB], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {"freealg.kernel_basis", "verma.singular_vectors", "pbw.project", "products.expand_product"} <= set(out["self_s"])
    assert out["counts"]["factors_expanded"] > 0
    assert out["statuses"] and set(out["statuses"]) == {"ok"}
    # every projected vector is counted once per target, word by word
    assert out["counts"]["project_words"] == out["supports"] > 0
    assert out["counts"]["singular_vectors_calls"] == len(out["statuses"]) // 2


LINE_JOB = """
import json, random
from fractions import Fraction
from spans import Tracer, install
tracer = Tracer()
install(tracer)
from rank2verma import products, verma
from rank2verma.cartan import CartanData
from rank2verma.lines import Line
from workloads import TSWEEP_FAMILIES
rng = random.Random(11)

def job():
    t = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
    return [r for p, q, case, n, m in TSWEEP_FAMILIES
            for r in products.end_to_end(case, n, m, CartanData(p, q), t_samples=(t,))]

jobs = 0
while len(verma._LINE_CACHE) < 3 or not all(isinstance(line, Line) for line in verma._LINE_CACHE.values()):
    job()
    jobs += 1
tracer.spans.clear()
tracer.counts.clear()
records = [r for _ in range(4) for r in job()]
summary = tracer.summary()
print(json.dumps({
    "jobs": jobs,
    "lines": len(verma._LINE_CACHE),
    "self_s": sorted(summary["self_s"]),
    "counts": summary["counts"],
    "statuses": [r.status for r in records],
    "by_line": sum(getattr(r.vector, "_line", None) is not None for r in records),
    "supports": sum(len(r.vector.coeffs) for r in records if r.vector is not None),
}))
"""


def test_tsweep_line_path_job_records_layer_spans():
    # the same tracer once every tsweep line has built its polynomial form
    # (the (8,3) line after 63 solves): the jobs after that take the line
    # path, solve no kernel, and still record a pbw.project span that
    # counts every projected vector word by word
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    env.pop("VERMA_GRADE_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", LINE_JOB], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["jobs"] == 64 and out["lines"] == 3
    assert out["statuses"] and set(out["statuses"]) == {"ok"}
    assert out["by_line"] == len(out["statuses"])
    assert {"verma.singular_vectors", "pbw.project", "products.expand_product"} <= set(out["self_s"])
    assert "freealg.kernel_basis" not in out["self_s"]
    assert out["counts"]["project_words"] == out["supports"] > 0
    assert out["counts"]["singular_vectors_calls"] == len(out["statuses"]) // 2
