"""Long-lived worker for the tsweep-warm workload.

    python bench/worker.py '{"families": [[p, q, case, n, m], ...],
                             "warmup": "t", "trace": false}'

Set-up imports the package and runs one warm-up job, which builds and
caches every quotient the families need; then it prints a ready line.
After that it reads one JSON request per stdin line and answers each on one
stdout line, one job at a time:

    {"job": "t"}    -> {"ok": k, "nongeneric": k, "failed": k, "digest": hex, "cpu_s": s}
    {"done": true}  -> {"peak_rss_kb": k, "trace": summary or null}, then exits

A job is `products.end_to_end(case, n, m, cartan, t_samples=(t,))` for each
family in turn.  Every `ok` record is checked again here: projection ==
scalar * product, with a one-dimensional kernel.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

from spans import Tracer, install


def _send(msg: dict) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def run_job(products, families, t: Fraction) -> dict:
    """One job's counts, with its CPU time in seconds as cpu_s."""
    start = time.process_time()
    counts = {"ok": 0, "nongeneric": 0, "failed": 0}
    records = []
    for cartan, case, n, m in families:
        try:
            found = products.end_to_end(case, n, m, cartan, t_samples=(t,))
        except Exception:  # a crashed job is counted, and the worker keeps serving
            return dict(
                counts, failed=counts["failed"] + 1, error=traceback.format_exc(limit=3),
                cpu_s=time.process_time() - start,
            )
        if not found:
            counts["failed"] += 1
        records.extend(found)
    for rec in records:
        if rec.status == "ok":
            good = (
                rec.kernel_dim == 1
                and rec.scalar
                and rec.projection == rec.product * rec.scalar
            )
            counts["ok" if good else "failed"] += 1
        elif rec.status == "nongeneric":
            counts["nongeneric"] += 1
        else:
            counts["failed"] += 1
    digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
    return dict(counts, digest=digest, cpu_s=time.process_time() - start)


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
    from rank2verma import products
    from rank2verma.cartan import CartanData

    families = [(CartanData(p, q), case, n, m) for p, q, case, n, m in spec["families"]]
    warm = run_job(products, families, Fraction(spec["warmup"]))
    # CPU time of the whole set-up, interpreter start included
    _send({"ready": True, "failed": warm["failed"], "cpu_s": time.process_time()})
    for line in sys.stdin:
        msg = json.loads(line)
        if "job" not in msg:
            break
        _send(run_job(products, families, Fraction(msg["job"])))
    _send({
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
