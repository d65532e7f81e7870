"""Run the benchmark over several seeds and record the results.

    python3 bench/record.py --out bench/results/baseline.json

For each workload this runs `bench/run.py` untraced once per seed in SEEDS,
one run at a time, then one traced run at the first seed.  It writes every
run's result and details, and per end-to-end metric the median, the
quartiles and their spread (q3 - q1) / median, next to the bound from
BENCHMARK.json.  For the time metrics it gives the same figures computed
from the unscaled wall times and from the jobs' CPU times, which the
details line of each run holds.  The tracing overhead is the traced run's
job time over the untraced run's time for the same jobs (same seed), minus
one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TIMES = ("setup_s", "job_s_p50", "job_s_tail", "ok_per_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "details": json.loads(lines[-2])["details"]}


def scaled(details: dict) -> list[float]:
    return [x * f for x, f in zip(details["latencies"], details["factors"])]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, json.dumps(runs[-1]["result"]), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            stats = spread([r["result"]["metrics"][metric]["value"] for r in runs])
            summary[metric] = dict(stats, bound=bound, within_third=stats["spread"] < bound / 3)
        unscaled = {
            kind: {m: spread([r["details"][kind][m] for r in runs]) for m in TIMES}
            for kind in ("wall", "cpu")
        }
        traced = run_once(name, SEEDS[0], seconds, 1)
        print(name, "trace", json.dumps(traced["result"]), flush=True)
        layer = traced["result"]["metrics"]
        times = {k: v["value"] for k, v in layer.items() if k.endswith("_s") and not k.startswith("trace.")}
        # the traced run's jobs are the first ones of the untraced run
        slow, fast = scaled(traced["details"]), scaled(runs[0]["details"])
        n = min(len(slow), len(fast))
        out["workloads"][name] = {
            "summary": summary,
            "unscaled": unscaled,
            "correct": all(r["result"]["correct"] for r in runs) and traced["result"]["correct"],
            "largest_self_time": max(times, key=times.get),
            "tracing_overhead": sum(slow[:n]) / sum(fast[:n]) - 1,
            "runs": runs,
            "trace": traced,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
