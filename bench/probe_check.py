"""Check that the speed probe does not depend on what the job runs.

    python3 bench/probe_check.py > bench/results/probe_check.json

run.py scales each job's time by a factor that SpeedProbe measures while
the job runs on the same CPU.  If the job's own work changed the probe's
timings (by warming or evicting the code and data the probe uses), a change
to the package would move the factor and not only the job.  This runs two
synthetic child loads of about equal length, one made of stdlib Fraction
arithmetic like the probe and the package's kernels, one of plain int
arithmetic, alternating as A B B A ... under one probe, exactly as run.py
runs jobs.  It prints, as JSON, each load's median factor, the ratio of the
factors of neighbouring A and B jobs (median and quartiles), and how much
each load's time spreads unscaled and scaled.  A median ratio near 1 means
the probe sees the same CPU speed whichever of the two runs beside it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from run import PY, SpeedProbe, run_child

# each load's cost is linear in n
LOADS = {
    "fraction": (
        "from fractions import Fraction\n"
        "for _ in range({n}):\n"
        "    t = Fraction(0)\n"
        "    for k in range(1, 300):\n"
        "        t += Fraction(k % 97 + 1, k)\n"
    ),
    "int": (
        "t = 0\n"
        "for k in range(1, {n}):\n"
        "    t = (t * 31 + k * k) % 1000003\n"
    ),
}
SIZING_N = {"fraction": 200, "int": 200000}
TARGET_S = 0.8
PAIRS = 40


def spread(xs: list[float]) -> float:
    """(q3 - q1) / median"""
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / median


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # size each load, timed in this process, to take about TARGET_S
    sizes = {}
    for name, code in LOADS.items():
        start = time.process_time()
        exec(code.format(n=SIZING_N[name]), {})
        sizes[name] = int(SIZING_N[name] * TARGET_S / (time.process_time() - start))
    order = [("fraction", "int"), ("int", "fraction")] * (PAIRS // 2)
    wall = {name: [] for name in LOADS}
    factor = {name: [] for name in LOADS}
    with SpeedProbe() as probe:
        for pair in order:
            for name in pair:
                start = time.perf_counter()
                done = run_child([PY, "-c", LOADS[name].format(n=sizes[name])])
                if done.code != 0:
                    raise SystemExit(done.err.decode(errors="replace"))
                wall[name].append(done.seconds)
                factor[name].append(probe.factor(start, start + done.seconds))
    ratios = [a / b for a, b in zip(factor["fraction"], factor["int"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(json.dumps({
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "pairs": PAIRS,
        "sizes": sizes,
        "median_factor": {name: statistics.median(f) for name, f in factor.items()},
        "fraction_over_int_factor": {"median": statistics.median(ratios), "q1": q1, "q3": q3},
        "wall_spread": {name: spread(w) for name, w in wall.items()},
        "scaled_spread": {
            name: spread([w * f for w, f in zip(wall[name], factor[name])]) for name in LOADS
        },
        "wall": wall,
        "factor": factor,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
