"""rank2verma benchmark.

    python3 bench/run.py --workload grid-cold --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
source checkout, against the package in src/.  Load is a closed loop with
one client: one job at a time, the next one only after the previous one has
finished.  The run goes round by round until its jobs have taken --seconds
of scaled time (below), then runs its first job once more and requires
byte-identical output.  A traced
run (--trace 1) instead does a fixed number of rounds with per-layer spans
and reports the per-layer metrics.

The machine this runs on may be shared, so its speed drifts.  The run pins
itself and its children to one CPU and times a fixed calibration task on it
ten times a second (see SpeedProbe).  Each reported time is a wall time
scaled by the speed of the CPU while it was measured.  The details line
also gives every end-to-end metric from the unscaled wall times ("wall")
and from the jobs' own CPU times ("cpu"), and each job's factor.

Every job's output is checked.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the run's details (environment, sample counts, tail percentile).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import spans
from traced_cli import TRACE_PREFIX
from workloads import (
    TRACE_ROUNDS,
    TSWEEP_FAMILIES,
    WORKLOADS,
    Factors,
    Grid,
    TSweep,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PY = sys.executable

JOB_TIMEOUT_S = 120
CLI_SETUPS = 11  # interpreter starts per run; setup_s is their median
WARM_SETUPS = 3  # worker set-ups per run; setup_s is their median
# calibration time that reported seconds are scaled to; see SpeedProbe
CAL_REF_S = 0.001
PROBE_INTERVAL_S = 0.1


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("VERMA_GRADE_CAP", None)
    return env


@dataclass
class Finished:
    code: int
    out: bytes
    err: bytes
    seconds: float
    rss_kb: int
    cpu_s: float


def run_child(argv: list[str], timeout: float = JOB_TIMEOUT_S) -> Finished:
    """Run one process to completion; time it and read its peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    timer = threading.Timer(timeout, proc.kill)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    timer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Finished(
        proc.returncode, out, err[0] if err else b"", seconds, usage.ru_maxrss,
        usage.ru_utime + usage.ru_stime,
    )


def calibrate() -> float:
    """Seconds for a fixed piece of stdlib exact-rational arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(k % 97 + 1, k)
    return time.perf_counter() - start


def _trimmed_mean(xs: list[float]) -> float:
    xs = sorted(xs)
    cut = len(xs) // 10
    kept = xs[cut:len(xs) - cut]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Runs `calibrate` every PROBE_INTERVAL_S in a thread of this process
    while the run goes on, about 1% of the CPU.  The run and its children
    share one CPU, so each sample briefly preempts the job then running and
    sees how fast that CPU is at that moment."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = [self._sample()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _sample() -> tuple[float, float]:
        seconds = calibrate()
        return time.perf_counter(), seconds

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(self._sample())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the trimmed mean of the samples taken between
        start and end, or of the two around them when none was: a time
        measured then, times this, reads as it would on a CPU where
        `calibrate` takes CAL_REF_S."""
        times = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        chosen = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return CAL_REF_S / _trimmed_mean([x for _, x in chosen])


# --- output checks -----------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    nongeneric: int = 0
    problems: list[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        """An output that does not check out; the run is not correct."""
        self.problems.append(text)

    def fail(self, text: str) -> None:
        """A record or job that failed, crashed or timed out."""
        self.failed += 1
        self.problem(text)


def proportional(row: dict) -> bool:
    """projection == scalar * product, recomputed from the report's strings."""
    if row["scalar"] is None or row["projection"] is None or row["product"] is None:
        return False
    s = Fraction(row["scalar"])
    proj = {k: Fraction(v) for k, v in row["projection"].items()}
    prod = {k: s * Fraction(v) for k, v in row["product"].items()}
    return s != 0 and proj == {k: v for k, v in prod.items() if v}


def check_verify(argv: list[str], doc: dict, code: int, tally: Tally) -> None:
    params = doc["params"]
    if doc.get("command") != "verify" or str(params["seed"]) != argv[argv.index("--seed") + 1]:
        tally.problem(f"report does not echo its job: {argv}")
    if not doc["summary"]["identities_ok"]:
        tally.fail(f"identities_ok is false: {argv}")
    rows = doc["results"]
    targets = 2 if params["p"] >= 2 and params["q"] >= 2 else 1
    # five fixed t samples plus the seeded one, per case, n, m and target
    expected = 6 * targets
    for key in ("cases", "n", "m"):
        expected *= len(params[key].split(","))
    if len(rows) != expected:
        tally.problem(f"{len(rows)} rows, expected {expected}: {argv}")
    seen = {"ok": 0, "failed": 0, "nongeneric": 0, "skipped": 0}
    for row in rows:
        tally.attempted += 1
        status = row["status"]
        seen[status] = seen.get(status, 0) + 1
        if status == "ok" and proportional(row):
            tally.ok += 1
        elif status == "nongeneric":
            tally.nongeneric += 1
        else:
            tally.fail(f"row {row['case']},{row['n']},{row['m']} t={row['t']} {status}: {argv}")
    summary = {k: v for k, v in doc["summary"].items() if k != "identities_ok"}
    if summary != seen:
        tally.problem(f"summary {summary} does not match rows {seen}: {argv}")
    if code != (0 if seen["failed"] == 0 else 1):
        tally.problem(f"exit code {code}: {argv}")


def check_identities(argv: list[str], doc: dict, code: int, tally: Tally) -> None:
    rows = doc["results"]
    expected = int(argv[argv.index("--trials") + 1]) * 2 * 6  # both targets, six identities
    if doc.get("command") != "identities" or len(rows) != expected:
        tally.problem(f"{len(rows)} identity rows, expected {expected}: {argv}")
    bad = 0
    for row in rows:
        tally.attempted += 1
        if row["ok"] is True:
            tally.ok += 1
        else:
            bad += 1
            tally.fail(f"identity {row['identity']} failed at {row}: {argv}")
    if code != (0 if bad == 0 else 1):
        tally.problem(f"exit code {code}: {argv}")


def check_cli_job(argv: list[str], run: Finished, tally: Tally) -> None:
    if run.code not in (0, 1):
        tally.attempted += 1
        tally.fail(f"exit code {run.code}: {argv}: {run.err[-300:].decode(errors='replace')}")
        return
    try:
        doc = json.loads(run.out)
    except ValueError:
        tally.attempted += 1
        tally.fail(f"output is not JSON: {argv}")
        return
    if doc.get("schema") != "rank2verma-report/1":
        tally.problem(f"schema {doc.get('schema')!r}: {argv}")
    (check_verify if argv[0] == "verify" else check_identities)(argv, doc, run.code, tally)


# --- metrics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end_values(latencies, tally: Tally, rss_kb: int, setup: list[float]) -> dict[str, float]:
    busy = sum(latencies)
    return {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(latencies),
        "job_s_tail": tail(latencies)[0],
        "ok_per_s": tally.ok / busy if busy else 0.0,
        "pass_share": 1 - tally.failed / max(tally.attempted, 1),
        "generic_share": 1 - tally.nongeneric / max(tally.attempted, 1),
        "peak_rss_mb": rss_kb / 1024,
    }


# --- workloads ------------------------------------------------------------------


@dataclass
class RunLog:
    probe: SpeedProbe
    latencies: list[float] = field(default_factory=list)  # unscaled
    factors: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)  # the job's own CPU time
    setup: list[float] = field(default_factory=list)  # unscaled
    setup_factors: list[float] = field(default_factory=list)
    setup_cpu: list[float] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    digests: dict = field(default_factory=dict)
    rounds: int = 0
    busy_s: float = 0.0  # scaled job time so far
    rss_kb: int = 0
    traces: list[dict] = field(default_factory=list)
    report_bytes: int = 0

    def job_time(self, start: float, seconds: float, cpu_s: float) -> None:
        self.latencies.append(seconds)
        self.cpu.append(cpu_s)
        self.factors.append(self.probe.factor(start, start + seconds))
        self.busy_s += seconds * self.factors[-1]

    def setup_time(self, start: float, seconds: float, cpu_s: float) -> None:
        self.setup.append(seconds)
        self.setup_cpu.append(cpu_s)
        self.setup_factors.append(self.probe.factor(start, start + seconds))

    def scaled(self) -> list[float]:
        return [x * f for x, f in zip(self.latencies, self.factors)]

    def scaled_setup(self) -> list[float]:
        return [x * f for x, f in zip(self.setup, self.setup_factors)]

    def same_output(self, key, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.tally.problem(f"output differs on repetition of {key}")


def keep_going(log: RunLog, seconds: float, trace: bool, workload: str) -> bool:
    """Timed runs stop on scaled job time, so that how many rounds a run
    holds, and so its mix of jobs, does not follow the machine's speed."""
    if trace:
        return log.rounds < TRACE_ROUNDS[workload]
    return log.rounds == 0 or log.busy_s < seconds


def run_cli_workload(workload: str, gen, seconds: float, trace: bool, probe: SpeedProbe) -> RunLog:
    log = RunLog(probe)
    if not trace:
        for _ in range(CLI_SETUPS):
            start = time.perf_counter()
            run = run_child([PY, "-c", "import rank2verma.cli"])
            if run.code != 0:
                raise SystemExit(f"cannot import rank2verma: {run.err.decode(errors='replace')}")
            log.setup_time(start, run.seconds, run.cpu_s)
    prefix = [PY, str(BENCH / "traced_cli.py")] if trace else [PY, "-m", "rank2verma"]

    def job(argv: list[str], measured: bool) -> None:
        start = time.perf_counter()
        run = run_child(prefix + argv)
        if measured:
            log.job_time(start, run.seconds, run.cpu_s)
            log.rss_kb = max(log.rss_kb, run.rss_kb)
            log.report_bytes += len(run.out)
            check_cli_job(argv, run, log.tally)
        log.same_output(tuple(argv), hashlib.sha256(run.out).hexdigest())
        if trace and measured:
            lines = run.err.decode().splitlines()
            if lines and lines[-1].startswith(TRACE_PREFIX):
                log.traces.append(json.loads(lines[-1][len(TRACE_PREFIX):]))
            else:
                log.tally.problem(f"no trace from {argv}")

    while keep_going(log, seconds, trace, workload):
        for argv in gen.round(log.rounds):
            job(argv, True)
        log.rounds += 1
    job(gen.round(0)[0], False)  # determinism check
    return log


class Worker:
    """One tsweep-warm worker process, driven one job at a time."""

    def __init__(self, families, warmup: Fraction, trace: bool):
        spec = {"families": [list(f) for f in families], "warmup": str(warmup), "trace": trace}
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, str(BENCH / "worker.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        ready = self.receive()
        self.setup_s = time.perf_counter() - start
        self.setup_cpu_s = ready["cpu_s"]
        self.warmup_failed = ready["failed"]

    def receive(self) -> dict:
        timer = threading.Timer(JOB_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self.close()
            raise RuntimeError("tsweep worker exited early")
        return json.loads(line)

    def request(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def finish(self) -> dict:
        reply = self.request({"done": True})
        self.close()
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


def run_warm_workload(seed: int, seconds: float, trace: bool, probe: SpeedProbe) -> RunLog:
    log = RunLog(probe)
    sweep = TSweep(seed)
    worker = None
    try:
        setups = 1 if trace else WARM_SETUPS
        for i in range(setups):
            start = time.perf_counter()
            worker = Worker(TSWEEP_FAMILIES, sweep.warmup, trace)
            log.setup_time(start, worker.setup_s, worker.setup_cpu_s)
            if worker.warmup_failed:
                log.tally.problem(f"{worker.warmup_failed} warm-up records failed")
            if i < setups - 1:
                worker.finish()

        def job(t: Fraction, measured: bool) -> None:
            start = time.perf_counter()
            reply = worker.request({"job": str(t)})
            if measured:
                log.job_time(start, time.perf_counter() - start, reply["cpu_s"])
                tally = log.tally
                tally.attempted += reply["ok"] + reply["nongeneric"] + reply["failed"]
                tally.ok += reply["ok"]
                tally.nongeneric += reply["nongeneric"]
                for _ in range(reply["failed"]):
                    tally.fail(f"t={t}: {reply.get('error', 'failed record')}")
            log.same_output(t, reply.get("digest", "crashed"))

        while keep_going(log, seconds, trace, "tsweep-warm"):
            for t in sweep.round(log.rounds):
                job(t, True)
            log.rounds += 1
        job(sweep.round(0)[0], False)  # determinism check
        final = worker.finish()
        worker = None
    finally:
        if worker is not None:
            worker.proc.kill()
            worker.close()
    log.rss_kb = final["peak_rss_kb"]
    if final["trace"] is not None:
        log.traces.append(final["trace"])
    return log


# --- entry point ---------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def metric_block(section: str, values: dict[str, float]) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"{section} metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rank2verma" / "cli.py").is_file():
        print(f"error: no rank2verma sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    # a terminated run unwinds, so the finally blocks stop its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for this process and every child, so that the speed probe runs
    # on the CPU the jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with SpeedProbe() as probe:
        if args.workload == "tsweep-warm":
            log = run_warm_workload(args.seed, args.seconds, trace, probe)
        else:
            gen = Grid(args.seed) if args.workload == "grid-cold" else Factors(args.seed)
            log = run_cli_workload(args.workload, gen, args.seconds, trace, probe)
    latencies = log.scaled()
    speed = sum(latencies) / sum(log.latencies)
    if trace:
        values = spans.layer_metrics(spans.merge(log.traces), log.report_bytes, statistics.median(latencies))
        # span times take the run's job-time-weighted speed factor
        values = {k: v * speed if k.endswith("_s") else v for k, v in values.items()}
        metrics = metric_block("per_layer", values)
        wall = cpu = None
    else:
        metrics = metric_block("end_to_end", end_to_end_values(latencies, log.tally, log.rss_kb, log.scaled_setup()))
        wall = end_to_end_values(log.latencies, log.tally, log.rss_kb, log.setup)
        cpu = end_to_end_values(log.cpu, log.tally, log.rss_kb, log.setup_cpu)
    _, tail_pct = tail(latencies)
    details = {
        "workload": args.workload,
        "trace": trace,
        "env": environment(args.seed),
        "rounds": log.rounds,
        "jobs": len(log.latencies),
        "tail_percentile": round(tail_pct, 1),
        "speed_factor": speed,
        "wall": wall,
        "cpu": cpu,
        "busy_s": sum(log.latencies),
        "latencies": [round(x, 6) for x in log.latencies],
        "factors": [round(f, 4) for f in log.factors],
        "setups": [round(x, 6) for x in log.setup],
        "probe_samples": len(probe.samples),
        "ok": log.tally.ok,
        "nongeneric": log.tally.nongeneric,
        "problems": log.tally.problems[:20],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not log.tally.problems,
        "attempted": log.tally.attempted,
        "failed": log.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
