"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
import spans
from workloads import Factors, Grid, TSweep


def test_seed_fixes_the_inputs():
    for make in (Grid, Factors):
        assert make(3).round(0) == make(3).round(0)
        assert make(3).round(4) == make(3).round(4)
        assert make(3).round(0) != make(4).round(0)
    a, b, c = TSweep(3), TSweep(3), TSweep(4)
    assert a.warmup == b.warmup != c.warmup
    assert a.round(2) == b.round(2) != c.round(2)
    assert all(isinstance(t, Fraction) for t in a.round(2))


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 7.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()  # 1.0 .. 3.0
        inner()  # 4.0 .. 4.5

    tracer.wrap("outer", body)()  # 0.0 .. 7.0
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert spans.self_times(tracer.spans) == {"outer": 4.5, "inner": 2.5}


def test_self_time_counts_only_direct_children():
    spans_ = [["a", 0.0, 10.0, -1], ["b", 1.0, 9.0, 0], ["c", 2.0, 5.0, 1], ["a", 11.0, 12.0, -1]]
    assert spans.self_times(spans_) == {"a": 3.0, "b": 5.0, "c": 3.0}


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(1, 31)]
    value, pct = run.tail(xs)
    assert value == 20.0 and sum(x > value for x in xs) == 10
    assert abs(pct - 200 / 3) < 1e-9
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _traced_cli(argv):
    done = run.run_child([sys.executable, str(run.BENCH / "traced_cli.py")] + argv)
    assert done.code == 0, done.err
    last = done.err.decode().splitlines()[-1]
    assert last.startswith(run.TRACE_PREFIX)
    return done, json.loads(last[len(run.TRACE_PREFIX):])


def test_every_wrapped_layer_counts_on_a_tiny_input():
    verify, s1 = _traced_cli(["verify", "--p", "2", "--q", "2", "--cases", "2", "--n", "1", "--m", "1"])
    _, s2 = _traced_cli(["identities", "--trials", "1"])
    worker = run.Worker([(2, 2, 2, 1, 1)], Fraction(1, 3), trace=True)
    try:
        reply = worker.request({"job": "2/7"})
    finally:
        final = worker.finish()
    assert reply["ok"] == 2 and reply["failed"] == 0
    for summary in (spans.merge([s1, s2]), final["trace"]):
        values = spans.layer_metrics(summary, len(verify.out), 0.1)
        for name in (
            "freealg.quotient_builds", "freealg.quotient_words", "freealg.quotient_hit_ratio",
            "freealg.kernel_calls", "freealg.kernel_cells", "freealg.reduce_calls",
            "verma.singular_vectors_calls", "verma.e_action_calls", "verma.kernel_dim1_ratio",
            "verma.coeff_bits_max", "pbw.project_words", "products.factors_expanded",
            "products.proportionality_s", "products.end_to_end_self_s", "gamma.self_s",
            "cartan.self_s",
        ):
            assert values[name] > 0, name
    values = spans.layer_metrics(spans.merge([s1, s2]), len(verify.out), 0.1)
    assert values["pbw.identity_checks"] > 0 and values["cli.self_s"] > 0


def test_checks_catch_a_wrong_scalar():
    argv = ["verify", "--p", "2", "--q", "2", "--cases", "2", "--n", "1", "--m", "1", "--seed", "5"]
    done = run.run_child([sys.executable, "-m", "rank2verma"] + argv)
    good = run.Tally()
    run.check_cli_job(argv, done, good)
    assert good.failed == 0 and not good.problems and good.ok == good.attempted == 12
    doc = json.loads(done.out)
    doc["results"][0]["scalar"] = str(Fraction(doc["results"][0]["scalar"]) * 2)
    bad = run.Tally()
    run.check_cli_job(argv, run.Finished(0, json.dumps(doc).encode(), b"", 0.0, 0, 0.0), bad)
    assert bad.failed == 1 and bad.ok == 11


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == b""
