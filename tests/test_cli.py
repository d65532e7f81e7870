import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rank2verma import freealg, lines, pbw, verma
from rank2verma.cartan import CartanData, family_root
from rank2verma.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def test_gamma_json(capsys):
    code, doc = run_json(capsys, ["gamma", "--p", "2", "--q", "3", "--kmax", "6"])
    assert code == 0
    assert doc["schema"] == "rank2verma-report/1"
    assert doc["command"] == "gamma"
    assert doc["params"] == {"p": 2, "q": 3, "kmax": 6}
    rows = doc["results"]
    assert len(rows) == 7
    assert rows[3]["g1"] == 5 and rows[3]["g2"] == 2
    assert all(r["agree"] for r in rows)
    assert all(r["g1"] == r["binomial_g1"] for r in rows)


def test_exponents_json(capsys):
    code, doc = run_json(
        capsys,
        ["exponents", "--p", "2", "--q", "2", "--case", "2", "--n", "1",
         "--m", "1", "--t", "1/3"],
    )
    assert code == 0
    assert doc["trajectory_match"] is True
    assert doc["root"] == {"k1": 1, "k2": 2}
    assert doc["xi_of_mt"] == "3/2*m + t"
    assert doc["degenerate_rewrite"] is False
    assert doc["weight_shifted_value"] == {"x": "2/3", "y": "1/6"}
    rows = doc["results"]
    assert [r["letter"] for r in rows] == [2, 1, 2]
    assert [r["value"] for r in rows] == ["11/6", "1", "1/6"]


def test_exponents_xi_variable(capsys):
    code, doc = run_json(
        capsys,
        ["exponents", "--p", "2", "--q", "2", "--case", "2", "--n", "1",
         "--variable", "xi", "--m", "1", "--xi", "11/6"],
    )
    assert code == 0
    assert doc["params"]["variable"] == "xi"
    rows = doc["results"]
    assert [r["letter"] for r in rows] == [2, 1, 2]
    assert all("value" in r for r in rows)


def test_exponents_degenerate_rewrite(capsys):
    code, doc = run_json(
        capsys,
        ["exponents", "--p", "2", "--q", "3", "--case", "1", "--n", "1",
         "--variable", "xi"],
    )
    assert code == 0
    assert doc["degenerate_rewrite"] is True
    assert [r["letter"] for r in doc["results"]] == [1]


def test_kk_json(capsys):
    code, doc = run_json(
        capsys,
        ["kk", "--p", "2", "--q", "2", "--root", "1,2", "--m", "1",
         "--x", "2/3", "--y", "1/6"],
    )
    assert code == 0
    assert doc["results"][0]["on_line"] is True
    code, doc = run_json(
        capsys,
        ["kk", "--p", "2", "--q", "2", "--root", "1,2", "--m", "1",
         "--x", "1", "--y", "1"],
    )
    assert code == 0
    assert doc["results"][0]["on_line"] is False


def test_orbit_json(capsys):
    code, doc = run_json(
        capsys, ["orbit", "--p", "2", "--q", "3", "--depth", "6"]
    )
    assert code == 0
    pts = [(r["k1"], r["k2"]) for r in doc["results"]]
    assert pts == [(1, 0), (1, 3), (5, 3), (5, 12), (19, 12), (19, 45)]
    assert all(r["curve_value"] == 3 for r in doc["results"])
    assert doc["params"]["expected_invariant"] == 3


def test_orbit_finite_type_rejected(capsys):
    code, out, err = run(capsys, ["orbit", "--p", "2", "--q", "1"])
    assert code == 2
    assert out == ""
    assert "pq = 2 < 4" in err


def test_verify_undefined_target_rejected(capsys):
    code, out, err = run(capsys, ["verify", "--p", "1", "--q", "4", "--targets", "L"])
    assert code == 2
    assert "needs p >= 2 and q >= 2" in err


def test_verify_unknown_target_rejected(capsys):
    code, out, err = run(capsys, ["verify", "--p", "2", "--q", "2", "--targets", "Z"])
    assert code == 2
    assert "unknown target" in err


def test_verify_small_grid(capsys):
    code, doc = run_json(
        capsys,
        ["verify", "--p", "2", "--q", "2", "--cases", "2", "--n", "1",
         "--m", "1", "--targets", "H", "--seed", "5"],
    )
    assert code == 0
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["ok"] == 6  # five generic samples plus the seeded one
    assert doc["summary"]["identities_ok"] is True
    assert doc["params"]["random_t"] is not None
    assert all(r["status"] == "ok" for r in doc["results"])
    assert all(r["scalar"] not in (None, "0") for r in doc["results"])
    # witnesses ride along: weight, oracle vector, both sides of the check
    first = doc["results"][0]
    assert first["weight"] == {"x": "2/3", "y": "1/6"}
    assert first["vector"] == {"122": "-1/11", "212": "2/5", "221": "1"}
    assert first["projection"] == {"1,0,1": "12/55", "2,1,0": "72/55"}
    assert first["product"] == {"1,0,1": "1/6", "2,1,0": "1"}
    assert first["scalar"] == "72/55"


def test_verify_grade_cap_skips(capsys):
    code, doc = run_json(
        capsys,
        ["verify", "--p", "2", "--q", "2", "--cases", "3", "--n", "2",
         "--grade-cap", "4"],
    )
    assert code == 0
    assert doc["summary"]["skipped"] == 2  # one row per auto target
    assert doc["summary"]["ok"] == 0
    for r in doc["results"]:
        assert r["status"] == "skipped"
        assert r["reason"] == "grade (2, 3) exceeds cap 4"
        assert r["target"] in ("H", "L")


def test_singular_json(capsys):
    code, doc = run_json(
        capsys,
        ["singular", "--p", "2", "--q", "2", "--root", "1,2", "--m", "1",
         "--x", "2/3", "--y", "1/6"],
    )
    assert code == 0
    s = doc["summary"]
    assert s["grade"] == {"g1": 1, "g2": 2}
    assert s["kernel_dim"] == 1
    assert s["on_line"] is True
    assert s["annihilated"] is True
    coeffs = {r["word"]: r["coeff"] for r in doc["results"]}
    assert coeffs == {"122": "-1/11", "212": "2/5", "221": "1"}


def test_singular_off_line_is_empty(capsys):
    code, doc = run_json(
        capsys,
        ["singular", "--p", "2", "--q", "2", "--root", "1,0", "--m", "1",
         "--x", "5/7", "--y", "0"],
    )
    assert code == 0
    assert doc["summary"]["kernel_dim"] == 0
    assert doc["summary"]["on_line"] is False
    assert doc["results"] == []


def test_identities_json(capsys):
    code, doc = run_json(
        capsys, ["identities", "--trials", "2", "--n-max", "2", "--seed", "1"]
    )
    assert code == 0
    rows = doc["results"]
    assert len(rows) == 2 * 2 * 6  # targets x trials x identities
    assert all(r["ok"] for r in rows)


def test_csv_output(capsys):
    code, out, err = run(
        capsys, ["gamma", "--p", "2", "--q", "2", "--kmax", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,g1,g2,binomial_g1,binomial_g2,agree"
    assert len(lines) == 5


def test_invalid_rational_rejected(capsys):
    code, out, err = run(
        capsys,
        ["exponents", "--p", "2", "--q", "2", "--case", "2", "--n", "1",
         "--m", "1", "--t", "abc"],
    )
    assert code == 2
    assert "not a rational number" in err


def test_bad_root_pair_rejected(capsys):
    for root, message in (
        ("1-2", "expected 'a,b'"),
        ("a,b", "--root expects two integers 'a,b', got 'a,b'"),
    ):
        code, out, err = run(
            capsys,
            ["kk", "--p", "2", "--q", "2", "--root", root, "--m", "1",
             "--x", "0", "--y", "0"],
        )
        assert code == 2
        assert message in err


def test_verify_report_bytes_frozen(capsys):
    # the acceptance grid with a seeded extra sample: two runs in one
    # process (the second with warm caches) give the same bytes, and those
    # bytes match the digest taken before the exact linear algebra was
    # rewritten
    argv = ["verify", "--p", "2", "--q", "2", "--cases", "1,2,3,4", "--n", "1,2",
            "--m", "1", "--seed", "7"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    assert first[0] == 0 and first[2] == ""
    assert hashlib.sha256(first[1].encode()).hexdigest() == (
        "da8938c25162780913c68b4452a4eabb8f37bb42446e7d00834cd6bfc131c218"
    )


def test_verify_report_bytes_independent_of_warm_caches(capsys):
    # a different verify first leaves the quotient, projection and word
    # string caches warm with other grades and words, and the acceptance
    # grid at four other seeds solves each of its lines more often than
    # its grade's quotient dimension (at most 19), so every line has built
    # its polynomial form; the acceptance grid must still give the bytes
    # pinned above
    pbw._PROJECTION_CACHE.clear()
    freealg._WORD_STR_CACHE.clear()
    verma._LINE_CACHE.clear()
    code, _, _ = run(capsys, ["verify", "--p", "2", "--q", "3", "--cases", "4,2", "--n", "1",
                              "--m", "1,2", "--seed", "3"])
    assert code == 0
    grid = ["verify", "--p", "2", "--q", "2", "--cases", "1,2,3,4", "--n", "1,2", "--m", "1"]
    for seed in range(1, 5):
        assert run(capsys, grid + ["--seed", str(seed)])[0] == 0
    cd = CartanData(2, 2)
    roots = [family_root(case, n, cd) for case in (1, 2, 3, 4) for n in (1, 2)]
    assert all(isinstance(verma._LINE_CACHE[(2, 2, r.k1, r.k2, 1)], lines.Line) for r in roots)
    code, out, err = run(capsys, grid + ["--seed", "7"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "da8938c25162780913c68b4452a4eabb8f37bb42446e7d00834cd6bfc131c218"
    )


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_verify_report_bytes_across_processes(hashseed):
    # the acceptance grid in a fresh interpreter, with string hashing seeded
    # differently, gives the bytes pinned above
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONHASHSEED=hashseed)
    env.pop("VERMA_GRADE_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-m", "rank2verma", "verify", "--p", "2", "--q", "2", "--cases", "1,2,3,4",
         "--n", "1,2", "--m", "1", "--seed", "7"],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "da8938c25162780913c68b4452a4eabb8f37bb42446e7d00834cd6bfc131c218"
    )


def test_cli_import_skips_heavy_modules():
    # every cold job pays for what `import rank2verma.cli` loads: the records
    # need no dataclasses (which loads inspect), and only CSV output needs
    # csv; -S keeps site .pth files from preloading modules
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import rank2verma.cli, sys; print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


LINES_LOADED = """
import contextlib, io, sys
from rank2verma import cli, verma
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
built = sum(type(entry) is not int for entry in verma._LINE_CACHE.values())
print(code, built, "rank2verma.lines" in sys.modules)
"""


def test_lines_module_loads_on_a_first_build_only():
    # `lines` is compiled only when a line is built: a verify that solves
    # no line often enough to build it leaves it unloaded, and the
    # acceptance grid, which builds four lines, loads it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("VERMA_GRADE_CAP", None)
    out = []
    for args in ("--p 2 --q 3 --cases 4 --n 1 --m 2", "--p 2 --q 2 --cases 1,2,3,4 --n 1,2 --m 1"):
        argv = [sys.executable, "-S", "-c", LINES_LOADED, "verify", *args.split()]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert out == [["0", "0", "False"], ["0", "4", "True"]]


def test_report_into_closed_pipe_exits_quietly():
    # a reader that stops after 300 bytes: the rest of the report goes
    # nowhere, with nothing on stderr and the run's own exit code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "rank2verma", "identities", "--target", "both", "--trials", "100",
            "--alpha-max", "4", "--beta-max", "300", "--n-max", "4", "--seed", "5"]
    whole = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert whole.stderr == b"" and len(whole.stdout) > 1 << 17  # more than a pipe holds
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert head == whole.stdout[:300]
    assert (code, err) == (whole.returncode, b"")


def test_verify_w3_report_bytes_frozen(capsys):
    # the (2,3) grid up to grade (8,5): digest taken before word images
    # were cached
    code, out, err = run(capsys, ["verify", "--p", "2", "--q", "3", "--cases", "1,2,3,4",
                                  "--n", "1,2", "--m", "1", "--seed", "7"])
    assert code == 0 and err == ""
    summary = json.loads(out)["summary"]
    assert (summary["ok"], summary["skipped"], summary["failed"]) == (84, 2, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "831ba9139e469b7d885cd1e787d25261d0aba32b267673507c9cd647ca14abf4"
    )


def test_gamma_negative_kmax_rejected(capsys):
    code, out, err = run(capsys, ["gamma", "--p", "2", "--q", "2", "--kmax", "-1"])
    assert (code, out) == (2, "")
    assert "--kmax must be >= 0" in err


@pytest.mark.parametrize(
    "flag, value, least",
    [("--trials", "-1", 1), ("--trials", "0", 1), ("--alpha-max", "-1", 0),
     ("--beta-max", "-1", 0), ("--n-max", "0", 1)],
)
def test_identities_bad_range_rejected(capsys, flag, value, least):
    code, out, err = run(capsys, ["identities", flag, value])
    assert (code, out) == (2, "")
    assert f"{flag} must be >= {least}" in err
    assert "randrange" not in err


@pytest.mark.parametrize(
    "extra, message",
    [(["--xi", "1"], "--xi needs --variable xi"),
     (["--variable", "t", "--xi", "1"], "--xi needs --variable xi"),
     (["--variable", "xi", "--t", "1"], "--t needs --variable t")],
)
def test_exponents_mismatched_value_flag_rejected(capsys, extra, message):
    code, out, err = run(capsys, ["exponents", "--p", "2", "--q", "2", "--case", "2",
                                  "--n", "1", "--m", "1"] + extra)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "flag, value, message",
    [("--cases", ",", "--cases needs at least one value"),
     ("--n", ",", "--n needs at least one value"),
     ("--m", ",", "--m needs at least one value"),
     ("--cases", "1,x", "--cases expects comma-separated integers, got '1,x'")],
    ids=["--cases", "--n", "--m", "--cases-not-int"],
)
def test_verify_empty_list_rejected(capsys, flag, value, message):
    code, out, err = run(capsys, ["verify", "--p", "2", "--q", "2", flag, value])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "extra, flag",
    [(["--t", "1/3"], "--t"), (["--variable", "xi", "--xi", "2"], "--xi")],
)
def test_exponents_value_without_m_rejected(capsys, extra, flag):
    code, out, err = run(capsys, ["exponents", "--p", "2", "--q", "2", "--case", "2",
                                  "--n", "1"] + extra)
    assert (code, out) == (2, "")
    assert f"{flag} needs --m" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_grade_cap_below_one_rejected(capsys, value):
    # a cap below 1 would skip every row and check nothing
    code, out, err = run(capsys, ["verify", "--p", "2", "--q", "2", "--grade-cap", value])
    assert (code, out) == (2, "")
    assert f"--grade-cap must be >= 1, got {value}" in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_exponents_m_below_one_rejected(capsys, value):
    code, out, err = run(capsys, ["exponents", "--p", "2", "--q", "2", "--case", "2",
                                  "--n", "1", "--m", value, "--t", "1/3"])
    assert (code, out) == (2, "")
    assert f"--m must be >= 1, got {value}" in err


@pytest.mark.parametrize(
    "cases, problem",
    [("1,2,3,4", "negative trailing exponent"), ("2", "negative factor multiplicity in block 3")],
)
def test_verify_refused_family_named(capsys, cases, problem):
    # at (1, 4) the telescoped multiplicities of these n = 2 families go
    # negative; the message names the family that was refused
    code, out, err = run(capsys, ["verify", "--p", "1", "--q", "4", "--cases", cases,
                                  "--n", "2", "--m", "1"])
    assert (code, out) == (2, "")
    assert f"case {cases[0]}, n = 2, m = 1 at (p, q) = (1, 4): {problem}" in err
