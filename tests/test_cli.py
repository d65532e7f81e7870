import hashlib
import json

import pytest

from rank2verma import pbw
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
    code, out, err = run(
        capsys,
        ["kk", "--p", "2", "--q", "2", "--root", "1-2", "--m", "1",
         "--x", "0", "--y", "0"],
    )
    assert code == 2
    assert "expected 'a,b'" in err


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
    # a different verify first leaves the quotient and projection caches
    # warm with other grades and words; the acceptance grid must still give
    # the bytes pinned above
    pbw._PROJECTION_CACHE.clear()
    code, _, _ = run(capsys, ["verify", "--p", "2", "--q", "3", "--cases", "4,2", "--n", "1",
                              "--m", "1,2", "--seed", "3"])
    assert code == 0
    code, out, err = run(capsys, ["verify", "--p", "2", "--q", "2", "--cases", "1,2,3,4",
                                  "--n", "1,2", "--m", "1", "--seed", "7"])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "da8938c25162780913c68b4452a4eabb8f37bb42446e7d00834cd6bfc131c218"
    )


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


@pytest.mark.parametrize("flag", ["--cases", "--n", "--m"])
def test_verify_empty_list_rejected(capsys, flag):
    code, out, err = run(capsys, ["verify", "--p", "2", "--q", "2", flag, ","])
    assert (code, out) == (2, "")
    assert f"{flag} needs at least one value" in err


@pytest.mark.parametrize(
    "extra, flag",
    [(["--t", "1/3"], "--t"), (["--variable", "xi", "--xi", "2"], "--xi")],
)
def test_exponents_value_without_m_rejected(capsys, extra, flag):
    code, out, err = run(capsys, ["exponents", "--p", "2", "--q", "2", "--case", "2",
                                  "--n", "1"] + extra)
    assert (code, out) == (2, "")
    assert f"{flag} needs --m" in err
