import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rank2verma import pbw
from rank2verma.cartan import CartanData
from rank2verma.freealg import FreeElement, serre_element
from rank2verma.pbw import (
    PBWElement,
    factor_shift_identities,
    factors_commute,
    full_ladder,
    naive_normal_form,
    naive_product,
    project,
    project_word,
    projection_defined,
    quadratic_factor,
    sandwich_falling,
    sandwich_rising,
    shift_left,
    shift_right,
)

ROOT = Path(__file__).resolve().parent.parent


def test_element_basics():
    a = PBWElement("H", {(1, 0, 0): Fraction(2)})
    b = PBWElement.generator(1, "H")
    s = a + b
    assert s.coeffs == {(1, 0, 0): Fraction(2), (0, 1, 0): Fraction(1)}
    assert (s - a) == b
    assert (Fraction(1, 2) * a).coeffs == {(1, 0, 0): Fraction(1)}
    assert PBWElement("H").is_zero()
    assert PBWElement.one("L").coeffs == {(0, 0, 0): Fraction(1)}
    assert s.items() == sorted(s.coeffs.items())
    with pytest.raises(ValueError):
        PBWElement("X")
    with pytest.raises(ValueError):
        PBWElement.generator(3, "H")
    with pytest.raises(ValueError):
        PBWElement.generator(1, "H", power=-1)
    with pytest.raises(ValueError):
        a + PBWElement.generator(1, "L")
    with pytest.raises(ValueError):
        a * PBWElement.generator(1, "L")


def test_heisenberg_product_frozen():
    f1sq = PBWElement.generator(1, "H", 2)
    f2sq = PBWElement.generator(2, "H", 2)
    prod = f1sq * f2sq
    assert prod.coeffs == {
        (2, 2, 0): Fraction(1),
        (1, 1, 1): Fraction(4),
        (0, 0, 2): Fraction(2),
    }


def test_sl2like_product_frozen():
    f1 = PBWElement.generator(1, "L")
    f2sq = PBWElement.generator(2, "L", 2)
    prod = f1 * f2sq
    assert prod.coeffs == {
        (2, 1, 0): Fraction(1),
        (1, 0, 1): Fraction(2),
        (1, 0, 0): Fraction(-1),
    }


def test_closed_form_matches_rewriting():
    # every monomial pair with exponents <= 2, both targets, against the
    # slow adjacent-swap engine with both strategies
    small = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for target in ("H", "L"):
        for k1 in small:
            for k2 in small:
                closed = pbw._mono_mul(k1, k2, target)
                assert closed == naive_product(k1, k2, target, "left"), (target, k1, k2)
                assert closed == naive_product(k1, k2, target, "right"), (target, k1, k2)


def test_closed_form_wide_grid_frozen():
    # f-exponents <= 6, h-powers <= 3; digest taken from the products of the
    # earlier code, a closed form for H and a cached recursion for L
    wide = [(a, b, c) for a in range(7) for b in range(7) for c in range(4)]
    digest = hashlib.sha256()
    for target in ("H", "L"):
        for k1 in wide:
            for k2 in wide:
                prod = sorted(pbw._mono_mul(k1, k2, target).items())
                digest.update(f"{target} {k1} {k2} {prod}\n".encode())
    assert digest.hexdigest() == "aeb694c2431103ec07b013143a4984baf182b575f83a649fd9c4dacec46c0153"


def _run_fresh(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_shift_right_deep_beta_in_fresh_process():
    # f1^1400 once overflowed the recursion limit unless smaller powers had
    # been multiplied first in the same process
    proc = _run_fresh(["-c", "from rank2verma.pbw import shift_right; print(shift_right(3, 1400, 'L'))"])
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_identities_deep_beta_independent_of_seed(seed):
    proc = _run_fresh(["-m", "rank2verma", "identities", "--target", "L", "--beta-max", "3000",
                       "--alpha-max", "0", "--n-max", "1", "--trials", "1", "--seed", str(seed)])
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["results"]
    assert len(rows) == 6 and all(r["ok"] for r in rows)


def test_naive_rewriter_guards():
    assert naive_normal_form((2, 1, 3), "H") == {(1, 1, 1): Fraction(1)}
    with pytest.raises(ValueError):
        naive_normal_form((1, 2), "X")
    with pytest.raises(ValueError):
        naive_normal_form((1, 2), "H", strategy="middle")


def test_project_word_frozen():
    pr = project_word((1, 2), "H")
    assert pr.coeffs == {(1, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)}
    pr = project_word((1, 2), "L")
    assert pr.coeffs == {(1, 1, 0): Fraction(1), (0, 0, 1): Fraction(1)}
    # order matters: f2 f1 is already normal
    assert project_word((2, 1), "H").coeffs == {(1, 1, 0): Fraction(1)}


SHORT_WORDS = [w for k in range(9) for w in itertools.product((1, 2), repeat=k)]


@pytest.fixture(scope="module")
def rewriting_oracle():
    """Normal form of every word over {1, 2} up to length 8 in both targets,
    by step-by-step rewriting; left-first and right-first must agree."""
    table = {}
    for tg in ("H", "L"):
        for w in SHORT_WORDS:
            left = naive_normal_form(w, tg, "left")
            assert left == naive_normal_form(w, tg, "right"), (tg, w)
            table[(tg, w)] = left
    return table


def test_project_word_matches_rewriting_cold_and_shuffled(rewriting_oracle):
    pbw._PROJECTION_CACHE.clear()
    for (tg, w), expected in rewriting_oracle.items():
        assert project_word(w, tg).coeffs == expected, (tg, w)
    # a different warm-up order leaves other prefixes cached first
    pbw._PROJECTION_CACHE.clear()
    order = list(rewriting_oracle)
    random.Random(11).shuffle(order)
    for tg, w in order:
        project_word(w, tg)
    for (tg, w), expected in rewriting_oracle.items():
        assert project_word(w, tg).coeffs == expected, (tg, w)


def test_project_is_sum_of_scaled_word_images():
    rng = random.Random(5)
    for tg in ("H", "L"):
        for _ in range(20):
            words = rng.sample(SHORT_WORDS, 6)
            elem = FreeElement({w: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for w in words})
            expected = PBWElement(tg)
            for w, c in elem.coeffs.items():
                expected = expected + project_word(w, tg) * c
            assert project(elem, tg) == expected


def test_project_returns_fresh_element():
    word = (1, 2, 1)
    cached = dict(project_word(word, "L").coeffs)
    out = project(FreeElement({word: Fraction(1)}), "L")
    out.coeffs.clear()
    assert project_word(word, "L").coeffs == cached


def test_project_word_deep_word_without_recursion():
    # longer than the default recursion limit of 1000
    word = (2,) * 600 + (1,) * 600
    try:
        for tg in ("H", "L"):
            assert project_word(word, tg).coeffs == {(600, 600, 0): Fraction(1)}
    finally:
        pbw._PROJECTION_CACHE.clear()


def test_projection_defined_flags():
    assert projection_defined("H", CartanData(1, 4))
    assert projection_defined("H", CartanData(2, 2))
    assert projection_defined("L", CartanData(2, 2))
    assert projection_defined("L", CartanData(3, 3))
    assert not projection_defined("L", CartanData(1, 4))
    assert not projection_defined("L", CartanData(4, 1))


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (3, 3), (1, 4), (4, 1)])
def test_serre_projections(p, q):
    cd = CartanData(p, q)
    for which in (1, 2):
        s = serre_element(which, cd)
        assert project(s, "H").is_zero()
        if projection_defined("L", cd):
            assert project(s, "L").is_zero()


def test_serre_projection_nonzero_when_undefined():
    # with an off-diagonal entry 1 the relator survives in the sl2-like target
    cd = CartanData(1, 4)
    assert not project(serre_element(1, cd), "L").is_zero()
    cd = CartanData(4, 1)
    assert not project(serre_element(2, cd), "L").is_zero()


def test_quadratic_factor_frozen():
    u = Fraction(3)
    assert quadratic_factor(u, "H").coeffs == {
        (1, 1, 0): Fraction(1),
        (0, 0, 1): Fraction(3),
    }
    assert quadratic_factor(u, "L").coeffs == {
        (1, 1, 0): Fraction(1),
        (0, 0, 1): Fraction(3),
        (0, 0, 0): Fraction(-3),
    }
    assert quadratic_factor(0, "L").coeffs == {(1, 1, 0): Fraction(1)}


@pytest.mark.parametrize("target", ["H", "L"])
def test_factor_identities(target):
    rng = random.Random(7)
    for _ in range(20):
        u = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        v = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        assert factors_commute(u, v, target)
        alpha = rng.randint(0, 6)
        beta = rng.randint(0, 6)
        assert shift_left(u, alpha, target)
        assert shift_right(u, beta, target)
    for n in range(6):
        for alpha in range(n + 1):
            assert sandwich_falling(alpha, n, target)
            assert sandwich_rising(alpha, n, target)
        assert full_ladder(n, target)


def test_factor_suite_bundle():
    out = factor_shift_identities(2, 3, Fraction(5, 7), 4, "H")
    assert set(out) == {
        "shift_left",
        "shift_right",
        "sandwich_falling",
        "sandwich_rising",
        "factors_commute",
        "full_ladder",
    }
    assert all(out.values())
    assert all(factor_shift_identities(1, 1, -2, 2, "L").values())


def test_sandwich_range_checks():
    with pytest.raises(ValueError):
        sandwich_falling(5, 4, "H")
    with pytest.raises(ValueError):
        sandwich_rising(-1, 4, "L")
