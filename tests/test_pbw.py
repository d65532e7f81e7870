import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rank2verma import pbw
from rank2verma.cartan import CartanData
from rank2verma.freealg import FreeElement, serre_element, words_of_grade
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
    # earlier code, a closed form for H and a cached recursion for L, whose
    # coefficients were Fractions and are rendered as such
    wide = [(a, b, c) for a in range(7) for b in range(7) for c in range(4)]
    digest = hashlib.sha256()
    for target in ("H", "L"):
        for k1 in wide:
            for k2 in wide:
                prod = sorted((k, Fraction(c)) for k, c in pbw._mono_mul(k1, k2, target).items())
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
    # the cache keeps every image, in both targets, as integer coefficients
    assert all(type(v) is int for image in pbw._PROJECTION_CACHE.values() for v in image.values())


# deep words of several shapes, with long f1 f2 alternations whose images
# have up to about 200 monomials and coefficients of 47 to 87 bits
DEEP_WORDS = [(1, 2) * 20, (2, 1, 1) * 12 + (2,) * 6, (1,) * 14 + (2,) * 14 + (1, 2, 2) * 3]


def test_deep_word_images_match_generator_products():
    for tg in ("H", "L"):
        for w in DEEP_WORDS:
            expected = PBWElement.one(tg)
            for letter in w:
                expected = expected * PBWElement.generator(letter, tg)
            assert project_word(w, tg) == expected, (tg, len(w))


def _scaled_images(elem, tg):
    expected = PBWElement(tg)
    for w, c in elem.coeffs.items():
        expected = expected + project_word(w, tg) * c
    return expected


def test_project_is_sum_of_scaled_word_images():
    # elements mix word lengths, short and deep, with rational coefficients,
    # so projections in both targets carry denominators > 1
    rng = random.Random(5)
    fractional = {"H": 0, "L": 0}
    for tg in ("H", "L"):
        for _ in range(20):
            words = rng.sample(SHORT_WORDS, 5) + [rng.choice(DEEP_WORDS)]
            elem = FreeElement({w: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for w in words})
            out = project(elem, tg)
            assert out == _scaled_images(elem, tg)
            fractional[tg] += any(c.denominator > 1 for c in out.coeffs.values())
    assert fractional["H"] and fractional["L"]


def test_project_returns_fresh_element():
    word = (1, 2, 1)
    cached = dict(project_word(word, "L").coeffs)
    out = project(FreeElement({word: Fraction(1)}), "L")
    out.coeffs.clear()
    assert project_word(word, "L").coeffs == cached
    assert project(FreeElement({word: Fraction(1)}), "L").coeffs == cached


@pytest.mark.parametrize("tg", ["H", "L"])
def test_project_reads_integer_form(tg):
    # the integer form set on an element and the one made from its Fractions
    # project alike, whatever the common denominator chosen
    rng = random.Random(23)
    for _ in range(10):
        words = rng.sample(SHORT_WORDS, 6)
        coeffs = {w: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)) for w in words}
        plain = FreeElement(coeffs)
        den = 3 * math.lcm(*(c.denominator for c in coeffs.values()))
        nums = {w: int(c * den) for w, c in coeffs.items()}
        formed = FreeElement._from_ints(den, nums)
        assert formed.integer_form() == (den, nums)
        assert plain.integer_form()[0] == den // 3
        assert formed == plain and hash(formed) == hash(plain) and repr(formed) == repr(plain)
        assert project(formed, tg) == project(plain, tg) == _scaled_images(plain, tg)
    assert project(FreeElement(), tg) == PBWElement(tg)


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


def test_integer_monomial_products_match_closed_form_on_wide_grid():
    # the grid of test_closed_form_wide_grid_frozen: every closed-form
    # coefficient is a nonzero int, and the memo hands back the same product
    wide = [(a, b, c) for a in range(7) for b in range(7) for c in range(4)]
    pbw._MONO_PRODUCTS.clear()
    try:
        for target in ("H", "L"):
            for k1 in wide:
                for k2 in wide:
                    got = pbw._mono_mul(k1, k2, target)
                    assert all(type(c) is int and c for c in got.values()), (target, k1, k2)
                    assert pbw._MONO_PRODUCTS[(k1, k2, target)] is got is pbw._mono_mul(k1, k2, target)
    finally:
        pbw._MONO_PRODUCTS.clear()


def _random_element(rng, tg, size=4, top=2):
    keys = [(a, b, c) for a in range(top + 1) for b in range(top + 1) for c in range(top + 1)]
    return PBWElement(tg, {k: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for k in rng.sample(keys, size)})


def _element_kind(tg):
    """(keys, element from a Fraction dict, element from an integer form,
    zero text) for PBW elements in target tg, or for free elements."""
    if tg == "free":
        return words_of_grade(3, 3), FreeElement, FreeElement._from_ints, "0"
    keys = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    return (keys, lambda coeffs=None: PBWElement(tg, coeffs),
            lambda den, nums: PBWElement._from_ints(tg, den, nums), f"PBWElement({tg}, 0)")


@pytest.mark.parametrize("tg", ["H", "L", "free"])
def test_element_integer_form_contract(tg):
    # an element built from Fractions and one built from an unreduced integer
    # form are the same element in every public reading
    all_keys, make, from_ints, zero_text = _element_kind(tg)
    rng = random.Random(31)
    for _ in range(10):
        keys = rng.sample(all_keys, 5)
        coeffs = {k: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)) for k in keys}
        plain = make(coeffs)
        lcm = math.lcm(*(c.denominator for c in coeffs.values()))
        assert plain.integer_form() == (lcm, {k: int(c * lcm) for k, c in coeffs.items()})
        den = 3 * lcm
        formed = from_ints(den, {k: int(c * den) for k, c in coeffs.items()})
        assert formed.integer_form()[0] == den
        assert formed == plain and plain == formed and hash(formed) == hash(plain)
        assert repr(formed) == repr(plain)
        assert formed.coeffs == plain.coeffs == coeffs
        assert formed.items() == plain.items() == sorted(coeffs.items())
        assert not formed.is_zero()
        # one numerator off by one, or the same numerators over another den
        k = keys[rng.randrange(5)]
        off = from_ints(den, {**formed.integer_form()[1], k: int(coeffs[k] * den) + 1})
        assert off != plain and plain != off
        assert from_ints(den + 1, formed.integer_form()[1]) != plain
    zero = from_ints(5, {})
    assert zero.is_zero() and zero == make() and hash(zero) == hash(make())
    assert repr(zero) == repr(make()) == zero_text
    assert zero.coeffs == {} and zero.items() == []


def test_mixed_element_kinds_do_not_combine():
    # a free and a PBW element share the integer form but not their keys:
    # adding or multiplying them, or adding an int, is a TypeError, and they
    # are never equal; two PBW targets still raise ValueError
    free = FreeElement.from_word((1, 2))
    h, l = PBWElement.generator(1, "H"), PBWElement.generator(1, "L")
    for x, y in [(free, h), (h, free), (free, 1), (1, free), (h, 1)]:
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(x, y)
    for x, y in [(free, h), (h, free), (free, free), (free, "2"), (h, "2")]:
        with pytest.raises(TypeError):
            x * y
    assert free != h and h != free and free != 1 and h != 1
    assert free == FreeElement({(1, 2): 1}) and 2 * free == free + free and 2 * h == h + h
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="mixed targets"):
            op(h, l)
    assert h != l and PBWElement("H") != PBWElement("L")


@pytest.mark.parametrize("tg", ["H", "L"])
def test_element_scalar_products(tg):
    rng = random.Random(37)
    for _ in range(10):
        x = _random_element(rng, tg)
        for s in (0, 3, -2, Fraction(-5, 4), Fraction(0), Fraction(7, 3)):
            expected = {k: c * s for k, c in x.coeffs.items() if c * s}
            for out in (x * s, s * x):
                assert out.coeffs == expected
                assert out == PBWElement(tg, expected)
                assert out.is_zero() == (s == 0)
        assert (x * Fraction(7, 3)) * Fraction(3, 7) == x
        assert x - x == PBWElement(tg) and (x - x).is_zero()
    with pytest.raises(TypeError):
        x * 0.5


@pytest.mark.parametrize("tg", ["H", "L"])
def test_element_products_match_rewriting(tg):
    # x * y on integer forms equals the sum of the rewriting engine's
    # monomial products scaled by the coefficient products
    rng = random.Random(43)
    for _ in range(15):
        x = _random_element(rng, tg)
        y = _random_element(rng, tg)
        expected = {}
        for k1, c1 in x.coeffs.items():
            for k2, c2 in y.coeffs.items():
                for k, c in naive_product(k1, k2, tg).items():
                    expected[k] = expected.get(k, 0) + c1 * c2 * c
        expected = {k: c for k, c in expected.items() if c}
        prod = x * y
        assert prod.coeffs == expected
        assert prod == PBWElement(tg, expected)
        assert prod.integer_form()[0] == x.integer_form()[0] * y.integer_form()[0]


def _moved_rising(alpha, n, j, step, target):
    # the right-hand side of sandwich_rising with subscript j moved by step
    out = PBWElement.one(target)
    for k in range(1, n + 1):
        out = out * quadratic_factor(k - alpha + (step if k == j else 0), target)
    return out


def _rising_lhs(alpha, n, target):
    return pbw.f_power(2, alpha, target) * pbw.f_power(1, n, target) * pbw.f_power(2, n - alpha, target)


def _shift_left_moved(u, alpha, target):
    # f2^alpha X_u against X_{u-alpha+1} f2^alpha, one off from shift_left
    lhs = pbw.f_power(2, alpha, target) * quadratic_factor(u, target)
    return lhs == quadratic_factor(u - alpha + 1, target) * pbw.f_power(2, alpha, target)


@pytest.mark.parametrize("target", ["H", "L"])
def test_identities_fail_when_moved_by_one(target):
    # an equality that wrongly held would pass every identity; each law with
    # one subscript moved by 1 must fail instead
    rng = random.Random(13)
    for _ in range(15):
        u = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        alpha = rng.randint(1, 6)
        assert shift_left(u, alpha, target)
        assert not _shift_left_moved(u, alpha, target)
    for n in range(1, 6):
        for alpha in range(n + 1):
            lhs = _rising_lhs(alpha, n, target)
            assert lhs == _moved_rising(alpha, n, 0, 0, target)
            for j in range(1, n + 1):
                for step in (1, -1):
                    assert lhs != _moved_rising(alpha, n, j, step, target), (alpha, n, j, step)


@pytest.mark.parametrize("target", ["H", "L"])
def test_identities_fail_when_moved_by_one_on_identities_inputs(target):
    # the parameters `identities` draws, as in its seeded loop
    rng = random.Random(5)
    for _ in range(25):
        u = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        alpha = rng.randint(0, 4)
        beta = rng.randint(0, 300)
        n = rng.randint(1, 4)
        assert all(factor_shift_identities(alpha, beta, u, n, target).values())
        if alpha:
            assert not _shift_left_moved(u, alpha, target)
        a = min(alpha, n)
        lhs = _rising_lhs(a, n, target)
        j = rng.randint(1, n)
        assert lhs != _moved_rising(a, n, j, 1, target) and lhs != _moved_rising(a, n, j, -1, target)


def test_identities_report_bytes_frozen():
    # the factors-cold benchmark job of seed 5 in a fresh process; digest
    # taken while products still ran on Fractions
    proc = _run_fresh(["-m", "rank2verma", "identities", "--target", "both", "--trials", "100",
                       "--alpha-max", "4", "--beta-max", "300", "--n-max", "4", "--seed", "5"])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "647edfef0f83c0bb0b04c8fa768f9f0422f8ee75b6283fee1eedf52db5b5e220"
    )
