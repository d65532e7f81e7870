"""Integer forms of free and PBW elements: the coefficient renderer, the
raising action and quotient reduction in ints, and the Fraction budget of
one warm verification job."""

import copy
import cProfile
import pstats
import random
from fractions import Fraction

import pytest

from rank2verma import lines, pbw, products, verma
from rank2verma.cartan import CartanData, family_root
from rank2verma.cli import _element_doc
from rank2verma.freealg import FreeElement, _fraction_str, graded_quotient, word_str, words_of_grade
from rank2verma.gamma import WeightParam
from rank2verma.pbw import PBWElement
from rank2verma.verma import e_action

PAIRS = [(2, 2), (2, 3), (3, 3), (1, 4)]


def _random_form(rng, keys, size):
    """An integer form (den, nums) on `size` of the keys, often unreduced
    (a common factor in den and every numerator), sometimes with den = 1."""
    g = rng.choice((1, 1, 2, 6, 35))
    den = rng.choice((1, g, g * rng.randint(1, 40)))
    nums = {k: g * rng.randint(-60, 60) for k in rng.sample(keys, size)}
    return den, {k: v for k, v in nums.items() if v}


def _fraction_text(coeffs, key_str):
    return " + ".join(f"({c})*{key_str(k)}" for k, c in sorted(coeffs.items()))


def test_fraction_str_matches_fraction():
    rng = random.Random(3)
    cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 3), (-6, 4), (10**30 + 1, 10**15)]
    cases += [(rng.randint(-10**6, 10**6) * g, rng.randint(1, 10**4) * g)
              for g in (1, 2, 9, 1001) for _ in range(200)]
    for num, den in cases:
        assert _fraction_str(num, den) == str(Fraction(num, den)), (num, den)


def test_free_element_repr_matches_fraction_rendering():
    rng = random.Random(11)
    words = words_of_grade(3, 3)
    for _ in range(200):
        den, nums = _random_form(rng, words, rng.randint(1, 8))
        coeffs = {w: Fraction(v, den) for w, v in nums.items()}
        expected = _fraction_text(coeffs, word_str) or "0"
        elem = FreeElement._from_ints(den, nums)
        assert repr(elem) == expected
        assert repr(FreeElement(coeffs)) == expected
        # the text is kept and stays the same after any other reading
        for read in (lambda e: e.coeffs, lambda e: e == FreeElement(coeffs), hash):
            fresh = FreeElement._from_ints(den, dict(nums))
            read(fresh)
            assert repr(fresh) == repr(fresh) == expected
        assert _element_doc(elem, "") == {"".join(map(str, w)): str(c) for w, c in sorted(coeffs.items())}
        assert list(_element_doc(elem, "")) == ["".join(map(str, w)) for w in sorted(nums)]
    zero = FreeElement._from_ints(7, {})
    assert repr(zero) == repr(FreeElement()) == "0" and _element_doc(zero, "") == {}


@pytest.mark.parametrize("tg", ["H", "L"])
def test_pbw_repr_matches_fraction_rendering(tg):
    rng = random.Random(12)
    keys = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for _ in range(200):
        den, nums = _random_form(rng, keys, rng.randint(1, 8))
        coeffs = {k: Fraction(v, den) for k, v in nums.items()}
        expected = _fraction_text(coeffs, pbw._mono_str) or f"PBWElement({tg}, 0)"
        elem = PBWElement._from_ints(tg, den, nums)
        assert repr(elem) == repr(PBWElement(tg, coeffs)) == expected
        assert elem.coeffs == coeffs and elem == PBWElement(tg, coeffs) and hash(elem) == hash(PBWElement(tg, coeffs))
        assert repr(elem) == expected
        doc = _element_doc(elem, ",")
        assert doc == {f"{a},{b},{c}": str(co) for (a, b, c), co in sorted(coeffs.items())}
        assert list(doc) == [f"{a},{b},{c}" for a, b, c in sorted(nums)]
    zero = PBWElement._from_ints(tg, 3, {})
    assert repr(zero) == repr(PBWElement(tg)) == f"PBWElement({tg}, 0)" and _element_doc(zero, ",") == {}


@pytest.mark.parametrize("space", ["free", "H", "L"])
def test_renderer_edge_cases(space):
    # the one coefficient renderer, read by repr and by the CLI's documents,
    # at its edges: every entry reduced by one shared gcd, entries whose gcd
    # is the denominator (integers, among fractions), numerators of 2^200
    # and more, of either sign, over small and large denominators, and the
    # zero element; each checked against Fraction's own text
    if space == "free":
        keys, key_str, make, sep, zero = words_of_grade(3, 3), word_str, FreeElement._from_ints, "", "0"
    else:
        keys = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
        key_str, sep, zero = pbw._mono_str, ",", f"PBWElement({space}, 0)"
        make = lambda den, nums: PBWElement._from_ints(space, den, nums)  # noqa: E731
    big = 2**200
    forms = [
        (36, {k: 6 * c for k, c in zip(keys, (1, -5, 7, 11, -13, 25))}),
        (7, {keys[0]: 7, keys[1]: -14, keys[2]: 3, keys[3]: 7 * big, keys[4]: -5}),
        (3 * big, {keys[0]: big, keys[1]: -big, keys[2]: -(big + 1), keys[3]: 15 * big, keys[4]: -(2**201)}),
        (1, {keys[0]: -big, keys[1]: big**2, keys[2]: -1}),
        (big + 1, {k: -(big + 1) * i for i, k in enumerate(keys[:6], 1)}),
        (5, {}),
    ]
    for den, nums in forms:
        coeffs = {k: Fraction(v, den) for k, v in nums.items()}
        elem = make(den, nums)
        order = sorted(nums)
        assert repr(elem) == (" + ".join(f"({coeffs[k]})*{key_str(k)}" for k in order) or zero)
        assert elem.coefficient_texts() == (order, [str(coeffs[k]) for k in order])
        assert [_fraction_str(nums[k], den) for k in order] == [str(coeffs[k]) for k in order]
        assert list(_element_doc(elem, sep).items()) == [(sep.join(map(str, k)), str(coeffs[k])) for k in order]
    # the shared gcd and the integer entries rendered as such
    assert repr(make(36, {keys[0]: 6, keys[1]: -30})) == f"(1/6)*{key_str(keys[0])} + (-5/6)*{key_str(keys[1])}"
    assert make(7, {keys[0]: 7, keys[1]: 3}).coefficient_texts()[1] == ["1", "3/7"]


def _e_action_reference(i, coeffs, weight, cartan):
    """e_i on {word: Fraction}, in Fractions, deletion by deletion."""
    w = weight.to_unshifted()
    x, y = Fraction(w.x), Fraction(w.y)
    out = {}
    for word, c in coeffs.items():
        g1 = g2 = 0
        for r in range(len(word) - 1, -1, -1):
            if word[r] == i:
                coeff = x - 2 * g1 + cartan.p * g2 if i == 1 else y + cartan.q * g1 - 2 * g2
                reduced = word[:r] + word[r + 1 :]
                out[reduced] = out.get(reduced, 0) + c * coeff
            g1, g2 = (g1 + 1, g2) if word[r] == 1 else (g1, g2 + 1)
    return {w: c for w, c in out.items() if c}


def _reduce_reference(quo, coeffs):
    """GradedQuotient.reduce on {word: Fraction}, in Fractions."""
    out = {}
    for w, c in coeffs.items():
        col = quo.index[w]
        prow = quo._pivots.get(col)
        if prow is None:
            out[col] = out.get(col, 0) + c
            continue
        f = c / prow[col]
        for j, a in prow.items():
            if j != col:
                out[j] = out.get(j, 0) - f * a
    return {quo.words[k]: c for k, c in sorted(out.items()) if c}


def _check_form(elem):
    den, nums = elem.integer_form()
    assert den > 0 and all(nums.values())


@pytest.mark.parametrize("p, q", PAIRS)
def test_integer_e_action_and_reduce_match_fraction_reference(p, q):
    cd = CartanData(p, q)
    rng = random.Random(p * 10 + q)
    leads = 0
    for total in range(1, 8):
        for g1 in range(total + 1):
            quo = graded_quotient(g1, total - g1, cd)
            # the same quotient with every pivot row negated: the same
            # reduction, with each lead of the other sign (at (3,3) every
            # lead is positive, at the other pairs some are negative)
            flipped = copy.copy(quo)
            flipped._pivots = {c: {j: -a for j, a in row.items()} for c, row in quo._pivots.items()}
            leads += len(quo._pivots)
            for _ in range(4):
                den, nums = _random_form(rng, quo.words, rng.randint(1, min(6, len(quo.words))))
                elem = FreeElement._from_ints(den, nums)
                coeffs = {w: Fraction(v, den) for w, v in nums.items()}
                weight = WeightParam(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                                     Fraction(rng.randint(-50, 50), rng.randint(1, 9)), rng.random() < 0.5)
                for i in (1, 2):
                    img = e_action(i, elem, weight, cd)
                    _check_form(img)
                    assert img.coeffs == _e_action_reference(i, coeffs, weight, cd)
                    assert img == FreeElement(_e_action_reference(i, coeffs, weight, cd))
                red = quo.reduce(elem)
                assert red == _reduce_reference(quo, coeffs)
                assert flipped.reduce(elem) == _reduce_reference(flipped, coeffs) == red
                assert all(isinstance(c, Fraction) for c in red.values())
            # integer weights, where the e-action keeps the element's denominator
            for w in quo.words[:3]:
                img = e_action(1, FreeElement.from_word(w, Fraction(-4, 6)), WeightParam(3, -2), cd)
                assert img.coeffs == _e_action_reference(1, {w: Fraction(-2, 3)}, WeightParam(3, -2), cd)
    assert leads > 0


# (p, q, case, n, m) of the three families a tsweep-warm job sweeps: grades
# (5,3), (3,6) and (8,3)
TSWEEP_FAMILIES = ((2, 3, 1, 2, 1), (2, 2, 2, 1, 3), (3, 3, 1, 2, 1))


def _warm_job(families, t):
    """One warm verification job: every family at t, the proportionality of
    every ok record checked again, and the records rendered."""
    records = []
    for cartan, case, n, m in families:
        records.extend(products.end_to_end(case, n, m, cartan, t_samples=(t,)))
    for rec in records:
        assert rec.status == "ok" and rec.kernel_dim == 1
        assert rec.projection == rec.product * rec.scalar
    return records, "\n".join(map(repr, records))


def test_warm_job_fraction_budget():
    families = [(CartanData(p, q), case, n, m) for p, q, case, n, m in TSWEEP_FAMILIES]
    rng = random.Random(5)
    # the first job builds every cache the next one reads
    _warm_job(families, Fraction(rng.randint(-999, 999), rng.randint(1, 999)))
    t = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
    profile = cProfile.Profile()
    profile.enable()
    records, text = _warm_job(families, t)
    profile.disable()
    built = sum(
        stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
        if name == "__new__" and path.endswith("fractions.py")
    )
    assert 0 < built <= 24, built
    assert len(records) == 6 and text
    # the kernel vectors were rendered without their Fraction coefficients
    assert all(rec.vector._coeffs is None for rec in records)


def test_warm_line_job_reads_no_word_images(monkeypatch):
    # once the three tsweep lines are built (the (8,3) one after 63
    # solves) and a job has projected each line's polynomial kernel, a warm
    # job's vectors come from the lines and project through P(s): no word
    # image is read, and the job stays within the warm budget of Fractions
    families = [(CartanData(p, q), case, n, m) for p, q, case, n, m in TSWEEP_FAMILIES]
    keys = [(cd.p, cd.q, *family_root(case, n, cd), m) for cd, case, n, m in families]
    rng = random.Random(6)
    verma._LINE_CACHE.clear()
    try:
        jobs = 0
        while not all(isinstance(verma._LINE_CACHE.get(key), lines.Line) for key in keys):
            _warm_job(families, Fraction(rng.randint(-999, 999), rng.randint(1, 999)))
            jobs += 1
        assert jobs == 64
        _warm_job(families, Fraction(rng.randint(-999, 999), rng.randint(1, 999)))
        read, word_image = [], pbw._word_image

        def recording(word, target):
            read.append((word, target))
            return word_image(word, target)

        monkeypatch.setattr(pbw, "_word_image", recording)
        t = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        profile = cProfile.Profile()
        profile.enable()
        records, text = _warm_job(families, t)
        profile.disable()
        assert read == []
        assert all(rec.vector._line is not None for rec in records)
        built = sum(
            stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
            if name == "__new__" and path.endswith("fractions.py")
        )
        assert 0 < built <= 24, built
    finally:
        verma._LINE_CACHE.clear()
