from fractions import Fraction

import pytest

from rank2verma import freealg
from rank2verma.cartan import CartanData
from rank2verma.gamma import AffineForm, GammaTable
from rank2verma.pbw import PBWElement
from rank2verma.products import (
    alt_sum,
    build_product,
    end_to_end,
    expand_product,
    proportionality,
)


def test_alt_sum_frozen():
    t22 = GammaTable(CartanData(2, 2))
    assert alt_sum(t22, 2, 2, 3, -1) == 1  # -G2^2 + G2^3 = -1 + 2
    assert alt_sum(t22, 2, 2, 2, -1) == -1
    assert alt_sum(t22, 1, 5, 3, 1) == 0  # empty range
    t23 = GammaTable(CartanData(2, 3))
    assert alt_sum(t23, 1, 0, 2, 1) == 0 - 1 + 3
    assert alt_sum(t23, 2, 1, 4, 1) == 0 - 1 + 2 - 5
    with pytest.raises(ValueError):
        alt_sum(t22, 3, 0, 1, 1)
    with pytest.raises(ValueError):
        alt_sum(t22, 1, 0, 1, 2)


def test_build_product_frozen_structures():
    cd = CartanData(2, 2)
    spec = build_product(1, 1, 2, cd)
    assert spec.blocks == ()
    assert (spec.tail_letter, spec.tail_power) == (1, 2)

    spec = build_product(2, 1, 2, cd)
    assert len(spec.blocks) == 1
    blk = spec.blocks[0]
    assert (blk.family, blk.w, blk.count) == ("plain", 1, 2)
    assert [str(s) for s in blk.subscripts] == ["1 - xi", "2 - xi"]
    assert (spec.tail_letter, spec.tail_power) == (2, 2)
    assert spec.factor_count() == 2

    spec = build_product(4, 1, 1, cd)
    assert len(spec.blocks) == 1
    blk = spec.blocks[0]
    assert (blk.family, blk.w, blk.count) == ("tilde", 1, 1)
    assert blk.subscripts == (AffineForm(0, 0, 1, "xi"),)
    assert (spec.tail_letter, spec.tail_power) == (1, 1)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2)])
def test_build_product_telescopes(p, q):
    # the internal assertion compares block multiplicities with the grade
    cd = CartanData(p, q)
    for case in (1, 2, 3, 4):
        for n in (1, 2, 3):
            for m in (1, 2):
                spec = build_product(case, n, m, cd)
                assert spec.tail_power >= 0
                assert all(b.count >= 0 for b in spec.blocks)


def test_build_product_refuses_negative_multiplicity():
    # with an off-diagonal entry 1 the deeper telescopes go negative
    with pytest.raises(ValueError):
        build_product(1, 2, 1, CartanData(1, 4))


def test_build_product_rejects_bad_args():
    cd = CartanData(2, 2)
    with pytest.raises(ValueError):
        build_product(5, 1, 1, cd)
    with pytest.raises(ValueError):
        build_product(1, 0, 1, cd)
    with pytest.raises(ValueError):
        build_product(1, 1, 0, cd)


def test_expand_product_frozen():
    cd = CartanData(2, 2)
    spec = build_product(4, 1, 1, cd)
    out = expand_product(spec, Fraction(2), "H")
    assert out.coeffs == {(1, 2, 0): Fraction(1), (0, 1, 1): Fraction(2)}


def test_proportionality():
    a = PBWElement("H", {(1, 1, 0): Fraction(2), (0, 0, 1): Fraction(3)})
    assert proportionality(a, a) == 1
    assert proportionality(a, a * Fraction(-2, 7)) == Fraction(-7, 2)
    b = PBWElement("H", {(1, 1, 0): Fraction(2), (0, 0, 1): Fraction(4)})
    assert proportionality(a, b) is None
    c = PBWElement("H", {(2, 0, 0): Fraction(1)})
    assert proportionality(a, c) is None
    z = PBWElement("H")
    assert proportionality(a, z) is None
    assert proportionality(z, a) is None
    assert proportionality(z, z) is None


def test_end_to_end_frozen_scalar():
    # worked by hand: kernel vector at the (1, q) family, m = 1, t = 1/3
    # projects to 72/55 times X_{1-xi} f2 at xi = 11/6
    cd = CartanData(2, 2)
    recs = end_to_end(2, 1, 1, cd, targets=["H"], t_samples=(Fraction(1, 3),))
    assert len(recs) == 1
    r = recs[0]
    assert r.status == "ok"
    assert r.xi == Fraction(11, 6)
    assert r.scalar == Fraction(72, 55)
    assert r.grade == (1, 2)
    assert r.kernel_dim == 1


def test_end_to_end_small_grid():
    cd = CartanData(2, 2)
    samples = (Fraction(1, 3), Fraction(-3, 2))
    for case in (1, 2, 3, 4):
        recs = end_to_end(case, 1, 1, cd, t_samples=samples)
        assert len(recs) == 2 * len(samples)  # both targets defined here
        for r in recs:
            assert r.status == "ok", (case, r.t, r.target, r.reason)
            assert r.scalar != 0
            assert r.kernel_dim == 1
            assert (r.p, r.q) == (2, 2)


def test_end_to_end_deeper_family():
    cd = CartanData(2, 2)
    recs = end_to_end(1, 2, 1, cd, targets=["H"], t_samples=(Fraction(2, 5),))
    assert [r.status for r in recs] == ["ok"]
    assert recs[0].grade == (3, 2)


def test_end_to_end_skips_undefined_target():
    recs = end_to_end(1, 1, 1, CartanData(1, 4), targets=["L"])
    assert len(recs) == 1
    assert recs[0].status == "skipped"
    assert recs[0].t is None
    assert recs[0].reason.startswith("projection undefined")


def test_end_to_end_grade_cap_skips_before_any_build(monkeypatch):
    # grade (2, 3) at (2,2) case 3, n = 2: skipped for every target, with the
    # reason the verify report prints, and no quotient is built
    freealg._QUOTIENT_CACHE.clear()
    recs = end_to_end(3, 2, 1, CartanData(2, 2), cap=4)
    assert [r.target for r in recs] == ["H", "L"]
    for r in recs:
        assert (r.status, r.grade, r.t, r.kernel_dim) == ("skipped", (2, 3), None, None)
        assert r.reason == "grade (2, 3) exceeds cap 4"
    # without `cap` the grade cap applies
    monkeypatch.setenv("VERMA_GRADE_CAP", "4")
    recs = end_to_end(3, 2, 1, CartanData(2, 2), targets=["H"])
    assert [(r.status, r.reason) for r in recs] == [("skipped", "grade (2, 3) exceeds cap 4")]
    assert not freealg._QUOTIENT_CACHE
