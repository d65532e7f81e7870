import hashlib
import random
from fractions import Fraction

import pytest

from rank2verma import freealg, lines, products, verma
from rank2verma.cartan import CartanData, family_root
from rank2verma.freealg import kernel_basis
from rank2verma.gamma import AffineForm, GammaTable, case_weight, random_rational, xi_of_mt
from rank2verma.pbw import TARGETS, PBWElement, f_power, quadratic_factor
from rank2verma.verma import SingularVectorResult
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


def _factor_by_factor(spec, xi, target):
    """The product multiplied out one factor at a time at a concrete xi."""
    out = PBWElement.one(target)
    for block in spec.blocks:
        for sub in block.subscripts:
            out = out * quadratic_factor(sub.at(0, xi), target)
    if spec.tail_power:
        out = out * f_power(spec.tail_letter, spec.tail_power, target)
    return out


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (1, 4), (4, 1)])
def test_expand_product_matches_factor_by_factor(p, q):
    # every family build_product accepts with n <= 2 and m <= 3, in both
    # targets, at xi = 0, an integer, a xi where one subscript vanishes and
    # a seeded random rational, of random_rational size for every other
    # family.  The first xi multiplies the product out afresh; the others
    # evaluate the target's product polynomial, built once
    cd = CartanData(p, q)
    rng = random.Random(p * 10 + q)
    built = 0
    for case in (1, 2, 3, 4):
        for n in (1, 2):
            for m in (1, 2, 3):
                try:
                    spec = build_product(case, n, m, cd)
                except ValueError:
                    continue
                built += 1
                small = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                xis = [Fraction(0), Fraction(-4), random_rational(rng) if built % 2 else small]
                moving = [sub for block in spec.blocks for sub in block.subscripts if sub.cv]
                if moving:
                    xis.append(-moving[-1].c0 / moving[-1].cv)
                    assert moving[-1].at(0, xis[-1]) == 0
                for target in TARGETS:
                    polynomial = products._product_polynomial(spec, target)
                    for k, xi in enumerate(xis):
                        got = expand_product(spec, xi, target, polynomial=polynomial if k else None)
                        assert repr(got) == repr(_factor_by_factor(spec, xi, target)), (case, n, m, target, xi)
    assert built >= 15


def test_tsweep_records_frozen():
    # the end_to_end records of the benchmark's tsweep-warm families
    # (bench/workloads.py TSWEEP_FAMILIES) at 12 seeded t and at t = -3/2,
    # where (2,2) case 2, m = 3 is nongeneric; the worker's determinism
    # check compares digests of these reprs.  Digest taken when products
    # were still multiplied out factor by factor at each t
    families = ((2, 3, 1, 2, 1), (2, 2, 2, 1, 3), (3, 3, 1, 2, 1))
    rng = random.Random(7)
    ts = tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(12)) + (Fraction(-3, 2),)
    records = []
    for p, q, case, n, m in families:
        records.extend(end_to_end(case, n, m, CartanData(p, q), t_samples=ts))
    assert [r.status for r in records].count("nongeneric") == 2
    assert len(records) == 78
    digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
    assert digest == "70d19c85f93b4f90eaa98aeb64de077c059717c466dfa54a99b53642e93fb3db"


def test_tsweep_records_frozen_on_built_lines(monkeypatch):
    # the records of test_tsweep_records_frozen again, once all three
    # families' reducibility lines have built their polynomial forms (the
    # (8,3) line after 63 exact solves): the same bytes, with no
    # kernel_basis call for the 12 generic t, which the lines answer, and
    # the 2 nongeneric rows at t = -3/2, where D vanishes on the (3,6) line
    # and the exact path answers
    families = [(CartanData(p, q), case, n, m) for p, q, case, n, m in ((2, 3, 1, 2, 1), (2, 2, 2, 1, 3), (3, 3, 1, 2, 1))]
    keys = [(cd.p, cd.q, *family_root(case, n, cd), m) for cd, case, n, m in families]
    rng = random.Random(7)
    ts = tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(12)) + (Fraction(-3, 2),)
    calls = []

    def recording(rows, ncols):
        calls.append(len(rows))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(verma, "kernel_basis", recording)
    build = random.Random(8)
    verma._LINE_CACHE.clear()
    try:
        jobs = 0
        while not all(isinstance(verma._LINE_CACHE.get(key), lines.Line) for key in keys):
            t = Fraction(build.randint(-999, 999), build.randint(1, 999))
            for cd, case, n, m in families:
                end_to_end(case, n, m, cd, t_samples=(t,))
            jobs += 1
        assert jobs == 64
        calls.clear()
        generic = [end_to_end(case, n, m, cd, t_samples=ts[:12]) for cd, case, n, m in families]
        assert calls == []
        last = [end_to_end(case, n, m, cd, t_samples=ts[12:]) for cd, case, n, m in families]
        assert calls
    finally:
        verma._LINE_CACHE.clear()
    records = [rec for some, rest in zip(generic, last) for rec in some + rest]
    assert all(rec.vector._line is not None for some in generic for rec in some)
    assert [(r.t, r.status) for r in records if r.status != "ok"] == [(Fraction(-3, 2), "nongeneric")] * 2
    assert len(records) == 78
    digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
    assert digest == "70d19c85f93b4f90eaa98aeb64de077c059717c466dfa54a99b53642e93fb3db"


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


def test_proportionality_edge_cases():
    rng = random.Random(41)
    keys = [(a, b, c) for a in range(3) for b in range(3) for c in range(2)]
    for target in TARGETS:
        big = [random_rational(rng, 10**30) for _ in keys]
        right = PBWElement(target, dict(zip(keys, big)))
        for s in (Fraction(1), Fraction(-1), Fraction(-3, 7), random_rational(rng, 10**40)):
            left = right * s
            assert proportionality(left, right) == s
            # same support, one coefficient off by a tiny relative amount
            for k in (keys[0], keys[7], keys[-1]):
                off = dict(left.coeffs)
                off[k] += Fraction(1, 10**90)
                assert proportionality(PBWElement(target, off), right) is None
                flipped = dict(left.coeffs)
                flipped[k] = -flipped[k]
                assert proportionality(PBWElement(target, flipped), right) is None
        # different supports: one monomial more, one less, or moved
        more = PBWElement(target, {**right.coeffs, (5, 5, 5): Fraction(1)})
        assert proportionality(more, right) is None
        assert proportionality(right, more) is None
        fewer = PBWElement(target, {k: c for k, c in right.coeffs.items() if k != keys[3]})
        assert proportionality(fewer, right) is None
        assert proportionality(right, fewer) is None
        moved = PBWElement(target, {(k[0] + 1, k[1], k[2]): c for k, c in right.coeffs.items()})
        assert proportionality(moved, right) is None
    h = PBWElement("H", {(1, 0, 0): Fraction(1)})
    assert proportionality(PBWElement("L", {(1, 0, 0): Fraction(1)}), h) is None


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


def test_family_weight_and_xi_in_integers(monkeypatch):
    # a family keeps lambda(h1), lambda(h2) and xi at each m as integers
    # (c, a, d) with value (c + a*t)/d; at every t these give the affine
    # forms' own values, and end_to_end records exactly those (here with
    # the kernel stubbed out, so every sample reads nongeneric)
    rng = random.Random(44)
    ts = (Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 2), Fraction(1, 3), random_rational(rng))

    def no_kernel(weight, root, m, cartan):
        return SingularVectorResult(root, m, weight.to_unshifted(), None, None, 0, (), None)

    monkeypatch.setattr(products, "singular_vectors", no_kernel)
    checked = 0
    for p, q in ((2, 2), (2, 3), (3, 3), (1, 4), (4, 1)):
        cd = CartanData(p, q)
        for case in (1, 2, 3, 4):
            for n in (1, 2):
                weight, xi = case_weight(case, n, cd), xi_of_mt(case, n, cd)
                for m in (1, 2, 3):
                    forms = [products._in_t(f, m) for f in (weight.x, weight.y, xi)]
                    expected = [(weight.at(m, t), xi.at(m, t) if xi is not None else Fraction(0)) for t in ts]
                    for t, (w, x) in zip(ts, expected):
                        T, E = t.numerator, t.denominator
                        assert [Fraction(c * E + a * T, d * E) for c, a, d in forms] == [w.x, w.y, x]
                    try:
                        recs = end_to_end(case, n, m, cd, targets=["H"], t_samples=ts, cap=10**6)
                    except ValueError:  # a product build_product refuses
                        continue
                    assert [(r.t, r.weight, r.xi) for r in recs] == [(t, w, x) for t, (w, x) in zip(ts, expected)]
                    assert [repr(r) for r in recs] == [repr(r._replace(weight=w, xi=x)) for r, (w, x) in zip(recs, expected)]
                    checked += 1
    assert checked > 100
