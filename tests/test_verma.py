import math
import random
from fractions import Fraction

import pytest

from rank2verma import freealg, lines, pbw, products, verma
from rank2verma.cartan import CartanData, RootVector, family_root
from rank2verma.freealg import FreeElement, graded_quotient, kernel_basis, serre_element
from rank2verma.gamma import WeightParam, case_weight, line_parameter, random_rational, xi_of_mt
from rank2verma.pbw import project
from rank2verma.products import build_product, expand_product
from rank2verma.verma import (
    _e_action_rows,
    annihilates,
    e_action,
    ideal_e_stable,
    raising_commutator_witness,
    singular_vectors,
)

PAIRS = [(2, 2), (2, 3), (3, 2), (3, 3), (1, 4), (4, 1)]


def test_e_action_frozen_small():
    cd = CartanData(2, 3)
    w = WeightParam(Fraction(5), Fraction(7))  # unshifted
    f1 = FreeElement.from_word((1,))
    assert e_action(1, f1, w, cd).coeffs == {(): Fraction(5)}
    assert e_action(2, f1, w, cd).is_zero()
    f12 = FreeElement.from_word((1, 2))
    # deleting the 1 sees the suffix f2, so the eigenvalue is shifted by p
    assert e_action(1, f12, w, cd).coeffs == {(2,): Fraction(7)}
    assert e_action(2, f12, w, cd).coeffs == {(1,): Fraction(7)}
    f21 = FreeElement.from_word((2, 1))
    assert e_action(1, f21, w, cd).coeffs == {(2,): Fraction(5)}
    assert e_action(2, f21, w, cd).coeffs == {(1,): Fraction(10)}


def test_e_action_bad_generator():
    cd = CartanData(2, 2)
    w = WeightParam(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        e_action(3, FreeElement.from_word((1,)), w, cd)


@pytest.mark.parametrize("p,q", PAIRS)
def test_serre_relators_singular_for_every_weight(p, q):
    # the relators die under both raising generators before any quotient,
    # independently of the highest weight
    cd = CartanData(p, q)
    weights = [
        WeightParam(Fraction(5, 7), Fraction(-2, 3)),
        WeightParam(Fraction(0), Fraction(0)),
        WeightParam(Fraction(3), Fraction(11, 2), shifted=True),
    ]
    for w in weights:
        for which in (1, 2):
            s = serre_element(which, cd)
            assert e_action(1, s, w, cd).is_zero()
            assert e_action(2, s, w, cd).is_zero()


def test_ideal_is_e_stable_sample_grades():
    w = WeightParam(Fraction(5, 7), Fraction(-2, 3))
    cd = CartanData(2, 2)
    for grade in ((3, 1), (3, 2), (4, 2), (2, 3)):
        assert ideal_e_stable(grade[0], grade[1], w, cd)
    cd = CartanData(2, 3)
    for grade in ((3, 1), (1, 4), (2, 4)):
        assert ideal_e_stable(grade[0], grade[1], w, cd)


def test_singular_vector_simple_root_by_hand():
    # root (1, 0), m = 2: shifted line is x = 2 and the vector is f1^2
    cd = CartanData(2, 3)
    w = WeightParam(Fraction(2), Fraction(1, 3), shifted=True)
    res = singular_vectors(w, RootVector(1, 0), 2, cd)
    assert res.on_line
    assert res.grade == (2, 0)
    assert res.kernel_dim == 1
    assert res.vector.coeffs == {(1, 1): Fraction(1)}
    assert annihilates(res.vector, w, cd)


def test_singular_vector_frozen_kernel():
    # family with root (1, q) at (p, q) = (2, 2), m = 1, t = 1/3
    cd = CartanData(2, 2)
    w = WeightParam(Fraction(2, 3), Fraction(1, 6), shifted=True)
    res = singular_vectors(w, RootVector(1, 2), 1, cd)
    assert res.on_line
    assert res.quotient_dim == 3
    assert res.kernel_dim == 1
    vec = res.vector
    assert vec.coeffs == {
        (1, 2, 2): Fraction(-1, 11),
        (2, 1, 2): Fraction(2, 5),
        (2, 2, 1): Fraction(1),
    }
    assert vec.coeffs[max(vec.coeffs)] == 1
    assert annihilates(vec, w, cd)
    assert res.weight == w.to_unshifted()


def test_singular_vectors_frozen_dim3_kernel():
    # (2,2), case 2, n = 1, m = 3 at t = -3/2 lies on other reducibility
    # lines too; the kernel has dimension 3, and the order and normalization
    # of its basis (one vector per free column) are pinned here
    cd = CartanData(2, 2)
    root = family_root(2, 1, cd)
    w = case_weight(2, 1, cd).at(3, Fraction(-3, 2))
    F = Fraction
    expected = [
        {
            (2, 2, 2, 1, 2, 1, 2, 1, 2): F(-8), (2, 2, 2, 1, 2, 1, 2, 2, 1): F(4),
            (2, 2, 2, 1, 2, 2, 1, 1, 2): F(4), (2, 2, 2, 1, 2, 2, 1, 2, 1): F(-2),
            (2, 2, 2, 2, 1, 1, 2, 1, 2): F(4), (2, 2, 2, 2, 1, 1, 2, 2, 1): F(-2),
            (2, 2, 2, 2, 1, 2, 1, 1, 2): F(-2), (2, 2, 2, 2, 1, 2, 1, 2, 1): F(1),
        },
        {
            (2, 2, 2, 1, 1, 2, 1, 2, 2): F(7, 2), (2, 2, 2, 1, 2, 1, 1, 2, 2): F(-11, 6),
            (2, 2, 2, 1, 2, 1, 2, 1, 2): F(-5), (2, 2, 2, 1, 2, 1, 2, 2, 1): F(5, 3),
            (2, 2, 2, 1, 2, 2, 1, 1, 2): F(5, 3), (2, 2, 2, 2, 1, 1, 2, 1, 2): F(7, 2),
            (2, 2, 2, 2, 1, 1, 2, 2, 1): F(-5, 6), (2, 2, 2, 2, 1, 2, 1, 1, 2): F(-11, 6),
            (2, 2, 2, 2, 1, 2, 2, 1, 1): F(-5, 6), (2, 2, 2, 2, 2, 1, 1, 2, 1): F(1),
        },
        {
            (2, 2, 2, 1, 1, 2, 1, 2, 2): F(-15, 2), (2, 2, 2, 1, 2, 1, 1, 2, 2): F(5, 2),
            (2, 2, 2, 1, 2, 1, 2, 1, 2): F(15), (2, 2, 2, 1, 2, 1, 2, 2, 1): F(-5),
            (2, 2, 2, 1, 2, 2, 1, 1, 2): F(-5), (2, 2, 2, 2, 1, 1, 2, 1, 2): F(-15, 2),
            (2, 2, 2, 2, 1, 1, 2, 2, 1): F(5, 2), (2, 2, 2, 2, 1, 2, 1, 1, 2): F(5, 2),
            (2, 2, 2, 2, 1, 2, 2, 1, 1): F(5, 2), (2, 2, 2, 2, 2, 1, 2, 1, 1): F(-3),
            (2, 2, 2, 2, 2, 2, 1, 1, 1): F(1),
        },
    ]
    # from cold caches, then after a generic t has fixed the grade's
    # independent rows, so that the answer comes from the fallback
    try:
        _clear_caches()
        for warm in (False, True):
            if warm:
                singular_vectors(case_weight(2, 1, cd).at(3, F(1, 3)), root, 3, cd)
                assert (2, 2, 3, 6) in verma._INDEPENDENT_ROWS_CACHE
            res = singular_vectors(w, root, 3, cd)
            assert (res.grade, res.quotient_dim, res.kernel_dim) == ((3, 6), 22, 3)
            assert [vec.coeffs for vec in res.vectors] == expected
            assert all(annihilates(vec, w, cd) for vec in res.vectors)
            # a nongeneric first weight caches no rows
            assert ((2, 2, 3, 6) in verma._INDEPENDENT_ROWS_CACHE) == warm
    finally:
        _clear_caches()


def test_off_line_weight_has_no_singular_vector():
    # also once a weight on the line x = 1 has cached the grade's rows: the
    # one chosen row set is empty there, and the row it leaves out must
    # reject the vector it lets through
    cd = CartanData(2, 2)
    w = WeightParam(Fraction(13, 9), Fraction(4, 7), shifted=True)
    try:
        _clear_caches()
        for warm in (False, True):
            if warm:
                on_line = WeightParam(Fraction(1), Fraction(4, 7), shifted=True)
                assert singular_vectors(on_line, RootVector(1, 0), 1, cd).kernel_dim == 1
                assert verma._INDEPENDENT_ROWS_CACHE[(2, 2, 1, 0)] == ([], [0])
            res = singular_vectors(w, RootVector(1, 0), 1, cd)
            assert not res.on_line
            assert res.kernel_dim == 0
            assert res.vector is None
            # an off-line first weight, of full rank, caches no rows
            assert ((2, 2, 1, 0) in verma._INDEPENDENT_ROWS_CACHE) == warm
    finally:
        _clear_caches()


def test_imaginary_grade_generic_weight_empty():
    cd = CartanData(2, 2)
    w = WeightParam(Fraction(1), Fraction(1), shifted=True)
    res = singular_vectors(w, RootVector(1, 1), 1, cd)
    assert not res.on_line
    assert res.kernel_dim == 0


def test_singular_vectors_rejects_bad_input():
    cd = CartanData(2, 2)
    w = WeightParam(Fraction(1), Fraction(1), shifted=True)
    with pytest.raises(ValueError):
        singular_vectors(w, RootVector(1, 0), 0, cd)
    with pytest.raises(ValueError):
        singular_vectors(w, RootVector(0, 0), 1, cd)
    with pytest.raises(ValueError):
        singular_vectors(w, RootVector(-1, 0), 1, cd)


def test_raising_operators_do_not_commute():
    # e1 e2 - e2 e1 acts on f1 f2 v by -p*y: the bracket is the raising
    # operator of the composite root, not zero
    cd = CartanData(2, 3)
    w = WeightParam(Fraction(5, 7), Fraction(-2, 3))
    c12, c21, diff = raising_commutator_witness(w, cd)
    assert c12 == Fraction(-10, 21)
    assert c21 == Fraction(-38, 21)
    assert diff == Fraction(4, 3)
    assert diff == -cd.p * w.y


def _column_by_column_rows(g1, g2, weight, cd):
    """The e-action matrix at the weight, built one source basis word at a
    time from e_action and reduce: the e1 block, then the e2 block."""
    source = graded_quotient(g1, g2, cd)
    rows = []
    for i, (t1, t2) in ((1, (g1 - 1, g2)), (2, (g1, g2 - 1))):
        if t1 < 0 or t2 < 0:
            continue
        target = graded_quotient(t1, t2, cd)
        block = [{} for _ in range(target.dim)]
        for col, w in enumerate(source.basis_words):
            img = e_action(i, FreeElement.from_word(w), weight, cd)
            for tw, c in target.reduce(img).items():
                block[target.basis_index[tw]][col] = c
        rows.extend(block)
    return rows


def _same_up_to_scale(row, exact):
    if set(row) != set(exact):
        return False
    if not row:
        return True
    scale = Fraction(row[min(row)]) / exact[min(row)]
    return scale != 0 and all(row[j] == scale * exact[j] for j in row)


ORACLE_PAIRS = [(2, 2), (2, 3), (3, 3), (1, 4), (4, 1)]


def _family_grades(cd, total):
    """{grade: [(case, n, m), ...]} for every family grade m*root with
    g1 + g2 <= total."""
    out = {}
    for case in (1, 2, 3, 4):
        for n in range(1, total + 1):
            root = family_root(case, n, cd)
            for m in range(1, total + 1):
                if m * (root.k1 + root.k2) <= total:
                    out.setdefault((m * root.k1, m * root.k2), []).append((case, n, m))
    return out


@pytest.mark.parametrize("p,q", ORACLE_PAIRS)
def test_cached_e_action_rows_match_column_by_column(p, q):
    # every grade up to total 9, at three t values, one of them of
    # random_rational size; where a family's grade m*root is reached, its
    # weight on the reducibility line is used too, so kernels are nonempty
    cd = CartanData(p, q)
    ts = (Fraction(1, 3), Fraction(-7, 2), random_rational(random.Random(p * 10 + q)))
    on_line = _family_grades(cd, 9)
    kernels = 0
    for total in range(1, 10):
        for g1 in range(total + 1):
            g2 = total - g1
            weights = [(WeightParam(t, 2 - 3 * t), RootVector(g1, g2), 1) for t in ts]
            for case, n, m in on_line.get((g1, g2), []):
                root = family_root(case, n, cd)
                weights += [(case_weight(case, n, cd).at(m, t), root, m) for t in ts]
            for weight, root, m in weights:
                rows = _e_action_rows(g1, g2, weight, cd)
                exact = _column_by_column_rows(g1, g2, weight, cd)
                assert len(rows) == len(exact), (g1, g2)
                assert all(_same_up_to_scale(r, e) for r, e in zip(rows, exact)), (g1, g2, weight)
                res = singular_vectors(weight, root, m, cd)
                kernels += res.kernel_dim
                assert all(annihilates(vec, weight, cd) for vec in res.vectors)
    assert kernels > 0


def _clear_caches():
    freealg._QUOTIENT_CACHE.clear()
    verma._E_ACTION_CACHE.clear()
    verma._INDEPENDENT_ROWS_CACHE.clear()
    verma._LINE_CACHE.clear()
    pbw._PROJECTION_CACHE.clear()
    freealg._WORD_STR_CACHE.clear()
    products._FAMILY_CACHE.clear()


def _kernel_on_all_rows(weight, g1, g2, cd):
    source = graded_quotient(g1, g2, cd)
    return [
        FreeElement({w: Fraction(v, den) for w, v in zip(source.basis_words, nums) if v})
        for den, nums in kernel_basis(_e_action_rows(g1, g2, weight, cd), source.dim)[0]
    ]


@pytest.mark.parametrize("p,q", ORACLE_PAIRS)
def test_singular_vectors_match_kernel_on_all_rows(p, q):
    # at every family grade with g1 + g2 <= 9 and each family weight there,
    # solving on the cached independent rows gives what eliminating every
    # row gives; the first t fixes the rows, which are independent over Q
    # at that weight, t = -3/2 is nongeneric at some grades, and a weight
    # moved off the line of each grade's first family has no kernel vector
    # to pass the check
    cd = CartanData(p, q)
    ts = (Fraction(1, 3), Fraction(-7, 2), random_rational(random.Random(p * 10 + q + 1)), Fraction(-3, 2))
    try:
        _clear_caches()
        for (g1, g2), families in sorted(_family_grades(cd, 9).items()):
            weights = [
                (case_weight(case, n, cd).at(m, t), family_root(case, n, cd), m)
                for case, n, m in families
                for t in ts
            ]
            case, n, m = families[0]
            off = case_weight(case, n, cd).at(m, ts[0])
            off = WeightParam(off.x + Fraction(1, 7), off.y + Fraction(1, 5), off.shifted)
            weights.append((off, family_root(case, n, cd), m))
            for weight, root, m in weights:
                cached = (p, q, g1, g2) in verma._INDEPENDENT_ROWS_CACHE
                res = singular_vectors(weight, root, m, cd)
                assert list(res.vectors) == _kernel_on_all_rows(weight, g1, g2, cd), (g1, g2, weight)
                if not cached and (p, q, g1, g2) in verma._INDEPENDENT_ROWS_CACHE:
                    chosen = verma._INDEPENDENT_ROWS_CACHE[(p, q, g1, g2)][0]
                    rows = _e_action_rows(g1, g2, weight, cd)
                    assert len(freealg._echelon([rows[k] for k in chosen])) == len(chosen), (g1, g2, weight)
            assert res.kernel_dim == 0  # at the weight moved off the line
            chosen, rest = verma._INDEPENDENT_ROWS_CACHE[(p, q, g1, g2)]
            assert len(chosen) == graded_quotient(g1, g2, cd).dim - 1
            assert sorted(chosen + rest) == list(range(len(_e_action_rows(g1, g2, off, cd))))
    finally:
        _clear_caches()


@pytest.mark.parametrize("p,q", ORACLE_PAIRS)
def test_singular_vectors_lead_with_one(p, q):
    # every vector has coefficient exactly 1 at its lexicographically
    # largest word, at generic t and at t = -3/2 and -1, where some kernels
    # of (2,2) have dimension 2 or 3
    cd = CartanData(p, q)
    ts = (Fraction(1, 3), Fraction(-3, 2), Fraction(-1), random_rational(random.Random(p * 10 + q + 2)))
    dims = set()
    for (g1, g2), families in sorted(_family_grades(cd, 9).items()):
        for case, n, m in families:
            for t in ts:
                res = singular_vectors(case_weight(case, n, cd).at(m, t), family_root(case, n, cd), m, cd)
                dims.add(res.kernel_dim)
                for vec in res.vectors:
                    top = vec.coeffs[max(vec.coeffs)]
                    assert type(top) is Fraction and top == 1, (g1, g2, case, n, m, t)
    assert 1 in dims
    if (p, q) == (2, 2):
        assert {2, 3} <= dims


@pytest.mark.parametrize("case", [2, 4])
def test_critical_level_kernel_dims(case, monkeypatch):
    # at (2,2), t = -m/2 puts the shifted weight of cases 2 and 4 on
    # x + y = 0, the line of the imaginary root (1,1), where the kernel at
    # grade m*root has dimension m; once a generic t has fixed the rows, the
    # kernels of dimension 2 and 3 come from eliminating every row
    cd = CartanData(2, 2)
    root = family_root(case, 1, cd)
    calls = []

    def recording(rows, ncols):
        calls.append(len(rows))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(verma, "kernel_basis", recording)
    try:
        _clear_caches()
        for m, dim in ((1, 3), (2, 9), (3, 22)):
            g1, g2 = m * root.k1, m * root.k2
            singular_vectors(case_weight(case, 1, cd).at(m, Fraction(1, 3)), root, m, cd)
            weight = case_weight(case, 1, cd).at(m, Fraction(-m, 2))
            assert weight.to_shifted().x + weight.to_shifted().y == 0
            calls.clear()
            res = singular_vectors(weight, root, m, cd)
            assert (res.quotient_dim, res.kernel_dim) == (dim, m)
            assert list(res.vectors) == _kernel_on_all_rows(weight, g1, g2, cd)
            assert all(annihilates(vec, weight, cd) for vec in res.vectors)
            nrows = len(_e_action_rows(g1, g2, weight, cd))
            assert calls == ([dim - 1] if m == 1 else [dim - 1, nrows])
    finally:
        _clear_caches()


@pytest.mark.parametrize("p,q,delta,top", [(2, 2, (1, 1), 5), (1, 4, (1, 2), 4), (4, 1, (2, 1), 4)])
def test_critical_line_kernel_dims_are_partition_numbers(p, q, delta, top, monkeypatch):
    # on the critical line of the imaginary root delta, q*a*x' + p*b*y' = 0
    # in shifted coordinates, the kernel at grade m*delta of a generic point
    # has dimension p(m), and off the line it is 0.  No weight gives these
    # grades a one-dimensional kernel once m > 1, so their rows are never
    # fixed: every kernel, a repeat one too, is one elimination of all rows.
    # Every vector carries the kernel's integer form
    cd = CartanData(p, q)
    calls = []

    def recording(rows, ncols):
        calls.append(len(rows))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(verma, "kernel_basis", recording)
    root = RootVector(*delta)
    x = Fraction(2, 7)
    on_line = WeightParam(x, -q * delta[0] * x / (p * delta[1]), True)
    off_line = WeightParam(x, Fraction(5, 11), True)
    try:
        _clear_caches()
        for m, dim in zip(range(1, top + 1), (1, 2, 3, 5, 7)):
            g1, g2 = m * delta[0], m * delta[1]
            res = singular_vectors(on_line, root, m, cd)
            assert res.on_line and res.kernel_dim == dim, m
            assert list(res.vectors) == _kernel_on_all_rows(on_line, g1, g2, cd)
            assert all(annihilates(vec, on_line, cd) for vec in res.vectors)
            assert ((p, q, g1, g2) in verma._INDEPENDENT_ROWS_CACHE) == (dim == 1)
            if m > 1:
                calls.clear()
                assert singular_vectors(on_line, root, m, cd) == res
                assert calls == [len(_e_action_rows(g1, g2, on_line, cd))]
            assert all(vec._ints is not None for vec in res.vectors)
            for vec in res.vectors:
                den, nums = vec.integer_form()
                assert {w: Fraction(v, den) for w, v in nums.items()} == vec.coeffs
            assert singular_vectors(off_line, root, m, cd).kernel_dim == 0
    finally:
        _clear_caches()


def test_results_independent_of_warm_caches():
    # (2,2) case 2, n = 1, m = 3 at t = 2/9, from cleared caches, then again
    # after other t values and other grades (whose quotients, e-action
    # blocks, word images, word strings and families' factor products
    # overlap) have warmed every cache, and the line of
    # this family has built its polynomial form, which then gives the warm
    # answer; the reprs match too, and so do the family's records, whose
    # products come from its cached product polynomials once warm
    cd = CartanData(2, 2)
    root = family_root(2, 1, cd)
    weight = case_weight(2, 1, cd).at(3, Fraction(2, 9))
    xi = xi_of_mt(2, 1, cd).at(3, Fraction(2, 9))

    def result():
        res = singular_vectors(weight, root, 3, cd)
        return (
            res,
            [project(v, tg) for v in res.vectors for tg in ("H", "L")],
            [expand_product(build_product(2, 1, 3, cd), xi, tg) for tg in ("H", "L")],
            products.end_to_end(2, 1, 3, cd, t_samples=(Fraction(2, 9),)),
        )

    try:
        _clear_caches()
        cold = result()
        assert cold[0].kernel_dim == 1
        _clear_caches()
        for case, n, m in ((2, 1, 2), (4, 1, 3), (1, 1, 2), (2, 1, 3)):
            for t in (Fraction(-5, 3), random_rational(random.Random(m))):
                res = singular_vectors(case_weight(case, n, cd).at(m, t), family_root(case, n, cd), m, cd)
                repr(res)
                for tg in ("H", "L"):
                    for v in res.vectors:
                        project(v, tg)
                    form = xi_of_mt(case, n, cd)
                    expand_product(build_product(case, n, m, cd), form.at(m, t) if form else Fraction(0), tg)
                products.end_to_end(case, n, m, cd, t_samples=(t,))
        line = verma._LINE_CACHE[_force_line_build(cd, 2, 1, 3)]
        assert (2, 1, 3, cd) in products._FAMILY_CACHE and pbw._PROJECTION_CACHE and freealg._WORD_STR_CACHE
        assert line.kernel_at(*line_parameter(weight, root, 3, cd)) is not None
        warm = result()
        assert warm == cold
        assert repr(warm) == repr(cold)
    finally:
        _clear_caches()


@pytest.mark.parametrize("p,q", ORACLE_PAIRS)
def test_warm_split_path_matches_all_rows(p, q, monkeypatch):
    # once a grade's rows are split, each t solves on the chosen rows alone
    # and checks the others by their dot product with its vector; at every
    # family grade with g1 + g2 <= 9 that must give what eliminating every
    # row gives, vectors and dimension, at seeded t, and at (2,2), cases 2
    # and 4 with m = 3, also at t = -3/2, where the kernel has dimension 3
    # and only the all-rows path can give it.  Every line's build
    # is refused, so that no t leaves the split path for the line path
    cd = CartanData(p, q)
    rng = random.Random(p * 100 + q)
    calls = []

    def recording(rows, ncols):
        calls.append(len(rows))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(verma, "kernel_basis", recording)
    monkeypatch.setattr(lines, "build", lambda root, m, cartan: None)
    dims = set()
    try:
        _clear_caches()
        for (g1, g2), families in sorted(_family_grades(cd, 9).items()):
            key = (p, q, g1, g2)
            for case, n, m in families:
                root, weight = family_root(case, n, cd), case_weight(case, n, cd)
                singular_vectors(weight.at(m, Fraction(1, 3)), root, m, cd)
                chosen, rest = verma._INDEPENDENT_ROWS_CACHE[key]
                ts = [random_rational(rng) for _ in range(2)] + [Fraction(rng.randint(-99, 99), rng.randint(1, 99))]
                if (p, q) == (2, 2) and case in (2, 4) and m == 3:
                    ts.append(Fraction(-3, 2))
                for t in ts:
                    calls.clear()
                    res = singular_vectors(weight.at(m, t), root, m, cd)
                    assert list(res.vectors) == _kernel_on_all_rows(weight.at(m, t), g1, g2, cd), (g1, g2, t)
                    assert res.kernel_dim == len(res.vectors)
                    # the chosen rows alone, then all rows only where they cannot answer
                    nrows = len(chosen) + len(rest)
                    assert calls == ([len(chosen)] if res.kernel_dim == 1 else [len(chosen), nrows]), (g1, g2, t)
                    dims.add(res.kernel_dim)
    finally:
        _clear_caches()
    assert 1 in dims
    if (p, q) == (2, 2):
        assert 3 in dims


def test_warm_split_path_falls_back_when_a_rest_row_fails(monkeypatch):
    # one row that the split leaves out is changed so that it no longer
    # kills the vector of the chosen rows: the check must catch it, and the
    # answer comes from all rows, where that row leaves no kernel
    cd = CartanData(2, 2)
    case, n, m = 2, 1, 3
    root, weight = family_root(case, n, cd), case_weight(case, n, cd)
    g1, g2 = m * root.k1, m * root.k2
    calls = []

    def recording(rows, ncols):
        calls.append(len(rows))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(verma, "kernel_basis", recording)
    try:
        _clear_caches()
        singular_vectors(weight.at(m, Fraction(1, 3)), root, m, cd)
        key = (2, 2, g1, g2)
        chosen, rest = verma._INDEPENDENT_ROWS_CACHE[key]
        assert rest
        w = weight.at(m, Fraction(-5, 7))
        good = singular_vectors(w, root, m, cd)
        assert good.kernel_dim == 1
        col = graded_quotient(g1, g2, cd).basis_index[max(good.vector.coeffs)]
        blocks = [(i, list(block)) for i, block in verma._E_ACTION_CACHE[key]]
        k = rest[-1]
        first = len(blocks[0][1])
        i, block = blocks[0] if k < first else blocks[1]
        block[k if k < first else k - first] = {col: (0, 1)}
        monkeypatch.setitem(verma._E_ACTION_CACHE, key, blocks)
        calls.clear()
        res = singular_vectors(w, root, m, cd)
        assert calls == [len(chosen), len(chosen) + len(rest)]
        assert res.kernel_dim == 0 and list(res.vectors) == _kernel_on_all_rows(w, g1, g2, cd) == []
    finally:
        _clear_caches()


def _force_line_build(cd, case, n, m):
    """Build the family's reducibility line on demand, with no exact solve
    first, and register it as the exact path does once it has solved the
    line as many times as the grade's quotient dimension; returns the
    line's key."""
    root = family_root(case, n, cd)
    key = (cd.p, cd.q, root.k1, root.k2, m)
    verma._LINE_CACHE[key] = lines.build(root, m, cd)
    return key


def _recording_kernel(monkeypatch):
    calls = []

    def recording(rows, ncols):
        calls.append(len(rows))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(verma, "kernel_basis", recording)
    return calls


@pytest.mark.parametrize("p,q", ORACLE_PAIRS)
def test_line_path_matches_kernel_on_all_rows(p, q, monkeypatch):
    # every family line with g1 + g2 <= 9 is built; then at 20 seeded t
    # each answer equals what eliminating every row gives, vectors and
    # dimension, and wherever D does not vanish it comes from the line
    # with no kernel_basis call
    cd = CartanData(p, q)
    rng = random.Random(p * 1000 + q)
    calls = _recording_kernel(monkeypatch)
    answered = asked = 0
    try:
        _clear_caches()
        for (g1, g2), families in sorted(_family_grades(cd, 9).items()):
            for case, n, m in families:
                root, weight = family_root(case, n, cd), case_weight(case, n, cd)
                line = verma._LINE_CACHE[_force_line_build(cd, case, n, m)]
                assert line is not None, (g1, g2, case, n, m)
                for k in range(20):
                    t = random_rational(rng) if k % 4 == 0 else Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                    w = weight.at(m, t)
                    calls.clear()
                    res = singular_vectors(w, root, m, cd)
                    assert list(res.vectors) == _kernel_on_all_rows(w, g1, g2, cd), (g1, g2, t)
                    assert res.kernel_dim == len(res.vectors)
                    by_line = line.kernel_at(*line_parameter(w, root, m, cd)) is not None
                    assert (calls == []) == by_line, (g1, g2, t)
                    answered += by_line
                    asked += 1
    finally:
        _clear_caches()
    assert answered > 0.9 * asked


def _row_projection(vec, tg):
    """pbw.project of the vector's integer form by the row dots, as (den,
    sorted numerators): the same form on an element that carries no line."""
    den, nums = project(FreeElement._from_ints(*vec.integer_form()), tg).integer_form()
    return den, sorted(nums.items())


def _line_projection(vec, tg):
    den, nums = project(vec, tg).integer_form()
    return den, sorted(nums.items())


@pytest.mark.parametrize("p,q", ORACLE_PAIRS)
def test_line_projection_matches_project(p, q):
    # every family line with g1 + g2 <= 9 is built; then
    # at 20 seeded t, and at t = -3/2, -1/2 and 1/2, where D may vanish, a
    # vector carries the line exactly where the line answers, and projects
    # through the line's P(s) to the integer form that the row dots give
    # the same vector, in H and, where defined, in L.  Where D vanishes the
    # exact path answers.  One coefficient of one P moved by 1 is seen.
    cd = CartanData(p, q)
    targets = [tg for tg in pbw.TARGETS if pbw.projection_defined(tg, cd)]
    rng = random.Random(p * 100 + q)
    by_line = asked = vanished = 0
    try:
        _clear_caches()
        for (g1, g2), families in sorted(_family_grades(cd, 9).items()):
            for case, n, m in families:
                root, weight = family_root(case, n, cd), case_weight(case, n, cd)
                line = verma._LINE_CACHE[_force_line_build(cd, case, n, m)]
                ts = [random_rational(rng) if k % 4 == 0 else Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for k in range(20)]
                for t in ts + [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)]:
                    w = weight.at(m, t)
                    S, E = line_parameter(w, root, m, cd)
                    answered = line.kernel_at(S, E) is not None
                    vanished += not lines._poly_at(line.D, S, E)
                    res = singular_vectors(w, root, m, cd)
                    for vec in res.vectors:
                        assert (getattr(vec, "_line", None) is not None) == answered, (g1, g2, t)
                        for tg in targets:
                            assert _line_projection(vec, tg) == _row_projection(vec, tg), (g1, g2, t, tg)
                    by_line += answered
                    asked += 1
        # the last line's P in the first target, its constant coefficient
        # of one monomial moved by 1
        P = line.projections[targets[0]]
        P[min(P)][0] += 1
        vectors = [singular_vectors(weight.at(m, t), root, m, cd).vector for t in ts]
        assert any(_line_projection(vec, targets[0]) != _row_projection(vec, targets[0]) for vec in vectors)
    finally:
        _clear_caches()
    assert by_line > 0.9 * asked
    assert vanished or (p, q) != (2, 2)


def test_line_form_vanishes_at_the_dim3_point(monkeypatch):
    # (2,2), case 2, n = 1, m = 3 at t = -3/2 also lies on other
    # reducibility lines, and the kernel there has dimension 3: D vanishes,
    # so the built line leaves the point to the exact path, and its
    # records still read nongeneric with kernel dimension 3
    cd = CartanData(2, 2)
    root, weight = family_root(2, 1, cd), case_weight(2, 1, cd)
    calls = _recording_kernel(monkeypatch)
    try:
        _clear_caches()
        D = verma._LINE_CACHE[_force_line_build(cd, 2, 1, 3)].D
        S, E = line_parameter(weight.at(3, Fraction(-3, 2)), root, 3, cd)
        assert lines._poly_at(D, S, E) == 0
        calls.clear()
        records = products.end_to_end(2, 1, 3, cd, t_samples=(Fraction(-3, 2),))
        assert calls
        assert [(r.status, r.kernel_dim) for r in records] == [("nongeneric", 3)] * 2
    finally:
        _clear_caches()


# (p, q, case, n, m) of the benchmark's tsweep-warm families, at grades
# (5,3), (3,6) and (8,3)
TSWEEP_FAMILIES = ((2, 3, 1, 2, 1), (2, 2, 2, 1, 3), (3, 3, 1, 2, 1))


def _candidate_roots(D, bound):
    """The rational roots S/E of D, in lowest terms with E > 0, among the
    candidates of the rational root theorem with |S|, E <= bound: S = 0,
    and S dividing D's lowest nonzero coefficient with E dividing its
    leading one."""
    low = next(c for c in D if c)
    candidates = [(0, 1)] + [
        (S, E) for E in range(1, bound + 1) if D[-1] % E == 0
        for S in range(-bound, bound + 1) if S and low % S == 0 and math.gcd(S, E) == 1
    ]
    return [(S, E) for S, E in candidates if lines._poly_at(D, S, E) == 0]


# (p, q, case, n, m) of every family line with g1 + g2 <= 9 over the oracle
# pairs, and of the three tsweep lines
LINE_FAMILIES = [
    (p, q, case, n, m) for p, q in ORACLE_PAIRS
    for families in _family_grades(CartanData(p, q), 9).values() for case, n, m in families
] + list(TSWEEP_FAMILIES)


def _build_lines():
    """Build every line of LINE_FAMILIES on demand: {key: its Line}, each
    one kept."""
    built = {}
    for p, q, case, n, m in LINE_FAMILIES:
        key = _force_line_build(CartanData(p, q), case, n, m)
        built[key] = verma._LINE_CACHE[key]
        assert built[key] is not None, key
    return built


def test_line_build_is_independent_of_solve_history():
    # a line's rows come from the first node whose kernel is one vector, so
    # a cold build with no prior solve and the builds after two solve
    # histories, shuffled and at different t, give the same D, v and d on
    # every line of LINE_FAMILIES, though the histories fix different
    # chosen rows for some grades
    def polynomials(built):
        return {key: (line.D, line.v, line.d) for key, line in built.items()}

    splits = []
    try:
        _clear_caches()
        cold = polynomials(_build_lines())
        assert len(cold) == 136
        for seed in (1, 2):
            rng = random.Random(seed)
            verma._INDEPENDENT_ROWS_CACHE.clear()
            verma._LINE_CACHE.clear()
            for p, q, case, n, m in rng.sample(LINE_FAMILIES, len(LINE_FAMILIES)):
                cd = CartanData(p, q)
                root, weight = family_root(case, n, cd), case_weight(case, n, cd)
                for _ in range(2):
                    singular_vectors(weight.at(m, Fraction(rng.randint(-9, 9), rng.randint(1, 9))), root, m, cd)
            splits.append(dict(verma._INDEPENDENT_ROWS_CACHE))
            assert polynomials(_build_lines()) == cold
    finally:
        _clear_caches()
    assert splits[0] != splits[1]


def _certificate_errors(built, points):
    """Where the divisibility pretest of `Line.kernel_at` is wrong on the
    built lines: at the points S/E it certifies D(S/E) != 0 where Horner
    gives 0, or at a rational root of D (`_candidate_roots`) it certifies,
    or `kernel_at` answers instead of leaving the root to the exact path.
    Returns the errors, the roots per line key, and the share of the points
    the pretest certified."""
    errors, roots, certified = [], {}, 0
    for key, line in built.items():
        D = line.D
        for S, E in points:
            if lines._not_a_root(D, S, E):
                certified += 1
                if lines._poly_at(D, S, E) == 0:
                    errors.append((key, S, E, "certified a point that is a root"))
        roots[key] = _candidate_roots(D, 60)
        for S, E in roots[key]:
            if lines._not_a_root(D, S, E):
                errors.append((key, S, E, "certified a root"))
            if line.kernel_at(S, E) is not None:
                errors.append((key, S, E, "answered at a root"))
    return errors, roots, certified / max(1, len(built) * len(points))


def test_divisibility_certificate_is_sound(monkeypatch):
    # kernel_at certifies D(s) != 0 by the rational root theorem before it
    # runs Horner.  On every built family line with g1 + g2 <= 9 over the
    # oracle pairs, and on the three tsweep lines, that certificate is never
    # wrong at 2000 seeded S/E, half of them with |S|, E <= 60, and every
    # rational root of D among the theorem's candidates with |S|, E <= 60
    # goes to the exact path, t = -3/2 on the (3,6) line among them.
    # Forcing the pretest to always certify is seen
    rng = random.Random(43)
    points = []
    for k in range(2000):
        top = 999 if k % 2 else 60
        S, E = rng.randint(-top, top), rng.randint(1, top)
        g = math.gcd(S, E)
        points.append((S // g, E // g))
    try:
        _clear_caches()
        built = _build_lines()
        assert all(key in built for key in [(2, 3, 5, 3, 1), (2, 2, 1, 2, 3), (3, 3, 8, 3, 1)])
        errors, roots, share = _certificate_errors(built, points)
        assert errors == []
        assert share > 0.9
        cd = CartanData(2, 2)
        dim3 = line_parameter(case_weight(2, 1, cd).at(3, Fraction(-3, 2)), family_root(2, 1, cd), 3, cd)
        assert dim3 in roots[(2, 2, 1, 2, 3)]
        monkeypatch.setattr(lines, "_not_a_root", lambda D, S, E: True)
        errors = _certificate_errors(built, [])[0]
        assert {"certified a root", "answered at a root"} <= {why for *_, why in errors}
    finally:
        _clear_caches()


def _refused_line_stays_exact(cd, case, n, m, calls):
    """Force the line's build, require it refused, and check that each t
    is then solved on the exact path with the answer of every row."""
    root, weight = family_root(case, n, cd), case_weight(case, n, cd)
    g1, g2 = m * root.k1, m * root.k2
    key = _force_line_build(cd, case, n, m)
    assert key in verma._LINE_CACHE and verma._LINE_CACHE[key] is None
    for t in (Fraction(2, 9), Fraction(-5, 7), random_rational(random.Random(32))):
        w = weight.at(m, t)
        calls.clear()
        res = singular_vectors(w, root, m, cd)
        assert calls
        assert res.kernel_dim == 1 and list(res.vectors) == _kernel_on_all_rows(w, g1, g2, cd)
    assert verma._LINE_CACHE[key] is None


def test_line_build_refuses_a_moved_coefficient(monkeypatch):
    # v(s) with one coefficient moved by 1 leaves some row's product with
    # it nonzero: the build is refused, and the line stays on the exact path
    # with unchanged answers
    real = lines.line_polynomials

    def moved(chosen):
        D, v, d = real(chosen)
        v = dict(v)
        j = max(v)
        v[j] = [v[j][0] + 1] + v[j][1:]
        return D, v, d

    monkeypatch.setattr(lines, "line_polynomials", moved)
    calls = _recording_kernel(monkeypatch)
    try:
        _clear_caches()
        _refused_line_stays_exact(CartanData(2, 2), 2, 1, 3, calls)
    finally:
        _clear_caches()


def test_line_build_refuses_rows_dependent_along_the_line(monkeypatch):
    # the rows that led the kernel at s = 0, with the last one replaced by
    # a copy of the first, have rank n - 2 at every s, so D is identically
    # 0.  Fed to the build as the line's pencil, no node's kernel is one
    # vector: the build is refused, and every t is solved on all rows with
    # unchanged answers
    cd = CartanData(2, 2)
    case, n, m = 2, 1, 3
    root = family_root(case, n, cd)
    calls = _recording_kernel(monkeypatch)
    try:
        _clear_caches()
        pencil = lines._pencil(root, m, cd)
        kern, led = kernel_basis(lines._rows_at(pencil, 0), graded_quotient(m * root.k1, m * root.k2, cd).dim)
        assert len(kern) == 1
        dependent = [pencil[k] for k in led[:-1] + led[:1]]
        assert lines.line_polynomials([pencil[k] for k in led]) is not None
        assert lines.line_polynomials(dependent) is None
        monkeypatch.setattr(lines, "_pencil", lambda root, m, cartan: dependent)
        _refused_line_stays_exact(cd, case, n, m, calls)
    finally:
        _clear_caches()
