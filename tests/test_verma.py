import random
from fractions import Fraction

import pytest

from rank2verma import freealg, pbw, verma
from rank2verma.cartan import CartanData, RootVector, family_root
from rank2verma.freealg import FreeElement, graded_quotient, serre_element
from rank2verma.gamma import WeightParam, case_weight, random_rational
from rank2verma.pbw import project
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
    w = case_weight(2, 1, cd).at(3, Fraction(-3, 2))
    res = singular_vectors(w, family_root(2, 1, cd), 3, cd)
    assert (res.grade, res.quotient_dim, res.kernel_dim) == ((3, 6), 22, 3)
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
    assert [vec.coeffs for vec in res.vectors] == expected
    assert all(annihilates(vec, w, cd) for vec in res.vectors)


def test_off_line_weight_has_no_singular_vector():
    cd = CartanData(2, 2)
    w = WeightParam(Fraction(13, 9), Fraction(4, 7), shifted=True)
    res = singular_vectors(w, RootVector(1, 0), 1, cd)
    assert not res.on_line
    assert res.kernel_dim == 0
    assert res.vector is None


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


@pytest.mark.parametrize("p,q", ORACLE_PAIRS)
def test_cached_e_action_rows_match_column_by_column(p, q):
    # every grade up to total 9, at three t values, one of them of
    # random_rational size; where a family's grade m*root is reached, its
    # weight on the reducibility line is used too, so kernels are nonempty
    cd = CartanData(p, q)
    ts = (Fraction(1, 3), Fraction(-7, 2), random_rational(random.Random(p * 10 + q)))
    on_line = {}
    for case in (1, 2, 3, 4):
        for n in range(1, 5):
            root = family_root(case, n, cd)
            for m in range(1, 10):
                if m * (root.k1 + root.k2) <= 9:
                    on_line.setdefault((m * root.k1, m * root.k2), []).append((case, n, m))
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
    pbw._PROJECTION_CACHE.clear()


def test_results_independent_of_warm_caches():
    # (2,2) case 2, n = 1, m = 3 at t = 2/9, from cleared caches, then again
    # after other t values and other grades (whose quotients, e-action
    # blocks and word images overlap) have warmed every cache
    cd = CartanData(2, 2)
    root = family_root(2, 1, cd)
    weight = case_weight(2, 1, cd).at(3, Fraction(2, 9))

    def result():
        res = singular_vectors(weight, root, 3, cd)
        return res, [project(v, tg) for v in res.vectors for tg in ("H", "L")]

    try:
        _clear_caches()
        cold = result()
        assert cold[0].kernel_dim == 1
        _clear_caches()
        for case, n, m in ((2, 1, 2), (4, 1, 3), (1, 1, 2), (2, 1, 3)):
            for t in (Fraction(-5, 3), random_rational(random.Random(m))):
                res = singular_vectors(case_weight(case, n, cd).at(m, t), family_root(case, n, cd), m, cd)
                for v in res.vectors:
                    for tg in ("H", "L"):
                        project(v, tg)
        assert result() == cold
    finally:
        _clear_caches()
