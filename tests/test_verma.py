from fractions import Fraction

import pytest

from rank2verma.cartan import CartanData, RootVector, family_root
from rank2verma.freealg import FreeElement, serre_element
from rank2verma.gamma import WeightParam, case_weight
from rank2verma.verma import (
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
