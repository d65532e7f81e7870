import hashlib
import math
from fractions import Fraction

import pytest

from rank2verma.cartan import CartanData
from rank2verma.freealg import (
    DEFAULT_GRADE_CAP,
    FreeElement,
    GradeCapExceeded,
    GradedQuotient,
    check_grade,
    graded_quotient,
    kernel_basis,
    serre_element,
    serre_grade,
    word_grade,
    word_str,
    words_of_grade,
)


def test_words_of_grade_counts_and_order():
    ws = words_of_grade(1, 2)
    assert ws == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    for g1, g2 in ((2, 2), (3, 1), (0, 4), (4, 0)):
        ws = words_of_grade(g1, g2)
        assert len(ws) == math.comb(g1 + g2, g1)
        assert ws == sorted(ws)
        assert all(word_grade(w) == (g1, g2) for w in ws)
    assert words_of_grade(0, 0) == [()]


def test_word_str():
    assert word_str((1, 1, 2)) == "f1^2 f2"
    assert word_str((2, 1, 2, 2)) == "f2 f1 f2^2"
    assert word_str(()) == "1"


def test_free_element_algebra():
    a = FreeElement.from_word((1, 2), 2)
    b = FreeElement.from_word((2, 1), Fraction(1, 3))
    s = a + b
    assert s.coeffs == {(1, 2): Fraction(2), (2, 1): Fraction(1, 3)}
    assert (s - a) == b
    assert (3 * b).coeffs == {(2, 1): Fraction(1)}
    assert s.grade() == (1, 1)
    framed = a.framed((2,), (1,))
    assert framed.coeffs == {(2, 1, 2, 1): Fraction(2)}
    assert FreeElement().is_zero()
    mixed = a + FreeElement.from_word((1,))
    with pytest.raises(ValueError):
        mixed.grade()


def test_serre_element_frozen():
    cd = CartanData(2, 2)
    s1 = serre_element(1, cd)
    assert s1.coeffs == {
        (1, 1, 1, 2): Fraction(1),
        (1, 1, 2, 1): Fraction(-3),
        (1, 2, 1, 1): Fraction(3),
        (2, 1, 1, 1): Fraction(-1),
    }
    assert s1.grade() == serre_grade(1, cd) == (3, 1)
    assert serre_grade(2, cd) == (1, 3)
    s2 = serre_element(2, CartanData(2, 3))
    # alternating binomial row for (ad f2)^4 f1
    assert sorted(s2.coeffs.values()) == sorted(
        Fraction(c) for c in (1, -4, 6, -4, 1)
    )


def test_kernel_basis_frozen():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    kern = kernel_basis(rows, 3)
    assert kern == [
        [Fraction(-2), Fraction(1), Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(1)],
    ]
    # rank 2 with non-integer entries and a zero row: the third row is
    # 2*(first) + 2*(second)
    F = Fraction
    rows = [
        [F(1, 2), F(1, 3), F(0), F(-1), F(5, 4)],
        [F(0), F(2, 3), F(-3, 7), F(0), F(1)],
        [F(1), F(2), F(-6, 7), F(-2), F(9, 2)],
        [F(0)] * 5,
    ]
    kern = kernel_basis(rows, 5)
    assert kern == [
        [F(-3, 7), F(9, 14), F(1), F(0), F(0)],
        [F(2), F(0), F(0), F(1), F(0)],
        [F(-3, 2), F(-3, 2), F(0), F(0), F(1)],
    ]
    for vec in kern:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    assert kernel_basis([[F(0), F(0)]], 2) == [[F(1), F(0)], [F(0), F(1)]]


def test_quotient_dims_frozen():
    cd = CartanData(2, 2)
    assert graded_quotient(1, 2, cd).dim == 3  # no relator fits
    assert graded_quotient(3, 1, cd).dim == 3  # one relator
    assert graded_quotient(1, 3, cd).dim == 3
    assert graded_quotient(4, 1, cd).dim == 3  # two framings, both independent
    q = graded_quotient(3, 2, cd)
    assert len(q.words) == 10
    assert q.dim == 8  # two framings of the f1-side relator, none of the f2 side


def test_quotient_reduce():
    cd = CartanData(2, 2)
    q = graded_quotient(3, 1, cd)
    s = serre_element(1, cd)
    assert q.reduce(s) == {}
    assert q.in_ideal(s)
    # a single word reduces to itself plus ideal corrections supported on basis words
    w = q.words[0]
    red = q.reduce(FreeElement.from_word(w))
    assert all(q.basis_words[q.basis_index[bw]] == bw for bw in red)


def test_quotient_cache():
    cd = CartanData(2, 3)
    assert graded_quotient(2, 1, cd) is graded_quotient(2, 1, cd)


def test_grade_cap(monkeypatch):
    assert DEFAULT_GRADE_CAP == 14
    with pytest.raises(GradeCapExceeded):
        check_grade(8, 7)
    monkeypatch.setenv("VERMA_GRADE_CAP", "5")
    with pytest.raises(GradeCapExceeded):
        check_grade(3, 3)
    check_grade(3, 2)
    monkeypatch.setenv("VERMA_GRADE_CAP", "16")
    check_grade(8, 7)
    monkeypatch.setenv("VERMA_GRADE_CAP", "junk")
    with pytest.raises(ValueError):
        check_grade(1, 1)
    monkeypatch.setenv("VERMA_GRADE_CAP", "0")
    with pytest.raises(ValueError):
        check_grade(1, 1)


def test_check_grade_negative():
    with pytest.raises(ValueError):
        check_grade(-1, 2)


def test_quotient_respects_cap(monkeypatch):
    monkeypatch.setenv("VERMA_GRADE_CAP", "3")
    cd = CartanData(2, 2)
    with pytest.raises(GradeCapExceeded):
        GradedQuotient(3, 1, cd)


def test_quotients_and_reductions_frozen():
    # basis words and the reduction of every word, for every grade with
    # g1 + g2 <= 9 at five Cartan pairs; the digest was taken from the dense
    # Gauss-Jordan implementation this package used before the sparse one
    digest = hashlib.sha256()
    for p, q in ((2, 2), (2, 3), (3, 3), (1, 4), (4, 1)):
        cd = CartanData(p, q)
        for total in range(10):
            for g1 in range(total + 1):
                quo = graded_quotient(g1, total - g1, cd)
                digest.update(repr((p, q, quo.grade, quo.basis_words)).encode())
                for w in quo.words:
                    red = quo.reduce(FreeElement.from_word(w))
                    digest.update(repr(sorted(red.items())).encode())
    assert digest.hexdigest() == "10e50cc388c32744c9ceb6be677088327c8167f44c7554bf4d0213c13e8773be"
