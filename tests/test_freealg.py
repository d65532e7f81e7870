import hashlib
import math
import random
from fractions import Fraction

import pytest

from rank2verma import freealg
from rank2verma.cartan import CartanData, denominator_dims, family_root
from rank2verma.freealg import (
    DEFAULT_GRADE_CAP,
    FreeElement,
    GradeCapExceeded,
    GradedQuotient,
    check_grade,
    graded_quotient,
    kernel_basis,
    maximal_minors,
    serre_element,
    serre_grade,
    word_grade,
    word_str,
    words_of_grade,
)
from rank2verma.gamma import case_weight, random_rational
from rank2verma.verma import _e_action_rows


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
    # the text is cached per word; a list renders like its tuple
    assert word_str([2, 1, 2, 2]) == "f2 f1 f2^2"
    assert word_str([]) == "1"


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


def _integer_row(entries) -> dict[int, int]:
    """Sparse primitive integer row proportional to the (column, rational)
    pairs given: denominators cleared, content divided out, zeros dropped."""
    entries = [(j, v) for j, v in entries if v]
    if not entries:
        return {}
    den = math.lcm(*(v.denominator for _, v in entries))
    return freealg._primitive({j: v.numerator * (den // v.denominator) for j, v in entries})


def _kernel(rows, ncols):
    """kernel_basis of dense rational rows, as dense Fraction vectors; the
    integer forms are checked to be in lowest terms and the rows that lead
    the pivots to be independent, as many as the rank, and to span the rest."""
    sparse = [_integer_row(enumerate(row)) for row in rows]
    ints, led = kernel_basis(sparse, ncols)
    for den, nums in ints:
        assert den > 0 and len(nums) == ncols and math.gcd(den, *nums) == 1
    assert led == sorted(led) and len(led) == ncols - len(ints)
    assert len(freealg._echelon([sparse[k] for k in led])) == len(led)
    return [[Fraction(v, den) for v in nums] for den, nums in ints]


def test_kernel_basis_frozen():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    kern = _kernel(rows, 3)
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
    kern = _kernel(rows, 5)
    assert kern == [
        [F(-3, 7), F(9, 14), F(1), F(0), F(0)],
        [F(2), F(0), F(0), F(1), F(0)],
        [F(-3, 2), F(-3, 2), F(0), F(0), F(1)],
    ]
    for vec in kern:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    assert _kernel([[F(0), F(0)]], 2) == [[F(1), F(0)], [F(0), F(1)]]
    # the rows that lead the pivots: row 1, the sparsest, goes in first,
    # then row 0; row 2 is 2*(row 0) + 2*(row 1) and row 3 is zero
    assert kernel_basis([{0: 1, 1: 2, 2: 3}, {1: 5}, {0: 2, 1: 14, 2: 6}, {}], 3) == ([(1, [-3, 0, 1])], [0, 1])


def _lowest_lead_kernel(rows, ncols):
    """Reference kernel, read off the reduced echelon form with every row
    led at its lowest column: one vector per free column, 1 there, 0 at
    the other free columns and -a/d at each lead d whose row has a there."""
    pivots = freealg._echelon(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for lead, prow in pivots.items():
            if free in prow:
                vec[lead] = Fraction(-prow[free], prow[lead])
        basis.append(vec)
    return basis


def _random_matrix(rng, nrows, ncols, rank, density):
    """Dense rational rows of a product of random nrows x rank and rank x
    ncols matrices, entries zero with probability 1 - density."""
    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < density else Fraction(0)

    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((a * right[k][j] for k, a in enumerate(row)), Fraction(0)) for j in range(ncols)] for row in left]


def test_kernel_basis_matches_lowest_lead_reference():
    # kernels are eliminated with rows led at their highest column and then
    # brought back to the lowest-lead normalization; the two must agree on
    # random matrices of every rank, dense and sparse, and on all e-action
    # rows at every family grade with g1 + g2 <= 10, at generic t and at the
    # nongeneric t = -3/2 and -1/2
    rng = random.Random(2024)
    dims, ranks = set(), set()
    for _ in range(400):
        rank = rng.randint(0, 6)
        nrows, ncols = rng.randint(max(rank, 1), 7), rng.randint(max(rank, 1), 7)
        rows = _random_matrix(rng, nrows, ncols, rank, rng.choice((1.0, 0.4)))
        sparse = [_integer_row(enumerate(row)) for row in rows]
        kern = _lowest_lead_kernel(sparse, ncols)
        assert _kernel(rows, ncols) == kern
        assert _kernel([row for row in rows if any(row)], ncols) == kern
        dims.add(len(kern))
        ranks.add(ncols - len(kern))
    assert ranks == set(range(7))
    grade_dims = set()
    for p, q in ((2, 2), (2, 3), (3, 3), (1, 4), (4, 1)):
        cd = CartanData(p, q)
        ts = (Fraction(1, 3), Fraction(-7, 2), Fraction(-3, 2), Fraction(-1, 2), random_rational(random.Random(p * 10 + q)))
        for case in (1, 2, 3, 4):
            for n in range(1, 11):
                root = family_root(case, n, cd)
                for m in range(1, 11):
                    g1, g2 = m * root.k1, m * root.k2
                    if g1 + g2 > 10:
                        continue
                    ncols = graded_quotient(g1, g2, cd).dim
                    for t in ts:
                        rows = _e_action_rows(g1, g2, case_weight(case, n, cd).at(m, t), cd)
                        kern = [[Fraction(v, den) for v in nums] for den, nums in kernel_basis(rows, ncols)[0]]
                        assert kern == _lowest_lead_kernel(rows, ncols), (p, q, case, n, m, t)
                        grade_dims.add(len(kern))
    assert {0, 1, 2, 3} <= dims
    assert grade_dims == {1, 3}  # dim 3 at (2,2), case 2 or 4, m = 3, t = -3/2


def test_kernel_basis_ignores_row_scale_and_empty_rows():
    # the input rows go into the elimination as given, not made primitive:
    # scaling each row by a nonzero integer of either sign and putting empty
    # rows between them leaves the basis as it was, and the rows that lead
    # are the same rows, at their new positions
    rng = random.Random(909)
    cases = []
    for _ in range(300):
        rank = rng.randint(0, 6)
        nrows, ncols = rng.randint(max(rank, 1), 7), rng.randint(max(rank, 1), 7)
        rows = _random_matrix(rng, nrows, ncols, rank, rng.choice((1.0, 0.4)))
        cases.append(([_integer_row(enumerate(row)) for row in rows], ncols))
    cd = CartanData(2, 2)
    for case, m in ((2, 3), (4, 3), (1, 2), (3, 2)):
        root = family_root(case, 1, cd)
        g1, g2 = m * root.k1, m * root.k2
        for t in (Fraction(1, 3), Fraction(-3, 2), random_rational(rng)):
            rows = _e_action_rows(g1, g2, case_weight(case, 1, cd).at(m, t), cd)
            cases.append((rows, graded_quotient(g1, g2, cd).dim))
    dims = set()
    for rows, ncols in cases:
        basis, led = kernel_basis(rows, ncols)
        dims.add(len(basis))
        scaled, where = [], []
        for row in rows:
            while rng.random() < 0.3:
                scaled.append({})
            where.append(len(scaled))
            c = rng.choice((-1, 1)) * rng.randint(1, 40)
            scaled.append({j: c * v for j, v in row.items()})
        scaled += [{}] * rng.randint(0, 2)
        assert kernel_basis(scaled, ncols) == (basis, [where[k] for k in led])
    assert {0, 1, 2, 3} <= dims


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (1, 4), (4, 1)])
def test_quotient_dims_match_denominator_identity(p, q):
    # the free algebra modulo the two Serre relators is U(n^-) (Gabber-Kac),
    # whose graded dimensions the Weyl-Kac denominator identity gives
    cd = CartanData(p, q)
    dims = denominator_dims(10, cd)
    assert len(dims) == 66
    for (g1, g2), dim in dims.items():
        assert graded_quotient(g1, g2, cd).dim == dim, (g1, g2)


def test_denominator_dims_frozen():
    # (2, 3) at (5, 12), over the grade cap, and (8, 5), W3's largest grade
    dims = denominator_dims(17, CartanData(2, 3))
    assert (dims[(5, 12)], dims[(8, 5)]) == (631, 197)
    assert denominator_dims(2, CartanData(2, 2)) == {
        (0, 0): 1, (0, 1): 1, (1, 0): 1, (0, 2): 1, (1, 1): 2, (2, 0): 1,
    }


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



def _determinant(rows):
    """Determinant of a dense square matrix by Gaussian elimination over Q."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_maximal_minors_match_determinants():
    # (-1)^j times the determinant without column j, for random sparse
    # integer matrices of ncols - 1 rows, some with a row a multiple of
    # another (all minors 0), and each row kills the vector
    rng = random.Random(12)
    for _ in range(400):
        ncols = rng.randint(1, 7)
        dense = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(ncols)] for _ in range(ncols - 1)]
        if ncols > 2 and rng.random() < 0.2:
            dense[1] = [-2 * v for v in dense[0]]
        rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
        w = maximal_minors(rows, ncols)
        expected = [(-1) ** j * _determinant([row[:j] + row[j + 1 :] for row in dense]) for j in range(ncols)]
        assert w == expected, dense
        assert all(sum(a * b for a, b in zip(row, w)) == 0 for row in dense)


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
