from fractions import Fraction

import pytest

from rank2verma.cartan import CartanData, RootVector, SequenceTable, family_root
from rank2verma.gamma import (
    GENERIC_T_SAMPLES,
    AffineForm,
    GammaTable,
    WeightParam,
    case_weight,
    gamma,
    kac_kazhdan,
)

SIX_PAIRS = [(2, 2), (2, 3), (3, 2), (3, 3), (1, 4), (4, 1)]


def test_gamma_frozen_small():
    t = GammaTable(CartanData(2, 3))
    assert [t.entry(k) for k in range(7)] == [
        (0, 0), (1, 0), (3, 1), (5, 2), (12, 5), (19, 8), (45, 19),
    ]
    assert GammaTable(CartanData(2, 2)).entry(3) == (3, 2)


def test_gamma_low_entries_formulas():
    for p, q in SIX_PAIRS:
        cd = CartanData(p, q)
        t = GammaTable(cd)
        assert t.entry(0) == (0, 0)
        assert t.entry(1) == (1, 0)
        assert t.entry(2) == (q, 1)
        assert t.entry(3) == (p * q - 1, p)
        assert t.entry(4) == (q * (p * q - 2), p * q - 1)


def test_binomial_route_matches_recurrence():
    for p, q in SIX_PAIRS:
        cd = CartanData(p, q)
        t = GammaTable(cd)
        for k in range(21):
            assert gamma(k, cd) == t.entry(k)


def test_gamma_identifies_with_root_sequences():
    # odd entries are (c_n, e_n), even entries (d_{n+1}, c_n)
    for p, q in SIX_PAIRS:
        cd = CartanData(p, q)
        t = GammaTable(cd)
        s = SequenceTable(cd)
        for n in range(11):
            assert t.entry(2 * n + 1) == (s.c(n), s.e(n))
            assert t.entry(2 * n + 2) == (s.d(n + 1), s.c(n))


def test_gamma_cross_column_relation():
    for p, q in SIX_PAIRS:
        cd = CartanData(p, q)
        t = GammaTable(cd)
        for n in range(11):
            assert q * t.g2(2 * n + 1) == p * t.g1(2 * n)


def test_gamma_rejects_negative_index():
    cd = CartanData(2, 2)
    with pytest.raises(ValueError):
        gamma(-1, cd)
    with pytest.raises(ValueError):
        GammaTable(cd).entry(-2)


def test_affine_form_arithmetic():
    m = AffineForm.m_term()
    t = AffineForm.var_term("t")
    f = 2 * m - 3 * t + 1
    assert f.at(2, Fraction(1, 3)) == Fraction(4)
    assert str(f) == "1 + 2*m - 3*t"
    assert f - f == AffineForm.const(0)
    assert (f + f) == 2 * f
    assert -(m - t) == t - m
    assert AffineForm.const(5) == 5
    assert f != m


def test_affine_form_hash_matches_equality():
    # equal objects hash alike: a constant form equals its constant
    for c in (0, 3, -2, Fraction(5, 7)):
        form = AffineForm.const(c)
        assert form == c and hash(form) == hash(c)
        assert len({form, c, Fraction(c)}) == 1
    # the variable name of a constant form does not matter
    assert hash(AffineForm(3, 0, 0, "xi")) == hash(AffineForm(3)) == hash(3)
    t = AffineForm.var_term("t")
    f = 2 * AffineForm.m_term() - t + 1
    assert hash(f) == hash(AffineForm(1, 2, -1, "t")) and f in {AffineForm(1, 2, -1, "t")}
    assert f - f == 0 and hash(f - f) == hash(0)


def test_affine_form_variable_rules():
    t = AffineForm.var_term("t")
    xi = AffineForm.var_term("xi")
    with pytest.raises(ValueError):
        _ = t + xi
    # constants mix with anything
    assert (AffineForm.const(2) + xi).variable == "xi"
    # substitution: replace t by an affine form of (m, xi)
    f = AffineForm(1, 2, 3, "t")
    g = f.substitute_var(AffineForm(0, Fraction(1, 2), 1, "xi"))
    assert g == AffineForm(1, Fraction(7, 2), 3, "xi")


def test_weight_param_shift_round_trip():
    w = WeightParam(Fraction(1, 2), Fraction(-2, 3), shifted=False)
    s = w.to_shifted()
    assert (s.x, s.y, s.shifted) == (Fraction(3, 2), Fraction(1, 3), True)
    assert s.to_unshifted() == w
    assert w.to_unshifted() is w
    assert s.to_shifted() is s


def test_kac_kazhdan_frozen():
    cd = CartanData(2, 2)
    # root (1,0): the line is q*x = m*q, i.e. shifted x = m
    assert kac_kazhdan(WeightParam(2, 7, True), RootVector(1, 0), 2, cd)
    assert not kac_kazhdan(WeightParam(Fraction(5, 2), 7, True), RootVector(1, 0), 2, cd)
    # unshifted coordinates go through the shift first
    assert kac_kazhdan(WeightParam(1, 6, False), RootVector(1, 0), 2, cd)
    with pytest.raises(ValueError):
        kac_kazhdan(WeightParam(2, 7, True), RootVector(1, 0), 0, cd)


def test_case_weights_on_line_identically():
    # the family weight satisfies the reducibility line as an identity
    # in (m, t), and concretely at rational samples
    for p, q in SIX_PAIRS:
        cd = CartanData(p, q)
        for case in (1, 2, 3, 4):
            for n in (1, 2, 3):
                w = case_weight(case, n, cd)
                root = family_root(case, n, cd)
                a, b = root.k1, root.k2
                lhs = q * a * w.x + p * b * w.y
                rhs = AffineForm.m_term(q * a * a - p * q * a * b + p * b * b)
                assert lhs == rhs
                for m in (1, 2):
                    for t in GENERIC_T_SAMPLES[:3]:
                        assert kac_kazhdan(w.at(m, t), root, m, cd)


def test_generic_samples_are_distinct_rationals():
    assert len(set(GENERIC_T_SAMPLES)) == 5
    assert all(isinstance(t, Fraction) for t in GENERIC_T_SAMPLES)
