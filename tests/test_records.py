"""The records' contract: read-only fields, keyword construction with
defaults, hashing by value and a fixed repr."""

from fractions import Fraction

import pytest

from rank2verma.cartan import CartanData, ReflectionWord, RootVector
from rank2verma.gamma import AffineForm, ExponentWord, WeightParam
from rank2verma.products import VerificationRecord


def _skipped_record():
    return VerificationRecord(
        case=1, n=1, m=1, p=2, q=2, target="H", t=Fraction(1, 3), xi=Fraction(0),
        grade=(1, 0), quotient_dim=None, kernel_dim=None, status="skipped", scalar=None,
    )


@pytest.mark.parametrize(
    "record, field",
    [(RootVector(1, 0), "k1"), (WeightParam(1, 2), "shifted"), (_skipped_record(), "status")],
)
def test_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_keyword_construction_and_defaults():
    assert WeightParam(x=1, y=2) == WeightParam(1, 2, False)
    assert WeightParam(x=1, y=2).shifted is False
    word = ExponentWord(case=1, n=1, variable="xi", letters=(1,), exponents=(AffineForm.m_term(),))
    assert word.degenerate_rewrite is False
    rec = _skipped_record()
    assert rec.status == "skipped" and rec.grade == (1, 0)
    assert (rec.reason, rec.weight, rec.vector, rec.projection, rec.product) == (None,) * 5


def test_replace_on_records_that_count_letters():
    # ReflectionWord and ExponentWord give len in letters, not fields
    assert ReflectionWord(1, 2)._replace(count=3) == ReflectionWord(1, 3)
    with pytest.raises(ValueError):
        ReflectionWord(1, 2)._replace(start=3)
    word = ExponentWord(case=1, n=1, variable="xi", letters=(1,), exponents=(AffineForm.m_term(),))
    assert word._replace(degenerate_rewrite=True).degenerate_rewrite is True


def test_equal_records_hash_equal():
    assert CartanData(2, 3) == CartanData(p=2, q=3)
    # the hash of the field tuple, as the records have always hashed
    assert hash(CartanData(2, 3)) == hash(CartanData(p=2, q=3)) == hash((2, 3))
    assert hash(_skipped_record()) == hash(_skipped_record())
    cache = {CartanData(2, 3): "kept"}
    assert cache[CartanData(2, 3)] == "kept"
    assert CartanData(3, 2) not in cache


def test_repr_is_fixed():
    assert repr(WeightParam(1, 2)) == "WeightParam(x=1, y=2, shifted=False)"
    assert repr(RootVector(1, 0)) == "RootVector(k1=1, k2=0)"
