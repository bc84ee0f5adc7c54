"""Unit tests for message determinants."""

import pytest

from repro.causality.determinant import Determinant


class TestDeterminant:
    def test_fields_and_ids(self):
        det = Determinant(sender=1, ssn=5, receiver=2, rsn=7)
        assert det.message_id == (1, 5)
        assert det.delivery_id == (2, 7)

    def test_round_trip_tuple(self):
        # the plain-data form checkpoint images and trace values hold
        det = Determinant(sender=1, ssn=5, receiver=2, rsn=7)
        plain = tuple(det)
        assert type(plain) is tuple and plain == (1, 5, 2, 7)
        assert Determinant(*plain) == det

    def test_ordering_is_total(self):
        a = Determinant(sender=0, ssn=0, receiver=1, rsn=0)
        b = Determinant(sender=0, ssn=1, receiver=1, rsn=1)
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_frozen(self):
        det = Determinant(sender=0, ssn=0, receiver=1, rsn=0)
        with pytest.raises(AttributeError):
            det.ssn = 3

    def test_rejects_self_delivery(self):
        with pytest.raises(ValueError):
            Determinant(sender=1, ssn=0, receiver=1, rsn=0)

    def test_rejects_negative_sequence_numbers(self):
        with pytest.raises(ValueError):
            Determinant(sender=0, ssn=-1, receiver=1, rsn=0)
        with pytest.raises(ValueError):
            Determinant(sender=0, ssn=0, receiver=1, rsn=-1)

    def test_str_is_compact(self):
        det = Determinant(sender=0, ssn=3, receiver=1, rsn=9)
        assert "0" in str(det) and "3" in str(det) and "9" in str(det)
