"""Unit and property tests for record/key serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, DatabaseError
from repro.sqlite.records import (
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    key_size_bytes,
    key_sort_tuple,
)

sql_values = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, 0, 1, -1, 2**40, -(2**40), 3.14, -0.0, "", "hello", "üñïçødé", b"", b"\x00\xff"],
    )
    def test_round_trip(self, value):
        encoded = encode_value(value)
        decoded, offset = decode_value(encoded, 0)
        assert decoded == value
        assert offset == len(encoded)

    def test_bool_stored_as_integer(self):
        assert decode_value(encode_value(True), 0)[0] == 1
        assert decode_value(encode_value(False), 0)[0] == 0

    def test_unsupported_type_rejected(self):
        with pytest.raises(DatabaseError):
            encode_value(object())

    def test_truncated_payload_detected(self):
        encoded = encode_value("hello world")
        with pytest.raises(CorruptionError):
            decode_value(encoded[:-3], 0)

    def test_unknown_tag_detected(self):
        with pytest.raises(CorruptionError):
            decode_value(b"\x99", 0)


class TestRecordCodec:
    def test_round_trip(self):
        row = (1, "alice", None, 3.5, b"blob")
        assert decode_record(encode_record(row)) == row

    def test_empty_record(self):
        assert decode_record(encode_record(())) == ()

    def test_encoding_is_pinned_byte_for_byte(self):
        """Encoded sizes drive B-tree splits, so the bytes are part of the model.
        Covers every tag, bool-as-int, and a length on each side of the
        one-byte varint (127 / 128)."""
        row = (None, 0, -1, 2**40, True, 3.5, "", "h\u00e9llo", b"\x00\xff", "x" * 127, b"y" * 128)
        assert encode_record(row) == (
            b"\x0b\x00\x01\x01\x00\x01\x01\xff\x01\x06\x01\x00\x00\x00\x00\x00\x01\x01\x01"
            b"\x02@\x0c\x00\x00\x00\x00\x00\x00\x03\x00\x03\x06h\xc3\xa9llo\x04\x02\x00\xff"
            b"\x03\x7f" + b"x" * 127 + b"\x04\x80\x01" + b"y" * 128
        )
        assert decode_record(encode_record(row)) == row

    @pytest.mark.parametrize("cut", range(1, 12))
    def test_truncated_record_detected_at_every_value(self, cut):
        encoded = encode_record((7, "text", 2.5, b"blob", None))
        with pytest.raises(CorruptionError):
            decode_record(encoded[:-cut])

    def test_trailing_bytes_detected(self):
        encoded = encode_record((1,)) + b"\x00"
        with pytest.raises(CorruptionError):
            decode_record(encoded)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(sql_values, max_size=10))
    def test_round_trip_property(self, values):
        row = tuple(values)
        assert decode_record(encode_record(row)) == row


class TestKeyOrdering:
    def test_null_sorts_first(self):
        assert key_sort_tuple((None,)) < key_sort_tuple((-(2**70),))

    def test_numbers_before_text_before_blob(self):
        assert key_sort_tuple((10**9,)) < key_sort_tuple(("",))
        assert key_sort_tuple(("zzz",)) < key_sort_tuple((b"",))

    def test_int_float_compare_numerically(self):
        assert key_sort_tuple((1,)) < key_sort_tuple((1.5,)) < key_sort_tuple((2,))

    def test_unorderable_key_rejected(self):
        with pytest.raises(DatabaseError):
            key_sort_tuple((object(),))

    def test_key_size_positive(self):
        assert key_size_bytes((1, "abc")) > 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(), st.text(max_size=8)), min_size=1, max_size=3),
        st.lists(st.one_of(st.integers(), st.text(max_size=8)), min_size=1, max_size=3),
    )
    def test_ordering_total_and_consistent(self, a, b):
        key_a, key_b = tuple(a), tuple(b)
        try:
            sort_a, sort_b = key_sort_tuple(key_a), key_sort_tuple(key_b)
        except TypeError:
            pytest.skip("different-length keys with mixed tails")
        if sort_a == sort_b:
            return
        assert (sort_a < sort_b) != (sort_b < sort_a)
