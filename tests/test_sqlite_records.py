"""Unit and property tests for record/key serialization."""

import enum
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, DatabaseError
from repro.sqlite import records
from repro.sqlite.records import (
    ROW_MEMO_ENTRIES,
    _decode_varint,
    _encode_varint,
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


# The codec as it was before it became single-pass: one isinstance ladder per
# value, one decode_value call per value.  Kept as the reference the fast codec
# is held to, byte for byte and error for error.


def reference_encode_value(value):
    if value is None:
        return bytes([0])
    if isinstance(value, bool):
        return reference_encode_value(int(value))
    if isinstance(value, int):
        payload = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        return bytes([1]) + _encode_varint(len(payload)) + payload
    if isinstance(value, float):
        return bytes([2]) + struct.pack(">d", value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([3]) + _encode_varint(len(payload)) + payload
    if isinstance(value, bytes):
        return bytes([4]) + _encode_varint(len(value)) + value
    raise DatabaseError(f"unsupported SQL value type: {type(value).__name__}")


def reference_encode_record(values):
    out = bytearray(_encode_varint(len(values)))
    for value in values:
        out.extend(reference_encode_value(value))
    return bytes(out)


def reference_decode_record(data):
    count, offset = _decode_varint(data, 0)
    values = []
    for _ in range(count):
        value, offset = decode_value(data, offset)
        values.append(value)
    if offset != len(data):
        raise CorruptionError("trailing bytes after record")
    return tuple(values)


def outcome(function, argument):
    try:
        result = function(argument)
    except Exception as error:
        return type(error).__name__, str(error)
    # repr: NaN equals itself, 1 is not 1.0; types: repr does not tell _Text from str.
    return repr(result), [type(value) for value in result]


class _Level(enum.IntEnum):
    LOW = 3
    HIGH = 300


class _Text(str):
    pass


# Lengths on both sides of the one-byte varint, and subclasses of every type
# the exact-type dispatch tests for first.
_edge_values = st.one_of(
    sql_values,
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.sampled_from([126, 127, 128, 129, 300]).map(lambda size: "x" * size),
    st.sampled_from([126, 127, 128, 129, 300]).map(lambda size: b"y" * size),
    st.text(max_size=8).map(_Text),
    st.sampled_from([127, 128, -128, -129, 2**63, -(2**63), 2**1030]),
    st.sampled_from([float("inf"), float("nan"), -0.0]),
)


class TestSinglePassCodecMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_edge_values, max_size=10))
    def test_same_bytes(self, values):
        encoded = encode_record(values)
        assert encoded == reference_encode_record(values)
        assert key_size_bytes(tuple(values)) == len(encoded)
        expected = outcome(reference_decode_record, encoded)
        # Memo hit: a tuple of exact SQL types seeds the memo as it is encoded;
        # a bool, an enum or a str subclass must not.
        records._rows.clear()
        assert encode_record(tuple(values)) == encoded
        exact = all(type(value) in (int, str, float, bytes, type(None)) for value in values)
        assert (encoded in records._rows) == exact
        assert outcome(decode_record, encoded) == expected
        # Memo miss: a real decode, then the hit it leaves behind.
        records._rows.clear()
        assert outcome(decode_record, encoded) == expected
        assert outcome(decode_record, encoded) == expected

    def test_wide_record_and_unsupported_value(self):
        wide = tuple(range(200))  # a two-byte value count
        assert encode_record(wide) == reference_encode_record(wide)
        assert decode_record(encode_record(wide)) == wide
        assert outcome(encode_record, (object(),)) == outcome(reference_encode_record, (object(),))
        assert key_size_bytes(wide) == len(reference_encode_record(wide))

    def test_memo_stays_bounded_and_never_keeps_a_damaged_payload(self):
        records._rows.clear()
        for i in range(ROW_MEMO_ENTRIES + 100):
            payload = reference_encode_record((i, "row"))
            assert decode_record(payload) == (i, "row")
            assert len(records._rows) <= ROW_MEMO_ENTRIES
        damaged = reference_encode_record((1, "text"))[:-1]
        expected = outcome(reference_decode_record, damaged)
        assert expected[0] == "CorruptionError"
        assert outcome(decode_record, damaged) == expected
        assert outcome(decode_record, damaged) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_edge_values, min_size=1, max_size=6), st.data())
    def test_same_error_for_every_damaged_record(self, values, data):
        """Truncated, extended and bit-flipped records: the fast path takes only
        what is whole, so each one raises (or decodes to) what it always did."""
        encoded = bytearray(encode_record(values))
        damage = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
        if damage == "truncate":
            del encoded[data.draw(st.integers(0, len(encoded) - 1)) :]
        elif damage == "extend":
            encoded += data.draw(st.binary(min_size=1, max_size=4))
        else:
            for position in data.draw(
                st.lists(st.integers(0, len(encoded) - 1), min_size=1, max_size=3)
            ):
                encoded[position] ^= 1 << data.draw(st.integers(0, 7))
        damaged = bytes(encoded)
        assert outcome(decode_record, damaged) == outcome(reference_decode_record, damaged)


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
