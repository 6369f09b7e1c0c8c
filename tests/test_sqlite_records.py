"""Unit and property tests for record/key serialization."""

import enum
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import open_stack
from repro.errors import CorruptionError, DatabaseError
from repro.sqlite.records import (
    _decode_varint,
    _encode_varint,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    key_size_bytes,
    key_sort_tuple,
    record_size,
)
from repro.sqlite.sql.engine import Parameters

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


# A reference codec written apart from ``records``: one isinstance ladder per
# value, one decode_value call per value.  The codec is held to it byte for
# byte and error for error, on every value it accepts (a bool, an enum and a
# str subclass included, although bind makes them exact before a row is built).


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


class _Color(str, enum.Enum):
    RED = "red"

    def __str__(self):
        return "Color.RED"  # what str() would store; the record stores "red"


# Lengths on both sides of the one-byte varint, and subclasses of the SQL
# types, which bind makes exact.
_edge_values = st.one_of(
    sql_values,
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.sampled_from([126, 127, 128, 129, 300]).map(lambda size: "x" * size),
    st.sampled_from([126, 127, 128, 129, 300]).map(lambda size: b"y" * size),
    st.text(max_size=8).map(_Text),
    st.just(_Color.RED),
    st.sampled_from([127, 128, -128, -129, 2**63, -(2**63), 2**1030]),
    st.sampled_from([float("inf"), float("nan"), -0.0]),
)


class TestSinglePassCodecMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_edge_values, max_size=10))
    def test_same_bytes(self, values):
        encoded = encode_record(values)
        assert encoded == reference_encode_record(values)
        if all(type(value) in _EXACT_TYPES for value in values):
            assert key_size_bytes(tuple(values)) == len(encoded)
        else:
            with pytest.raises(DatabaseError, match="unsupported SQL value type"):
                key_size_bytes(tuple(values))
        assert encode_record(tuple(values)) == encoded
        assert outcome(decode_record, encoded) == outcome(reference_decode_record, encoded)

    def test_wide_record_and_unsupported_value(self):
        wide = tuple(range(200))  # a two-byte value count
        assert encode_record(wide) == reference_encode_record(wide)
        assert decode_record(encode_record(wide)) == wide
        assert outcome(encode_record, (object(),)) == outcome(reference_encode_record, (object(),))
        assert key_size_bytes(wide) == record_size(wide) == len(reference_encode_record(wide))

    def test_a_damaged_payload_always_raises(self):
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


class TestBindGivesWhatTheRecordStores:
    """``Parameters.bind`` makes each argument the exact value its record
    decodes to, type included, so a row a leaf cell keeps reads back as a
    stored one would."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_edge_values, max_size=6))
    def test_bound_value_is_the_decoded_value(self, values):
        params = Parameters()
        params.bind(values)
        stored = [decode_value(encode_value(value), 0)[0] for value in values]
        # repr: NaN equals itself, True is not 1; types: repr does not tell _Text from str.
        assert repr(list(params.values)) == repr(stored)
        assert [type(value) for value in params.values] == [type(value) for value in stored]

    def test_exact_arguments_pass_uncopied(self):
        values = [1, 2.5, "text", b"blob", None]
        params = Parameters()
        params.bind(values)
        assert params.values is values

    @pytest.mark.parametrize("value", [[1], object(), 1j])
    def test_a_value_of_no_sql_type_is_refused(self, value):
        with pytest.raises(DatabaseError, match="unsupported SQL value type"):
            Parameters().bind((1, value))


_EXACT_TYPES = (int, str, float, bytes, type(None))

# Exact-type values at every length boundary record_size computes.
_exact_edge_values = st.one_of(
    sql_values,
    st.integers(),
    st.sampled_from(
        [0, -1, 127, 128, -128, -129, 2**63, -(2**63), 2**64, -(2**64), 2**1014, 2**1015]
    ),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([126, 127, 128, 129, 300]).map(lambda size: "x" * size),
    st.sampled_from([42, 63, 64, 127, 128]).map(lambda size: "é" * size),
    st.text(),
    st.sampled_from([0, 127, 128, 300]).map(lambda size: b"y" * size),
)


class TestRecordSize:
    """``record_size`` is what a leaf cell that keeps its row charges its page,
    so it must equal the record's length exactly."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_exact_edge_values, max_size=10))
    def test_equals_the_encoded_length(self, values):
        row = tuple(values)
        assert record_size(row) == len(encode_record(row)) == key_size_bytes(row)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_edge_values, min_size=1, max_size=6))
    def test_a_value_of_another_type_takes_the_encoded_path(self, values):
        """A bool, an enum or a str subclass has no path of its own below bind,
        which makes it exact: ``record_size`` (so a leaf cell and a key's
        share of its page) rejects such a row, and sizes any other exactly."""
        row = tuple(values)
        if all(type(value) in _EXACT_TYPES for value in row):
            assert record_size(row) == key_size_bytes(row) == len(encode_record(row))
        else:
            with pytest.raises(DatabaseError, match="unsupported SQL value type"):
                record_size(row)


class TestStoredRowsRoundTrip:
    """What a table gives back is what its record decodes to, whichever form
    the leaf cell holds: a row kept as it is, a row with a ``bool`` or a
    ``str`` subclass (stored encoded), and a row that spills into overflow
    pages, inserted and updated, before and after a power cycle."""

    ROWS = [
        (1, 0, 0.0, "", b""),
        (2, 2**64, -0.0, "x" * 127, b"y" * 128),
        (3, -(2**63), float("nan"), "x" * 128, None),
        (4, 255, float("inf"), "üñïçødé", b"\x00\xff"),
        (5, True, 1.5, _Text("sub"), b"b"),
        (6, 7, _Level.HIGH, "spill " * 600, b"z" * 900),
    ]
    COLUMNS = ("id", "i", "r", "s", "b")
    UPDATES = [  # (rowid, {column: new value})
        (1, {"i": -1, "s": "y" * 128}),
        (2, {"s": "now it spills " * 300}),
        (6, {"s": "small again", "b": None}),
        (4, {"i": False}),
    ]

    @staticmethod
    def _read(db):
        return repr(db.execute("SELECT id, i, r, s, b FROM t ORDER BY id"))

    @pytest.mark.parametrize("mode", ["RBJ", "WAL", "X-FTL"])
    def test_rows_read_back_as_their_records_decode(self, mode):
        stack = open_stack(mode, num_blocks=128, pages_per_block=64)
        db = stack.open_database("rows.db")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, i INTEGER, r REAL, s TEXT, b BLOB)")
        db.execute("CREATE INDEX t_i ON t (i)")
        written = {}
        for row in self.ROWS:
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", row)
            written[row[0]] = row

        def expected():
            return repr([decode_record(encode_record(written[key])) for key in sorted(written)])

        assert self._read(db) == expected()
        for rowid, changes in self.UPDATES:
            assignments = ", ".join(f"{column} = ?" for column in changes)
            db.execute(f"UPDATE t SET {assignments} WHERE id = ?", (*changes.values(), rowid))
            row = list(written[rowid])
            for column, value in changes.items():
                row[self.COLUMNS.index(column)] = value
            written[rowid] = tuple(row)
        assert self._read(db) == expected()
        assert repr(db.execute("SELECT id, s FROM t WHERE i = ?", (-1,))) == repr([(1, "y" * 128)])
        stack.remount_after_crash()
        assert self._read(stack.open_database("rows.db")) == expected()


# One element of a key as ``key_sort_tuple`` orders it: past the int64 range,
# signed zeros and infinities included.
key_elements = st.one_of(
    st.none(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), 2.0**63, 0.5]),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=3),
)


def nested_sort_key(key: tuple) -> tuple:
    """The reference order: one ``(type class, value)`` pair per element
    (NULL < numbers < text < blob, numbers by value)."""
    classes = {type(None): 0, int: 1, float: 1, str: 2, bytes: 3}
    return tuple((classes[type(value)], 0 if value is None else value) for value in key)


class TestKeyOrdering:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(key_elements, min_size=1, max_size=4).map(tuple), min_size=2,
                    max_size=12))
    def test_flat_key_orders_as_the_nested_pairs(self, keys):
        """Sorting by the flat key and by the nested reference gives the same
        order (both sorts are stable, so ties keep their places too), and
        every pair compares the same way under both."""
        flat = [key_sort_tuple(key) for key in keys]
        nested = [nested_sort_key(key) for key in keys]
        positions = range(len(keys))
        assert sorted(positions, key=flat.__getitem__) == sorted(positions, key=nested.__getitem__)
        for i in positions:
            assert len(flat[i]) == 2 * len(keys[i])
            for j in positions:
                assert (flat[i] < flat[j], flat[i] == flat[j]) == (
                    nested[i] < nested[j],
                    nested[i] == nested[j],
                )

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
