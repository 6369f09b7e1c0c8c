"""Record and key serialization.

Rows are tuples of SQL values of exact types (``None``, ``int``, ``float``,
``str``, ``bytes``).  A value enters the engine as a statement argument, which
``Parameters.bind`` (``repro.sqlite.sql.engine``) makes exact with
:func:`sql_values`, as SQLite types a value when it is bound; nothing below
the connection sees another type.

A row's record is compact bytes, a type tag and a varint length per value —
close in spirit to SQLite's record format, which is what gives tuples their
on-page byte footprint (and therefore drives page splits and
pages-touched-per-transaction, the quantity the paper's workload tables
report).  For that reason the encoding is pinned byte for byte: a value that
encoded one byte longer would move splits, and with them every recorded sim
counter and state digest (``tests/test_sqlite_records.py`` holds golden
bytes, a truncation at every value, and a reference codec the codec must
match on random and damaged records).

A B-tree leaf cell keeps a row whose record fits ``max_local`` as the tuple it
is (``repro.sqlite.btree``, cell layout), so the codec runs only for a row
that spills into overflow pages.  Either way a row takes its record's length
of its page's budget; :func:`record_size` computes it by arithmetic, and a key
is sized the same way.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.errors import CorruptionError, DatabaseError

_TAG_NULL, _TAG_INT, _TAG_FLOAT, _TAG_TEXT, _TAG_BLOB = range(5)

SqlValue = None | int | float | str | bytes

_EXACT_TYPES = frozenset((type(None), int, float, str, bytes))
# A subclass of an SQL type becomes its base type's value, by the base type's
# own method: ``str()`` would call what a ``(str, Enum)`` overrides.
_AS_EXACT = (
    (int, int.__index__), (float, float.__float__), (str, str.__str__), (bytes, bytes.__bytes__)
)


def sql_value(value: Any) -> SqlValue:
    """``value`` as the exact SQL value its record decodes to; a value of no
    SQL type raises :class:`DatabaseError`, as ``sqlite3`` does at bind."""
    if type(value) in _EXACT_TYPES:
        return value
    for base, exact in _AS_EXACT:
        if isinstance(value, base):
            return exact(value)
    raise DatabaseError(f"unsupported SQL value type: {type(value).__name__}")


def sql_values(values: Sequence[Any]) -> Sequence[SqlValue]:
    """``values`` as exact SQL values: ``values`` itself when every one
    already is (one type check each, no copy), else a tuple of
    :func:`sql_value` of each."""
    for value in values:
        if type(value) not in _EXACT_TYPES:
            return tuple(map(sql_value, values))
    return values


def _encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError("varint must be non-negative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CorruptionError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _tagged(tag: int, payload: bytes) -> bytes:
    """tag + varint(len(payload)) + payload."""
    return bytes((tag,)) + _encode_varint(len(payload)) + payload


def encode_value(value: SqlValue) -> bytes:
    """Encode one SQL value as tag + payload."""
    if value is None:
        return bytes((_TAG_NULL,))
    if isinstance(value, int):  # SQLite stores booleans as integers
        return _tagged(_TAG_INT, value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True))
    if isinstance(value, float):
        return bytes((_TAG_FLOAT,)) + struct.pack(">d", value)
    if isinstance(value, str):
        return _tagged(_TAG_TEXT, value.encode("utf-8"))
    if isinstance(value, bytes):
        return _tagged(_TAG_BLOB, value)
    raise DatabaseError(f"unsupported SQL value type: {type(value).__name__}")


def decode_value(data: bytes, offset: int) -> tuple[SqlValue, int]:
    """Decode one value at ``offset``; returns (value, next_offset)."""
    if offset >= len(data):
        raise CorruptionError("truncated record")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_INT:
        length, offset = _decode_varint(data, offset)
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise CorruptionError("truncated integer payload")
        return int.from_bytes(payload, "big", signed=True), offset + length
    if tag == _TAG_FLOAT:
        if offset + 8 > len(data):
            raise CorruptionError("truncated float payload")
        return struct.unpack_from(">d", data, offset)[0], offset + 8
    if tag == _TAG_TEXT:
        length, offset = _decode_varint(data, offset)
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise CorruptionError("truncated text payload")
        return payload.decode("utf-8"), offset + length
    if tag == _TAG_BLOB:
        length, offset = _decode_varint(data, offset)
        payload = data[offset : offset + length]
        if len(payload) != length:
            raise CorruptionError("truncated blob payload")
        return bytes(payload), offset + length
    raise CorruptionError(f"unknown value tag {tag}")


def encode_record(values: Sequence[SqlValue]) -> bytes:
    """Encode a row: value count, then each value."""
    return _encode_varint(len(values)) + b"".join(map(encode_value, values))


def decode_record(data: bytes) -> tuple[SqlValue, ...]:
    """Decode a row produced by :func:`encode_record`."""
    count, offset = _decode_varint(data, 0)
    values = []
    for _ in range(count):
        value, offset = decode_value(data, offset)
        values.append(value)
    if offset != len(data):
        raise CorruptionError("trailing bytes after record")
    return tuple(values)


def row_of(payload: tuple | bytes) -> tuple[SqlValue, ...]:
    """The row a table tree holds: a row kept as it is, a record decoded."""
    return payload if type(payload) is tuple else decode_record(payload)


def record_size(row: Sequence[SqlValue]) -> int:
    """The length of ``encode_record(row)``, by arithmetic (an ``int`` sized
    from its ``bit_length``, ASCII text by its ``len``); a value that is not
    of an exact SQL type raises :class:`DatabaseError`."""
    count = len(row)
    size = 1 if count < 0x80 else len(_encode_varint(count))
    for value in row:
        kind = type(value)
        if kind is int:
            length = (value.bit_length() + 8) >> 3
        elif kind is str:
            length = len(value) if value.isascii() else len(value.encode("utf-8"))
        elif kind is float:
            size += 9
            continue
        elif value is None:
            size += 1
            continue
        elif kind is bytes:
            length = len(value)
        else:
            raise DatabaseError(f"unsupported SQL value type: {kind.__name__}")
        size += (2 if length < 0x80 else 1 + len(_encode_varint(length))) + length
    return size


# --------------------------------------------------------------------- keys

# A key takes its record's length of its page's budget.
key_size_bytes = record_size

_KEY_ORDER = {type(None): 0, int: 1, float: 1, str: 2, bytes: 3}


def key_sort_tuple(key: tuple) -> tuple:
    """A tuple that sorts keys with SQLite's cross-type ordering.

    NULL < numbers < text < blob; numbers compare numerically across
    int/float.  The tuple is flat, two items per element: ``(c0, v0, c1,
    v1, ...)``, ``c`` the element's type class and ``v`` its value (``0``
    for NULL).  Tuples compare item by item, so it orders keys as a tuple of
    ``(c, v)`` pairs would, at one container per key; a prefix of ``n``
    elements is ``[: 2 * n]``.
    """
    out = []
    for value in key:
        type_class = _KEY_ORDER.get(type(value))
        if type_class is None:
            raise DatabaseError(f"unorderable key element: {type(value).__name__}")
        out += (type_class, value if type_class != 0 else 0)
    return tuple(out)
