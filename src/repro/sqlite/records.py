"""Record and key serialization.

Rows are tuples of SQL values (None, int, float, str, bytes).  Their record
is compact bytes, a type tag and a varint length per value — close in spirit
to SQLite's record format, which is what gives tuples their on-page byte
footprint (and therefore drives page splits and pages-touched-per-transaction,
the quantity the paper's workload tables report).

For that reason the encoding is pinned byte for byte: a value that encoded one
byte longer would move splits, and with them every recorded sim counter and
state digest.  The codec may get faster; its output, and the error it raises
for each malformed input, may not change (``tests/test_sqlite_records.py``
holds golden bytes, a truncation at every value, and the one-value-at-a-time
codec this one replaced as the reference it must match on random and damaged
records).  Speed comes from taking the common case first — exact ``int`` /
``str`` / ``float`` before the ``isinstance`` ladder, a one-byte length, a
whole payload — and leaving everything else to the general path.

A B-tree leaf cell keeps a row of exact SQL types as the tuple it is
(``repro.sqlite.btree``, cell layout), so the codec runs only where bytes are
stored: a row that spills into overflow pages, and a row holding a value of
another type (a ``bool``, an enum, a ``str`` subclass would not decode to
itself).  Either way a row takes its record's length of its page's budget;
:func:`record_size` computes it by arithmetic, and :func:`key_size_bytes`
sizes keys the same way.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.errors import CorruptionError, DatabaseError

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_TEXT = 3
_TAG_BLOB = 4

SqlValue = None | int | float | str | bytes


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


_BYTE = [bytes((i,)) for i in range(256)]
_NULL, _INT, _FLOAT, _TEXT, _BLOB = (_BYTE[tag] for tag in range(5))
_INT_HEAD = [_INT + _BYTE[length] for length in range(0x80)]  # tag + one-byte length
_TEXT_HEAD = [_TEXT + _BYTE[length] for length in range(0x80)]
_pack_double = struct.Struct(">d").pack


def _tagged(tag: bytes, payload: bytes) -> bytes:
    """tag + varint(len(payload)) + payload; lengths under 128 are one byte."""
    length = len(payload)
    if length < 0x80:
        return tag + _BYTE[length] + payload
    return tag + _encode_varint(length) + payload


def encode_value(value: SqlValue) -> bytes:
    """Encode one SQL value as tag + payload."""
    kind = type(value)  # exact types first; subclasses (bool, enums) below
    if kind is int:
        return _tagged(_INT, value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True))
    if kind is str:
        return _tagged(_TEXT, value.encode("utf-8"))
    if kind is float:
        return _FLOAT + _pack_double(value)
    if value is None:
        return _NULL
    if kind is bytes:
        return _tagged(_BLOB, value)
    if isinstance(value, int):  # SQLite stores booleans as integers
        return encode_value(int(value))
    if isinstance(value, float):
        return _FLOAT + _pack_double(value)
    if isinstance(value, str):
        return _tagged(_TEXT, value.encode("utf-8"))
    if isinstance(value, bytes):
        return _tagged(_BLOB, value)
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
    """Encode a row: value count, then each value.

    One pass: an exact ``int`` whose length fits one byte, an exact ``str``,
    a ``float`` and ``None`` are encoded in the loop; any other value goes
    through :func:`encode_value`.
    """
    count = len(values)
    parts = [_BYTE[count] if count < 0x80 else _encode_varint(count)]
    append = parts.append
    for value in values:
        kind = type(value)
        if kind is int:
            size = (value.bit_length() + 8) >> 3
            if size < 0x80:
                append(_INT_HEAD[size])
                append(value.to_bytes(size, "big", signed=True))
                continue
        elif kind is str:
            payload = value.encode("utf-8")
            length = len(payload)
            append(_TEXT_HEAD[length] if length < 0x80 else _TEXT + _encode_varint(length))
            append(payload)
            continue
        elif kind is float:
            append(_FLOAT)
            append(_pack_double(value))
            continue
        elif value is None:
            append(_NULL)
            continue
        append(encode_value(value))
    return b"".join(parts)


def decode_record(data: bytes) -> tuple[SqlValue, ...]:
    """Decode a row produced by :func:`encode_record`.

    One pass: an INT or TEXT whose length fits one byte and whose payload is
    all there (nearly every value of every row) is decoded in the loop; any
    other value, and every malformed input, goes through :func:`decode_value`,
    so each damaged record raises what it always raised.
    """
    count, offset = _decode_varint(data, 0)
    end = len(data)
    values = []
    append = values.append
    from_bytes = int.from_bytes
    for _ in range(count):
        if offset + 1 < end:
            length = data[offset + 1]
            stop = offset + 2 + length
            if length < 0x80 and stop <= end:
                tag = data[offset]
                if tag == _TAG_INT:
                    append(from_bytes(data[offset + 2 : stop], "big", signed=True))
                    offset = stop
                    continue
                if tag == _TAG_TEXT:
                    append(data[offset + 2 : stop].decode("utf-8"))
                    offset = stop
                    continue
        value, offset = decode_value(data, offset)
        append(value)
    if offset != end:
        raise CorruptionError("trailing bytes after record")
    return tuple(values)


def row_of(payload: tuple | bytes) -> tuple[SqlValue, ...]:
    """The row a table tree holds: a row kept as it is, a record decoded."""
    return payload if type(payload) is tuple else decode_record(payload)


def record_size(row: Sequence[SqlValue]) -> int | None:
    """``encode_record(row)``'s length by arithmetic (an ``int`` sized from its
    ``bit_length``, ASCII text by its ``len``), or None if a value's type is
    not an exact SQL type (``int``, ``str``, ``float``, ``None``, ``bytes``)."""
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
            return None
        size += (2 if length < 0x80 else 1 + len(_encode_varint(length))) + length
    return size


# --------------------------------------------------------------------- keys

_KEY_ORDER = {type(None): 0, int: 1, float: 1, str: 2, bytes: 3}


def key_sort_tuple(key: tuple) -> tuple:
    """A tuple that sorts keys with SQLite's cross-type ordering.

    NULL < numbers < text < blob; numbers compare numerically across
    int/float.  Each element becomes ``(type_class, value)``.
    """
    out = []
    for value in key:
        type_class = _KEY_ORDER.get(type(value))
        if type_class is None:
            if isinstance(value, bool):
                type_class = 1
                value = int(value)
            else:
                raise DatabaseError(f"unorderable key element: {type(value).__name__}")
        out.append((type_class, value if type_class != 0 else 0))
    return tuple(out)


def key_size_bytes(key: tuple) -> int:
    """Encoded size of a key tuple (used for page byte budgets), by
    :func:`record_size` or, for a value of a non-exact type, :func:`encode_value`."""
    size = record_size(key)
    if size is None:
        size = len(_encode_varint(len(key))) + sum(len(encode_value(value)) for value in key)
    return size
