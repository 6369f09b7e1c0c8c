"""Record and key serialization.

Rows are tuples of SQL values (None, int, float, str, bytes).  They are
encoded to compact bytes for storage in B-tree cells, with a type tag and a
varint length per value — close in spirit to SQLite's record format, which
is what gives tuples their on-page byte footprint (and therefore drives
page splits and pages-touched-per-transaction, the quantity the paper's
workload tables report).

For that reason the encoding is pinned byte for byte: a value that encoded one
byte longer would move splits, and with them every recorded sim counter and
state digest.  The codec may get faster; its output, and the error it raises
for each malformed input, may not change (``tests/test_sqlite_records.py``
holds golden bytes and a truncation at every value).
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


def encode_value(value: SqlValue) -> bytes:
    """Encode one SQL value as tag + payload."""
    if value is None:
        return bytes([_TAG_NULL])
    if isinstance(value, bool):
        # SQLite stores booleans as integers.
        return encode_value(int(value))
    if isinstance(value, int):
        payload = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        return bytes([_TAG_INT]) + _encode_varint(len(payload)) + payload
    if isinstance(value, float):
        return bytes([_TAG_FLOAT]) + struct.pack(">d", value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([_TAG_TEXT]) + _encode_varint(len(payload)) + payload
    if isinstance(value, bytes):
        return bytes([_TAG_BLOB]) + _encode_varint(len(value)) + value
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
    out = bytearray(_encode_varint(len(values)))
    for value in values:
        out.extend(encode_value(value))
    return bytes(out)


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
    """Encoded size of a key tuple (used for page byte budgets)."""
    return len(encode_record(key))
