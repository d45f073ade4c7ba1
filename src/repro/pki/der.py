"""A deterministic tag-length-value encoding ("DER-lite").

Real DER drags in ASN.1 object identifiers and a large grammar; the
protocols in this library only need a *canonical, self-describing* encoding
of integers, byte strings, UTF-8 strings, booleans and sequences, so that
signatures over encoded structures are stable.  The format:

``tag (1 byte) || length (4 bytes, big-endian) || value``

Sequences nest by concatenating encoded elements in the value field.  The
encoding of a given Python value is unique, which is the property signing
relies on.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple, Type

from repro.errors import EncodingError, ReproError

TAG_INT = 0x02
TAG_BYTES = 0x04
TAG_NULL = 0x05
TAG_UTF8 = 0x0C
TAG_BOOL = 0x01
TAG_SEQ = 0x30

_MAX_LENGTH = 1 << 26  # 64 MiB sanity bound on any single element


def _header(tag: int, length: int) -> bytes:
    if length > _MAX_LENGTH:
        raise EncodingError(f"element too large: {length}")
    return struct.pack(">BI", tag, length)


def encode(value: Any) -> bytes:
    """Encode ``value`` canonically.

    Supported types: ``int`` (signed), ``bytes``, ``str``, ``bool``,
    ``None`` and ``list``/``tuple`` (encoded as sequences).
    """
    if value is None:
        return _header(TAG_NULL, 0)
    if isinstance(value, bool):  # must precede int check
        return _header(TAG_BOOL, 1) + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        length = max(1, (value.bit_length() + 8) // 8)  # room for sign bit
        body = value.to_bytes(length, "big", signed=True)
        return _header(TAG_INT, len(body)) + body
    if isinstance(value, (bytes, bytearray, memoryview)):
        body = bytes(value)
        return _header(TAG_BYTES, len(body)) + body
    if isinstance(value, str):
        body = value.encode("utf-8")
        return _header(TAG_UTF8, len(body)) + body
    if isinstance(value, (list, tuple)):
        body = b"".join(encode(item) for item in value)
        return _header(TAG_SEQ, len(body)) + body
    raise EncodingError(f"cannot encode {type(value).__name__}")


def _decode_one(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset + 5 > len(data):
        raise EncodingError("truncated TLV header")
    tag, length = struct.unpack_from(">BI", data, offset)
    offset += 5
    if length > _MAX_LENGTH:
        raise EncodingError(f"declared length too large: {length}")
    if offset + length > len(data):
        raise EncodingError("truncated TLV value")
    body = data[offset:offset + length]
    offset += length
    if tag == TAG_NULL:
        if length != 0:
            raise EncodingError("NULL with non-empty body")
        return None, offset
    if tag == TAG_BOOL:
        if length != 1 or body not in (b"\x00", b"\x01"):
            raise EncodingError("malformed boolean")
        return body == b"\x01", offset
    if tag == TAG_INT:
        if length == 0:
            raise EncodingError("empty integer")
        return int.from_bytes(body, "big", signed=True), offset
    if tag == TAG_BYTES:
        return body, offset
    if tag == TAG_UTF8:
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise EncodingError("invalid UTF-8 string") from exc
    if tag == TAG_SEQ:
        items: List[Any] = []
        inner = 0
        while inner < length:
            item, new_inner = _decode_one(body, inner)
            items.append(item)
            inner = new_inner
        return items, offset
    raise EncodingError(f"unknown tag 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Decode a single encoded value; rejects trailing garbage."""
    try:
        value, consumed = _decode_one(data, 0)
    except RecursionError as exc:
        # A few kilobytes of nested sequence headers outrun the stack.
        raise EncodingError("sequences nested too deeply") from exc
    if consumed != len(data):
        raise EncodingError(f"{len(data) - consumed} trailing bytes after TLV")
    return value


def _fits(value: Any, shape: Any) -> bool:
    if isinstance(shape, tuple):
        return (type(value) is list and len(value) == len(shape)
                and all(_fits(item, kind) for item, kind in zip(value, shape)))
    if isinstance(shape, list):
        return type(value) is list and all(_fits(item, shape[0])
                                           for item in value)
    return type(value) is shape


def decode_record(data: bytes, shape: Tuple[Any, ...],
                  error: Type[ReproError], what: str) -> List[Any]:
    """Decode ``data`` as a sequence laid out as ``shape``.

    ``shape`` has one entry per field: a type, matched exactly (a
    ``bool`` is not an ``int``), a one-element list ``[kind]`` for a
    sequence of ``kind``, or a nested tuple for a nested record.  Every
    failure, from truncated bytes to a wrong field count or type,
    raises the caller's ``error`` as ``"malformed <what>: ..."``, so a
    decoder fed hostile bytes never leaks a ``ValueError`` or
    ``TypeError``.
    """
    if not isinstance(data, bytes):
        raise error(f"malformed {what}: expected bytes, "
                    f"got {type(data).__name__}")
    try:
        fields = decode(data)
    except EncodingError as exc:
        raise error(f"malformed {what}: {exc}") from exc
    if not _fits(fields, shape):
        raise error(f"malformed {what}: wrong field layout")
    return fields
