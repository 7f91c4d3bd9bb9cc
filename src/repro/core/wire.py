"""Varint-based wire encoding for NetRPC messages.

A protobuf-style binary format: varints for integers (zigzag for signed
values), 8-byte IEEE doubles for floats, and length-delimited byte
strings.  The RPC layer uses it to marshal non-IEDT message fields into
the opaque packet payload, exactly as the paper's gRPC plugin would.
"""

from __future__ import annotations

import struct
from typing import Tuple

__all__ = [
    "encode_varint", "decode_varint",
    "zigzag", "unzigzag",
    "encode_signed", "decode_signed",
    "encode_double", "decode_double",
    "encode_bytes", "decode_bytes",
]


# Most varints on the RPC path are field headers, lengths and small
# counters: one byte, served from a table instead of the LEB128 loop.
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode_varint(value: int) -> bytes:
    """LEB128 encoding of a non-negative integer."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError("varints encode non-negative integers; "
                         "use encode_signed for signed values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Returns (value, new_offset)."""
    if offset < len(data):
        byte = data[offset]
        if byte < 0x80:
            return byte, offset + 1
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def zigzag(value: int) -> int:
    """Map a signed integer to unsigned zigzag form."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def encode_signed(value: int) -> bytes:
    return encode_varint(zigzag(value))


def decode_signed(data: bytes, offset: int = 0) -> Tuple[int, int]:
    raw, offset = decode_varint(data, offset)
    return unzigzag(raw), offset


def encode_double(value: float) -> bytes:
    return struct.pack("<d", value)


def decode_double(data: bytes, offset: int = 0) -> Tuple[float, int]:
    if offset + 8 > len(data):
        raise ValueError("truncated double")
    (value,) = struct.unpack_from("<d", data, offset)
    return value, offset + 8


def encode_bytes(value: bytes) -> bytes:
    return encode_varint(len(value)) + value


def decode_bytes(data: bytes, offset: int = 0) -> Tuple[bytes, int]:
    length, offset = decode_varint(data, offset)
    if offset + length > len(data):
        raise ValueError("truncated byte string")
    return data[offset:offset + length], offset + length
