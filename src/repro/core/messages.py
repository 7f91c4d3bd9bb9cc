"""Message descriptors and dynamic message objects.

A :class:`MessageDescriptor` is built by the IDL parser (one per
``message`` block); calling it produces :class:`Message` instances with
attribute access, validation, equality, and a binary wire format.

IEDT fields (``netrpc.FPArray`` etc.) are first-class: the stubs pull
them out of a message to feed the INC channel, while scalar fields are
marshalled into the opaque payload.

Everything a field's type decides — the Python type it holds, its
default, how it is written to and read from the wire — is resolved once,
when the :class:`FieldDescriptor` is built; constructing, marshalling and
parsing a message then only look those up.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import wire
from .iedt import IEDTKind, default_value, iedt_kind, is_iedt

__all__ = ["FieldDescriptor", "MessageDescriptor", "Message",
           "SCALAR_TYPES"]

SCALAR_TYPES = {
    "int32", "int64", "uint32", "uint64", "sint32", "sint64",
    "bool", "double", "float", "string", "bytes",
}

_WIRE_VARINT = 0
_WIRE_FIXED64 = 1
_WIRE_BYTES = 2

# Scalar type name -> (Python type, default); every other scalar is an int.
_SCALAR_PYTHON = {
    "double": (float, 0.0), "float": (float, 0.0), "bool": (bool, False),
    "string": (str, ""), "bytes": (bytes, b""),
}

Decoder = Callable[[bytes, int], Tuple[Any, int]]


class FieldDescriptor:
    """One field of a message: name, type, tag — and its compiled codec.

    ``py_type`` is the exact Python type a value normally has (``list`` /
    ``dict`` for IEDT kinds); ``encode(value)`` returns the field's wire
    bytes, header included; ``decode(data, offset)`` reads a value whose
    header announced ``wire_type`` and returns ``(value, new_offset)``.
    """

    __slots__ = ("name", "type_name", "tag", "kind", "py_type", "encode",
                 "wire_type", "decode", "_default")

    def __init__(self, name: str, type_name: str, tag: int):
        if not name.isidentifier():
            raise ValueError(f"invalid field name {name!r}")
        if tag < 1:
            raise ValueError(f"field tags start at 1, got {tag}")
        if type_name not in SCALAR_TYPES and not is_iedt(type_name):
            raise ValueError(
                f"unknown field type {type_name!r} for field {name!r}")
        self.name = name
        self.type_name = type_name
        self.tag = tag
        self.kind: Optional[IEDTKind] = (
            iedt_kind(type_name) if is_iedt(type_name) else None)
        if self.kind is not None:
            self.py_type: type = type(default_value(self.kind))
            self._default = None        # a fresh container per message
        else:
            self.py_type, self._default = _SCALAR_PYTHON.get(type_name,
                                                             (int, 0))
        self.wire_type, self.decode = _decoder(type_name, self.kind)
        header = wire.encode_varint(tag << 3 | self.wire_type)
        self.encode: Callable[[Any], bytes] = _encoder(type_name, self.kind,
                                                       header)

    @property
    def is_iedt(self) -> bool:
        return self.kind is not None

    def validate(self, value: Any) -> Any:
        expected = self.py_type
        if type(value) is expected:
            return value
        if self.kind is not None:
            if not isinstance(value, expected):
                raise TypeError(f"{self.name}: expected {expected.__name__} "
                                f"for {self.type_name}")
            return value
        if expected is float and isinstance(value, int) and \
                not isinstance(value, bool):
            return float(value)
        if expected is int and isinstance(value, bool):
            raise TypeError(f"{self.name}: expected int, got bool")
        if not isinstance(value, expected):
            raise TypeError(
                f"{self.name}: expected {expected.__name__}, got "
                f"{type(value).__name__}")
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Field {self.type_name} {self.name} = {self.tag}>"


class MessageDescriptor:
    """A named message type with ordered fields."""

    def __init__(self, name: str, fields: List[FieldDescriptor]):
        self.name = name
        self.fields = list(fields)
        self.by_name = {f.name: f for f in fields}
        self.by_tag = {f.tag: f for f in fields}
        if len(self.by_name) != len(fields):
            raise ValueError(f"duplicate field names in message {name}")
        if len(self.by_tag) != len(fields):
            raise ValueError(f"duplicate field tags in message {name}")
        # Field values live in the instance dict, which would shadow these.
        reserved = sorted(f.name for f in fields if hasattr(Message, f.name))
        if reserved:
            raise ValueError(f"message {name}: field names {reserved} are "
                             f"reserved by the Message interface")
        # A new message starts as a copy of the defaults template; only
        # the IEDT fields, whose defaults are mutable, are then replaced
        # by a container of their own.
        self._template = {f.name: f._default for f in fields}
        self._containers = tuple((f.name, f.py_type) for f in fields
                                 if f.is_iedt)
        self._scalars = tuple(f for f in fields if not f.is_iedt)
        # Wire header byte(s) as an int -> the field it announces, for
        # headers whose wire type is the field's own.
        self._by_header = {f.tag << 3 | f.wire_type: f for f in fields}

    def iedt_fields(self) -> List[FieldDescriptor]:
        return [f for f in self.fields if f.is_iedt]

    def __call__(self, **kwargs) -> "Message":
        return Message(self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MessageDescriptor {self.name} ({len(self.fields)} fields)>"


_set_slot = object.__setattr__


class Message:
    """A dynamic message instance with attribute-style field access.

    The field values *are* the instance ``__dict__``, so reading a field
    is a plain attribute lookup; writes go through :meth:`__setattr__`,
    which validates.
    """

    __slots__ = ("descriptor", "__dict__")

    def __init__(self, descriptor: MessageDescriptor, **kwargs):
        values = descriptor._template.copy()
        for name, container in descriptor._containers:
            values[name] = container()
        _set_slot(self, "descriptor", descriptor)
        _set_slot(self, "__dict__", values)
        if kwargs:
            by_name = descriptor.by_name
            for name, value in kwargs.items():
                field = by_name.get(name)
                if field is None:
                    raise AttributeError(
                        f"message {descriptor.name} has no field {name!r}")
                values[name] = value if type(value) is field.py_type \
                    else field.validate(value)

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are neither slots nor fields.
        if name == "descriptor":       # half-built instance (copy, pickle)
            raise AttributeError(name)
        raise AttributeError(
            f"message {self.descriptor.name} has no field {name!r}")

    def __setattr__(self, name: str, value: Any) -> None:
        field = self.descriptor.by_name.get(name)
        if field is None:
            raise AttributeError(
                f"message {self.descriptor.name} has no field {name!r}")
        self.__dict__[name] = field.validate(value)

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, Message)
                and other.descriptor.name == self.descriptor.name
                and other.__dict__ == self.__dict__)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.descriptor.name}({inner})"

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_bytes(self, include_iedt: bool = True) -> bytes:
        """Marshal to the binary wire format.

        ``include_iedt=False`` marshals only the plain gRPC fields — the
        form the client stub uses for the packet payload while the IEDT
        fields travel as INC streams.
        """
        descriptor = self.descriptor
        fields = descriptor.fields if include_iedt else descriptor._scalars
        values = self.__dict__
        return b"".join([field.encode(values[field.name])
                         for field in fields])

    @classmethod
    def from_bytes(cls, descriptor: MessageDescriptor, data: bytes
                   ) -> "Message":
        msg = cls(descriptor)
        values = msg.__dict__
        by_header = descriptor._by_header
        offset = 0
        end = len(data)
        while offset < end:
            header = data[offset]
            if header < 0x80:
                offset += 1
            else:
                header, offset = wire.decode_varint(data, offset)
            field = by_header.get(header)
            if field is not None:
                values[field.name], offset = field.decode(data, offset)
                continue
            # An unknown tag, or a known one under another wire type.
            field = descriptor.by_tag.get(header >> 3)
            value, offset = _decode_field_value(field, header & 0x7, data,
                                                offset)
            if field is not None:
                values[field.name] = value
        return msg


# ---------------------------------------------------------------------------
# field codecs, chosen once per FieldDescriptor
# ---------------------------------------------------------------------------
def _encoder(type_name: str, kind: Optional[IEDTKind], header: bytes
             ) -> Callable[[Any], bytes]:
    """The ``value -> header + body`` function of one field."""
    varint = wire.encode_varint
    if kind is not None:
        def encode(value: Any) -> bytes:
            body = _encode_iedt(kind, value)
            return header + varint(len(body)) + body
    elif type_name in ("double", "float"):
        pack = struct.Struct("<d").pack

        def encode(value: float) -> bytes:
            return header + pack(value)
    elif type_name == "string":
        def encode(value: str) -> bytes:
            body = value.encode("utf-8")
            return header + varint(len(body)) + body
    elif type_name == "bytes":
        def encode(value: bytes) -> bytes:
            return header + varint(len(value)) + value
    elif type_name == "bool":
        def encode(value: bool) -> bytes:
            return header + varint(int(value))
    elif type_name in ("uint32", "uint64"):
        def encode(value: int) -> bytes:
            return header + varint(value)
    else:
        zigzag = wire.zigzag

        def encode(value: int) -> bytes:
            return header + varint(zigzag(value))
    return encode


def _decode_bool(data: bytes, offset: int) -> Tuple[bool, int]:
    raw, offset = wire.decode_varint(data, offset)
    return bool(raw), offset


def _decode_string(data: bytes, offset: int) -> Tuple[str, int]:
    blob, offset = wire.decode_bytes(data, offset)
    return blob.decode("utf-8"), offset


def _decoder(type_name: str, kind: Optional[IEDTKind]
             ) -> Tuple[int, Decoder]:
    """``(wire type, decode(data, offset) -> (value, offset))`` of a field."""
    if kind is not None:
        def decode(data: bytes, offset: int) -> Tuple[Any, int]:
            blob, offset = wire.decode_bytes(data, offset)
            return _decode_iedt(kind, blob), offset
        return _WIRE_BYTES, decode
    if type_name in ("double", "float"):
        return _WIRE_FIXED64, wire.decode_double
    if type_name == "string":
        return _WIRE_BYTES, _decode_string
    if type_name == "bytes":
        return _WIRE_BYTES, wire.decode_bytes
    if type_name == "bool":
        return _WIRE_VARINT, _decode_bool
    if type_name in ("uint32", "uint64"):
        return _WIRE_VARINT, wire.decode_varint
    return _WIRE_VARINT, wire.decode_signed


def _decode_field_value(field: Optional[FieldDescriptor], wtype: int,
                        data: bytes, offset: int) -> Tuple[Any, int]:
    """Generic decode by *wire* type: skips an unknown tag's value
    (``field`` None) and reads a known field that arrived under a wire
    type other than its own.  Matching fields use ``field.decode``."""
    if wtype == _WIRE_VARINT:
        raw, offset = wire.decode_varint(data, offset)
        if field is None:
            return None, offset
        if field.type_name == "bool":
            return bool(raw), offset
        if field.type_name in ("uint32", "uint64"):
            return raw, offset
        return wire.unzigzag(raw), offset
    if wtype == _WIRE_FIXED64:
        value, offset = wire.decode_double(data, offset)
        return (value if field is not None else None), offset
    if wtype == _WIRE_BYTES:
        blob, offset = wire.decode_bytes(data, offset)
        if field is None:
            return None, offset
        if field.kind is not None:
            return _decode_iedt(field.kind, blob), offset
        if field.type_name == "string":
            return blob.decode("utf-8"), offset
        return blob, offset
    raise ValueError(f"unsupported wire type {wtype}")


def _encode_iedt(kind: IEDTKind, value: Any) -> bytes:
    out = bytearray()
    if kind.is_array:
        out += wire.encode_varint(len(value))
        for element in value:
            if kind.is_float:
                out += wire.encode_double(float(element))
            else:
                out += wire.encode_signed(element)
        return bytes(out)
    out += wire.encode_varint(len(value))
    for key, element in value.items():
        if kind is IEDTKind.INT_INT_MAP:
            out += wire.encode_signed(key)
        else:
            out += wire.encode_bytes(key.encode("utf-8"))
        if kind.is_float:
            out += wire.encode_double(float(element))
        else:
            out += wire.encode_signed(element)
    return bytes(out)


def _decode_iedt(kind: IEDTKind, data: bytes) -> Any:
    count, offset = wire.decode_varint(data, 0)
    if kind.is_array:
        out_list = []
        for _ in range(count):
            if kind.is_float:
                element, offset = wire.decode_double(data, offset)
            else:
                element, offset = wire.decode_signed(data, offset)
            out_list.append(element)
        return out_list
    out_map: Dict[Any, Any] = {}
    for _ in range(count):
        if kind is IEDTKind.INT_INT_MAP:
            key, offset = wire.decode_signed(data, offset)
        else:
            raw, offset = wire.decode_bytes(data, offset)
            key = raw.decode("utf-8")
        if kind.is_float:
            element, offset = wire.decode_double(data, offset)
        else:
            element, offset = wire.decode_signed(data, offset)
        out_map[key] = element
    return out_map
