"""Message descriptors and the message class generated for each.

A :class:`MessageDescriptor` is built by the IDL parser (one per
``message`` block).  Building it generates one :class:`Message` subclass
for that message, the way :mod:`dataclasses` and ``namedtuple`` generate
code: a keyword constructor, ``to_bytes`` and an in-order parser, each
compiled from source as straight-line code over that message's fields.
Calling the descriptor constructs an instance; reading a field is a
plain attribute lookup, writing one validates.

IEDT fields (``netrpc.FPArray`` etc.) are first-class: the stubs pull
them out of a message to feed the INC channel, while scalar fields are
marshalled into the opaque payload.

Everything a field's type decides — the Python type it holds, its
default, its value range, its wire header — is resolved once, when the
:class:`FieldDescriptor` is built; the generated code has it inline.
"""

from __future__ import annotations

import keyword
import linecache
import struct
from collections import Counter
from operator import attrgetter
from types import CodeType
from typing import Any, Dict, List, Optional, Tuple

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


class FieldDescriptor:
    """One field of a message: name, type, tag and what its type decides.

    ``py_type`` is the exact Python type a value normally has (``list`` /
    ``dict`` for IEDT kinds); ``header`` is the field's wire header for
    its own ``wire_type``; ``bounds`` is ``(low, high)``, the half-open
    range an integer scalar holds (None for every other type).
    """

    __slots__ = ("name", "type_name", "tag", "kind", "py_type",
                 "wire_type", "header", "bounds", "_default")

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
        self.bounds: Optional[Tuple[int, int]] = None
        if self.kind is not None:
            self.py_type: type = type(default_value(self.kind))
            self._default = None        # a fresh container per message
            self.wire_type = _WIRE_BYTES
        else:
            self.py_type, self._default = _SCALAR_PYTHON.get(type_name,
                                                             (int, 0))
            if type_name in ("double", "float"):
                self.wire_type = _WIRE_FIXED64
            elif type_name in ("string", "bytes"):
                self.wire_type = _WIRE_BYTES
            else:
                self.wire_type = _WIRE_VARINT
            if self.py_type is int:
                bits = 64 if type_name.endswith("64") else 32
                self.bounds = ((0, 1 << bits) if type_name[0] == "u"
                               else (-1 << bits - 1, 1 << bits - 1))
        self.header = wire.encode_varint(tag << 3 | self.wire_type)

    @property
    def is_iedt(self) -> bool:
        return self.kind is not None

    def validate(self, value: Any, message: str) -> Any:
        """``value`` as field ``name`` of message ``message`` stores it.

        Raises :class:`TypeError` for a value of the wrong type and
        :class:`ValueError` for an integer outside the field's range.
        """
        expected = self.py_type
        if type(value) is not expected:
            if self.kind is not None:
                if not isinstance(value, expected):
                    raise TypeError(f"{self.name}: expected "
                                    f"{expected.__name__} for "
                                    f"{self.type_name}")
            elif expected is float and isinstance(value, int) and \
                    not isinstance(value, bool):
                value = float(value)
            elif expected is int and isinstance(value, bool):
                raise TypeError(f"{self.name}: expected int, got bool")
            elif not isinstance(value, expected):
                raise TypeError(
                    f"{self.name}: expected {expected.__name__}, got "
                    f"{type(value).__name__}")
        bounds = self.bounds
        if bounds is not None and not bounds[0] <= value < bounds[1]:
            low, high = bounds
            bits = high.bit_length() - 1
            held = (f"non-negative integers below 2**{bits}" if low == 0
                    else f"integers in [-2**{bits}, 2**{bits})")
            raise ValueError(f"message {message}: field {self.name!r} is "
                             f"{self.type_name}, which holds {held}; "
                             f"got {value}")
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Field {self.type_name} {self.name} = {self.tag}>"


class MessageDescriptor:
    """A named message type with ordered fields.

    ``message_class`` is the :class:`Message` subclass generated for it;
    calling the descriptor constructs one: ``descriptor(**fields)``.
    """

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
        reserved = sorted(f.name for f in fields if hasattr(Message, f.name)
                          or f.name in ("to_bytes", "parse"))
        if reserved:
            raise ValueError(f"message {name}: field names {reserved} are "
                             f"reserved by the Message interface")
        self.message_class: type = _generate_class(self)

    def iedt_fields(self) -> List[FieldDescriptor]:
        return [f for f in self.fields if f.is_iedt]

    # Calling the descriptor calls its generated class: the special-method
    # lookup honours a descriptor, so ``descriptor(**fields)`` resolves
    # to ``message_class`` in C and constructs with no frame of its own.
    __call__ = property(attrgetter("message_class"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MessageDescriptor {self.name} ({len(self.fields)} fields)>"


class Message:
    """Base of the class generated for each message type.

    The field values *are* the instance ``__dict__``, so reading a field
    is a plain attribute lookup; writes go through :meth:`__setattr__`,
    which validates.  Each generated subclass sets ``descriptor`` and
    defines the keyword constructor, ``to_bytes(include_iedt=True)`` —
    ``include_iedt=False`` marshals only the plain gRPC fields, the form
    the client stub ships as packet payload while the IEDT fields travel
    as INC streams — and the static parser ``parse(data)``.
    """

    __slots__ = ("__dict__",)
    descriptor: Optional[MessageDescriptor] = None   # set per subclass

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are neither attributes nor fields.
        raise AttributeError(
            f"message {self.descriptor.name} has no field {name!r}")

    def __setattr__(self, name: str, value: Any) -> None:
        descriptor = self.descriptor
        field = descriptor.by_name.get(name)
        if field is None:
            raise AttributeError(
                f"message {descriptor.name} has no field {name!r}")
        self.__dict__[name] = field.validate(value, descriptor.name)

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, Message)
                and other.descriptor.name == self.descriptor.name
                and other.__dict__ == self.__dict__)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.descriptor.name}({inner})"

    @staticmethod
    def from_bytes(descriptor: MessageDescriptor, data: bytes) -> "Message":
        """Parse ``data`` as a ``descriptor`` message."""
        return descriptor.message_class.parse(data)


# ---------------------------------------------------------------------------
# the generated class
# ---------------------------------------------------------------------------
_MISSING = object()     # an IEDT keyword the caller did not pass
_set_slot = object.__setattr__


def _unknown_fields(descriptor: MessageDescriptor, extra: dict) -> None:
    raise AttributeError(f"message {descriptor.name} has no field "
                         f"{next(iter(extra))!r}")


def _parse_rest(descriptor: MessageDescriptor, values: dict, data: bytes,
                offset: int) -> None:
    """Read ``data[offset:]`` into ``values`` one header at a time.

    The generated parser reads the layout ``to_bytes`` writes and hands
    anything else here: an unknown tag (skipped), a multi-byte header, a
    known tag under another wire type, a repeated field.
    """
    by_tag = descriptor.by_tag
    end = len(data)
    while offset < end:
        header, offset = wire.decode_varint(data, offset)
        field = by_tag.get(header >> 3)
        value, offset = _decode_field_value(field, header & 0x7, data,
                                            offset)
        if field is not None:
            values[field.name] = value


# Generated source is compiled under a file name inside this package, so
# profilers and call counters file its frames under ``core``, and
# registered with linecache, so a traceback shows the generated line.
# Each distinct (message name, source) is compiled once per process and
# gets a file name of its own: re-parsing a proto file reuses the code.
_COMPILED: Dict[Tuple[str, str], CodeType] = {}
_NAMES_USED: Counter = Counter()


def _compile(message: str, source: str) -> CodeType:
    code = _COMPILED.get((message, source))
    if code is None:
        _NAMES_USED[message] += 1
        count = _NAMES_USED[message]
        tag = message if count == 1 else f"{message}#{count}"
        code = compile(source, f"{__file__}<{tag}>", "exec")
        _COMPILED[(message, source)] = code
    linecache.cache[code.co_filename] = (len(source), None,
                                         source.splitlines(True),
                                         code.co_filename)
    return code


class _Names:
    """Identifiers for generated code that no field is named.

    Field names are the constructor's keywords, so every other name the
    code uses — the globals it runs under (``bind``) and each function's
    locals (``local``) — is drawn to differ from all of them.
    """

    def __init__(self, fields: List[FieldDescriptor]):
        self.taken = {f.name for f in fields}
        self.env: Dict[str, Any] = {}
        self._locals: set = set()

    def _fresh(self, base: str) -> str:
        while base in self.taken or base in self._locals:
            base += "_"
        return base

    def bind(self, base: str, value: Any) -> str:
        name = self._fresh(base)
        self.taken.add(name)
        self.env[name] = value
        return name

    def local(self, base: str) -> str:
        name = self._fresh(base)
        self._locals.add(name)
        return name

    def next_function(self) -> None:
        self._locals = set()


def _generate_class(descriptor: MessageDescriptor) -> type:
    """The :class:`Message` subclass of ``descriptor``: ``__init__``,
    ``to_bytes`` and ``parse`` generated as straight-line code."""
    fields = descriptor.fields
    cls = type(descriptor.name, (Message,),
               {"__slots__": (), "descriptor": descriptor,
                "__module__": __name__})
    names = _Names(fields)
    g = {base: names.bind(base, value) for base, value in [
        ("cls", cls), ("descriptor", descriptor), ("MISSING", _MISSING),
        ("set_slot", _set_slot), ("new", object.__new__),
        ("unknown", _unknown_fields), ("rest", _parse_rest),
        ("decode", _decode_field_value), ("iedt_body", _encode_iedt),
        ("join", b"".join), ("ONE", wire._ONE_BYTE),
        ("varint", wire.encode_varint), ("signed", wire.encode_signed),
        ("pack", struct.Struct("<d").pack),
        ("unpack", struct.Struct("<d").unpack_from),
        ("type", type), ("len", len)]}
    fd = [names.bind(f"field{i}", f) for i, f in enumerate(fields)]
    for py_type in {f.py_type for f in fields}:
        g[py_type.__name__] = names.bind(py_type.__name__, py_type)
    lines = (_init_source(descriptor, names, g, fd)
             + _to_bytes_source(descriptor, names, g, fd)
             + _parse_source(descriptor, names, g, fd))
    # The values the code uses are the globals it runs under.
    source = "".join(f"{line}\n" for line in lines)
    namespace = dict(names.env, __name__=__name__)
    exec(_compile(descriptor.name, source), namespace)
    init, to_bytes, parse = (namespace["__init__"], namespace["to_bytes"],
                             namespace["parse"])
    for function in (init, to_bytes, parse):
        function.__qualname__ = f"{descriptor.name}.{function.__name__}"
    cls.__init__ = init
    cls.to_bytes = to_bytes
    cls.parse = staticmethod(parse)
    return cls


def _init_source(descriptor: MessageDescriptor, names: _Names, g: dict,
                 fd: List[str]) -> List[str]:
    """``__init__(self, *, <field>=<default>, ...)``: the field dict as
    one literal, each value's exact type (and an integer's range) checked
    inline and ``validate`` called only on a mismatch."""
    names.next_function()
    self_, extra = names.local("self"), names.local("extra")
    message = repr(descriptor.name)
    params, pops, checks, items = [], [], [], []
    for i, f in enumerate(descriptor.fields):
        default = g["MISSING"] if f.kind is not None else repr(f._default)
        if keyword.iskeyword(f.name) or f.name == "__debug__":
            # Not a valid parameter name: passed through ``**extra``.
            var = names.local(f"v{i}")
            pops.append(f"{var} = {extra}.pop({f.name!r}, {default})")
        else:
            var = f.name
            params.append(f"{var}={default}")
        items.append(f"{f.name!r}: {var}")
        mismatch = f"{g['type']}({var}) is not {g[f.py_type.__name__]}"
        if f.bounds is not None:
            mismatch += f" or not {f.bounds[0]} <= {var} < {f.bounds[1]}"
        fix = f"    {var} = {fd[i]}.validate({var}, {message})"
        if f.kind is not None:
            checks += [f"if {var} is {g['MISSING']}:",
                       f"    {var} = {'[]' if f.kind.is_array else '{}'}",
                       f"elif {mismatch}:", fix]
        else:
            checks += [f"if {mismatch}:", fix]
    signature = [self_] + (["*"] + params if params else []) + [f"**{extra}"]
    body = pops + [f"if {extra}:",
                   f"    {g['unknown']}({g['descriptor']}, {extra})"] \
        + checks + [f"{g['set_slot']}({self_}, '__dict__', "
                    f"{{{', '.join(items)}}})"]
    return [f"def __init__({', '.join(signature)}):"] + \
        [f"    {line}" for line in body]


def _to_bytes_source(descriptor: MessageDescriptor, names: _Names, g: dict,
                     fd: List[str]) -> List[str]:
    """``to_bytes(self, include_iedt=True)``: one ``b"".join`` over the
    fields' headers and bodies, with one-byte varints and lengths read
    from a table and anything larger handed to ``wire``."""
    names.next_function()
    self_, values = names.local("self"), names.local("values")
    body = [f"{values} = {self_}.__dict__"]
    iedt_body: List[str] = []
    scalar_parts: List[str] = []
    all_parts: List[str] = []
    one, varint = g["ONE"], g["varint"]
    for i, f in enumerate(descriptor.fields):
        value = f"{values}[{f.name!r}]"
        x = names.local(f"x{i}")
        header = repr(f.header)
        t = f.type_name
        if f.kind is not None:
            iedt_body.append(f"{x} = {g['iedt_body']}({fd[i]}.kind, {value})")
            all_parts += [header, f"{varint}({g['len']}({x}))", x]
            continue
        if t in ("double", "float"):
            parts = [header, f"{g['pack']}({value})"]
        elif t in ("string", "bytes"):
            n = names.local(f"n{i}")
            encode = ".encode('utf-8')" if t == "string" else ""
            body += [f"{x} = {value}{encode}", f"{n} = {g['len']}({x})"]
            parts = [header, f"({one}[{n}] if {n} < 128 else {varint}({n}))",
                     x]
        else:
            body.append(f"{x} = {value}")
            if t == "bool":
                encoded = (f"b'\\x01' if {x} is True else b'\\x00' "
                           f"if {x} is False else {varint}(int({x}))")
            elif t in ("uint32", "uint64"):
                encoded = f"{one}[{x}] if 0 <= {x} < 128 else {varint}({x})"
            else:
                encoded = (f"{one}[({x} << 1) ^ ({x} >> 63)] "
                           f"if -64 <= {x} < 64 else {g['signed']}({x})")
            parts = [header, f"({encoded})"]
        scalar_parts += parts
        all_parts += parts

    def joined(parts: List[str]) -> str:
        return f"{g['join']}(({', '.join(parts)}))" if parts else "b''"

    if iedt_body:
        body += ["if include_iedt:"] + [f"    {line}" for line in iedt_body] \
            + [f"    return {joined(all_parts)}"]
    body.append(f"return {joined(scalar_parts)}")
    return [f"def to_bytes({self_}, include_iedt=True):"] + \
        [f"    {line}" for line in body]


def _parse_source(descriptor: MessageDescriptor, names: _Names, g: dict,
                  fd: List[str]) -> List[str]:
    """``parse(data)``: reads the fields in declaration order, each under
    its own one-byte header — the layout ``to_bytes`` writes — then hands
    whatever is left to :func:`_parse_rest`."""
    names.next_function()
    data, end, pos, byte = (names.local("data"), names.local("end"),
                            names.local("pos"), names.local("byte"))
    values, msg = names.local("values"), names.local("msg")
    local = [names.local(f"v{i}") for i in range(len(descriptor.fields))]
    body = [f"{end} = {g['len']}({data})", f"{pos} = 0"]
    for var, f in zip(local, descriptor.fields):
        default = repr(f._default) if f.kind is None else \
            ("[]" if f.kind.is_array else "{}")
        body.append(f"{var} = {default}")
    for i, (var, f) in enumerate(zip(local, descriptor.fields)):
        if len(f.header) != 1:
            continue        # a multi-byte header: left to the generic tail
        generic = (f"{var}, {pos} = {g['decode']}({fd[i]}, {f.wire_type}, "
                   f"{data}, {pos} + 1)")
        body.append(f"if {pos} < {end} and {data}[{pos}] == {f.header[0]}:")
        t = f.type_name
        if f.kind is not None:
            body.append(f"    {generic}")
            continue
        next_byte = f"{byte} = {data}[{pos} + 1] if {pos} + 1 < {end} else 128"
        if t in ("double", "float"):
            step = [f"if {pos} + 9 <= {end}:",
                    f"    {var} = {g['unpack']}({data}, {pos} + 1)[0]",
                    f"    {pos} += 9"]
        elif t in ("string", "bytes"):
            decode = ".decode('utf-8')" if t == "string" else ""
            step = [next_byte,
                    f"if {byte} < 128 and {pos} + 2 + {byte} <= {end}:",
                    f"    {var} = {data}[{pos} + 2:{pos} + 2 + {byte}]{decode}",
                    f"    {pos} += 2 + {byte}"]
        else:
            value = {"bool": f"{byte} != 0", "uint32": byte,
                     "uint64": byte}.get(t, f"({byte} >> 1) ^ -({byte} & 1)")
            step = [next_byte, f"if {byte} < 128:", f"    {var} = {value}",
                    f"    {pos} += 2"]
        body += [f"    {line}" for line in step + ["else:", f"    {generic}"]]
    items = ", ".join(f"{f.name!r}: {var}"
                      for var, f in zip(local, descriptor.fields))
    body += [f"{values} = {{{items}}}",
             f"if {pos} < {end}:",
             f"    {g['rest']}({g['descriptor']}, {values}, {data}, {pos})",
             f"{msg} = {g['new']}({g['cls']})",
             f"{g['set_slot']}({msg}, '__dict__', {values})",
             f"return {msg}"]
    return [f"def parse({data}):"] + [f"    {line}" for line in body]


# ---------------------------------------------------------------------------
# the generic codec: IEDT bodies, and every header the generated parser
# does not read in order
# ---------------------------------------------------------------------------
def _decode_field_value(field: Optional[FieldDescriptor], wtype: int,
                        data: bytes, offset: int) -> Tuple[Any, int]:
    """Generic decode by *wire* type: skips an unknown tag's value
    (``field`` None), reads a known field that arrived under a wire type
    other than its own, and reads whatever the generated parser does not
    inline (IEDT bodies, multi-byte varints and lengths, truncation)."""
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
