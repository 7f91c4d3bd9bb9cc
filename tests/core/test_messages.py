"""Tests for message descriptors, generated message classes, and
marshalling.

The differential suites (``TestCompiledCodecMatchesTheGenericOne``) carry
the ``codec`` marker; ``CODEC_MAX_EXAMPLES`` sets their Hypothesis budget
(the CI codec step re-runs them at 500).
"""

import copy
import os
import struct
import traceback

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages
from repro.core.iedt import IEDT_TYPES
from repro.core.messages import (SCALAR_TYPES, FieldDescriptor, Message,
                                 MessageDescriptor)

from ..callcount import package_of

CODEC_EXAMPLES = int(os.environ.get("CODEC_MAX_EXAMPLES", "100"))


def grad_descriptor():
    return MessageDescriptor("NewGrad", [
        FieldDescriptor("tensor", "netrpc.FPArray", 1),
        FieldDescriptor("note", "string", 2),
        FieldDescriptor("step", "int32", 3),
    ])


def kv_descriptor():
    return MessageDescriptor("ReduceRequest", [
        FieldDescriptor("kvs", "netrpc.STRINTMap", 1),
        FieldDescriptor("flag", "bool", 2),
        FieldDescriptor("weight", "double", 3),
        FieldDescriptor("blob", "bytes", 4),
    ])


def _default(type_name):
    """A new message's value of its one field of ``type_name``."""
    return MessageDescriptor("M", [FieldDescriptor("x", type_name, 1)])().x


class TestFieldDescriptor:
    def test_scalar_defaults(self):
        assert _default("int32") == 0
        assert _default("string") == ""
        assert _default("double") == 0.0
        assert _default("bool") is False
        assert _default("bytes") == b""

    def test_iedt_defaults(self):
        assert _default("netrpc.FPArray") == []
        assert _default("netrpc.STRINTMap") == {}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown field type"):
            FieldDescriptor("x", "varchar", 1)

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            FieldDescriptor("x", "int32", 0)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            FieldDescriptor("2x", "int32", 1)


class TestMessageDescriptor:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            MessageDescriptor("M", [FieldDescriptor("a", "int32", 1),
                                    FieldDescriptor("a", "int32", 2)])

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValueError):
            MessageDescriptor("M", [FieldDescriptor("a", "int32", 1),
                                    FieldDescriptor("b", "int32", 1)])

    def test_iedt_field_listing(self):
        desc = grad_descriptor()
        assert [f.name for f in desc.iedt_fields()] == ["tensor"]
        assert [f.name for f in desc.fields if not f.is_iedt] == \
            ["note", "step"]


class TestMessageInstances:
    def test_construction_with_kwargs(self):
        msg = grad_descriptor()(tensor=[1.0, 2.0], note="hi", step=3)
        assert msg.tensor == [1.0, 2.0]
        assert msg.note == "hi"
        assert msg.step == 3

    def test_defaults(self):
        msg = grad_descriptor()()
        assert msg.tensor == [] and msg.note == "" and msg.step == 0

    def test_unknown_field_rejected(self):
        msg = grad_descriptor()()
        with pytest.raises(AttributeError):
            msg.missing = 1
        with pytest.raises(AttributeError):
            _ = msg.missing

    def test_type_validation(self):
        msg = grad_descriptor()()
        with pytest.raises(TypeError):
            msg.tensor = {"not": "a list"}
        with pytest.raises(TypeError):
            msg.note = 42
        with pytest.raises(TypeError):
            msg.step = True  # bools are not ints here

    def test_int_promotes_to_float(self):
        msg = kv_descriptor()(weight=2)
        assert msg.weight == 2.0

    def test_equality(self):
        a = grad_descriptor()(step=1)
        b = grad_descriptor()(step=1)
        c = grad_descriptor()(step=2)
        assert a == b and a != c


class TestWireRoundtrip:
    def test_full_roundtrip(self):
        desc = grad_descriptor()
        msg = desc(tensor=[0.5, -1.25], note="gradient", step=-7)
        decoded = Message.from_bytes(desc, msg.to_bytes())
        assert decoded == msg

    def test_map_roundtrip(self):
        desc = kv_descriptor()
        msg = desc(kvs={"apple": 3, "pear": -4}, flag=True, weight=2.5,
                   blob=b"\x00\x01")
        decoded = Message.from_bytes(desc, msg.to_bytes())
        assert decoded == msg

    def test_scalar_only_marshalling_excludes_iedts(self):
        desc = grad_descriptor()
        msg = desc(tensor=[1.0] * 100, note="x")
        partial = Message.from_bytes(desc, msg.to_bytes(include_iedt=False))
        assert partial.tensor == []
        assert partial.note == "x"

    def test_byte_size_reflects_payload(self):
        desc = grad_descriptor()
        small = len(desc(note="a").to_bytes())
        big = len(desc(note="a" * 100).to_bytes())
        assert big - small == 99

    def test_unknown_tags_are_skipped(self):
        narrow = MessageDescriptor("M", [FieldDescriptor("a", "int32", 1)])
        wide = MessageDescriptor("M", [FieldDescriptor("a", "int32", 1),
                                       FieldDescriptor("b", "string", 9)])
        msg = wide(a=-5, b="ignored")
        decoded = Message.from_bytes(narrow, msg.to_bytes())
        assert decoded.a == -5

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), max_size=50),
           st.text(max_size=30),
           st.integers(min_value=-2**31, max_value=2**31 - 1))
    def test_property_roundtrip(self, tensor, note, step):
        desc = grad_descriptor()
        msg = desc(tensor=tensor, note=note, step=step)
        assert Message.from_bytes(desc, msg.to_bytes()) == msg

    @given(st.dictionaries(st.text(min_size=1, max_size=10),
                           st.integers(min_value=-2**31, max_value=2**31),
                           max_size=20))
    def test_property_map_roundtrip(self, kvs):
        desc = kv_descriptor()
        msg = desc(kvs=kvs)
        assert Message.from_bytes(desc, msg.to_bytes()).kvs == kvs


# ---------------------------------------------------------------------------
# Differential tests: the codec compiled into each FieldDescriptor against
# the generic per-field encoder/decoder it replaced.  The reference below
# is that code as it stood (one if-chain walked per field per message,
# LEB128 without the one-byte paths), working on plain
# ``(name, type_name, tag)`` specs so it shares nothing with the
# descriptors under test.
# ---------------------------------------------------------------------------
def _ref_varint(value):
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


def _ref_read_varint(data, offset):
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


def _ref_zigzag(value):
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _ref_signed(value):
    return _ref_varint(_ref_zigzag(value))


def _ref_read_signed(data, offset):
    raw, offset = _ref_read_varint(data, offset)
    return (raw >> 1) ^ -(raw & 1), offset


def _ref_read_double(data, offset):
    if offset + 8 > len(data):
        raise ValueError("truncated double")
    return struct.unpack_from("<d", data, offset)[0], offset + 8


def _ref_bytes(value):
    return _ref_varint(len(value)) + value


def _ref_read_bytes(data, offset):
    length, offset = _ref_read_varint(data, offset)
    if offset + length > len(data):
        raise ValueError("truncated byte string")
    return data[offset:offset + length], offset + length


_ARRAYS = ("netrpc.FPArray", "netrpc.INT32Array")
_FLOATS = ("netrpc.FPArray", "netrpc.STRFPMap")


def _ref_encode_iedt(type_name, value):
    out = bytearray(_ref_varint(len(value)))
    if type_name in _ARRAYS:
        for element in value:
            out += struct.pack("<d", float(element)) \
                if type_name in _FLOATS else _ref_signed(element)
        return bytes(out)
    for key, element in value.items():
        out += _ref_signed(key) if type_name == "netrpc.INTINTMap" \
            else _ref_bytes(key.encode("utf-8"))
        out += struct.pack("<d", float(element)) \
            if type_name in _FLOATS else _ref_signed(element)
    return bytes(out)


def _ref_decode_iedt(type_name, data):
    count, offset = _ref_read_varint(data, 0)
    read = _ref_read_double if type_name in _FLOATS else _ref_read_signed
    if type_name in _ARRAYS:
        out = []
        for _ in range(count):
            element, offset = read(data, offset)
            out.append(element)
        return out
    out = {}
    for _ in range(count):
        if type_name == "netrpc.INTINTMap":
            key, offset = _ref_read_signed(data, offset)
        else:
            raw, offset = _ref_read_bytes(data, offset)
            key = raw.decode("utf-8")
        out[key], offset = read(data, offset)
    return out


def _ref_encode_field(type_name, tag, value):
    def header(wtype):
        return _ref_varint(tag << 3 | wtype)
    if type_name in IEDT_TYPES:
        return header(2) + _ref_bytes(_ref_encode_iedt(type_name, value))
    if type_name in ("double", "float"):
        return header(1) + struct.pack("<d", value)
    if type_name == "string":
        return header(2) + _ref_bytes(value.encode("utf-8"))
    if type_name == "bytes":
        return header(2) + _ref_bytes(value)
    if type_name == "bool":
        return header(0) + _ref_varint(int(value))
    if type_name in ("uint32", "uint64"):
        return header(0) + _ref_varint(value)
    return header(0) + _ref_signed(value)


def _ref_decode_value(type_name, wtype, data, offset):
    """``type_name`` None = unknown tag: the value is skipped."""
    if wtype == 0:
        raw, offset = _ref_read_varint(data, offset)
        if type_name is None:
            return None, offset
        if type_name == "bool":
            return bool(raw), offset
        if type_name in ("uint32", "uint64"):
            return raw, offset
        return (raw >> 1) ^ -(raw & 1), offset
    if wtype == 1:
        value, offset = _ref_read_double(data, offset)
        return (value if type_name is not None else None), offset
    if wtype == 2:
        blob, offset = _ref_read_bytes(data, offset)
        if type_name is None:
            return None, offset
        if type_name in IEDT_TYPES:
            return _ref_decode_iedt(type_name, blob), offset
        if type_name == "string":
            return blob.decode("utf-8"), offset
        return blob, offset
    raise ValueError(f"unsupported wire type {wtype}")


def ref_to_bytes(spec, values, include_iedt=True):
    out = bytearray()
    for name, type_name, tag in spec:
        if type_name in IEDT_TYPES and not include_iedt:
            continue
        out += _ref_encode_field(type_name, tag, values[name])
    return bytes(out)


def _ref_default(type_name):
    if type_name in IEDT_TYPES:
        return [] if type_name in _ARRAYS else {}
    return {"double": 0.0, "float": 0.0, "bool": False, "string": "",
            "bytes": b""}.get(type_name, 0)


def ref_from_bytes(spec, data):
    """The field values ``Message.from_bytes`` must produce."""
    values = {name: _ref_default(type_name) for name, type_name, _ in spec}
    by_tag = {tag: (name, type_name) for name, type_name, tag in spec}
    offset = 0
    while offset < len(data):
        header, offset = _ref_read_varint(data, offset)
        name, type_name = by_tag.get(header >> 3, (None, None))
        value, offset = _ref_decode_value(type_name, header & 0x7, data,
                                          offset)
        if name is not None:
            values[name] = value
    return values


def descriptor_of(spec):
    return MessageDescriptor("M", [FieldDescriptor(*f) for f in spec])


def outcome(fn, *args):
    """A call's result, or the exception type and text it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


int64s = st.integers(-2**63, 2**63 - 1)
_VALUES = {
    "int32": st.integers(-2**31, 2**31 - 1), "sint32": st.integers(
        -2**31, 2**31 - 1),
    "int64": int64s, "sint64": int64s,
    "uint32": st.integers(0, 2**32 - 1), "uint64": st.integers(0, 2**64 - 1),
    "bool": st.booleans(),
    "double": st.floats(allow_nan=False), "float": st.floats(allow_nan=False),
    "string": st.text(max_size=12), "bytes": st.binary(max_size=12),
    "netrpc.FPArray": st.lists(st.floats(allow_nan=False), max_size=5),
    "netrpc.INT32Array": st.lists(int64s, max_size=5),
    "netrpc.STRINTMap": st.dictionaries(st.text(max_size=5), int64s,
                                        max_size=4),
    "netrpc.INTINTMap": st.dictionaries(int64s, int64s, max_size=4),
    "netrpc.STRFPMap": st.dictionaries(
        st.text(max_size=5), st.floats(allow_nan=False), max_size=4),
}
assert set(_VALUES) == SCALAR_TYPES | set(IEDT_TYPES)
# One value of each type, multi-byte encodings among them.
_SAMPLES = {
    "int32": -7, "sint32": 300, "int64": -2**40, "sint64": 2**40,
    "uint32": 2**31, "uint64": 2**63, "bool": True, "double": -1.5,
    "float": 2.25, "string": "h\u00e9llo", "bytes": b"\x00\xff" * 70,
    "netrpc.FPArray": [0.5, -1.0], "netrpc.INT32Array": [1, -2],
    "netrpc.STRINTMap": {"a": 1}, "netrpc.INTINTMap": {-3: 4},
    "netrpc.STRFPMap": {"b": 0.25},
}
assert set(_SAMPLES) == set(_VALUES)
type_names = st.sampled_from(sorted(_VALUES))
# One- and multi-byte headers: tag << 3 needs two bytes from tag 16 on.
tags = st.one_of(st.integers(1, 15), st.integers(16, 2**20))


# Field names the generated class must survive: Python keywords (valid
# proto names, but no Python parameter can be called that) and the names
# the generated code itself uses for its arguments, locals and helpers.
KEYWORD_NAMES = ("from", "class", "lambda", "None", "__debug__")
GENERATED_NAMES = ("self", "data", "o", "extra", "values", "pos", "end",
                   "byte", "msg", "include_iedt", "cls", "MISSING", "type",
                   "len", "int", "str", "dict", "join", "ONE", "field0",
                   "x0", "n0", "v0", "unknown", "rest")
field_names = st.sampled_from(KEYWORD_NAMES + GENERATED_NAMES)


@st.composite
def specs(draw, min_size=0):
    tag_list = draw(st.lists(tags, min_size=min_size, max_size=6,
                             unique=True))
    names = []
    for i in range(len(tag_list)):
        name = draw(st.one_of(st.just(f"f{i}"), field_names))
        names.append(f"f{i}" if name in names else name)
    return [(name, draw(type_names), tag)
            for name, tag in zip(names, tag_list)]


@st.composite
def spec_and_values(draw, min_size=0):
    spec = draw(specs(min_size))
    return spec, {name: draw(_VALUES[type_name])
                  for name, type_name, _tag in spec}


@pytest.mark.codec
class TestCompiledCodecMatchesTheGenericOne:
    @settings(max_examples=CODEC_EXAMPLES)
    @given(spec_and_values(), st.booleans())
    def test_encode_and_decode(self, drawn, include_iedt):
        spec, values = drawn
        desc = descriptor_of(spec)
        data = desc(**values).to_bytes(include_iedt=include_iedt)
        assert data == ref_to_bytes(spec, values, include_iedt)
        assert len(desc(**values).to_bytes(include_iedt)) == len(data)
        decoded = Message.from_bytes(desc, data)
        assert vars(decoded) == ref_from_bytes(spec, data)
        if include_iedt:
            assert decoded == desc(**values)

    @settings(max_examples=CODEC_EXAMPLES)
    @given(specs())
    def test_all_default_message(self, spec):
        desc = descriptor_of(spec)
        defaults = {name: _ref_default(type_name)
                    for name, type_name, _tag in spec}
        assert vars(desc()) == defaults
        assert [type(v) for v in vars(desc()).values()] == \
            [type(v) for v in defaults.values()]
        data = desc().to_bytes()
        assert data == ref_to_bytes(spec, defaults)
        assert vars(Message.from_bytes(desc, data)) == defaults

    @settings(max_examples=CODEC_EXAMPLES)
    @given(spec_and_values(min_size=1), st.data())
    def test_unknown_tags_are_skipped(self, drawn, data):
        spec, values = drawn
        kept = data.draw(st.lists(st.sampled_from(spec), unique=True))
        wire_bytes = descriptor_of(spec)(**values).to_bytes()
        decoded = Message.from_bytes(descriptor_of(kept), wire_bytes)
        assert vars(decoded) == ref_from_bytes(kept, wire_bytes)
        assert vars(decoded) == {
            name: values[name] for name, _type, _tag in kept}

    @settings(max_examples=CODEC_EXAMPLES)
    @given(spec_and_values(min_size=1), st.data())
    def test_a_known_tag_under_another_wire_type(self, drawn, data):
        # The reader declares the same tags with independently drawn
        # types: a varint read as a double field, a blob as an int, an
        # IEDT parsed out of a string's bytes ...  Whatever the generic
        # decoder made of it — a value of the "wrong" Python type or an
        # exception — the compiled path must make the same.
        spec, values = drawn
        reader = [(name, data.draw(type_names), tag)
                  for name, _type, tag in spec]
        wire_bytes = descriptor_of(spec)(**values).to_bytes()

        def compiled():
            return vars(Message.from_bytes(descriptor_of(reader),
                                           wire_bytes))

        # Compared by repr: foreign bytes read as doubles can be NaN,
        # which no value equals (and repr tells True from 1, 0.0 from -0.0).
        assert repr(outcome(compiled)) == repr(outcome(
            ref_from_bytes, reader, wire_bytes))

    @settings(max_examples=CODEC_EXAMPLES)
    @given(spec_and_values(min_size=1), st.data())
    def test_truncation_raises_the_same_error(self, drawn, data):
        spec, values = drawn
        desc = descriptor_of(spec)
        wire_bytes = desc(**values).to_bytes()
        cut = wire_bytes[:data.draw(st.integers(0, len(wire_bytes) - 1))]

        def compiled():
            return vars(Message.from_bytes(desc, cut))

        assert outcome(compiled) == outcome(ref_from_bytes, spec, cut)

    def test_truncated_scalars_name_what_was_cut(self):
        desc = descriptor_of([("n", "uint64", 1), ("d", "double", 2),
                              ("b", "bytes", 3), ("far", "int32", 5000)])
        for kwargs, text in [(dict(n=2**40), "truncated varint"),
                             (dict(d=1.5), "truncated double"),
                             (dict(b=b"abcdef"), "truncated byte string")]:
            one = MessageDescriptor("M", [desc.by_name[next(iter(kwargs))]])
            data = one(**kwargs).to_bytes()
            with pytest.raises(ValueError, match=text):
                Message.from_bytes(desc, data[:-1])
        far = MessageDescriptor("M", [desc.by_name["far"]])(far=1).to_bytes()
        with pytest.raises(ValueError, match="truncated varint"):
            Message.from_bytes(desc, far[:1])       # half a header
        with pytest.raises(ValueError, match="unsupported wire type 7"):
            Message.from_bytes(desc, b"\x0f")

    def test_negative_unsigned_is_rejected_at_construction(self):
        desc = descriptor_of([("n", "uint32", 1)])
        with pytest.raises(ValueError, match="non-negative"):
            desc(n=-1).to_bytes()

    @pytest.mark.parametrize("names", [KEYWORD_NAMES, GENERATED_NAMES],
                             ids=["keywords", "generated-code-names"])
    def test_fields_named_like_python_or_the_generated_code(self, names):
        type_cycle = sorted(_VALUES)
        spec = [(name, type_cycle[i % len(type_cycle)], i + 1)
                for i, name in enumerate(names)]
        values = {name: _SAMPLES[type_name] for name, type_name, _tag in spec}
        desc = descriptor_of(spec)
        msg = desc(**values)
        assert vars(msg) == values
        assert vars(desc()) == {name: _ref_default(type_name)
                                for name, type_name, _tag in spec}
        for include_iedt in (True, False):
            data = msg.to_bytes(include_iedt=include_iedt)
            assert data == ref_to_bytes(spec, values, include_iedt)
            assert vars(Message.from_bytes(desc, data)) == \
                ref_from_bytes(spec, data)
        with pytest.raises(AttributeError, match="has no field 'nope'"):
            desc(nope=1)


class TestConstructor:
    def test_unknown_kwarg(self):
        with pytest.raises(AttributeError, match="has no field 'nope'"):
            grad_descriptor()(nope=1)

    def test_bool_is_not_an_int(self):
        with pytest.raises(TypeError, match="step: expected int, got bool"):
            grad_descriptor()(step=True)

    def test_int_becomes_float(self):
        weight = kv_descriptor()(weight=3).weight
        assert weight == 3.0 and type(weight) is float
        with pytest.raises(TypeError):
            kv_descriptor()(weight=True)

    def test_subclasses_are_accepted_as_they_are(self):
        class Tensor(list):
            pass

        class Counts(dict):
            pass

        class Label(str):
            pass

        tensor, counts, label = Tensor([1.0]), Counts(a=1), Label("x")
        assert grad_descriptor()(tensor=tensor).tensor is tensor
        assert kv_descriptor()(kvs=counts).kvs is counts
        assert grad_descriptor()(note=label).note is label
        with pytest.raises(TypeError, match="tensor: expected list"):
            grad_descriptor()(tensor=(1.0,))

    def test_default_containers_are_per_message(self):
        # The generated constructor and parser write the defaults as
        # literals; the mutable ones must be fresh objects every time.
        desc = descriptor_of([("inst", "netrpc.INTINTMap", 1),
                              ("t", "netrpc.FPArray", 2),
                              ("s", "string", 3)])
        first, second = desc(), desc()
        assert first.inst is not second.inst and first.t is not second.t
        first.inst[7] = 1
        first.t.append(2.0)
        assert second.inst == {} and second.t == []
        assert desc().inst == {} and desc().t == []
        assert Message.from_bytes(desc, b"").inst == {}


# Inclusive ends of each integer scalar's range.
_RANGES = {
    "int32": (-2**31, 2**31 - 1), "sint32": (-2**31, 2**31 - 1),
    "uint32": (0, 2**32 - 1), "int64": (-2**63, 2**63 - 1),
    "sint64": (-2**63, 2**63 - 1), "uint64": (0, 2**64 - 1),
}


class TestIntegerRanges:
    @pytest.mark.parametrize("type_name", sorted(_RANGES))
    def test_values_are_range_checked_where_they_enter(self, type_name):
        low, high = _RANGES[type_name]
        desc = MessageDescriptor("Ranged", [FieldDescriptor("n", type_name,
                                                            1)])
        assert desc(n=low).n == low and desc(n=high).n == high
        msg = desc()
        msg.n = high
        assert Message.from_bytes(desc, msg.to_bytes()).n == high
        for bad in (low - 1, high + 1):
            with pytest.raises(ValueError) as raised:
                desc(n=bad)
            text = str(raised.value)
            assert f"message Ranged: field 'n' is {type_name}," in text
            assert text.endswith(f"; got {bad}")
            with pytest.raises(ValueError,
                               match="message Ranged: field 'n' is"):
                msg.n = bad
            assert msg.n == high

    def test_the_error_names_the_range(self):
        desc = descriptor_of([("i", "int32", 1), ("u", "uint64", 2)])
        with pytest.raises(ValueError,
                           match=r"integers in \[-2\*\*31, 2\*\*31\)"):
            desc(i=2**40)
        with pytest.raises(ValueError,
                           match=r"non-negative integers below 2\*\*64"):
            desc(u=-1)

    def test_subclasses_are_range_checked_too(self):
        class Big(int):
            pass

        desc = descriptor_of([("n", "int32", 1)])
        assert desc(n=Big(5)).n == 5
        with pytest.raises(ValueError):
            desc(n=Big(2**31))

    def test_parsing_does_not_range_check(self):
        wide = descriptor_of([("n", "uint64", 1), ("s", "sint64", 2)])
        narrow = descriptor_of([("n", "uint32", 1), ("s", "int32", 2)])
        data = wide(n=2**40, s=-2**40).to_bytes()
        decoded = Message.from_bytes(narrow, data)
        assert (decoded.n, decoded.s) == (2**40, -2**40)


class TestCopies:
    def test_copy_and_deepcopy(self):
        desc = descriptor_of([("inst", "netrpc.INTINTMap", 1),
                              ("t", "netrpc.FPArray", 2),
                              ("s", "string", 3)])
        msg = desc(inst={1: 2}, t=[0.5], s="x")
        shallow, deep = copy.copy(msg), copy.deepcopy(msg)
        assert shallow == msg and deep == msg
        assert type(shallow) is type(msg) and type(deep) is type(msg)
        assert shallow.inst is msg.inst
        deep.inst[3] = 4
        deep.t.append(1.0)
        assert msg.inst == {1: 2} and msg.t == [0.5]
        with pytest.raises(TypeError):
            deep.s = 1                      # the copy still validates


class TestGeneratedCode:
    def test_is_counted_for_core(self):
        cls = grad_descriptor().message_class
        for function in (cls.__init__, cls.to_bytes, cls.parse):
            filename = function.__code__.co_filename
            assert filename.startswith(messages.__file__ + "<NewGrad")
            assert package_of(filename) == "core"

    def test_a_validation_traceback_shows_the_generated_line(self):
        desc = MessageDescriptor("TracebackProbe",
                                 [FieldDescriptor("n", "int32", 1)])
        with pytest.raises(ValueError) as raised:
            desc(n=2**40)
        text = "".join(traceback.format_exception(
            raised.type, raised.value, raised.tb))
        generated = desc.message_class.__init__.__code__.co_filename
        assert f'File "{generated}", line' in text
        assert "n = field0.validate(n, 'TracebackProbe')" in text

    def test_reparsing_a_message_reuses_its_code(self):
        first, second = grad_descriptor(), grad_descriptor()
        assert first.message_class is not second.message_class
        assert first.message_class.parse.__code__ is \
            second.message_class.parse.__code__
