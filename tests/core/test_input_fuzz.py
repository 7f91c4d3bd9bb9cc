"""Malformed user input fails with the parser's own typed error.

``parse_netfilter`` and ``parse_proto`` read what a user writes, so
whatever they are fed, the only exception that may escape is
``NetFilterError`` or ``ProtoSyntaxError`` — never an
``AttributeError`` or ``TypeError`` from deeper down — and it says
where: a ``NetFilterError`` starts with the field it rejects, a
``ProtoSyntaxError`` with the line.  The service binder, which compiles
each method's filter against its messages, puts the method (or for a
service-wide rule, the service) in front: ``rpc <Method>: …``.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (NetFilterError, NetRPCService, ProtoSyntaxError,
                        parse_netfilter, parse_proto)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)

# Names the parsers know, so that the fuzz reaches past the key checks.
WORDS = st.sampled_from([
    "nop", "copy", "shadow", "lazy", "add", "fadd", "fmax", "ALL", "SRC",
    "SERVER", "persist", "fresh", "M.f", "ClientID", "NULL", "max:3",
    "min", "shift:2", "", "Grad.values", "Grad.note", "Sum.values",
    "Sum.total"])
VALUE = st.one_of(WORDS, JSON)
CNTFWD = st.one_of(
    JSON, st.dictionaries(st.sampled_from(["to", "threshold", "key"]),
                          VALUE, max_size=3))
MODIFY = st.one_of(
    VALUE, st.dictionaries(st.sampled_from(["op", "para"]), VALUE,
                           max_size=2))
NETFILTER = st.fixed_dictionaries({}, optional={
    "AppName": st.one_of(st.just("app"), VALUE),
    "Precision": VALUE,
    "get": VALUE,
    "addTo": VALUE,
    "clear": VALUE,
    "modify": MODIFY,
    "CntFwd": CNTFWD,
    "retry": VALUE,
    "agg": VALUE,
})

# What a NetFilterError may start with: a top-level key or a sub-field.
FIELDS = {"AppName", "Precision", "get", "addTo", "clear", "modify",
          "modify.op", "modify.para", "CntFwd", "CntFwd.to",
          "CntFwd.threshold", "CntFwd.key", "retry", "agg"}


def rejected_field(exc):
    """The field a NetFilterError names: the text before its colon."""
    field, colon, _ = str(exc).partition(":")
    assert colon and field in FIELDS, str(exc)
    return field


@pytest.mark.parametrize("config", [
    {"AppName": "a", "clear": {}},
    {"AppName": "a", "clear": 1},
    {"AppName": "a", "retry": 3},
    {"AppName": "a", "agg": ["add"]},
    {"AppName": "a", "modify": {"op": 2}},
    {"AppName": "a", "CntFwd": {"to": None}},
])
def test_non_string_names_are_netfilter_errors(config):
    with pytest.raises(NetFilterError) as caught:
        parse_netfilter(config)
    (key,) = set(config) - {"AppName"}
    assert rejected_field(caught.value) in {key, f"{key}.op", f"{key}.to"}


@settings(max_examples=400, deadline=None)
@given(config=NETFILTER)
def test_netfilter_rejects_with_netfilter_error_only(config):
    try:
        parse_netfilter(config)
    except NetFilterError as exc:
        key = rejected_field(exc).partition(".")[0]
        assert key in config or key == "AppName"      # AppName may lack


# One method whose filter is the fuzzed one: references can name a real
# IEDT field, a scalar, an unknown field or another message.  The filters
# keep a valid AppName and mostly known words, so that most get past
# ``parse_netfilter`` to the binder's own checks.
BIND_PROTO = """
import "netrpc.proto";
message Grad { netrpc.INT32Array values = 1; string note = 2; }
message Sum { netrpc.INT32Array values = 1; }
service Sync { rpc Update (Grad) returns (Sum) {} filter "f.nf" }
"""
BIND_FILTER = st.fixed_dictionaries({"AppName": st.just("app")}, optional={
    "get": WORDS, "addTo": WORDS, "clear": WORDS, "agg": WORDS,
    "modify": MODIFY, "CntFwd": CNTFWD,
})


@settings(max_examples=400, deadline=None)
@given(config=st.one_of(BIND_FILTER, NETFILTER))
def test_service_binder_rejects_naming_the_method(config):
    try:
        NetRPCService.from_text(BIND_PROTO, "Sync", {"f.nf": config})
    except NetFilterError as exc:
        assert str(exc).startswith("rpc Update: "), str(exc)


def test_binder_errors_name_the_method_or_service():
    with pytest.raises(NetFilterError, match=r"^rpc Update: .*no such filter"):
        NetRPCService.from_text(BIND_PROTO, "Sync", {})
    with pytest.raises(NetFilterError, match=r"^rpc Update: clear: "):
        NetRPCService.from_text(BIND_PROTO, "Sync",
                                {"f.nf": {"AppName": "a", "clear": 1}})
    two = BIND_PROTO.replace(
        '"f.nf" }', '"f.nf"\n  rpc Peek (Grad) returns (Sum) {} filter "g.nf" }')
    with pytest.raises(NetFilterError,
                       match=r"^service Sync: .*share one AppName"):
        NetRPCService.from_text(two, "Sync", {"f.nf": {"AppName": "a"},
                                              "g.nf": {"AppName": "b"}})


VALID_PROTO = """
import "netrpc.proto";

// Figure 2, plus a scalar field and a second method.
message NewGrad {
  netrpc.FPArray tensor = 1;
  string note = 2;
}
message AgtrGrad {
  netrpc.FPArray tensor = 1;
}
service GradientService {
  rpc Update (NewGrad) returns (AgtrGrad) {} filter "agtr.nf"
  rpc Peek (NewGrad) returns (AgtrGrad) {}
}
"""

PIECES = st.sampled_from([
    "{", "}", "(", ")", ";", "=", "\"", "//", "\n", " ", "0", "-1",
    "19000", "536870912", "message", "service", "rpc", "returns",
    "filter", "import", "repeated", "netrpc.", "int32", "M", "."])
EDIT = st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                 st.integers(0, len(VALID_PROTO)), st.integers(1, 8),
                 PIECES)


def mutate(text, edits):
    for kind, position, length, piece in edits:
        position = min(position, len(text))
        if kind == "delete":
            text = text[:position] + text[position + length:]
        elif kind == "insert":
            text = text[:position] + piece + text[position:]
        else:
            text = text[:position] + piece + text[position + length:]
    return text


def test_the_unmutated_proto_parses():
    proto = parse_proto(VALID_PROTO)
    assert set(proto.messages) == {"NewGrad", "AgtrGrad"}


@settings(max_examples=400, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_proto_rejects_with_syntax_error_only(edits):
    text = mutate(VALID_PROTO, edits)
    try:
        parse_proto(text)
    except ProtoSyntaxError as exc:
        match = re.match(r"line (\d+): ", str(exc))
        assert match, str(exc)
        assert 1 <= int(match.group(1)) <= text.count("\n") + 1


@pytest.mark.parametrize("text", [
    "message M { int32 a = 1;",                 # input ends in a message
    "message M { int32 a = 1; }\nservice S {\n rpc R (M) returns (N) {}\n}",
])
def test_every_proto_rejection_names_a_line(text):
    with pytest.raises(ProtoSyntaxError, match=r"^line \d+: "):
        parse_proto(text)
