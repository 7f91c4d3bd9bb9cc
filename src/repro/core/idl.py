"""Parser for NetRPC's interface definition language (paper Figure 2).

The IDL is the protobuf subset the paper's examples use, with one
extension: an optional ``filter "file.nf"`` clause after an ``rpc``
definition naming the NetFilter that configures the method's in-network
processing.

Supported syntax::

    import "netrpc.proto";

    message NewGrad {
      netrpc.FPArray tensor = 1;
      string note = 2;
    }

    service GradientService {
      rpc Update (NewGrad) returns (AgtrGrad) {} filter "agtr.nf"
    }
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .messages import FieldDescriptor, MessageDescriptor

__all__ = ["ProtoFile", "ServiceDescriptor", "MethodDescriptor",
           "parse_proto", "ProtoSyntaxError"]


class ProtoSyntaxError(ValueError):
    """Raised on malformed IDL input, with a line number."""


# Field numbers protobuf accepts: 1 .. 2**29 - 1, minus the block it
# reserves for its own implementation.
MAX_FIELD_TAG = 2**29 - 1
RESERVED_TAGS = range(19000, 20000)


@dataclass
class MethodDescriptor:
    """One ``rpc`` definition inside a service."""

    name: str
    request_type: str
    reply_type: str
    filter_file: Optional[str] = None


@dataclass
class ServiceDescriptor:
    name: str
    methods: List[MethodDescriptor] = field(default_factory=list)



@dataclass
class ProtoFile:
    """The parsed result: message types plus service definitions."""

    messages: Dict[str, MessageDescriptor] = field(default_factory=dict)
    services: Dict[str, ServiceDescriptor] = field(default_factory=dict)
    imports: List[str] = field(default_factory=list)

    def message(self, name: str) -> MessageDescriptor:
        try:
            return self.messages[name]
        except KeyError:
            raise KeyError(f"undefined message type {name!r}") from None

    def service(self, name: str) -> ServiceDescriptor:
        try:
            return self.services[name]
        except KeyError:
            raise KeyError(f"undefined service {name!r}") from None


_TOKEN_RE = re.compile(r"""
    (?P<comment>//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>[{}()=;])
  | (?P<space>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str):
    line = 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind in ("space", "comment"):
            line += value.count("\n")
            continue
        if kind == "bad":
            raise ProtoSyntaxError(
                f"line {line}: unexpected character {value!r}")
        yield kind, value, line
        line += value.count("\n")


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        token = self.peek()
        if token is None:
            line = self.tokens[-1][2] if self.tokens else 1
            raise ProtoSyntaxError(f"line {line}: unexpected end of input")
        self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        got_kind, got_value, line = self.next()
        if got_kind != kind or (value is not None and got_value != value):
            want = value or kind
            raise ProtoSyntaxError(
                f"line {line}: expected {want!r}, got {got_value!r}")
        return got_value

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        if token and token[0] == kind and \
                (value is None or token[1] == value):
            self.pos += 1
            return True
        return False

    # ------------------------------------------------------------------
    def parse(self) -> ProtoFile:
        proto = ProtoFile()
        while self.peek() is not None:
            kind, value, line = self.peek()
            if kind == "ident" and value == "import":
                self.next()
                name = self.expect("string")
                proto.imports.append(name.strip('"'))
                self.accept("punct", ";")
            elif kind == "ident" and value == "syntax":
                self.next()
                self.expect("punct", "=")
                self.expect("string")
                self.accept("punct", ";")
            elif kind == "ident" and value == "message":
                descriptor = self._parse_message()
                if descriptor.name in proto.messages:
                    raise ProtoSyntaxError(
                        f"line {line}: duplicate message "
                        f"{descriptor.name!r}")
                proto.messages[descriptor.name] = descriptor
            elif kind == "ident" and value == "service":
                service = self._parse_service(proto)
                if service.name in proto.services:
                    raise ProtoSyntaxError(
                        f"line {line}: duplicate service {service.name!r}")
                proto.services[service.name] = service
            else:
                raise ProtoSyntaxError(
                    f"line {line}: expected import/message/service, got "
                    f"{value!r}")
        return proto

    def _parse_message(self) -> MessageDescriptor:
        self.expect("ident", "message")
        name = self.expect("ident")
        self.expect("punct", "{")
        fields = []
        while not self.accept("punct", "}"):
            type_name = self.expect("ident")
            field_name = self.expect("ident")
            self.expect("punct", "=")
            _, tag_text, line = self.next()
            if not tag_text.isdigit():
                raise ProtoSyntaxError(
                    f"line {line}: field tag must be a number")
            self.expect("punct", ";")
            tag = int(tag_text)
            where = f"line {line}: field {field_name!r} of message {name}"
            if not 1 <= tag <= MAX_FIELD_TAG:
                raise ProtoSyntaxError(
                    f"{where}: tag {tag} outside [1, {MAX_FIELD_TAG}]")
            if tag in RESERVED_TAGS:
                raise ProtoSyntaxError(
                    f"{where}: tags {RESERVED_TAGS.start}-"
                    f"{RESERVED_TAGS.stop - 1} are reserved")
            for other in fields:
                if other.name == field_name:
                    raise ProtoSyntaxError(f"{where}: duplicate field name")
                if other.tag == tag:
                    raise ProtoSyntaxError(
                        f"{where}: tag {tag} already used by field "
                        f"{other.name!r}")
            try:
                fields.append(FieldDescriptor(field_name, type_name, tag))
            except ValueError as exc:
                raise ProtoSyntaxError(f"line {line}: {exc}") from None
        return MessageDescriptor(name, fields)

    def _parse_service(self, proto: ProtoFile) -> ServiceDescriptor:
        self.expect("ident", "service")
        service = ServiceDescriptor(self.expect("ident"))
        self.expect("punct", "{")
        while not self.accept("punct", "}"):
            self.expect("ident", "rpc")
            line = self.tokens[self.pos - 1][2]
            method_name = self.expect("ident")
            self.expect("punct", "(")
            request_type = self.expect("ident")
            self.expect("punct", ")")
            self.expect("ident", "returns")
            self.expect("punct", "(")
            reply_type = self.expect("ident")
            self.expect("punct", ")")
            if self.accept("punct", "{"):
                self.expect("punct", "}")
            filter_file = None
            if self.accept("ident", "filter"):
                filter_file = self.expect("string").strip('"')
            self.accept("punct", ";")
            for type_name in (request_type, reply_type):
                if type_name not in proto.messages:
                    raise ProtoSyntaxError(
                        f"line {line}: rpc {method_name}: undefined message "
                        f"type {type_name!r} (define messages before "
                        f"services)")
            service.methods.append(MethodDescriptor(
                method_name, request_type, reply_type, filter_file))
        return service


def parse_proto(text: str) -> ProtoFile:
    """Parse IDL text into a :class:`ProtoFile`."""
    return _Parser(text).parse()
