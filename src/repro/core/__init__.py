"""The NetRPC RPC layer: IDL, IEDTs, NetFilters, channels, and stubs.

This is the paper's primary user-facing contribution (§4): a gRPC-style
programming model where declaring fields with INC-enabled data types and
attaching a NetFilter to an ``rpc`` definition offloads the method's
computation into the network.
"""

from .iedt import (IEDTKind, decode_column, decode_items, default_value,
                   encode_column, encode_items, is_iedt)
from .idl import (
    MethodDescriptor,
    ProtoFile,
    ProtoSyntaxError,
    ServiceDescriptor,
    parse_proto,
)
from .messages import FieldDescriptor, Message, MessageDescriptor
from .netfilter import NetFilterError, netfilter_to_json, parse_netfilter
from .service import NetRPCService, RegisteredService, register_service
from .status import RpcError, Status, StatusCode
from .stubs import CallInfo, Channel, ClientStub, ServerStub

__all__ = [
    "parse_proto", "ProtoFile", "ProtoSyntaxError",
    "ServiceDescriptor", "MethodDescriptor",
    "Message", "MessageDescriptor", "FieldDescriptor",
    "IEDTKind", "is_iedt", "encode_items", "decode_items", "default_value",
    "encode_column", "decode_column",
    "parse_netfilter", "netfilter_to_json", "NetFilterError",
    "NetRPCService", "RegisteredService", "register_service",
    "Channel", "ClientStub", "ServerStub", "CallInfo",
    "Status", "StatusCode", "RpcError",
]
