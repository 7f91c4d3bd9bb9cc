"""Service definitions: binding IDL, NetFilters, and INC deployments.

:class:`NetRPCService` couples a parsed proto file with the NetFilter
configurations its ``filter`` clauses reference, validating that every
filter's ``get``/``addTo`` references name real IEDT fields of the
method's request/reply types.

:func:`register_service` performs the paper's registration step: it
asks the controller for switch memory and GAIDs and wires the client
and server agents, returning a :class:`RegisteredService` that stubs
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control import Deployment
from repro.inc import AppConfig
from repro.protocol import CntFwdSpec, ForwardTarget, RIPProgram

from .idl import MethodDescriptor, ProtoFile, ServiceDescriptor, parse_proto
from .messages import FieldDescriptor, MessageDescriptor
from .netfilter import NetFilterError, parse_netfilter

__all__ = ["NetRPCService", "RegisteredService", "register_service"]


@dataclass
class _MethodBinding:
    """Resolved view of one RPC method."""

    descriptor: MethodDescriptor
    request: MessageDescriptor
    reply: MessageDescriptor
    program: RIPProgram
    stream_field: Optional[FieldDescriptor] = None  # request-side IEDT
    result_field: Optional[FieldDescriptor] = None  # reply-side IEDT

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def linear(self) -> bool:
        for fd in (self.stream_field, self.result_field):
            if fd is not None and fd.kind is not None and fd.kind.is_array:
                return True
        return False

    @property
    def is_plain(self) -> bool:
        """True when the method carries no INC stream (vanilla gRPC)."""
        return self.stream_field is None and self.result_field is None


class NetRPCService:
    """A parsed service plus its NetFilter programs, ready to register."""

    def __init__(self, proto: ProtoFile, service_name: str,
                 filters: Optional[Dict[str, object]] = None,
                 app_name: Optional[str] = None):
        self.proto = proto
        self.descriptor: ServiceDescriptor = proto.service(service_name)
        filters = filters or {}
        self.bindings: List[_MethodBinding] = []
        app_names = set()
        for method in self.descriptor.methods:
            program = self._compile_filter(method, filters, service_name)
            binding = self._bind(method, program)
            self.bindings.append(binding)
            app_names.add(program.app_name)
        self._by_name: Dict[str, _MethodBinding] = {}
        for binding in self.bindings:
            self._by_name.setdefault(binding.name, binding)
        if len(app_names) > 1:
            raise NetFilterError(
                f"all NetFilters of service {service_name} must share one "
                f"AppName; got {sorted(app_names)}")
        self.app_name = app_name or (app_names.pop() if app_names
                                     else service_name)

    @classmethod
    def from_text(cls, proto_text: str, service_name: str,
                  filters: Optional[Dict[str, object]] = None
                  ) -> "NetRPCService":
        return cls(parse_proto(proto_text), service_name, filters)

    # ------------------------------------------------------------------
    def _compile_filter(self, method: MethodDescriptor,
                        filters: Dict[str, object],
                        service_name: str) -> RIPProgram:
        if method.filter_file is None:
            # Vanilla gRPC method: a pass-through program to the server.
            return RIPProgram(app_name=service_name,
                              cntfwd=CntFwdSpec(
                                  target=ForwardTarget.SERVER, threshold=0))
        try:
            source = filters[method.filter_file]
        except KeyError:
            raise NetFilterError(
                f"rpc {method.name} references NetFilter "
                f"{method.filter_file!r} but no such filter was provided; "
                f"available: {sorted(filters)}") from None
        return parse_netfilter(source)

    def _bind(self, method: MethodDescriptor, program: RIPProgram
              ) -> _MethodBinding:
        request = self.proto.message(method.request_type)
        reply = self.proto.message(method.reply_type)
        stream_field = self._resolve_reference(
            program.add_to_field, method, request, "addTo")
        result_field = self._resolve_reference(
            program.get_field, method, reply, "get")
        needs_stream = program.uses_map or \
            program.cntfwd.target is not ForwardTarget.SERVER
        if stream_field is None and needs_stream:
            # get-only / counting / broadcast methods stream the keys of
            # the request's first IEDT field (values may be dummies).
            iedts = request.iedt_fields()
            if iedts:
                stream_field = iedts[0]
        return _MethodBinding(descriptor=method, request=request,
                              reply=reply, program=program,
                              stream_field=stream_field,
                              result_field=result_field)

    @staticmethod
    def _resolve_reference(reference: Optional[str],
                           method: MethodDescriptor,
                           message: MessageDescriptor,
                           which: str) -> Optional[FieldDescriptor]:
        if reference is None:
            return None
        type_name, _, field_name = reference.partition(".")
        if type_name != message.name:
            raise NetFilterError(
                f"rpc {method.name}: {which}={reference!r} does not "
                f"reference the method's {message.name} message")
        fd = message.by_name.get(field_name)
        if fd is None:
            raise NetFilterError(
                f"rpc {method.name}: {which}={reference!r} names an "
                f"unknown field of {message.name}")
        if not fd.is_iedt:
            raise NetFilterError(
                f"rpc {method.name}: field {reference!r} is not an "
                f"INC-enabled data type")
        return fd

    def binding(self, method_name: str) -> _MethodBinding:
        try:
            return self._by_name[method_name]
        except KeyError:
            raise KeyError(f"service {self.descriptor.name} has no method "
                           f"{method_name!r}") from None


@dataclass
class RegisteredService:
    """A service registered with the controller and wired to agents."""

    service: NetRPCService
    deployment: Deployment
    server: str
    clients: Tuple[str, ...]
    configs: Dict[str, AppConfig] = field(default_factory=dict)

    def __post_init__(self):
        self._by_gaid: Dict[int, _MethodBinding] = {}
        for name, config in self.configs.items():
            self._by_gaid.setdefault(config.gaid, self.service.binding(name))

    def config(self, method_name: str) -> AppConfig:
        return self.configs[method_name]

    def binding(self, method_name: str) -> _MethodBinding:
        return self.service.binding(method_name)

    def binding_for_gaid(self, gaid: int) -> _MethodBinding:
        try:
            return self._by_gaid[gaid]
        except KeyError:
            raise KeyError(f"no method bound to GAID {gaid}") from None


def register_service(deployment: Deployment, service: NetRPCService,
                     server: str, clients: Sequence[str],
                     value_slots: int = 65536, counter_slots: int = 4096,
                     cache_policy: str = "netrpc", cc_enabled: bool = True,
                     flows_per_host: int = 0, software_only: bool = False,
                     linear_overrides: Optional[Dict[str, bool]] = None,
                     mcast_groups: Optional[Dict[str, Sequence[str]]] = None
                     ) -> RegisteredService:
    """Register a service's INC applications with the controller.

    ``linear_overrides`` forces index addressing for named methods whose
    stream field is a map type (e.g. one vote counter per consensus
    instance, addressed by instance number).  ``mcast_groups`` narrows a
    method's CntFwd "ALL" multicast to a subset of the clients.
    """
    overrides = linear_overrides or {}
    groups = mcast_groups or {}
    programs = [binding.program for binding in service.bindings]
    linear = [overrides.get(binding.name, binding.linear)
              for binding in service.bindings]
    group_list = [groups.get(binding.name) for binding in service.bindings]
    needs_counters = any(p.cntfwd.counts for p in programs)
    configs = deployment.controller.register(
        programs, server=server, clients=list(clients),
        value_slots=value_slots,
        counter_slots=counter_slots if needs_counters else 0,
        linear=linear, cache_policy=cache_policy, cc_enabled=cc_enabled,
        flows_per_host=flows_per_host, software_only=software_only,
        mcast_groups=group_list)
    return RegisteredService(
        service=service, deployment=deployment, server=server,
        clients=tuple(clients),
        configs={binding.name: config
                 for binding, config in zip(service.bindings, configs)})
