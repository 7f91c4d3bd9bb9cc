"""Client and server stubs: the gRPC-style call interface (paper §4).

The client stub marshals a request message, routes its IEDT fields
through the INC channel (as a :class:`~repro.inc.app.Task`) and the
plain fields as opaque payload, then assembles the reply from the INC
results and/or the server's reply bytes — "completely identical to
vanilla gRPC, hiding INC details from the users" (Figure 4).

The server stub binds user handler functions to methods and wires them
to the server agent's upcalls: per-round handlers for synchronous
aggregation, data handlers for push-style methods, and plain handlers
for vanilla RPCs.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.inc import Task, TaskResult
from repro.netsim.events import Event

from .iedt import decode_column, decode_items, encode_column, encode_items
from .messages import Message
from .service import RegisteredService
from .status import RpcError, StatusCode

__all__ = ["Channel", "ClientStub", "ServerStub", "CallInfo"]


class CallInfo:
    """Per-call INC statistics exposed next to the reply."""

    __slots__ = ("cache_hit_ratio", "overflow_chunks", "fallback_pairs",
                 "mapped_pairs")

    def __init__(self, result: TaskResult):
        self.cache_hit_ratio = result.cache_hit_ratio
        self.overflow_chunks = result.overflow_chunks
        self.fallback_pairs = result.fallback_pairs
        self.mapped_pairs = result.mapped_pairs


class Channel:
    """A client host's connection point (CreateCustomChannel equivalent)."""

    def __init__(self, registered: RegisteredService, client_host: str):
        if client_host not in registered.clients:
            raise ValueError(
                f"{client_host!r} is not a registered client of "
                f"{registered.service.app_name}; clients: "
                f"{registered.clients}")
        self.registered = registered
        self.deployment = registered.deployment
        self.agent = self.deployment.client_agents[client_host]

    def stub(self) -> "ClientStub":
        return ClientStub(self)


class _CallPlan:
    """Everything about one method that is the same for every call.

    Resolved from the binding and its :class:`AppConfig` the first time a
    stub calls the method, so ``call_async`` only reads it.
    """

    __slots__ = ("binding", "config", "reply_class", "codec", "stream",
                 "stream_kind", "dense", "indexed", "plain", "expect_result")

    def __init__(self, binding, config):
        self.binding = binding
        self.config = config
        self.reply_class = binding.reply.message_class
        self.codec = config.program.codec
        stream = binding.stream_field
        self.stream: Optional[str] = None if stream is None else stream.name
        self.stream_kind = None if stream is None else stream.kind
        # Dense SyncAgtr tensor: the agent takes the value column.  A map
        # under linear addressing is sparse integer indices instead.
        self.dense = bool(stream is not None and config.linear
                          and stream.kind.is_array)
        self.indexed = bool(stream is not None and config.linear
                            and stream.kind.is_map)
        self.plain: bool = binding.is_plain
        program = binding.program
        self.expect_result = program.replies or self.plain


class ClientStub:
    """Issues calls on a channel.  ``stub.MethodName(request)`` works."""

    def __init__(self, channel: Channel):
        self._registered = channel.registered
        self._agent = channel.agent
        self._sim = channel.deployment.sim
        self._rounds: Dict[str, int] = {}
        self._plans: Dict[str, _CallPlan] = {}

    # ------------------------------------------------------------------
    def call_async(self, method_name: str, request: Message,
                   round: Optional[int] = None) -> Event:
        """Start a call; the event succeeds with ``(reply, CallInfo)``."""
        plan = self._plans.get(method_name)
        if plan is None:
            plan = self._plans[method_name] = _CallPlan(
                self._registered.binding(method_name),
                self._registered.config(method_name))
        expected = plan.binding.request.name
        if request.descriptor.name != expected:
            raise RpcError(StatusCode.INVALID_ARGUMENT,
                           f"{method_name} expects {expected}, "
                           f"got {request.descriptor.name}")
        if round is None:
            round = self._rounds.get(method_name, 0)
            self._rounds[method_name] = round + 1

        items: list = []
        column: Optional[list] = None
        stream_len = 0
        if plan.stream is not None:
            value = getattr(request, plan.stream)
            if plan.dense:
                column, _overflows = encode_column(plan.stream_kind, value,
                                                   plan.codec)
                stream_len = len(column)
            else:
                items, _overflows = encode_items(plan.stream_kind, value,
                                                 plan.codec)
                stream_len = len(items)

        payload = None
        payload_bytes = 0
        if plan.plain:
            payload = ("rpc-call", request.to_bytes())
            payload_bytes = len(payload[1]) + 8
        else:
            scalar_bytes = request.to_bytes(include_iedt=False)
            if scalar_bytes:
                payload = ("rpc-data", method_name, scalar_bytes)
                payload_bytes = len(scalar_bytes) + 8

        task = Task(app=plan.config, items=items, column=column, round=round,
                    expect_result=plan.expect_result,
                    payload=payload, payload_bytes=payload_bytes,
                    indexed=plan.indexed)
        # The agent's own event is the call's: it succeeds with what
        # _finish makes of the task result.
        return self._agent.submit(task,
                                  partial(self._finish, plan, stream_len))

    def _finish(self, plan: _CallPlan, stream_len: int,
                result: TaskResult) -> Tuple[Message, CallInfo]:
        binding = plan.binding
        payload = result.payload
        if isinstance(payload, tuple) and payload and \
                payload[0] == "rpc-reply" and payload[1]:
            reply = plan.reply_class.parse(payload[1])
        else:
            reply = plan.reply_class()
        if binding.result_field is not None:
            kind = binding.result_field.kind
            if kind.is_array and result.column is not None:
                value = decode_column(kind, result.column, plan.codec)
            else:
                value = decode_items(
                    kind, result.values, plan.codec,
                    length=stream_len if kind.is_array else 0)
            setattr(reply, binding.result_field.name, value)
        return reply, CallInfo(result)

    # ------------------------------------------------------------------
    def call(self, method_name: str, request: Message,
             round: Optional[int] = None, timeout: float = 30.0
             ) -> Tuple[Message, CallInfo]:
        """Blocking convenience call: drives the simulator to completion.

        Only usable from *outside* the simulation (tests, benchmarks).
        Application processes running inside the simulator must
        ``yield call_async(...)`` instead.
        """
        sim = self._sim
        event = self.call_async(method_name, request, round=round)
        try:
            return sim.run_until(event, limit=sim.now + timeout)
        except Exception as exc:
            raise RpcError(StatusCode.DEADLINE_EXCEEDED, str(exc)) from exc

    def __getattr__(self, name: str) -> Callable:
        """gRPC style: ``stub.Update(request)`` dispatches by method name."""
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            self._registered.binding(name)
        except KeyError:
            raise AttributeError(
                f"service has no method {name!r}") from None

        def invoke(request: Message, round: Optional[int] = None,
                   timeout: float = 30.0):
            return self.call(name, request, round=round, timeout=timeout)

        return invoke


class ServerStub:
    """Binds user handlers to the service on the server host."""

    def __init__(self, registered: RegisteredService):
        self._registered = registered
        self.deployment = registered.deployment
        self.agent = self.deployment.server_agents[registered.server]
        self._app_key = registered.service.app_name
        self._call_handlers: Dict[str, Callable[[str, Message], Message]] = {}
        self._data_handlers: Dict[str, Callable[[str, Message], None]] = {}
        self.agent.set_call_handler(self._app_key, self._on_call)
        self.agent.set_data_handler(self._app_key, self._on_data)

    # ------------------------------------------------------------------
    def bind(self, method_name: str,
             handler: Callable[[str, Message], Message]) -> None:
        """Plain-call handler: ``handler(client, request) -> reply``."""
        self._registered.binding(method_name)  # validates the name
        self._call_handlers[method_name] = handler

    def bind_data(self, method_name: str,
                  handler: Callable[[str, Message], None]) -> None:
        """Push-data handler for methods whose stream reaches the server."""
        self._registered.binding(method_name)
        self._data_handlers[method_name] = handler

    def bind_round(self, handler: Callable[[int, dict], None]) -> None:
        """Synchronous-aggregation handler: ``handler(round, values)``.

        ``values`` maps array index -> aggregated int32; invoked once per
        completed round under the copy clear policy.  The server keeps
        round state only while a handler is bound, so the handler sees
        every round whose first chunk arrives after this call — bind it
        before the first call of a round.
        """
        self.agent.set_round_handler(self._app_key, handler)

    # ------------------------------------------------------------------
    def inc_map_snapshot(self, include_switch: bool = True) -> Dict[Any, int]:
        """Authoritative view of the application's INC map.

        Merges the server's software map with the exact switch register
        values of every granted key (a control-plane read).
        """
        state = self.agent.app_state(self._app_key)
        soft = state.soft
        snapshot = {key: soft.get(key) for key in soft.snapshot()}
        if include_switch and state.mm is not None:
            for logical in state.mm.mapped_logicals():
                key = state.key_of_logical[logical]
                snapshot[key] = soft.get_with(
                    key, self.agent.register_value(state, key))
        return snapshot

    # ------------------------------------------------------------------
    def _on_call(self, client: str, gaid: int, request_bytes: bytes) -> bytes:
        binding = self._registered.binding_for_gaid(gaid)
        handler = self._call_handlers.get(binding.name)
        if handler is None:
            return b""
        request = binding.request.message_class.parse(request_bytes)
        reply = handler(client, request)
        if reply is None:
            return b""
        return reply.to_bytes()

    def _on_data(self, client: str, pkt) -> None:
        payload = pkt.payload
        if not (isinstance(payload, tuple) and payload
                and payload[0] == "rpc-data"):
            return
        _tag, method_name, scalar_bytes = payload
        handler = self._data_handlers.get(method_name)
        if handler is None:
            return
        binding = self._registered.binding(method_name)
        request = binding.request.message_class.parse(scalar_bytes)
        handler(client, request)
