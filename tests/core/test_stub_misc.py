"""Misc stub/channel behaviours: rounds, CallInfo, server snapshots."""

import pytest

from repro.control import build_rack
from repro.core import Channel, NetRPCService, ServerStub, register_service
from repro.netsim import EventFailed, scaled
from repro.obs.tracer import TRACE

CAL = scaled()

PROTO = """
import "netrpc.proto";
message Push { netrpc.STRINTMap kvs = 1; }
message PushAck { string msg = 1; }
message Read { netrpc.STRINTMap kvs = 1; }
message ReadOut { netrpc.STRINTMap kvs = 1; }
service KV {
  rpc Push (Push) returns (PushAck) {} filter "push.nf"
  rpc Read (Read) returns (ReadOut) {} filter "read.nf"
}
"""

FILTERS = {
    "push.nf": """{"AppName": "KV-1", "addTo": "Push.kvs",
                   "CntFwd": {"to": "SRC", "threshold": 0}}""",
    "read.nf": """{"AppName": "KV-1", "get": "ReadOut.kvs",
                   "CntFwd": {"to": "SRC", "threshold": 0}}""",
}


def make(clients=("c0",)):
    dep = build_rack(len(clients), 1, cal=CAL)
    service = NetRPCService.from_text(PROTO, "KV", FILTERS)
    registered = register_service(dep, service, server="s0",
                                  clients=list(clients))
    return dep, registered


class TestRounds:
    def test_rounds_auto_increment_per_method(self):
        dep, registered = make()
        stub = Channel(registered, "c0").stub()
        push = registered.binding("Push").request
        stub.call("Push", push(kvs={"a": 1}))
        stub.call("Push", push(kvs={"a": 1}))
        assert stub._rounds["Push"] == 2
        assert "Read" not in stub._rounds

    def test_explicit_round_does_not_advance_counter(self):
        dep, registered = make()
        stub = Channel(registered, "c0").stub()
        push = registered.binding("Push").request
        stub.call("Push", push(kvs={"a": 1}), round=7)
        assert "Push" not in stub._rounds


class TestCallInfo:
    def test_info_reports_paths(self):
        dep, registered = make()
        stub = Channel(registered, "c0").stub()
        push = registered.binding("Push").request
        _, first = stub.call("Push", push(kvs={"x": 1}))
        dep.sim.run(until=dep.sim.now + 0.01)
        _, second = stub.call("Push", push(kvs={"x": 1}))
        assert first.fallback_pairs == 1 and first.mapped_pairs == 0
        assert second.mapped_pairs == 1 and second.fallback_pairs == 0
        assert second.cache_hit_ratio == 1.0
        assert first.overflow_chunks == 0


class TestServerSnapshot:
    def test_inc_map_snapshot_merges_switch_and_software(self):
        dep, registered = make()
        server = ServerStub(registered)
        stub = Channel(registered, "c0").stub()
        push = registered.binding("Push").request
        stub.call("Push", push(kvs={"a": 3, "b": 4}))   # software path
        dep.sim.run(until=dep.sim.now + 0.01)
        stub.call("Push", push(kvs={"a": 5}))           # switch path
        dep.sim.run(until=dep.sim.now + 0.01)
        snapshot = server.inc_map_snapshot()
        assert snapshot["a"] == 8
        assert snapshot["b"] == 4

    def test_snapshot_without_switch_part(self):
        dep, registered = make()
        server = ServerStub(registered)
        stub = Channel(registered, "c0").stub()
        push = registered.binding("Push").request
        stub.call("Push", push(kvs={"a": 3}))
        dep.sim.run(until=dep.sim.now + 0.01)
        software_only = server.inc_map_snapshot(include_switch=False)
        assert software_only.get("a", 0) in (0, 3)


class TestMultiClientSharing:
    def test_grants_shared_across_clients_via_server(self):
        dep, registered = make(clients=("c0", "c1"))
        stub0 = Channel(registered, "c0").stub()
        stub1 = Channel(registered, "c1").stub()
        push = registered.binding("Push").request
        read = registered.binding("Read").request
        stub0.call("Push", push(kvs={"shared": 10}))
        dep.sim.run(until=dep.sim.now + 0.02)
        stub1.call("Push", push(kvs={"shared": 5}))
        dep.sim.run(until=dep.sim.now + 0.02)
        reply, _ = stub0.call("Read", read(kvs={"shared": 0}))
        assert reply.kvs["shared"] == 15


class TestOneEventPerCall:
    """A stub call is the agent's task event: ``submit(task, finish)``
    succeeds it with the reply the stub builds from the task result."""

    @staticmethod
    def _start(dep, registered):
        stub = Channel(registered, "c0").stub()
        push = registered.binding("Push").request
        event = stub.call_async("Push", push(kvs={"a": 1, "b": 2}))
        (tstate,) = dep.client_agents["c0"].app_state("KV-1") \
            .tasks.values()
        return event, tstate

    def test_call_async_returns_the_agents_own_event(self):
        dep, registered = make()
        event, tstate = self._start(dep, registered)
        assert tstate.done is event
        reply, info = dep.sim.run_until(event, limit=dep.sim.now + 1.0)
        assert info.mapped_pairs + info.fallback_pairs == 2
        assert reply.descriptor.name == "PushAck"

    def test_a_failed_task_fails_the_call(self):
        dep, registered = make()
        sim = dep.sim
        event, _tstate = self._start(dep, registered)
        seen = []

        def caller():
            try:
                yield event
            except EventFailed as exc:
                seen.append(exc.cause)

        proc = sim.process(caller())
        boom = RuntimeError("task lost")
        sim.schedule(0.0, lambda _value: event.fail(boom), None)
        sim.run_until(proc, limit=sim.now + 1.0)
        assert seen == [boom]
        sim.run(until=sim.now + 1e-3)       # the late results are dropped
        assert event.value is boom

    def test_the_task_span_is_recorded_before_the_caller_resumes(self):
        dep, registered = make()
        sim = dep.sim
        at_resume = []
        TRACE.clear()
        TRACE.start()
        try:
            event, _tstate = self._start(dep, registered)

            def caller():
                reply, _info = yield event
                at_resume.append((TRACE.counts.get("client.task", 0),
                                  reply.descriptor.name))

            sim.run_until(sim.process(caller()), limit=sim.now + 1.0)
        finally:
            TRACE.stop()
            TRACE.clear()
        assert at_resume == [(1, "PushAck")]
