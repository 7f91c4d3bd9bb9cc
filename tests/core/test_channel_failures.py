"""RPC-layer behaviour under unusual conditions."""

import pytest

from repro.control import build_rack
from repro.core import Channel, NetRPCService, RpcError, register_service
from repro.netsim import scaled

CAL = scaled()

PROTO = """
import "netrpc.proto";
message Req { netrpc.STRINTMap kvs = 1; }
message Rep { netrpc.STRINTMap kvs = 1; }
service S {
  rpc Get (Req) returns (Rep) {} filter "get.nf"
}
"""

FILTER = """{"AppName": "CF", "get": "Rep.kvs",
             "CntFwd": {"to": "SRC", "threshold": 0}}"""


def make():
    dep = build_rack(1, 1, cal=CAL)
    service = NetRPCService.from_text(PROTO, "S", {"get.nf": FILTER})
    registered = register_service(dep, service, server="s0",
                                  clients=["c0"])
    return dep, registered


class TestBlockingCallErrors:
    def test_call_timeout_raises_rpc_error(self):
        dep, registered = make()
        stub = Channel(registered, "c0").stub()
        request = registered.binding("Get").request(kvs={"k": 0})
        # Sever the client's uplink so nothing ever completes.
        dep.topology.links[("c0", "sw0")].loss = type(
            "Drop", (), {"drops": staticmethod(lambda p, r: True)})()
        with pytest.raises(RpcError):
            stub.call("Get", request, timeout=0.002)

    def test_empty_request_completes(self):
        dep, registered = make()
        stub = Channel(registered, "c0").stub()
        reply, info = stub.call("Get",
                                registered.binding("Get").request(kvs={}))
        assert reply.kvs == {}
        assert info.mapped_pairs == 0 and info.fallback_pairs == 0

    def test_unread_keys_default_to_zero(self):
        dep, registered = make()
        stub = Channel(registered, "c0").stub()
        reply, _ = stub.call(
            "Get", registered.binding("Get").request(
                kvs={"never-written": 0}))
        assert reply.kvs == {"never-written": 0}


class TestConcurrentCallsOneClient:
    def test_many_outstanding_calls_all_complete(self):
        dep, registered = make()
        stub = Channel(registered, "c0").stub()
        request_type = registered.binding("Get").request
        events = [stub.call_async("Get",
                                  request_type(kvs={f"k{i}": 0}))
                  for i in range(40)]
        for event in events:
            reply, _ = dep.sim.run_until(event, limit=dep.sim.now + 30.0)
            assert set(reply.kvs.values()) <= {0}
