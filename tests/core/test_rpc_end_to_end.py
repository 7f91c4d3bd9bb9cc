"""End-to-end RPC layer tests: the full paper programming model.

Each test builds a service exactly the way a NetRPC user would — proto
text + NetFilter JSON + stubs — and checks application-visible results
across the four INC application types of Table 1.
"""

import pytest

from repro.control import build_rack
from repro.core import (
    Channel,
    NetFilterError,
    NetRPCService,
    RpcError,
    ServerStub,
    register_service,
)
from repro.netsim import scaled

CAL = scaled()

GRAD_PROTO = """
import "netrpc.proto";
message NewGrad { netrpc.FPArray tensor = 1; }
message AgtrGrad { netrpc.FPArray tensor = 1; }
service GradientService {
  rpc Update (NewGrad) returns (AgtrGrad) {} filter "agtr.nf"
}
"""

GRAD_FILTER = """{
  "AppName": "DT-1", "Precision": 6,
  "get": "AgtrGrad.tensor", "addTo": "NewGrad.tensor",
  "clear": "copy", "modify": "nop",
  "CntFwd": {"to": "ALL", "threshold": 2, "key": "ClientID"}
}"""

MR_PROTO = """
import "netrpc.proto";
message ReduceRequest { netrpc.STRINTMap kvs = 1; }
message ReduceReply { string msg = 1; }
message QueryRequest { netrpc.STRINTMap kvs = 1; }
message QueryReply { netrpc.STRINTMap kvs = 1; }
service MapReduce {
  rpc ReduceByKey (ReduceRequest) returns (ReduceReply) {} filter "reduce.nf"
  rpc Query (QueryRequest) returns (QueryReply) {} filter "query.nf"
}
"""

MR_FILTERS = {
    "reduce.nf": """{
      "AppName": "MR-1", "Precision": 0,
      "get": "nop", "addTo": "ReduceRequest.kvs",
      "clear": "nop", "modify": "nop",
      "CntFwd": {"to": "SRC", "threshold": 0, "key": "NULL"}
    }""",
    "query.nf": """{
      "AppName": "MR-1", "Precision": 0,
      "get": "QueryReply.kvs", "addTo": "nop",
      "clear": "nop", "modify": "nop",
      "CntFwd": {"to": "SRC", "threshold": 0, "key": "NULL"}
    }""",
}


def grad_service(dep, clients=("c0", "c1")):
    service = NetRPCService.from_text(GRAD_PROTO, "GradientService",
                                      {"agtr.nf": GRAD_FILTER})
    return register_service(dep, service, server="s0", clients=clients)


def mr_service(dep, clients=("c0",)):
    service = NetRPCService.from_text(MR_PROTO, "MapReduce", MR_FILTERS)
    return register_service(dep, service, server="s0", clients=clients)


class TestSyncAggregationRPC:
    def test_two_clients_aggregate(self):
        dep = build_rack(2, 1, cal=CAL)
        registered = grad_service(dep)
        stub0 = Channel(registered, "c0").stub()
        stub1 = Channel(registered, "c1").stub()
        req_type = registered.binding("Update").request
        e0 = stub0.call_async("Update", req_type(tensor=[0.1] * 64), round=0)
        e1 = stub1.call_async("Update", req_type(tensor=[0.2] * 64), round=0)
        reply0, info0 = dep.sim.run_until(e0, limit=10.0)
        reply1, _ = dep.sim.run_until(e1, limit=10.0)
        assert reply0.tensor == pytest.approx([0.3] * 64, abs=1e-5)
        assert reply1.tensor == pytest.approx([0.3] * 64, abs=1e-5)
        assert info0.cache_hit_ratio == 1.0

    def test_training_loop_multiple_rounds(self):
        dep = build_rack(2, 1, cal=CAL)
        registered = grad_service(dep)
        stubs = [Channel(registered, c).stub() for c in ("c0", "c1")]
        req_type = registered.binding("Update").request
        for round_no in range(3):
            value = 0.01 * (round_no + 1)
            events = [s.call_async("Update", req_type(tensor=[value] * 32),
                                   round=round_no) for s in stubs]
            for event in events:
                reply, _ = dep.sim.run_until(event, limit=10.0)
                assert reply.tensor == pytest.approx([2 * value] * 32,
                                                     abs=1e-5)

    def test_server_round_handler_sees_aggregates(self):
        dep = build_rack(2, 1, cal=CAL)
        registered = grad_service(dep)
        server = ServerStub(registered)
        rounds = {}
        server.bind_round(lambda r, values: rounds.update({r: values}))
        stubs = [Channel(registered, c).stub() for c in ("c0", "c1")]
        req_type = registered.binding("Update").request
        events = [s.call_async("Update", req_type(tensor=[1.0] * 32),
                               round=0) for s in stubs]
        for event in events:
            dep.sim.run_until(event, limit=10.0)
        assert 0 in rounds
        # Values are fixed-point at precision 6.
        assert rounds[0][0] == 2_000_000


    def test_software_only_linear_rounds_resolve_and_start_fresh(self):
        # With no switch the server counts each index's contributions on
        # a side counter, as the switch does for a linear app, and clears
        # the sum once the round's result is out.
        proto = """
        import "netrpc.proto";
        message Grad { netrpc.INT32Array values = 1; }
        message Sum { netrpc.INT32Array values = 1; }
        service Sync { rpc Update (Grad) returns (Sum) {} filter "s.nf" }
        """
        netfilter = """{
          "AppName": "SYNC", "Precision": 0,
          "get": "Sum.values", "addTo": "Grad.values",
          "clear": "copy", "modify": "nop",
          "CntFwd": {"to": "ALL", "threshold": 2, "key": "ClientID"}
        }"""
        dep = build_rack(2, 1, cal=CAL)
        service = NetRPCService.from_text(proto, "Sync", {"s.nf": netfilter})
        registered = register_service(dep, service, server="s0",
                                      clients=["c0", "c1"],
                                      software_only=True)
        assert not registered.config("Update").has_switch
        stubs = [Channel(registered, c).stub() for c in ("c0", "c1")]
        req_type = registered.binding("Update").request
        rounds = [([1, 2, 3, 4], [10, 20, 30, 40], [11, 22, 33, 44]),
                  ([5, 6, 7, 8], [100, 200, 300, 400], [105, 206, 307, 408])]
        for round_no, (first, second, total) in enumerate(rounds):
            events = [stub.call_async("Update", req_type(values=values),
                                      round=round_no)
                      for stub, values in zip(stubs, (first, second))]
            for event in events:
                reply, _ = dep.sim.run_until(event, limit=0.5)
                assert reply.values == total


class TestMapReduceRPC:
    def test_reduce_then_query(self):
        dep = build_rack(1, 1, cal=CAL)
        registered = mr_service(dep)
        stub = Channel(registered, "c0").stub()
        reduce_req = registered.binding("ReduceByKey").request
        query_req = registered.binding("Query").request
        for _ in range(3):
            stub.call("ReduceByKey",
                      reduce_req(kvs={"apple": 2, "pear": 5}))
            dep.sim.run(until=dep.sim.now + 0.05)
        reply, info = stub.call("Query",
                                query_req(kvs={"apple": 0, "pear": 0}))
        assert reply.kvs == {"apple": 6, "pear": 15}

    def test_repeat_traffic_becomes_switch_hits(self):
        dep = build_rack(1, 1, cal=CAL)
        registered = mr_service(dep)
        stub = Channel(registered, "c0").stub()
        reduce_req = registered.binding("ReduceByKey").request
        _, first = stub.call("ReduceByKey", reduce_req(kvs={"k": 1}))
        dep.sim.run(until=dep.sim.now + 0.05)
        _, second = stub.call("ReduceByKey", reduce_req(kvs={"k": 1}))
        assert first.cache_hit_ratio == 0.0
        assert second.cache_hit_ratio == 1.0


class TestPlainRPC:
    PROTO = """
    message Ping { string text = 1; int32 n = 2; }
    message Pong { string text = 1; int32 n = 2; }
    service Echo { rpc Bounce (Ping) returns (Pong); }
    """

    def test_plain_call_reaches_handler(self):
        dep = build_rack(1, 1, cal=CAL)
        service = NetRPCService.from_text(self.PROTO, "Echo")
        registered = register_service(dep, service, server="s0",
                                      clients=["c0"], value_slots=0)
        server = ServerStub(registered)
        pong_type = registered.binding("Bounce").reply

        def handler(client, request):
            return pong_type(text=request.text.upper(), n=request.n + 1)

        server.bind("Bounce", handler)
        stub = Channel(registered, "c0").stub()
        ping_type = registered.binding("Bounce").request
        reply, _ = stub.call("Bounce", ping_type(text="hello", n=41))
        assert reply.text == "HELLO"
        assert reply.n == 42

    def test_unbound_method_returns_default_reply(self):
        dep = build_rack(1, 1, cal=CAL)
        service = NetRPCService.from_text(self.PROTO, "Echo")
        registered = register_service(dep, service, server="s0",
                                      clients=["c0"], value_slots=0)
        ServerStub(registered)
        stub = Channel(registered, "c0").stub()
        ping_type = registered.binding("Bounce").request
        reply, _ = stub.call("Bounce", ping_type(text="x"))
        assert reply.text == ""


class TestStubErgonomics:
    def test_attribute_style_dispatch(self):
        dep = build_rack(2, 1, cal=CAL)
        registered = grad_service(dep)
        stub0 = Channel(registered, "c0").stub()
        stub1 = Channel(registered, "c1").stub()
        req_type = registered.binding("Update").request
        # Drive both through attribute-style calls concurrently.
        event = stub1.call_async("Update", req_type(tensor=[1.0] * 32),
                                 round=0)
        reply, _ = stub0.Update(req_type(tensor=[1.0] * 32), round=0)
        assert reply.tensor == pytest.approx([2.0] * 32, abs=1e-5)
        dep.sim.run_until(event, limit=10.0)

    def test_unknown_method_attribute(self):
        dep = build_rack(2, 1, cal=CAL)
        registered = grad_service(dep)
        stub = Channel(registered, "c0").stub()
        with pytest.raises(AttributeError):
            stub.NoSuchMethod

    def test_wrong_request_type_rejected(self):
        dep = build_rack(2, 1, cal=CAL)
        registered = grad_service(dep)
        stub = Channel(registered, "c0").stub()
        wrong = registered.binding("Update").reply()  # AgtrGrad, not NewGrad
        with pytest.raises(RpcError):
            stub.call_async("Update", wrong)

    def test_channel_requires_registered_client(self):
        dep = build_rack(2, 1, cal=CAL)
        registered = grad_service(dep, clients=("c0",))
        with pytest.raises(ValueError):
            Channel(registered, "c1")


class TestServiceValidation:
    def test_filter_field_must_exist(self):
        bad_filter = """{
          "AppName": "X", "get": "AgtrGrad.missing",
          "addTo": "NewGrad.tensor"
        }"""
        with pytest.raises(NetFilterError, match="unknown field"):
            NetRPCService.from_text(GRAD_PROTO, "GradientService",
                                    {"agtr.nf": bad_filter})

    def test_filter_field_must_be_iedt(self):
        proto = """
        message A { string s = 1; }
        message B { string s = 1; }
        service S { rpc Go (A) returns (B) {} filter "f.nf" }
        """
        bad = '{"AppName": "X", "addTo": "A.s"}'
        with pytest.raises(NetFilterError, match="not an INC-enabled"):
            NetRPCService.from_text(proto, "S", {"f.nf": bad})

    def test_missing_filter_file(self):
        with pytest.raises(NetFilterError, match="no such filter"):
            NetRPCService.from_text(GRAD_PROTO, "GradientService", {})

    def test_mismatched_app_names_rejected(self):
        filters = dict(MR_FILTERS)
        filters["query.nf"] = filters["query.nf"].replace("MR-1", "OTHER")
        with pytest.raises(NetFilterError, match="share one"):
            NetRPCService.from_text(MR_PROTO, "MapReduce", filters)
