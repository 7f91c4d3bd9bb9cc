"""The paper's verbatim artifacts as fixtures.

Parses the exact proto definitions and NetFilters printed in the paper
(Figures 2-3 and Appendix D, Figures 16-23) and checks they compile to
the intended RIP programs — the strongest evidence the user-facing
language matches the publication.
"""

import json

import pytest

from repro.core import NetRPCService, parse_netfilter, parse_proto
from repro.protocol import ClearPolicy, ForwardTarget

FIG2_PROTO = """
import "netrpc.proto";
message NewGrad { netrpc.FPArray tensor = 1; }
message AgtrGrad { netrpc.FPArray tensor = 1; }
service GradientService {
  rpc Update (NewGrad) returns (AgtrGrad) {} filter "agtr.nf"
}
"""

FIG3_FILTER = """{
  "AppName": "DT-1",
  "Precision": 8,
  "get": "AgtrGrad.tensor",
  "addTo": "NewGrad.tensor",
  "clear": "copy",
  "modify": "nop",
  "CntFwd": {"to": "ALL", "threshold": 2, "key": "ClientID"}
}"""

FIG16_MAPREDUCE_PROTO = """
import "netrpc.proto";
message ReduceRequest { netrpc.STRINTMap kvs = 1; }
message ReduceReply { string msg = 1; }
message QueryRequest { string msg = 1; }
message QueryReply { netrpc.STRINTMap kvs = 1; }
service MapReduce {
  rpc ReduceByKey (ReduceRequest) returns (ReduceReply) {} filter "reduce.nf"
  rpc Query (QueryRequest) returns (QueryReply) {} filter "query.nf"
}
"""

FIG17_REDUCE = """{
  "AppName": "MR-1", "Precision": 0,
  "get": "nop", "addTo": "ReduceRequest.kvs",
  "clear": "nop", "modify": "nop",
  "CntFwd": {"to": "SRC", "threshold": 0, "key": "NULL"}
}"""

FIG17_QUERY = """{
  "AppName": "MR-1", "Precision": 0,
  "get": "QueryReply.kvs", "addTo": "nop",
  "clear": "nop", "modify": "nop",
  "CntFwd": {"to": "SRC", "threshold": 0, "key": "NULL"}
}"""

FIG19_LOCK_PROTO = """
import "netrpc.proto";
message LockRequest { netrpc.STRINTMap map = 1; }
message LockReply { string msg = 1; }
message ReleaseRequest { netrpc.STRINTMap map = 1; }
message ReleaseReply { string msg = 1; }
service Lock {
  rpc GetLock (LockRequest) returns (LockReply) {} filter "lock.nf"
  rpc Release (ReleaseRequest) returns (ReleaseReply) {} filter "release.nf"
}
"""

FIG20_LOCK = """{
  "AppName": "LS-1", "Precision": 0,
  "get": "nop", "addTo": "nop", "clear": "nop", "modify": "nop",
  "CntFwd": {"to": "SRC", "threshold": 1, "key": "LockRequest.map"}
}"""

FIG20_RELEASE = """{
  "AppName": "LS-1", "Precision": 0,
  "get": "nop", "addTo": "nop", "clear": "copy", "modify": "nop",
  "CntFwd": {"to": "SRC", "threshold": 0, "key": "ReleaseRequest.map"}
}"""

FIG22_MONITOR_PROTO = """
import "netrpc.proto";
message MonitorRequest {
  netrpc.STRINTMap kvs = 1;
  string payload = 2;
}
message MonitorReply { string payload = 1; }
message QueryRequest { string message = 1; }
message QueryReply { netrpc.STRINTMap kvs = 1; }
service Monitor {
  rpc MonitorCall (MonitorRequest) returns (MonitorReply) {} filter "monitor.nf"
  rpc Query (QueryRequest) returns (QueryReply) {} filter "query.nf"
}
"""

FIG23_MONITOR = """{
  "AppName": "MON-1", "Precision": 0,
  "get": "nop", "addTo": "MonitorRequest.kvs",
  "clear": "nop", "modify": "nop",
  "CntFwd": {"to": "SERVER", "threshold": 0, "key": "NULL"}
}"""

FIG23_QUERY = """{
  "AppName": "MON-1", "Precision": 0,
  "get": "QueryReply.kvs", "addTo": "nop",
  "clear": "nop", "modify": "nop",
  "CntFwd": {"to": "SRC", "threshold": 0, "key": "NULL"}
}"""


class TestFigure2And3:
    def test_gradient_service_compiles(self):
        service = NetRPCService.from_text(FIG2_PROTO, "GradientService",
                                          {"agtr.nf": FIG3_FILTER})
        binding = service.binding("Update")
        assert binding.program.precision == 8
        assert binding.program.clear is ClearPolicy.COPY
        assert binding.program.cntfwd.threshold == 2
        assert binding.linear            # FPArray -> circular buffers
        assert binding.stream_field.name == "tensor"
        assert binding.result_field.name == "tensor"


class TestAppendixDMapReduce:
    def test_service_compiles(self):
        service = NetRPCService.from_text(
            FIG16_MAPREDUCE_PROTO, "MapReduce",
            {"reduce.nf": FIG17_REDUCE, "query.nf": FIG17_QUERY})
        reduce_binding = service.binding("ReduceByKey")
        assert reduce_binding.program.add_to_field == "ReduceRequest.kvs"
        assert reduce_binding.program.cntfwd.target is ForwardTarget.SRC
        assert not reduce_binding.linear
        query_binding = service.binding("Query")
        assert query_binding.program.get_field == "QueryReply.kvs"
        # QueryRequest has no IEDT: the full-map read takes the plain
        # server path, matching the paper's Query semantics.
        assert query_binding.stream_field is None


class TestAppendixDLock:
    def test_lock_service_compiles(self):
        service = NetRPCService.from_text(
            FIG19_LOCK_PROTO, "Lock",
            {"lock.nf": FIG20_LOCK, "release.nf": FIG20_RELEASE})
        lock_binding = service.binding("GetLock")
        assert lock_binding.program.cntfwd.is_test_and_set
        assert lock_binding.stream_field.name == "map"
        release_binding = service.binding("Release")
        assert release_binding.program.clear is ClearPolicy.COPY
        assert release_binding.program.uses_map  # clear touches registers


class TestAppendixDMonitor:
    def test_monitor_service_compiles(self):
        service = NetRPCService.from_text(
            FIG22_MONITOR_PROTO, "Monitor",
            {"monitor.nf": FIG23_MONITOR, "query.nf": FIG23_QUERY})
        mon = service.binding("MonitorCall")
        assert mon.program.cntfwd.target is ForwardTarget.SERVER
        assert mon.program.add_to_field == "MonitorRequest.kvs"
        # The scalar payload field rides outside the INC stream.
        scalars = [f.name for f in mon.request.fields if not f.is_iedt]
        assert scalars == ["payload"]


class TestFilterRoundTrips:
    @pytest.mark.parametrize("source", [
        FIG3_FILTER, FIG17_REDUCE, FIG17_QUERY, FIG20_LOCK,
        FIG20_RELEASE, FIG23_MONITOR, FIG23_QUERY,
    ])
    def test_all_paper_filters_roundtrip(self, source):
        program = parse_netfilter(source)
        assert program.uses_map
        assert parse_netfilter(json.loads(source)) == program
