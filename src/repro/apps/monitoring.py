"""Network monitoring on NetRPC: the KeyValue application (paper App. D).

Reproduces the Figure 22-24 example: monitoring points stream per-flow
metrics through ``MonitorCall`` (the switch accumulates them in the INC
map and forwards the payload to the collector), and operators read
counters back with sub-RTT ``Query`` calls that bounce at the switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.control import Deployment
from repro.core import Channel, NetRPCService, ServerStub, register_service
from repro.workloads import FlowRecord

__all__ = ["FlowMonitor", "MONITOR_PROTO", "monitor_filters"]

MONITOR_PROTO = """
import "netrpc.proto";
message MonitorRequest {
  netrpc.STRINTMap kvs = 1;
  string payload = 2;
}
message MonitorReply { string payload = 1; }
message QueryRequest { netrpc.STRINTMap kvs = 1; }
message QueryReply { netrpc.STRINTMap kvs = 1; }
service Monitor {
  rpc MonitorCall (MonitorRequest) returns (MonitorReply) {} filter "monitor.nf"
  rpc Query (QueryRequest) returns (QueryReply) {} filter "query.nf"
}
"""


def monitor_filters(app_name: str = "MON-1") -> Dict[str, str]:
    """The paper's Figure 23 NetFilters."""
    return {
        "monitor.nf": f"""{{
          "AppName": "{app_name}", "Precision": 0,
          "get": "nop", "addTo": "MonitorRequest.kvs",
          "clear": "nop", "modify": "nop",
          "CntFwd": {{"to": "SERVER", "threshold": 0, "key": "NULL"}}
        }}""",
        "query.nf": f"""{{
          "AppName": "{app_name}", "Precision": 0,
          "get": "QueryReply.kvs", "addTo": "nop",
          "clear": "nop", "modify": "nop",
          "CntFwd": {{"to": "SRC", "threshold": 0, "key": "NULL"}}
        }}""",
    }


@dataclass
class MonitorStats:
    packets_observed: int
    batches_sent: int
    elapsed_s: float


class FlowMonitor:
    """Streams flow observations into the INC map and answers queries."""

    def __init__(self, deployment: Deployment,
                 monitors: Optional[List[str]] = None, server: str = "s0",
                 value_slots: int = 65536, batch_flows: int = 32):
        self.deployment = deployment
        self.monitors = monitors or deployment.client_names
        self.batch_flows = batch_flows
        service = NetRPCService.from_text(MONITOR_PROTO, "Monitor",
                                          monitor_filters())
        self.registered = register_service(
            deployment, service, server=server, clients=self.monitors,
            value_slots=value_slots)
        self.server_stub = ServerStub(self.registered)
        self.collector_log: List[str] = []
        self.server_stub.bind_data(
            "MonitorCall",
            lambda client, request: self.collector_log.append(
                request.payload))
        self._stubs = {m: Channel(self.registered, m).stub()
                       for m in self.monitors}
        self.packets_observed = 0
        self.batches_sent = 0

    # ------------------------------------------------------------------
    def _monitor_process(self, monitor: str, records: Sequence[FlowRecord]):
        stub = self._stubs[monitor]
        request_type = self.registered.binding("MonitorCall").request
        batch: Dict[str, int] = {}
        inflight = []
        for record in records:
            flow_id = record.flow_id
            if flow_id in batch:
                batch[flow_id] += 1
            else:
                batch[flow_id] = 1
            self.packets_observed += 1
            if len(batch) >= self.batch_flows:
                inflight.append(stub.call_async(
                    "MonitorCall",
                    request_type(kvs=dict(batch), payload="report")))
                self.batches_sent += 1
                batch = {}
                if len(inflight) >= 8:
                    yield inflight.pop(0)
        if batch:
            inflight.append(stub.call_async(
                "MonitorCall", request_type(kvs=batch, payload="report")))
            self.batches_sent += 1
        for event in inflight:
            yield event

    def feed(self, shards: Dict[str, Sequence[FlowRecord]],
             limit: float = 300.0) -> MonitorStats:
        """Stream per-monitor trace shards into the network."""
        sim = self.deployment.sim
        start = sim.now
        processes = [sim.process(self._monitor_process(m, records),
                                 name=f"mon-{m}")
                     for m, records in shards.items()]
        sim.run_until(sim.all_of(processes), limit=start + limit)
        return MonitorStats(packets_observed=self.packets_observed,
                            batches_sent=self.batches_sent,
                            elapsed_s=sim.now - start)

    # ------------------------------------------------------------------
    def query(self, flow_ids: Iterable[str], monitor: Optional[str] = None,
              limit: float = 30.0) -> Dict[str, int]:
        """Sub-RTT read of flow counters (bounces at the switch)."""
        sim = self.deployment.sim
        stub = self._stubs[monitor or self.monitors[0]]
        query_type = self.registered.binding("Query").request
        flow_ids = list(flow_ids)
        counts: Dict[str, int] = {}
        for begin in range(0, len(flow_ids), 512):
            chunk = flow_ids[begin:begin + 512]
            reply, _ = stub.call("Query",
                                 query_type(kvs={f: 0 for f in chunk}),
                                 timeout=limit)
            counts.update(reply.kvs)
        return counts

    def query_latency(self, flow_id: str, monitor: Optional[str] = None
                      ) -> float:
        """Latency of a single-counter query (Table 5's monitor delay)."""
        sim = self.deployment.sim
        stub = self._stubs[monitor or self.monitors[0]]
        query_type = self.registered.binding("Query").request
        start = sim.now
        stub.call("Query", query_type(kvs={flow_id: 0}))
        return sim.now - start
