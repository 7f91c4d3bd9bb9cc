"""Distributed lock server on NetRPC (paper Appendix D, Figures 19-21).

A test&set lock: ``GetLock`` counts on the lock key with threshold 1 —
the first requester's packet bounces back granted, later requesters'
packets are absorbed by the switch and their agents spin with fresh
attempts until ``Release`` clears the counter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.control import Deployment
from repro.core import Channel, NetRPCService, ServerStub, register_service
from repro.netsim.events import Event

__all__ = ["LockService", "LOCK_PROTO", "lock_filters"]

LOCK_PROTO = """
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


def lock_filters(app_name: str = "LS-1") -> Dict[str, str]:
    """The paper's Figure 20 NetFilters."""
    return {
        "lock.nf": f"""{{
          "AppName": "{app_name}", "Precision": 0,
          "get": "nop", "addTo": "nop",
          "clear": "nop", "modify": "nop",
          "CntFwd": {{"to": "SRC", "threshold": 1,
                      "key": "LockRequest.map"}}
        }}""",
        "release.nf": f"""{{
          "AppName": "{app_name}", "Precision": 0,
          "get": "nop", "addTo": "nop",
          "clear": "copy", "modify": "nop",
          "CntFwd": {{"to": "SRC", "threshold": 0,
                      "key": "ReleaseRequest.map"}}
        }}""",
    }


class LockService:
    """Client-side handle to the distributed lock application."""

    def __init__(self, deployment: Deployment,
                 clients: Optional[List[str]] = None, server: str = "s0",
                 value_slots: int = 8192):
        self.deployment = deployment
        self.clients = clients or deployment.client_names
        service = NetRPCService.from_text(LOCK_PROTO, "Lock",
                                          lock_filters())
        self.registered = register_service(
            deployment, service, server=server, clients=self.clients,
            value_slots=value_slots)
        self.server_stub = ServerStub(self.registered)
        self._stubs = {c: Channel(self.registered, c).stub()
                       for c in self.clients}

    # ------------------------------------------------------------------
    def acquire_async(self, client: str, lock_name: str) -> Event:
        """Blocking-lock acquisition: the event fires once granted."""
        stub = self._stubs[client]
        request = self.registered.binding("GetLock").request(
            map={lock_name: 1})
        return stub.call_async("GetLock", request)

    def release_async(self, client: str, lock_name: str) -> Event:
        stub = self._stubs[client]
        request = self.registered.binding("Release").request(
            map={lock_name: 1})
        return stub.call_async("Release", request)

    def acquire(self, client: str, lock_name: str, timeout: float = 30.0):
        sim = self.deployment.sim
        return sim.run_until(self.acquire_async(client, lock_name),
                             limit=sim.now + timeout)

    def release(self, client: str, lock_name: str, timeout: float = 30.0):
        sim = self.deployment.sim
        return sim.run_until(self.release_async(client, lock_name),
                             limit=sim.now + timeout)

    # ------------------------------------------------------------------
    def holder_view(self, lock_name: str) -> int:
        """Current raw counter value (diagnostic; >=1 means held)."""
        agent = self.deployment.server_agents[self.registered.server]
        state = agent.app_state(self.registered.service.app_name)
        value = agent.register_value(state, lock_name)
        return state.soft.read_raw(lock_name) if value is None else value
