"""Paxos on NetRPC: the Agreement application (paper §6.3 / Figure 7).

Following the paper's design choice, the *leader/sequencer and vote
counting* run on the switch (CntFwd) while the acceptors stay in
software on ordinary hosts — costing one extra round trip versus P4xos
but keeping acceptor placement and replication flexible.

Steady-state protocol per consensus instance (phase-2, stable leader,
as in the P4xos evaluation):

1. a proposer broadcasts ``Propose(instance, value)`` — a CntFwd
   threshold-0 multicast, one switch trip;
2. each acceptor receiving the proposal accepts it and sends
   ``Vote(instance)`` — counted on the switch;
3. when the majority threshold is reached the switch multicasts the
   decision to everyone; learners record it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.control import Deployment
from repro.core import Channel, Message, NetRPCService, register_service
from repro.netsim import LatencyRecorder

__all__ = ["PaxosCluster", "PAXOS_PROTO", "paxos_filters"]

PAXOS_PROTO = """
import "netrpc.proto";
message Proposal {
  netrpc.INTINTMap inst = 1;
  string value = 2;
  double sent_at = 3;
  int32 attempt = 4;
}
message ProposalAck { string msg = 1; }
message Vote {
  netrpc.INTINTMap inst = 1;
  string value = 2;
  double sent_at = 3;
}
message VoteAck { string msg = 1; }
service Paxos {
  rpc Propose (Proposal) returns (ProposalAck) {} filter "propose.nf"
  rpc CastVote (Vote) returns (VoteAck) {} filter "vote.nf"
}
"""


def paxos_filters(majority: int, app_name: str = "PAXOS-1"
                  ) -> Dict[str, str]:
    return {
        "propose.nf": f"""{{
          "AppName": "{app_name}", "Precision": 0,
          "get": "nop", "addTo": "nop",
          "clear": "nop", "modify": "nop",
          "CntFwd": {{"to": "ALL", "threshold": 0, "key": "NULL"}}
        }}""",
        "vote.nf": f"""{{
          "AppName": "{app_name}", "Precision": 0,
          "get": "nop", "addTo": "nop",
          "clear": "nop", "modify": "nop",
          "CntFwd": {{"to": "ALL", "threshold": {majority},
                      "key": "instance"}}
        }}""",
    }


@dataclass
class PaxosReport:
    decided: Dict[int, str]
    throughput_msgs_per_s: float
    latency: LatencyRecorder
    elapsed_s: float


class PaxosCluster:
    """Proposers, acceptors, and learners over one NetRPC deployment."""

    def __init__(self, deployment: Deployment, proposers: List[str],
                 acceptors: List[str], learners: List[str],
                 server: str = "s0", value_slots: int = 16384,
                 counter_slots: int = 16384):
        self.deployment = deployment
        self.proposers = proposers
        self.acceptors = acceptors
        self.learners = learners
        self.majority = len(acceptors) // 2 + 1
        participants = list(dict.fromkeys(proposers + acceptors + learners))
        service = NetRPCService.from_text(
            PAXOS_PROTO, "Paxos", paxos_filters(self.majority))
        proposal_group = list(dict.fromkeys(proposers + acceptors))
        self.registered = register_service(
            deployment, service, server=server, clients=participants,
            value_slots=value_slots, counter_slots=counter_slots,
            linear_overrides={"Propose": True, "CastVote": True},
            # Learners only need decisions, not the proposal broadcast.
            mcast_groups={"Propose": proposal_group})
        self._propose_gaid = self.registered.config("Propose").gaid
        self._vote_gaid = self.registered.config("CastVote").gaid
        self._stubs = {h: Channel(self.registered, h).stub()
                       for h in participants}
        self._vote_msg = self.registered.binding("CastVote").request
        self._proposal_msg = self.registered.binding("Propose").request

        self.decided: Dict[int, str] = {}
        self.latency = LatencyRecorder("consensus")
        self._accepted: Dict[Tuple[str, int], str] = {}
        # Undecided proposals awaiting re-proposal (classic Paxos
        # proposer retry): instance -> [proposer, value, first_sent_at,
        # attempt].
        self._pending: Dict[int, list] = {}
        self._acceptor_attempts: Dict[Tuple[str, int], int] = {}
        self._watchdog_on = False
        for acceptor in acceptors:
            self._install_acceptor(acceptor)
        for learner in learners:
            self._install_learner(learner)

    # ------------------------------------------------------------------
    def _install_acceptor(self, acceptor: str) -> None:
        agent = self.deployment.client_agents[acceptor]
        stub = self._stubs[acceptor]
        app_key = self.registered.service.app_name
        sim = self.deployment.sim

        def on_broadcast(pkt, _acceptor=acceptor, _stub=stub):
            if pkt.gaid != self._propose_gaid or not pkt.kv.addrs:
                return
            proposal = self._decode_scalars(pkt, self._proposal_msg)
            if proposal is None:
                return
            for instance in pkt.kv.keys or ():
                if instance is None or instance in self.decided:
                    continue
                # Accept: first proposal wins.  Re-votes happen only on an
                # explicit watchdog re-proposal (attempt > last seen), not
                # on transport-level duplicates; instances are sharded
                # one-value-per-instance, so extra counts can only
                # re-announce the same value, never decide a wrong one.
                seen = self._acceptor_attempts.get((_acceptor, instance))
                if seen is not None and proposal.attempt <= seen:
                    continue
                self._acceptor_attempts[(_acceptor, instance)] = \
                    proposal.attempt
                self._accepted[(_acceptor, instance)] = proposal.value
                vote = self._vote_msg(inst={instance: 1},
                                      value=proposal.value,
                                      sent_at=proposal.sent_at)
                _stub.call_async("CastVote", vote, round=instance)

        self._chain_broadcast(agent, app_key, on_broadcast)

    def _install_learner(self, learner: str) -> None:
        agent = self.deployment.client_agents[learner]
        app_key = self.registered.service.app_name
        sim = self.deployment.sim

        def on_broadcast(pkt):
            if pkt.gaid != self._vote_gaid:
                return
            decided = self.decided
            # Every learner sees each decision; only the first finds an
            # undecided instance, so only it decodes the vote.
            for instance in pkt.kv.keys or ():
                if instance is not None and instance not in decided:
                    break
            else:
                return
            vote = self._decode_scalars(pkt, self._vote_msg)
            if vote is None:
                return
            for instance in pkt.kv.keys:
                if instance is None or instance in decided:
                    continue
                decided[instance] = vote.value
                self._pending.pop(instance, None)
                self.latency.record(sim.now - vote.sent_at)

        self._chain_broadcast(agent, app_key, on_broadcast)

    @staticmethod
    def _chain_broadcast(agent, app_key: str, handler) -> None:
        """Hosts can play several roles; chain their broadcast handlers."""
        previous = agent.app_state(app_key).broadcast_handler
        if previous is None:
            agent.set_broadcast_handler(app_key, handler)
            return

        def chained(pkt):
            previous(pkt)
            handler(pkt)

        agent.set_broadcast_handler(app_key, chained)

    @staticmethod
    def _decode_scalars(pkt, descriptor) -> Optional[Message]:
        payload = pkt.payload
        if not (isinstance(payload, tuple) and payload
                and payload[0] == "rpc-data"):
            return None
        return Message.from_bytes(descriptor, payload[2])

    # ------------------------------------------------------------------
    def _proposer_process(self, proposer: str, instances: List[int],
                          window: int, gap_s: float = 0.0):
        sim = self.deployment.sim
        stub = self._stubs[proposer]
        outstanding: List = []
        for instance in instances:
            value = f"cmd-{proposer}-{instance}"
            proposal = self._proposal_msg(
                inst={instance: 1}, value=value, sent_at=sim.now,
                attempt=0)
            self._pending[instance] = [proposer, value, sim.now, 0]
            outstanding.append(stub.call_async("Propose", proposal,
                                               round=instance))
            if len(outstanding) >= window:
                yield outstanding.pop(0)
            if gap_s > 0:
                yield sim.timeout(gap_s)
        for event in outstanding:
            yield event

    def _watchdog_process(self, interval_s: float = 2e-3):
        """Re-propose instances whose decision has not arrived.

        Covers multicast copies lost to individual acceptors — the
        proposer-retry of classic Paxos.  Each retry carries a fresh
        attempt number so acceptors re-vote exactly once per retry.
        """
        sim = self.deployment.sim
        while self._watchdog_on:
            yield sim.timeout(interval_s)
            now = sim.now
            for instance, entry in list(self._pending.items()):
                proposer, value, sent_at, attempt = entry
                if instance in self.decided or now - sent_at < interval_s:
                    continue
                entry[3] = attempt + 1
                proposal = self._proposal_msg(
                    inst={instance: 1}, value=value, sent_at=sent_at,
                    attempt=entry[3])
                self._stubs[proposer].call_async("Propose", proposal,
                                                 round=instance)

    def run(self, n_instances: int, window: int = 8, limit: float = 60.0,
            settle_s: float = 0.002, gap_s: float = 0.0) -> PaxosReport:
        """Drive ``n_instances`` consensus instances, split across proposers.

        Returns throughput (decisions/second) and decision latency.
        """
        sim = self.deployment.sim
        start = sim.now
        shards: Dict[str, List[int]] = {p: [] for p in self.proposers}
        for instance in range(n_instances):
            shards[self.proposers[instance % len(self.proposers)]].append(
                instance)
        self._watchdog_on = True
        watchdog = sim.process(self._watchdog_process(),
                               name="paxos-watchdog")
        processes = [sim.process(self._proposer_process(p, insts, window,
                                                        gap_s),
                                 name=f"proposer-{p}")
                     for p, insts in shards.items()]
        sim.run_until(sim.all_of(processes), limit=start + limit)
        # Let the last votes land.
        deadline = sim.now + limit
        while len(self.decided) < n_instances and sim.now < deadline and \
                sim.peek() != float("inf"):
            sim.step()
        self._watchdog_on = False
        watchdog.interrupt()
        sim.run(until=sim.now + settle_s)
        elapsed = sim.now - start
        throughput = len(self.decided) / elapsed if elapsed > 0 else 0.0
        return PaxosReport(decided=dict(self.decided),
                           throughput_msgs_per_s=throughput,
                           latency=self.latency, elapsed_s=elapsed)
