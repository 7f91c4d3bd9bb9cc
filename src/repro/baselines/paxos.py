"""Consensus baselines: P4xos and software Paxos (paper §6.3 / Figure 7).

* **P4xos** — sequencer *and* acceptors live on the switch: a proposal
  is decided in one switch traversal and multicast to the learners
  (sub-RTT, no host on the critical path).
* **libpaxos** — classic kernel-networking Paxos: proposer -> leader ->
  acceptors -> leader -> learners, every hop paying kernel-stack
  per-packet CPU.
* **DPDK Paxos** — the same message flow on a kernel-bypass stack
  (smaller per-packet cost), the paper's stronger software baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.netsim import (
    Calibration,
    DEFAULT_CALIBRATION,
    Host,
    LatencyRecorder,
    Simulator,
    star,
)
from repro.switchsim import PlainSwitch

__all__ = ["P4xosCluster", "SoftwarePaxosCluster", "PaxosBaselineReport"]


# Per-message processing cost of the two software consensus stacks
# (protocol logic + stack traversal), calibrated so the libpaxos:DPDK
# throughput ratio matches the paper's Figure 7.
KERNEL_PKT_CPU_S = 3.2e-6     # libpaxos: kernel UDP stack
DPDK_PKT_CPU_S = 2.0e-6       # DPDK paxos: kernel bypass
SOFTWARE_PAXOS_CORES = 2


@dataclass
class PaxosMsg:
    kind: str                   # propose | accept | accepted | learn
    src: str
    dst: str
    instance: int
    value: str
    sent_at: float
    size_bytes: int = 128
    ecn: bool = False


@dataclass
class PaxosBaselineReport:
    decided: Dict[int, str]
    throughput_msgs_per_s: float
    latency: LatencyRecorder
    elapsed_s: float


class P4xosSwitch(PlainSwitch):
    """Sequencer + acceptor in the switch: decide and multicast.

    ``acceptor_replicas`` models P4xos's fault-tolerant deployment: each
    learner receives one 2b message per switch-acceptor replica and
    counts the majority itself — the per-decision learner load NetRPC
    avoids by multicasting only the final result (§6.3).
    """

    def __init__(self, sim: Simulator, name: str, learners: List[str],
                 cal: Calibration = DEFAULT_CALIBRATION,
                 acceptor_replicas: int = 3):
        super().__init__(sim, name, cal)
        self.learners = learners
        self.acceptor_replicas = acceptor_replicas
        self._decided: Set[int] = set()

    def receive(self, packet) -> None:
        self.stats.add("rx_pkts")
        if isinstance(packet, PaxosMsg) and packet.kind == "propose":
            self.sim.schedule(self.cal.switch_pipeline_delay_s,
                              self._decide, packet)
            return
        self.sim.schedule(self.cal.switch_pipeline_delay_s,
                          self._forward, packet)

    def _decide(self, packet: PaxosMsg) -> None:
        # The in-switch acceptor state makes the decision immediate;
        # duplicates (proposer retries) re-multicast idempotently.
        self._decided.add(packet.instance)
        self.stats.add("decisions")
        for learner in self.learners + [packet.src]:
            for _replica in range(self.acceptor_replicas):
                out = PaxosMsg(kind="learn", src=self.name, dst=learner,
                               instance=packet.instance,
                               value=packet.value,
                               sent_at=packet.sent_at)
                self.send(out, self.next_hop_for(learner))


class _Learner:
    """Handles "learn" messages; only true learners feed the metrics."""

    def __init__(self, sim: Simulator, host: Host, cluster,
                 is_learner: bool = True):
        self.sim = sim
        self.cluster = cluster
        self.is_learner = is_learner
        host.set_handler(self._on_packet)

    def _on_packet(self, packet) -> None:
        if isinstance(packet, PaxosMsg) and packet.kind == "learn":
            self.cluster.record_decision(packet, self.is_learner)


class _BaseCluster:
    """Shared harness: proposers pipeline instances, learners record."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.decided: Dict[int, str] = {}
        self.latency = LatencyRecorder("consensus")

    def record_decision(self, packet: PaxosMsg,
                        is_learner: bool = True) -> None:
        waiter = self._waiters.pop(packet.instance, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed()
        if not is_learner or packet.instance in self.decided:
            return
        # Throughput and latency are measured where the paper measures
        # them: at the learners.
        self.decided[packet.instance] = packet.value
        self.latency.record(self.sim.now - packet.sent_at)

    # -- proposer machinery ------------------------------------------------
    def _propose(self, host: Host, instance: int) -> None:
        raise NotImplementedError

    def _proposer_process(self, host: Host, instances: List[int],
                          window: int, gap_s: float = 0.0):
        outstanding = []
        for instance in instances:
            waiter = self.sim.event()
            self._waiters[instance] = waiter
            self._propose(host, instance)
            outstanding.append(waiter)
            if len(outstanding) >= window:
                yield outstanding.pop(0)
            if gap_s > 0:
                yield self.sim.timeout(gap_s)
        for waiter in outstanding:
            yield waiter

    def run(self, n_instances: int, window: int = 8, limit: float = 60.0,
            gap_s: float = 0.0) -> PaxosBaselineReport:
        self._waiters: Dict[int, object] = getattr(self, "_waiters", {})
        start = self.sim.now
        shards: Dict[Host, List[int]] = {p: [] for p in self.proposers}
        proposers = list(self.proposers)
        for instance in range(n_instances):
            shards[proposers[instance % len(proposers)]].append(instance)
        processes = [
            self.sim.process(self._proposer_process(host, insts, window,
                                                    gap_s),
                             name=f"proposer-{host.name}")
            for host, insts in shards.items()]
        self.sim.run_until(self.sim.all_of(processes), limit=start + limit)
        # Drain until the learners have seen every decision (they can lag
        # the proposers when learner CPU is the bottleneck).
        while len(self.decided) < n_instances and \
                self.sim.peek() <= start + limit:
            self.sim.step()
        elapsed = self.sim.now - start
        throughput = len(self.decided) / elapsed if elapsed > 0 else 0.0
        return PaxosBaselineReport(decided=dict(self.decided),
                                   throughput_msgs_per_s=throughput,
                                   latency=self.latency, elapsed_s=elapsed)


class P4xosCluster(_BaseCluster):
    """Proposers + learners around a P4xos switch."""

    def __init__(self, n_proposers: int = 2, n_learners: int = 3,
                 cal: Calibration = DEFAULT_CALIBRATION, seed: int = 0,
                 acceptor_replicas: int = 3):
        super().__init__(Simulator(seed=seed))
        self._waiters = {}
        learner_names = [f"l{i}" for i in range(n_learners)]
        self.switch = P4xosSwitch(self.sim, "sw0", learner_names, cal=cal,
                                  acceptor_replicas=acceptor_replicas)
        # Hosts run the consensus endpoints with the deployment's host
        # profile, so P4xos and NetRPC paxos share identical end hosts.
        self.proposers = [Host(self.sim, f"p{i}",
                               cores=cal.host_agent_cores,
                               rx_cpu_cost_s=cal.host_pkt_cpu_s)
                          for i in range(n_proposers)]
        self.learners = [Host(self.sim, name, cores=cal.host_agent_cores,
                              rx_cpu_cost_s=cal.host_pkt_cpu_s)
                         for name in learner_names]
        star(self.sim, self.switch, self.proposers + self.learners, cal=cal)
        for host in self.proposers:
            _Learner(self.sim, host, self, is_learner=False)
        for host in self.learners:
            _Learner(self.sim, host, self, is_learner=True)

    def _propose(self, host: Host, instance: int) -> None:
        msg = PaxosMsg(kind="propose", src=host.name, dst="sw0",
                       instance=instance, value=f"cmd-{instance}",
                       sent_at=self.sim.now)
        host.send(msg, "sw0")


class SoftwarePaxosCluster(_BaseCluster):
    """Leader-based software Paxos (libpaxos or DPDK flavour)."""

    def __init__(self, n_proposers: int = 2, n_acceptors: int = 2,
                 n_learners: int = 3, dpdk: bool = False,
                 cal: Calibration = DEFAULT_CALIBRATION, seed: int = 0):
        super().__init__(Simulator(seed=seed))
        self._waiters = {}
        self.dpdk = dpdk
        pkt_cpu = DPDK_PKT_CPU_S if dpdk else KERNEL_PKT_CPU_S
        cores = SOFTWARE_PAXOS_CORES
        self.switch = PlainSwitch(self.sim, "sw0", cal=cal)
        self.proposers = [Host(self.sim, f"p{i}", cores=cores,
                               rx_cpu_cost_s=pkt_cpu)
                          for i in range(n_proposers)]
        self.leader = Host(self.sim, "leader", cores=cores,
                           rx_cpu_cost_s=pkt_cpu)
        self.acceptors = [Host(self.sim, f"a{i}", cores=cores,
                               rx_cpu_cost_s=pkt_cpu)
                          for i in range(n_acceptors)]
        self.learners = [Host(self.sim, f"l{i}", cores=cores,
                              rx_cpu_cost_s=pkt_cpu)
                         for i in range(n_learners)]
        everyone = (self.proposers + [self.leader] + self.acceptors
                    + self.learners)
        star(self.sim, self.switch, everyone, cal=cal)
        self.majority = n_acceptors // 2 + 1
        self._votes: Dict[int, Set[str]] = {}
        self.leader.set_handler(self._leader_packet)
        for acceptor in self.acceptors:
            acceptor.set_handler(self._acceptor_packet)
        for host in self.proposers:
            _Learner(self.sim, host, self, is_learner=False)
        for host in self.learners:
            _Learner(self.sim, host, self, is_learner=True)

    # ------------------------------------------------------------------
    def _propose(self, host: Host, instance: int) -> None:
        msg = PaxosMsg(kind="propose", src=host.name, dst="leader",
                       instance=instance, value=f"cmd-{instance}",
                       sent_at=self.sim.now)
        host.send(msg, "sw0")

    def _leader_packet(self, packet) -> None:
        if not isinstance(packet, PaxosMsg):
            return
        if packet.kind == "propose":
            # Phase 2a: send accept to every acceptor.
            for acceptor in self.acceptors:
                out = PaxosMsg(kind="accept", src="leader",
                               dst=acceptor.name, instance=packet.instance,
                               value=packet.value, sent_at=packet.sent_at)
                self.leader.send(out, "sw0")
            return
        if packet.kind == "accepted":
            votes = self._votes.setdefault(packet.instance, set())
            votes.add(packet.src)
            if len(votes) == self.majority:
                # Phase 3: tell the learners and the proposers.
                for host in self.learners + self.proposers:
                    out = PaxosMsg(kind="learn", src="leader",
                                   dst=host.name, instance=packet.instance,
                                   value=packet.value,
                                   sent_at=packet.sent_at)
                    self.leader.send(out, "sw0")

    def _acceptor_packet(self, packet) -> None:
        if isinstance(packet, PaxosMsg) and packet.kind == "accept":
            host = self.acceptors[0] if packet.dst == self.acceptors[0].name \
                else next(a for a in self.acceptors if a.name == packet.dst)
            out = PaxosMsg(kind="accepted", src=packet.dst, dst="leader",
                           instance=packet.instance, value=packet.value,
                           sent_at=packet.sent_at)
            host.send(out, "sw0")
