"""Deployment builders: assemble a full NetRPC dataplane in one call.

These mirror the paper's testbed shapes (§6.1): a single-rack star and
an N-switch chain, clients at the head and servers at the tail — two
switches is the paper's dumbbell, more is the multi-switch experiment
(§6.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.inc import ClientAgent, ServerAgent
from repro.netsim import (
    Calibration,
    DEFAULT_CALIBRATION,
    Host,
    LossModel,
    Simulator,
    Topology,
)
from repro.netsim.topology import chain as chain_topo
from repro.netsim.topology import star as star_topo
from repro.obs import MetricsRegistry
from repro.switchsim import NetRPCSwitch

from .controller import Controller

__all__ = ["Deployment", "build_rack", "build_chain"]

LossFactory = Callable[[], LossModel]


@dataclass
class Deployment:
    """A wired-up simulation: switches, hosts, agents, controller."""

    sim: Simulator
    cal: Calibration
    topology: Topology
    switches: List[NetRPCSwitch]
    clients: List[Host]
    servers: List[Host]
    client_agents: Dict[str, ClientAgent]
    server_agents: Dict[str, ServerAgent]
    controller: Controller
    metrics: Optional[MetricsRegistry] = None

    def client_agent(self, index: int = 0) -> ClientAgent:
        return self.client_agents[self.clients[index].name]

    def server_agent(self, index: int = 0) -> ServerAgent:
        return self.server_agents[self.servers[index].name]

    @property
    def server_name(self) -> str:
        return self.servers[0].name

    @property
    def client_names(self) -> List[str]:
        return [h.name for h in self.clients]


def _make_host(sim: Simulator, name: str, cal: Calibration) -> Host:
    return Host(sim, name, cores=cal.host_agent_cores,
                rx_cpu_cost_s=cal.host_pkt_cpu_s)


def _loss(factory: Optional[LossFactory]) -> Optional[LossModel]:
    return factory() if factory is not None else None


def build_rack(n_clients: int, n_servers: int = 1,
               cal: Calibration = DEFAULT_CALIBRATION, seed: int = 0,
               loss_factory: Optional[LossFactory] = None) -> Deployment:
    """One switch, all hosts directly attached (2-to-1 microbenchmarks)."""
    sim = Simulator(seed=seed)
    switch = NetRPCSwitch(sim, "sw0", cal=cal)
    clients = [_make_host(sim, f"c{i}", cal) for i in range(n_clients)]
    servers = [_make_host(sim, f"s{i}", cal) for i in range(n_servers)]
    topo = star_topo(sim, switch, clients + servers, cal=cal,
                     loss=_loss(loss_factory))
    # Fresh loss models per link when a factory is given (stateful models
    # must not be shared between links).
    if loss_factory is not None:
        for link in topo.links.values():
            link.loss = loss_factory()
    return _finish(sim, cal, topo, [switch], clients, servers)


def build_chain(n_switches: int, n_clients: int, n_servers: int = 1,
                cal: Calibration = DEFAULT_CALIBRATION, seed: int = 0
                ) -> Deployment:
    """N chained switches: clients at the head, servers at the tail (§6.6)."""
    if n_switches < 1:
        raise ValueError("need at least one switch")
    sim = Simulator(seed=seed)
    switches = []
    base = 0
    for index in range(n_switches):
        switch = NetRPCSwitch(sim, f"sw{index}", cal=cal, phys_base=base)
        base += switch.registers.capacity
        switches.append(switch)
    if n_switches > 1:
        topo = chain_topo(sim, switches, cal=cal)
    else:
        topo = Topology(sim)
        topo.add_node(switches[0])
    clients = [_make_host(sim, f"c{i}", cal) for i in range(n_clients)]
    servers = [_make_host(sim, f"s{i}", cal) for i in range(n_servers)]
    for host in clients:
        topo.connect(host, switches[0], cal.link_bandwidth_bps,
                     cal.host_link_delay_s,
                     queue_capacity_pkts=cal.switch_queue_capacity_pkts,
                     ecn_threshold_pkts=cal.switch_ecn_threshold_pkts)
    for host in servers:
        topo.connect(host, switches[-1], cal.link_bandwidth_bps,
                     cal.host_link_delay_s,
                     queue_capacity_pkts=cal.switch_queue_capacity_pkts,
                     ecn_threshold_pkts=cal.switch_ecn_threshold_pkts)
    # Static routes along the chain.
    for index, switch in enumerate(switches):
        for host in clients:
            if index > 0:
                switch.add_route(host.name, switches[index - 1].name)
        for host in servers:
            if index < n_switches - 1:
                switch.add_route(host.name, switches[index + 1].name)
    return _finish(sim, cal, topo, switches, clients, servers)


def _finish(sim: Simulator, cal: Calibration, topo: Topology,
            switches: List[NetRPCSwitch], clients: List[Host],
            servers: List[Host]) -> Deployment:
    client_agents = {}
    for host in clients:
        tor = next(iter(host.egress))
        client_agents[host.name] = ClientAgent(sim, host, tor, cal=cal)
    server_agents = {}
    for host in servers:
        tor = next(iter(host.egress))
        server_agents[host.name] = ServerAgent(sim, host, tor, cal=cal)
    controller = Controller(sim, switches, cal=cal)
    for agent in client_agents.values():
        controller.attach_client_agent(agent)
    for agent in server_agents.values():
        controller.attach_server_agent(agent)
    metrics = _build_registry(sim, topo, switches, client_agents,
                              server_agents, controller)
    return Deployment(sim=sim, cal=cal, topology=topo, switches=switches,
                      clients=clients, servers=servers,
                      client_agents=client_agents,
                      server_agents=server_agents, controller=controller,
                      metrics=metrics)


def _build_registry(sim: Simulator, topo: Topology,
                    switches: List[NetRPCSwitch],
                    client_agents: Dict[str, ClientAgent],
                    server_agents: Dict[str, ServerAgent],
                    controller: Controller) -> MetricsRegistry:
    """One namespaced registry spanning every instrument in the build.

    The registry holds strong references; it lives exactly as long as
    the :class:`Deployment` that owns it, so registration never extends
    an instrument's lifetime.
    """
    reg = MetricsRegistry("deployment")
    reg.register("sim", sim,
                 snapshot=lambda s: {"events": s._sequence, "now": s.now})
    for link in topo.links.values():
        reg.register(f"link.{link.name}", link.stats)
    for switch in switches:
        reg.register(f"switch.{switch.name}", switch.stats)
        reg.register(f"pipeline.{switch.name}", switch.pipeline.stats)
    for name, agent in client_agents.items():
        reg.register(f"client.{name}", agent.host.stats)
        reg.register(f"client.{name}.agent", agent,
                     snapshot=lambda a: dict(a.stats))
        reg.register(f"client.{name}.flows", agent,
                     snapshot=_flow_snapshot)
    for name, agent in server_agents.items():
        reg.register(f"server.{name}", agent.host.stats)
        reg.register(f"server.{name}.agent", agent,
                     snapshot=lambda a: dict(a.stats))
        reg.register(f"server.{name}.flows", agent,
                     snapshot=_flow_snapshot)
    reg.register("control.audit", controller.audit)
    return reg


def _flow_snapshot(agent) -> Dict[str, float]:
    """Aggregate transport/congestion counters across an agent's flows."""
    total: Dict[str, float] = {}
    for flow in agent.all_flows():
        for key, value in flow.stats.items():
            total[key] = total.get(key, 0) + value
        for key, value in flow.cc.stats.items():
            total[f"cc.{key}"] = total.get(f"cc.{key}", 0) + value
    total["cwnd"] = sum(f.cc.cwnd for f in agent.all_flows())
    return total
