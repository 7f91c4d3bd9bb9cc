"""The system-wide NetRPC controller (paper Figure 1, §3.2, §5.2.2).

One controller process manages the whole deployment:

* application registration and name lookup: assigns GAIDs, reserves
  switch memory (FCFS, as in the paper), installs admission entries on
  every switch at runtime — the switch program itself never restarts;
* reliable-flow slot allocation: SRRT slots are kept consistent across
  all switches on the path so a flow's flip-bit state exists everywhere;
* graceful degradation: when no switch memory is available the
  application is registered in software-only mode ("fallback on network
  fabrics without INC support", §5.2.1);
* the two-level timeout that reclaims switch memory leaked by crashed
  hosts (§5.2.2) lives in :mod:`repro.control.timeout`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.inc import AppConfig, ClientAgent, MemoryRegion, ServerAgent
from repro.netsim import Calibration, Counter, DEFAULT_CALIBRATION, Simulator
from repro.obs.tracer import TRACE
from repro.protocol import ClearPolicy, RIPProgram
from repro.switchsim import AppEntry, NetRPCSwitch

__all__ = ["Controller", "Registration", "MemoryPool"]


class MemoryPool:
    """FCFS reservation over the combined register space of all switches.

    Values grow from the bottom of the global physical space; CntFwd
    counter regions grow from the top of the *edge* switch (they must
    live where forwarding verdicts are made).
    """

    def __init__(self, total: int, edge_base: int, edge_capacity: int):
        self.total = total
        self._value_next = 0
        self._counter_next = edge_base + edge_capacity
        self._counter_floor = edge_base
        # Regions returned by deregistered applications, reusable by
        # later registrations (best-fit).
        self._freed_values: List[MemoryRegion] = []
        self._freed_counters: List[MemoryRegion] = []

    @staticmethod
    def _best_fit(freed: List[MemoryRegion], size: int
                  ) -> Optional[MemoryRegion]:
        candidates = [r for r in freed if r.size >= size]
        if not candidates:
            return None
        region = min(candidates, key=lambda r: r.size)
        freed.remove(region)
        if region.size > size:
            freed.append(MemoryRegion(region.base + size,
                                      region.size - size))
        return MemoryRegion(region.base, size)

    def reserve_values(self, size: int) -> Optional[MemoryRegion]:
        reused = self._best_fit(self._freed_values, size)
        if reused is not None:
            return reused
        if self._value_next + size > min(self.total, self._counter_next):
            return None
        region = MemoryRegion(self._value_next, size)
        self._value_next += size
        return region

    def reserve_counters(self, size: int) -> Optional[MemoryRegion]:
        reused = self._best_fit(self._freed_counters, size)
        if reused is not None:
            return reused
        base = self._counter_next - size
        if base < max(self._counter_floor, self._value_next):
            return None
        self._counter_next = base
        return MemoryRegion(base, size)

    def reserve_values_on_edge(self, size: int) -> Optional[MemoryRegion]:
        """Value region constrained to the edge switch.

        Map-keyed counting applications (test&set locks, per-key votes)
        use their value registers as CntFwd accumulators, and forwarding
        verdicts are made only at the server-edge switch — so those
        registers must live there.
        """
        return self.reserve_counters(size)

    def release(self, region: MemoryRegion, counters: bool = False) -> None:
        """Return a deregistered application's reservation to the pool."""
        if region.size == 0:
            return
        (self._freed_counters if counters
         else self._freed_values).append(region)

    @property
    def free_values(self) -> int:
        reusable = sum(r.size for r in self._freed_values)
        return max(0, min(self.total, self._counter_next)
                   - self._value_next) + reusable


@dataclass
class Registration:
    """The controller's record of one running application."""

    app_name: str
    configs: List[AppConfig]
    server: str
    clients: Tuple[str, ...]

    @property
    def gaids(self) -> List[int]:
        return [c.gaid for c in self.configs]


class Controller:
    """Registration, name lookup, and runtime switch configuration."""

    def __init__(self, sim: Simulator, switches: Sequence[NetRPCSwitch],
                 cal: Calibration = DEFAULT_CALIBRATION):
        if not switches:
            raise ValueError("a deployment needs at least one switch")
        self.sim = sim
        self.switches = list(switches)
        self.cal = cal
        edge = self.switches[-1]
        total = sum(sw.registers.capacity for sw in self.switches)
        self.pool = MemoryPool(total, edge.phys_base,
                               edge.registers.capacity)
        self._gaids = itertools.count(1)
        self._registrations: Dict[str, Registration] = {}
        self._client_agents: Dict[str, ClientAgent] = {}
        self._server_agents: Dict[str, ServerAgent] = {}
        # GAID -> installed multicast members, kept so the failover path
        # can re-install admission entries verbatim after a switch loses
        # its dataplane state (mcast_groups may differ from clients).
        self._installed_members: Dict[int, Tuple[str, ...]] = {}
        # Failover audit trail: counters plus an ordered event log of
        # (what, when, switch, entries_reinstalled, flows_resynced)
        # tuples — both picklable, so sweep workers can ship them back.
        self.audit = Counter()
        self.audit_log: List[tuple] = []

    # ------------------------------------------------------------------
    # agent registry (hosts announce their agents at startup)
    # ------------------------------------------------------------------
    def attach_client_agent(self, agent: ClientAgent) -> None:
        self._client_agents[agent.host.name] = agent

    def attach_server_agent(self, agent: ServerAgent) -> None:
        self._server_agents[agent.host.name] = agent

    # ------------------------------------------------------------------
    # registration / name lookup
    # ------------------------------------------------------------------
    def register(self, programs: Sequence[RIPProgram], server: str,
                 clients: Sequence[str], value_slots: int,
                 counter_slots: int = 0, linear=False,
                 cache_policy: str = "netrpc", cc_enabled: bool = True,
                 flows_per_host: int = 0,
                 software_only: bool = False,
                 mcast_groups: Optional[Sequence[Optional[Sequence[str]]]]
                 = None, cc_mode: str = "aimd") -> List[AppConfig]:
        """Register one application (all its RPC methods share state).

        Returns one :class:`AppConfig` per program, in order.  ``linear``
        is a bool or a per-program sequence of bools (array-addressed
        methods and map-addressed methods can share one app).  If switch
        memory is exhausted the app still registers, in software-only
        mode.
        """
        if not programs:
            raise ValueError("register() needs at least one RIP program")
        app_name = programs[0].app_name
        if any(p.app_name != app_name for p in programs):
            raise ValueError("all programs of a registration must share "
                             "one AppName")
        # An app has one software map and one register region, so one
        # aggregation arithmetic.
        aggs = sorted({p.agg.value for p in programs})
        if len(aggs) > 1:
            raise ValueError(f"application {app_name!r} mixes aggregation "
                             f"ops {' and '.join(aggs)}; all its programs "
                             f"must share one agg")
        if app_name in self._registrations:
            raise ValueError(f"application {app_name!r} already registered")
        if server not in self._server_agents:
            raise KeyError(f"no server agent on host {server!r}")
        for client in clients:
            if client not in self._client_agents:
                raise KeyError(f"no client agent on host {client!r}")

        if isinstance(linear, (list, tuple)):
            linear_flags = list(linear)
            if len(linear_flags) != len(programs):
                raise ValueError("one linear flag per program required")
        else:
            linear_flags = [bool(linear)] * len(programs)
        all_linear = all(linear_flags)
        # Lazy clearing reads against per-register baselines, which a key
        # moving between the software map and a register cannot carry.
        for program, linear_flag in zip(programs, linear_flags):
            if program.clear is ClearPolicy.LAZY and not linear_flag:
                raise ValueError(f"application {app_name!r}: clear=lazy "
                                 f"needs linear addressing")
        # Fp accumulators hold ordered encodings, so they can never
        # double as CntFwd counters: a counting fp program needs the
        # linear layout's dedicated side-counter region.
        for program in programs:
            if program.agg.is_float and program.cntfwd.counts \
                    and not all_linear:
                raise ValueError(
                    f"program {program.app_name!r}: agg={program.agg.value} "
                    f"with a counting CntFwd requires linear addressing "
                    f"(fp registers cannot serve as counters)")
        # Map-keyed counting apps count on their value registers, which
        # must live where CntFwd verdicts are made (the edge switch).
        needs_edge_values = any(p.cntfwd.counts for p in programs) \
            and not all_linear
        if software_only:
            value_region = counter_region = None
        elif needs_edge_values:
            value_region = self.pool.reserve_values_on_edge(value_slots) \
                if value_slots else MemoryRegion(0, 0)
            counter_region = self.pool.reserve_counters(counter_slots) \
                if counter_slots else MemoryRegion(0, 0)
        else:
            value_region = self.pool.reserve_values(value_slots) \
                if value_slots else MemoryRegion(0, 0)
            counter_region = self.pool.reserve_counters(counter_slots) \
                if counter_slots else MemoryRegion(0, 0)
        has_switch = value_region is not None and counter_region is not None
        if not has_switch:
            value_region = MemoryRegion(0, 0)
            counter_region = MemoryRegion(0, 0)

        flows = flows_per_host or self.cal.flows_per_app
        configs = []
        for program, linear_flag in zip(programs, linear_flags):
            config = AppConfig(
                gaid=next(self._gaids), program=program, server=server,
                clients=tuple(clients), value_region=value_region,
                counter_region=counter_region, linear=linear_flag,
                cache_policy=cache_policy, cc_enabled=cc_enabled,
                cc_mode=cc_mode, has_switch=has_switch)
            configs.append(config)

        groups = list(mcast_groups) if mcast_groups is not None \
            else [None] * len(configs)
        if len(groups) != len(configs):
            raise ValueError("one mcast group (or None) per program")
        self._install_switch_entries(configs, server, tuple(clients),
                                     groups)
        self._wire_agents(configs, server, tuple(clients), flows)
        self._registrations[app_name] = Registration(
            app_name=app_name, configs=configs, server=server,
            clients=tuple(clients))
        return configs

    def lookup(self, app_name: str) -> Registration:
        try:
            return self._registrations[app_name]
        except KeyError:
            raise KeyError(f"unknown application {app_name!r}") from None

    def registered_apps(self) -> List[str]:
        return sorted(self._registrations)

    # ------------------------------------------------------------------
    def _install_switch_entries(self, configs: List[AppConfig], server: str,
                                clients: Tuple[str, ...],
                                groups: Sequence[Optional[Sequence[str]]]
                                ) -> None:
        edge = self.switches[-1]
        for config, group in zip(configs, groups):
            if not config.has_switch:
                continue
            members = tuple(group) if group is not None else clients
            self._installed_members[config.gaid] = members
            for switch in self.switches:
                switch.install_app(AppEntry(
                    gaid=config.gaid, program=config.program, server=server,
                    clients=members, edge=switch is edge))

    def _allocate_slot(self) -> int:
        """One SRRT slot, consistent across every switch on the path."""
        slots = {switch.allocate_flow_slot() for switch in self.switches}
        if len(slots) != 1:  # pragma: no cover - defensive
            raise RuntimeError("switch SRRT allocators diverged")
        return slots.pop()

    def _wire_agents(self, configs: List[AppConfig], server: str,
                     clients: Tuple[str, ...], flows: int) -> None:
        client_slots = {c: [self._allocate_slot() for _ in range(flows)]
                        for c in clients}
        mcast_slots = [self._allocate_slot() for _ in range(flows)]
        unicast_slots = {c: self._allocate_slot() for c in clients}
        for config in configs:
            for client in clients:
                self._client_agents[client].register_app(
                    config, client_slots[client])
            self._server_agents[server].register_app(
                config, self.switches, mcast_slots, unicast_slots)

    # ------------------------------------------------------------------
    def deregister(self, app_name: str) -> None:
        """Remove an application: switch entries gone, memory reclaimed.

        The server agent keeps the application's data (the second-level
        timeout decides its fate, §5.2.2); the registers return to the
        pool for future registrations.
        """
        registration = self._registrations.pop(app_name)
        released = set()
        for config in registration.configs:
            if not config.has_switch:
                continue
            self._installed_members.pop(config.gaid, None)
            for switch in self.switches:
                switch.remove_app(config.gaid)
            key = (config.value_region.base, config.value_region.size)
            if key not in released:
                released.add(key)
                self.pool.release(config.value_region)
                self.pool.release(config.counter_region, counters=True)

    # ------------------------------------------------------------------
    def handle_switch_reboot(self, switch: NetRPCSwitch) -> None:
        """Failover: restore one rebooted switch's dataplane state.

        Invoked (after a detection/control delay) when a switch lost its
        volatile state: admission entries are re-installed verbatim, and
        every live sender's flip-bit slot is rebuilt from the transport's
        own window state so in-flight retransmissions classify as fresh —
        matching the registers they feed, which the same reboot wiped
        (§5.2.2 failover).  ``last_seen`` is stamped *now* so the re-
        installed entries do not instantly trip the first-level timeout.
        """
        now = self.sim.now
        edge = self.switches[-1]
        entries = 0
        for registration in self._registrations.values():
            for config in registration.configs:
                if not config.has_switch or config.gaid in switch.admission:
                    continue
                members = self._installed_members.get(
                    config.gaid, registration.clients)
                switch.install_app(AppEntry(
                    gaid=config.gaid, program=config.program,
                    server=registration.server, clients=members,
                    edge=switch is edge, last_seen=now))
                entries += 1
        agents = list(self._client_agents.values()) + \
            list(self._server_agents.values())
        flows = 0
        for agent in agents:
            for flow in agent.all_flows():
                if flow.srrt >= 0:
                    switch.flow_state.restore(flow.srrt,
                                              flow.flip_resync_bits())
                    flows += 1
                    if TRACE.enabled:
                        TRACE.instant("inc.resync", now, switch.name,
                                      (flow.srrt,))
        audit = self.audit
        audit.add("failovers")
        audit.add("entries_reinstalled", entries)
        audit.add("flows_resynced", flows)
        self.audit_log.append(("failover", now, switch.name, entries, flows))
        if TRACE.enabled:
            TRACE.instant("control.failover", now, switch.name,
                          (entries, flows))

    # ------------------------------------------------------------------
    def poll_switch_timestamps(self) -> Dict[int, float]:
        """Merged last-seen time per GAID across switches."""
        merged: Dict[int, float] = {}
        for switch in self.switches:
            for gaid, stamp in switch.poll_timestamps().items():
                merged[gaid] = max(merged.get(gaid, 0.0), stamp)
        return merged

    def server_agent_for(self, app_name: str) -> ServerAgent:
        registration = self.lookup(app_name)
        return self._server_agents[registration.server]
