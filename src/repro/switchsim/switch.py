"""The programmable switch node: admission, pipeline, routing, multicast.

A single :class:`NetRPCSwitch` program runs from "boot"; the controller
installs/removes per-application admission entries at runtime, so
starting an application never interrupts the network (paper §3.2).

Behavioural model notes:

* every processed packet takes ``switch_pipeline_delay_s`` from ingress
  to egress;
* recirculating packets (shadow clears, and the ATP/SwitchML baselines)
  additionally traverse an internal loopback port at line rate, which
  is what costs those designs throughput (§6.3);
* ECN: the switch records the last time it saw a congestion-marked
  packet per application and taints every packet heading back towards
  clients while the mark is fresh — the paper's "write the ECN to the
  INC map so retransmissions carry it until cleared" (§5.1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION, Link, Node, Simulator
from repro.obs.tracer import TRACE
from repro.protocol import Packet

from .admission import AdmissionTable, AppEntry
from .flowstate import FlowStateTable
from .pipeline import Action, RIPPipeline, Verdict
from .registers import RegisterFile

__all__ = ["NetRPCSwitch", "PlainSwitch"]


class PlainSwitch(Node):
    """A store-and-forward switch with static routing and no INC logic.

    Used for the pure-software baselines: identical forwarding/queueing
    behaviour, none of the computation.
    """

    def __init__(self, sim: Simulator, name: str,
                 cal: Calibration = DEFAULT_CALIBRATION):
        super().__init__(sim, name)
        self.cal = cal
        self.routes: Dict[str, str] = {}

    def add_route(self, dst: str, next_hop: str) -> None:
        self.routes[dst] = next_hop

    def next_hop_for(self, dst: str) -> str:
        if dst in self.egress:
            return dst
        try:
            return self.routes[dst]
        except KeyError:
            raise KeyError(
                f"{self.name}: no route to {dst!r} "
                f"(direct: {sorted(self.egress)})") from None

    def receive(self, packet: Any, link: Optional[Link]) -> None:
        self.stats.add("rx_pkts")
        self.sim.schedule(self.cal.switch_pipeline_delay_s,
                          self._forward, packet)

    def _forward(self, packet: Any) -> None:
        dst = getattr(packet, "dst", None)
        if dst is None:
            self.stats.add("dropped_unroutable")
            return
        self.send(packet, self.next_hop_for(dst))


class NetRPCSwitch(PlainSwitch):
    """The INC switch: RIP pipeline plus plain forwarding for the rest."""

    def __init__(self, sim: Simulator, name: str,
                 cal: Calibration = DEFAULT_CALIBRATION,
                 phys_base: int = 0):
        super().__init__(sim, name, cal)
        self.registers = RegisterFile(
            segments=cal.memory_segments,
            registers_per_segment=cal.segment_registers)
        self.flow_state = FlowStateTable(w_max=cal.w_max)
        self.admission = AdmissionTable()
        self.phys_base = phys_base
        self.pipeline = RIPPipeline(self.registers, self.flow_state,
                                    phys_base=phys_base,
                                    name=f"{name}.pipeline")
        self._ecn_marked_at: Dict[int, float] = {}
        # The internal recirculation port serialises at line rate; heavy
        # recirculation (shadow clears, baseline designs) contends here.
        self._recirc_busy_until = 0.0

    # ------------------------------------------------------------------
    # control-plane interface (invoked by the controller / server agents)
    # ------------------------------------------------------------------
    def install_app(self, entry: AppEntry) -> None:
        self.admission.install(entry)

    def remove_app(self, gaid: int) -> AppEntry:
        self._ecn_marked_at.pop(gaid, None)
        return self.admission.remove(gaid)

    def allocate_flow_slot(self) -> int:
        return self.flow_state.allocate()

    def ctrl_read_and_clear(self, addrs) -> list:
        """Control-plane eviction read (exact values, sticky bits reset).

        Addresses are global-physical; results report them unchanged.
        """
        self.stats.add("ctrl_reads")
        base = self.phys_base
        out = self.registers.read_and_clear([a - base for a in addrs])
        return [(a + base, v, s) for a, v, s in out]

    def ctrl_read(self, addrs) -> list:
        """Control-plane non-destructive read of exact register values."""
        self.stats.add("ctrl_reads")
        base = self.phys_base
        return [(a, self.registers.read_raw(a - base),
                 self.registers.is_sticky(a - base)) for a in addrs]

    def ctrl_write(self, addr: int, value: int) -> None:
        """Control-plane register write (seeding a granted mapping)."""
        self.stats.add("ctrl_writes")
        self.registers.write(addr - self.phys_base, value)

    def ctrl_add(self, addr: int, delta: int) -> Tuple[int, bool]:
        """Atomic control-plane read-modify-write add.

        Returns ``(new_value, overflowed)``.  Models the switch driver's
        register update; atomicity holds because the simulator executes
        it as one event.  Used by the server agent to fold late
        software-path contributions into an already-granted register
        without a race against the dataplane.
        """
        self.stats.add("ctrl_writes")
        local = addr - self.phys_base
        overflowed = self.registers.add(local, delta)
        return self.registers.read_raw(local), overflowed

    def ctrl_fadd(self, addr: int, ordered: int,
                  codec=None) -> Tuple[int, bool]:
        """Atomic control-plane table-fp add (agg=fadd recovery folds).

        ``ordered`` is an fp ordered encoding; returns the stored
        encoding plus the overflow flag, mirroring :meth:`ctrl_add`.
        """
        self.stats.add("ctrl_writes")
        local = addr - self.phys_base
        if codec is None:
            overflowed = self.registers.fadd(local, ordered)
        else:
            overflowed = self.registers.fadd(local, ordered, codec)
        return self.registers.read_raw(local), overflowed

    def ctrl_fmax(self, addr: int, ordered: int) -> Tuple[int, bool]:
        """Atomic control-plane fp max-combine (agg=fmax recovery folds)."""
        self.stats.add("ctrl_writes")
        local = addr - self.phys_base
        overflowed = self.registers.fmax(local, ordered)
        return self.registers.read_raw(local), overflowed

    def owns(self, addr: int) -> bool:
        """Whether a global physical address lives on this switch."""
        return 0 <= addr - self.phys_base < self.registers.capacity

    def poll_timestamps(self) -> Dict[int, float]:
        """Last-seen time per GAID (two-level timeout, §5.2.2)."""
        return self.admission.timestamps()

    def reboot(self) -> None:
        """Power-cycle the dataplane (fault injection).

        Registers, flow state bitmaps, admission entries, and ECN marks
        are volatile and vanish; the static routing config and the SRRT
        slot allocator position (controller-owned) survive.  The
        pipeline holds references to the register file and flow-state
        table, so both are cleared in place rather than replaced.
        Verdicts already in flight deliver normally — their register
        reads happened before the power cut.
        """
        self.stats.add("reboots")
        if TRACE.enabled:
            TRACE.instant("control.reboot", self.sim.now, self.name)
        self.registers.power_cycle()
        self.flow_state.clear_state()
        self.admission.clear()
        self._ecn_marked_at.clear()
        self._recirc_busy_until = 0.0

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def receive(self, packet: Any, link: Optional[Link]) -> None:
        sim = self.sim
        stats = self.stats
        stats["rx_pkts"] += 1
        if not isinstance(packet, Packet):
            sim.schedule(self.cal.switch_pipeline_delay_s,
                         self._forward, packet)
            return
        entry = self.admission.lookup(packet.gaid)
        if entry is None:
            # Unregistered applications are forwarded as normal traffic.
            stats.add("unadmitted_pkts")
            if TRACE.enabled:
                TRACE.instant("switch.unadmitted", sim.now, self.name,
                              (packet.gaid,))
            sim.schedule(self.cal.switch_pipeline_delay_s,
                         self._forward, packet)
            return
        if packet.ecn and not (packet.is_sa or packet.is_ack):
            # Only client-data-direction congestion feeds the INC map's
            # ECN state; server-return congestion is echoed end-to-end by
            # the clients' ACKs instead.
            self._ecn_marked_at[packet.gaid] = sim.now
        verdict = self.pipeline.process(packet, entry, sim.now)
        # Mark the packet as having traversed the *edge* INC pipeline —
        # the one that makes forwarding/CntFwd verdicts.  During the
        # reboot-to-reinstall failover window packets take the unadmitted
        # path above and arrive at the server *without* this mark, which
        # is how the server agent tells a switch-aggregated result apart
        # from raw data that slipped past a cold switch (retransmit
        # copies do not inherit it — Packet.copy drops it).
        if entry.edge:
            packet.switch_processed = True
        if verdict.retransmission:
            stats.add("retransmissions_detected")
        stats["inc_pkts"] += 1
        if TRACE.enabled:
            now = sim.now
            TRACE.record("switch.pipeline", now,
                         now + self.cal.switch_pipeline_delay_s, self.name,
                         (packet.gaid, verdict.action.value,
                          verdict.retransmission))
        sim.schedule(self.cal.switch_pipeline_delay_s,
                     self._apply_verdict, (packet, verdict))

    # ------------------------------------------------------------------
    def _apply_verdict(self, pair: Tuple[Packet, Verdict]) -> None:
        packet, verdict = pair
        if verdict.recirculate and not getattr(packet, "_recirculated", False):
            # The internal loopback is a single port serialising at line
            # rate: each recirculated packet occupies it for its wire
            # time, so heavy recirculation costs throughput, not just
            # latency (§6.3's argument against recirculating designs).
            packet._recirculated = True
            self.stats.add("recirculations")
            tx_time = packet.size_bytes * 8.0 / self.cal.link_bandwidth_bps
            start = max(self.sim.now, self._recirc_busy_until)
            self._recirc_busy_until = start + tx_time
            done = (start + tx_time + self.cal.switch_recirculation_delay_s
                    - self.sim.now)
            if TRACE.enabled:
                TRACE.record("switch.recirculate", start,
                             self.sim.now + done, self.name,
                             (packet.gaid,))
            self.sim.schedule(done, self._apply_verdict, (packet, verdict))
            return

        action = verdict.action
        if action is Action.DROP:
            # Reached after any recirculation, so absorbed shadow packets
            # still paid for their loopback pass.
            self.stats["cntfwd_absorbed"] += 1
            return

        if action is Action.MULTICAST:
            stats = self.stats
            stats["multicasts"] += 1
            # A copy differs from the packet only in dst, is_mcast and
            # ecn_echo — no size-affecting field — so the group shares the
            # packet's wire size and one ECN-echo decision.  Each copy
            # then takes Node.send's two steps inline.
            size = packet.size_bytes
            echo = self._ecn_echo(packet.gaid)
            egress = self.egress
            for target in verdict.group or (packet.dst,):
                copy = packet.copy()
                copy.dst = target
                copy.is_mcast = True
                copy._size = size
                if echo:
                    copy.ecn_echo = True
                link = egress.get(target)
                if link is None:
                    link = self.link_to(self.next_hop_for(target))
                stats["tx_pkts"] += 1
                link.send(copy)
            return

        # FORWARD / BOUNCE
        packet.dst = verdict.dst
        if action is Action.BOUNCE:
            self.stats["bounced_pkts"] += 1
        if (action is Action.BOUNCE or packet.is_sa or packet.is_ack) \
                and self._ecn_echo(packet.gaid):
            packet.ecn_echo = True     # heading back towards the clients
        self.send(packet, self.next_hop_for(packet.dst))

    def _ecn_echo(self, gaid: int) -> bool:
        """Whether the app's recorded data-path congestion is still fresh."""
        marked_at = self._ecn_marked_at.get(gaid)
        return marked_at is not None and \
            self.sim.now - marked_at < self.cal.ecn_freshness_s
