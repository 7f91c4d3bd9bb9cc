"""The RIP pipeline: per-packet switch logic (paper Figure 15, §5.2.3).

Given a packet and its application's admission entry, the pipeline
mutates the packet (Stream.modify, Map.get results, overflow sentinels)
and returns a :class:`Verdict` telling the switch what to do with it:
forward, bounce to the source, multicast to the client group, or drop.

Processing order mirrors the paper's flowchart:

1. reliability check (flip bit) — retransmissions skip all
   state-changing primitives but still read;
2. bypasses: ACKs, overflow-marked packets, unmapped (``is_cross``)
   packets go straight through;
3. server-return path: execute ``Map.clear`` and multicast;
4. data path: grant-generation check -> shadow mirror clear ->
   ``protocol.apply`` (``Stream.modify`` -> ``Map.addTo`` -> ``Map.get``
   -> ``CntFwd``), whose outcome becomes the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.netsim import Counter
from repro.obs.tracer import TRACE
from repro.protocol import (
    ADDR_BITS,
    ADDR_MASK,
    ClearPolicy,
    ForwardTarget,
    Packet,
    RIPProgram,
    apply,
)

from .admission import AppEntry
from .flowstate import FlowStateTable
from .registers import RegisterFile

__all__ = ["Action", "Verdict", "RIPPipeline"]


class Action(enum.Enum):
    FORWARD = "forward"      # towards pkt.dst / the server
    BOUNCE = "bounce"        # back to pkt.src (sub-RTT response)
    MULTICAST = "multicast"  # to the application's client group
    DROP = "drop"            # absorbed (CntFwd below threshold)


@dataclass
class Verdict:
    action: Action
    dst: Optional[str] = None           # FORWARD/BOUNCE target host
    group: Tuple[str, ...] = ()         # MULTICAST targets
    recirculate: bool = False           # costs an extra pipeline trip
    retransmission: bool = False        # flip-bit said we saw this packet


class RIPPipeline:
    """Executes RIPs against a register file, one packet per call.

    ``phys_base`` positions this switch's registers inside the global
    physical address space: in a two-switch chain (§6.6) the second
    switch owns addresses ``[capacity, 2*capacity)`` and ignores kv
    pairs outside its range.
    """

    def __init__(self, registers: RegisterFile, flow_state: FlowStateTable,
                 phys_base: int = 0, name: str = "pipeline"):
        self.registers = registers
        self.flow_state = flow_state
        self.phys_base = phys_base
        self.name = name
        # Stage occupancy and register-kernel batch sizes (kept separate
        # from the switch's own Counter: that dict is golden-pinned).
        self.stats = Counter()
        self._now = 0.0                 # for kernel trace events

    def _observe_kernel(self, select: int, op: str) -> None:
        """Record one register-kernel batch (``apply``'s ``observe``)."""
        pairs = select.bit_count()
        stats = self.stats
        stats["kernel_ops"] += 1
        stats["kernel_pairs"] += pairs
        if TRACE.enabled:
            TRACE.instant("regs.kernel", self._now, self.name, (op, pairs))

    # ------------------------------------------------------------------
    def process(self, pkt: Packet, entry: AppEntry, now: float) -> Verdict:
        entry.last_seen = now
        prog = entry.program

        retrans = False
        if pkt.srrt >= 0:
            retrans = self.flow_state.check_and_update(pkt.srrt, pkt.seq,
                                                       pkt.flip)

        if pkt.is_ack:
            self.stats["ack_pkts"] += 1
            return Verdict(Action.FORWARD, dst=pkt.dst,
                           retransmission=retrans)
        if pkt.is_sa:
            # Server-originated packets take the return path even when
            # overflow-marked (a sentinel-carrying clearing return).
            return self._return_path(pkt, prog, entry, retrans, now)
        if pkt.is_of:
            # Fallback bypass: raw data straight to the server agent.
            self.stats["bypass_pkts"] += 1
            return Verdict(Action.FORWARD, dst=entry.server,
                           retransmission=retrans)
        if pkt.is_cross:
            # Unmapped keys: the server executes the primitives in software.
            self.stats["bypass_pkts"] += 1
            return Verdict(Action.FORWARD, dst=entry.server,
                           retransmission=retrans)
        return self._data_path(pkt, prog, entry, retrans, now)

    # ------------------------------------------------------------------
    def _return_path(self, pkt: Packet, prog: RIPProgram, entry: AppEntry,
                     retrans: bool, now: float = 0.0) -> Verdict:
        """Packets from the server agent: clear on the way back (§5.2.2)."""
        recirc = False
        stats = self.stats
        stats["return_pkts"] += 1
        if pkt.is_clr and not retrans:
            block = pkt.kv
            select = block.mapped_mask & pkt.bitmap
            if select and self.registers.generations:
                # Not the registers evicted since the call's grant.
                block, stale = self.registers.untag(block, select,
                                                    self.phys_base)
                select &= ~stale
            if select:
                self.registers.clear_block(block.addrs, select,
                                           -self.phys_base)
                pairs = select.bit_count()
                stats["clear_ops"] += 1
                stats["clear_pairs"] += pairs
                if TRACE.enabled:
                    TRACE.instant("regs.kernel", now, self.name,
                                  ("clear", pairs))
            if pkt.is_cnf:
                word = pkt.cnt_index
                local = (word & ADDR_MASK) - self.phys_base
                if 0 <= local < self.registers.capacity and \
                        self.registers.generations.get(local, 0) == \
                        word >> ADDR_BITS:
                    self.registers.clear(local)
            if prog.clear is ClearPolicy.SHADOW:
                recirc = True
        if pkt.is_mcast:
            return Verdict(Action.MULTICAST, group=entry.clients,
                           recirculate=recirc, retransmission=retrans)
        return Verdict(Action.FORWARD, dst=pkt.dst, recirculate=recirc,
                       retransmission=retrans)

    # ------------------------------------------------------------------
    def _data_path(self, pkt: Packet, prog: RIPProgram, entry: AppEntry,
                   retrans: bool, now: float = 0.0) -> Verdict:
        # The hottest switchsim code: ``protocol.apply`` over the
        # register file's bulk kernels, wrapped in the switch's own
        # decisions (generations, shadow mirror, counter window, verdict).
        regs = self.registers
        recirc = False
        block = pkt.kv
        base = self.phys_base
        select = block.mapped_mask & pkt.bitmap
        stats = self.stats
        stats["data_pkts"] += 1

        # --- grant generations (checked once some register was evicted) --
        if regs.generations and prog.uses_map:
            block, stale = regs.untag(block, select, base)
            if stale:
                return self._divert(pkt, prog, entry, block, retrans)

        # --- shadow mirror clear (costs a recirculation) ----------------
        if prog.clear is ClearPolicy.SHADOW and pkt.shadow_offset:
            if not retrans and select:
                regs.clear_block(block.addrs, select,
                                 pkt.shadow_offset - base)
                pairs = select.bit_count()
                stats["shadow_clear_ops"] += 1
                stats["shadow_clear_pairs"] += pairs
                if TRACE.enabled:
                    TRACE.instant("regs.kernel", now, self.name,
                                  ("shadow_clear", pairs))
            recirc = True

        # --- the RIPs; CntFwd at the edge switch only -------------------
        spec = prog.cntfwd
        edge = entry.edge
        counter = None
        stray = False
        if edge and pkt.is_cnf and spec.counts:
            counter = (pkt.cnt_index & ADDR_MASK) - base
            if not 0 <= counter < regs.capacity:
                counter, stray = None, True
        self._now = now
        target, mask, overflow, count = apply(
            prog, regs, block, select, base, counter, retrans, edge,
            pkt.linear_base is not None, self._observe_kernel)
        # The packet reports the slots its add did not apply (a
        # retransmission: the slots that read sticky).
        if overflow:
            pkt.is_of = True
            pkt.of_mask |= mask
        if select and pkt.is_of:
            stats["overflow_pkts"] += 1
        if count is not None:
            stats["cntfwd_checks"] += 1
            if count == spec.threshold:
                stats["cntfwd_fires"] += 1
        if not edge or stray:
            # Upstream switch in a chain (the server-edge switch decides),
            # or a counter this switch does not hold.
            return Verdict(Action.FORWARD, dst=pkt.dst, recirculate=recirc,
                           retransmission=retrans)
        if target is None:
            return Verdict(Action.DROP, recirculate=recirc,
                           retransmission=retrans)
        return self._target_verdict(target, pkt, entry, recirc, retrans)

    # ------------------------------------------------------------------
    def _divert(self, pkt: Packet, prog: RIPProgram, entry: AppEntry,
                block, retrans: bool) -> Verdict:
        """A slot's grant predates its register's eviction: apply nothing
        here and send the packet down the server's software path
        (DESIGN.md §4.1(5) says why retransmissions differ)."""
        self.stats["stale_pkts"] += 1
        spec = prog.cntfwd
        if retrans and (prog.uses_add_to or spec.counts):
            if not entry.edge and not spec.counts:
                return Verdict(Action.FORWARD, dst=pkt.dst,
                               retransmission=True)
            return self._target_verdict(None if spec.counts else spec.target,
                                        pkt, entry, False, True)
        if entry.edge:     # deselect what an upstream switch applied
            base, capacity = self.phys_base, self.registers.capacity
            for index, addr in enumerate(block.addrs):
                if not 0 <= addr - base < capacity:
                    pkt.bitmap &= ~(1 << index)
        pkt.is_cross = True
        return Verdict(Action.FORWARD, dst=entry.server,
                       retransmission=retrans)

    @staticmethod
    def _target_verdict(target: Optional[ForwardTarget], pkt: Packet,
                        entry: AppEntry, recirc: bool,
                        retrans: bool) -> Verdict:
        if target is None:          # CntFwd absorbed it
            return Verdict(Action.DROP, recirculate=recirc,
                           retransmission=retrans)
        if target is ForwardTarget.SRC:
            return Verdict(Action.BOUNCE, dst=pkt.src, recirculate=recirc,
                           retransmission=retrans)
        if target is ForwardTarget.ALL:
            pkt.is_mcast = True
            return Verdict(Action.MULTICAST, group=entry.clients,
                           recirculate=recirc, retransmission=retrans)
        return Verdict(Action.FORWARD, dst=entry.server, recirculate=recirc,
                       retransmission=retrans)
