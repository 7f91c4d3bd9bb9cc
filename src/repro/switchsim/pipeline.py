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
4. data path: grant-generation check -> ``Stream.modify`` -> shadow
   mirror clear -> ``Map.addTo`` -> ``Map.get`` -> ``CntFwd`` decision.
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
    StreamOp,
    saturating_add,
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

    def _observe_kernel(self, stats: Counter, select: int, op: str,
                        now: float) -> None:
        """Record one register-kernel batch."""
        pairs = select.bit_count()
        stats["kernel_ops"] += 1
        stats["kernel_pairs"] += pairs
        if TRACE.enabled:
            TRACE.instant("regs.kernel", now, self.name, (op, pairs))

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
        # Batch kernels below run once per data packet per switch — the
        # hottest switchsim code.  All per-kv work happens inside the
        # KVBlock / RegisterFile bulk operations (the only sanctioned
        # register access path); the pipeline just computes masks.
        regs = self.registers
        recirc = False
        block = pkt.kv
        bitmap = pkt.bitmap
        base = self.phys_base
        select = block.mapped_mask & bitmap
        stats = self.stats
        stats["data_pkts"] += 1

        # --- grant generations (checked once some register was evicted) --
        if regs.generations and prog.uses_map:
            block, stale = regs.untag(block, select, base)
            if stale:
                return self._divert(pkt, prog, entry, block, retrans)

        # --- Stream.modify (stateless; the edge switch applies it once) --
        if prog.modify_op is not StreamOp.NOP and entry.edge:
            if block.modify(prog.modify_op, prog.modify_para, bitmap):
                pkt.is_of = True

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

        # --- Map.addTo + Map.get -----------------------------------------
        # Linear-addressed packets carry distinct consecutive addresses,
        # so the integer addTo and get fuse into one pass; the general
        # path keeps the two-pass order (all adds before all gets) that
        # duplicate addresses require.  Another op combines through its
        # codec's ``add_bits`` (the table fp add is a multi-table pass of
        # its own, with no fused kernel).  The packet reports the slots
        # its add did not apply; a retransmission, which adds nothing,
        # reports the slots that read sticky.
        if select:
            do_add = prog.uses_add_to and not retrans
            add_bits = prog.codec.add_bits
            unapplied = sticky = 0
            if do_add and prog.uses_get and pkt.linear_base is not None \
                    and add_bits is saturating_add:
                unapplied = regs.add_get_block(block, select, base)
                self._observe_kernel(stats, select, "add_get", now)
            else:
                if do_add:
                    unapplied = regs.add_block(block, select, base) \
                        if add_bits is saturating_add else \
                        regs.combine_block(block, select, base, add_bits)
                    self._observe_kernel(stats, select, "add", now)
                if prog.uses_get:
                    sticky = regs.get_block(block, select, base)
                    self._observe_kernel(stats, select, "get", now)
            if unapplied or sticky:
                pkt.is_of = True
                pkt.of_mask |= unapplied if do_add else sticky
            if pkt.is_of:
                stats["overflow_pkts"] += 1

        if not entry.edge:
            # Upstream switch in a chain: local pairs are done, the
            # server-edge switch makes the forwarding decision.
            return Verdict(Action.FORWARD, dst=pkt.dst, recirculate=recirc,
                           retransmission=retrans)

        # --- CntFwd (edge switch only) -----------------------------------
        spec = prog.cntfwd
        if pkt.is_cnf and spec.counts:
            cnt_index = pkt.cnt_index & ADDR_MASK
            cnt_local = cnt_index - base
            if not 0 <= cnt_local < regs.capacity:
                return Verdict(Action.FORWARD, dst=pkt.dst,
                               recirculate=recirc, retransmission=retrans)
            # When the counter register is one of the packet's own kv
            # addresses, the Map.addTo above already incremented it (the
            # paper's §5.2.3: CntFwd rides the normal map-access pipeline);
            # only ClientID-style side counters need the extra add.
            # (Fp aggs never count via addTo: their registers hold fp
            # encodings, not +1 increments, so the side counter is used.)
            counted_by_add = prog.uses_add_to and not prog.agg.is_float and \
                block.selected_contains(cnt_index, select)
            if not retrans and not counted_by_add:
                regs.add(cnt_local, 1)
            count = regs.read_raw(cnt_local)
            stats["cntfwd_checks"] += 1
            if count == spec.threshold:
                stats["cntfwd_fires"] += 1
                if spec.threshold > 1:
                    # Multi-party rounds: re-arm the counter for the next
                    # round.  test&set (threshold 1) persists until an
                    # explicit clear releases it.
                    regs.write(cnt_local, 0)
                if prog.clear is ClearPolicy.COPY and \
                        spec.target is not ForwardTarget.SERVER:
                    # Copy policy: the result detours through the server
                    # for backup (Figure 5's black arrows); the server's
                    # clearing return stream reaches the real target.
                    return Verdict(Action.FORWARD, dst=entry.server,
                                   recirculate=recirc,
                                   retransmission=retrans)
                return self._target_verdict(spec.target, pkt, entry, recirc,
                                            retrans)
            if retrans and spec.threshold > 1 and count == 0:
                if prog.clear is ClearPolicy.COPY:
                    # Either the trigger to the server was lost (registers
                    # still hold the aggregate: re-trigger with the values
                    # Map.get just read) or the return is in flight (the
                    # server dedups and its reliable return heals us).
                    return Verdict(Action.FORWARD, dst=entry.server,
                                   recirculate=recirc, retransmission=True)
                # shadow/lazy: the aggregate is still readable on the
                # switch; bounce it straight back (values were filled by
                # Map.get above).
                return Verdict(Action.BOUNCE, dst=pkt.src,
                               recirculate=recirc, retransmission=True)
            return Verdict(Action.DROP, recirculate=recirc,
                           retransmission=retrans)

        # threshold == 0 (or CntFwd disabled): unconditional forward.
        if prog.clear is ClearPolicy.COPY and \
                spec.target is not ForwardTarget.SERVER and \
                block.any_mapped:
            # A clearing method (e.g. lock Release): the server backs up
            # the values and its return stream performs the clear.
            return Verdict(Action.FORWARD, dst=entry.server,
                           recirculate=recirc, retransmission=retrans)
        return self._target_verdict(spec.target, pkt, entry, recirc, retrans)

    # ------------------------------------------------------------------
    def _divert(self, pkt: Packet, prog: RIPProgram, entry: AppEntry,
                block, retrans: bool) -> Verdict:
        """A slot's grant predates its register's eviction: apply nothing
        here and send the packet down the server's software path
        (DESIGN.md §4.1(5) says why retransmissions differ)."""
        self.stats["stale_pkts"] += 1
        spec = prog.cntfwd
        if retrans and (prog.uses_add_to or spec.counts):
            if spec.counts:
                return Verdict(Action.DROP, retransmission=True)
            if not entry.edge:
                return Verdict(Action.FORWARD, dst=pkt.dst,
                               retransmission=True)
            return self._target_verdict(spec.target, pkt, entry, False, True)
        if entry.edge:     # deselect what an upstream switch applied
            base, capacity = self.phys_base, self.registers.capacity
            for index, addr in enumerate(block.addrs):
                if not 0 <= addr - base < capacity:
                    pkt.bitmap &= ~(1 << index)
        pkt.is_cross = True
        return Verdict(Action.FORWARD, dst=entry.server,
                       retransmission=retrans)

    @staticmethod
    def _target_verdict(target: ForwardTarget, pkt: Packet, entry: AppEntry,
                        recirc: bool, retrans: bool) -> Verdict:
        if target is ForwardTarget.SRC:
            return Verdict(Action.BOUNCE, dst=pkt.src, recirculate=recirc,
                           retransmission=retrans)
        if target is ForwardTarget.ALL:
            pkt.is_mcast = True
            return Verdict(Action.MULTICAST, group=entry.clients,
                           recirculate=recirc, retransmission=retrans)
        return Verdict(Action.FORWARD, dst=entry.server, recirculate=recirc,
                       retransmission=retrans)
