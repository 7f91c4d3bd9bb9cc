"""Reliable flows: the sender half of the flip-bit protocol (paper §5.1).

A :class:`ReliableFlow` corresponds to one sending worker thread holding
a long-term connection with the switch: it owns an SRRT slot (the
switch-side bit array), assigns sequence numbers and flip bits, enforces
the window invariant that makes the protocol idempotent (packet *i* of
window *t* goes out only after packet *i* of window *t-1* is ACKed),
runs the AIMD controller, and retransmits on timeout.

ACKs are *selective*: any returning packet (server ACK, switch bounce,
or a threshold-reached multicast matched by chunk id) acknowledges its
sequence number out of order — the behaviour the paper credits for
NetRPC's graceful degradation under loss (Figure 10).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION, Host, Simulator
from repro.obs.tracer import TRACE
from repro.protocol import Packet, RetryMode

from .congestion import make_controller

__all__ = ["ReliableFlow"]

_INF = float("inf")


class _PendingEntry:
    __slots__ = ("packet", "attempts", "deadline", "sent_at",
                 "_kv_values", "_is_of", "_ecn")

    def __init__(self, packet: Packet, deadline: float, sent_at: float):
        self.packet = packet
        self.attempts = 1
        self.deadline = deadline
        self.sent_at = sent_at
        # First transmissions put this very object on the wire, and the
        # switch pipeline rewrites it in place (Map.get / Stream.modify
        # overwrite kv.value; overflow and ECN set flags, an overflow its
        # mask, which a retransmission starts without).  Snapshot the
        # payload so a retransmission resends what the application wrote,
        # not whatever register state the first trip read back — a
        # reboot-resynced switch classifies that retransmission as fresh
        # and would otherwise re-add a partial aggregate.  The value
        # column is one buffer copy each way.  A stale grant's divert
        # (``is_cross``, ``bitmap``) is kept: retransmissions follow the
        # first copy to the server (``RIPPipeline._divert``).
        self._kv_values = packet.kv.values[:]
        self._is_of = packet.is_of
        self._ecn = packet.ecn

    def restore_payload(self) -> None:
        pkt = self.packet
        pkt.kv.values[:] = self._kv_values
        pkt.is_of = self._is_of
        pkt.of_mask = 0
        pkt.ecn = self._ecn


class ReliableFlow:
    """One reliable, congestion-controlled packet stream."""

    MAX_ATTEMPTS = 50

    def __init__(self, sim: Simulator, host: Host, next_hop: str, srrt: int,
                 flow_id: int = 0, cal: Calibration = DEFAULT_CALIBRATION,
                 cc_enabled: bool = True,
                 retry_mode: RetryMode = RetryMode.PERSIST,
                 on_give_up: Optional[Callable[[Packet], None]] = None,
                 cc_mode: str = "aimd"):
        self.sim = sim
        self.host = host
        self.next_hop = next_hop
        self.srrt = srrt
        self.flow_id = flow_id
        self.cal = cal
        self.retry_mode = retry_mode
        self.cc = make_controller(cc_mode, cal, enabled=cc_enabled)
        self.on_give_up = on_give_up
        # Optional predicate consulted before a FRESH retry: lets the
        # agent stop spinning once the chunk resolved by other means.
        self.retry_filter: Optional[Callable[[Packet], bool]] = None

        self._next_seq = 0
        self._send_base = 0              # lowest unacknowledged seq
        self._timer_at = _INF            # earliest scheduled RTO wakeup
        self._timer_handle = None        # TimerHandle for that wakeup
        self._queue: Deque[Packet] = deque()
        self._pending: Dict[int, _PendingEntry] = {}
        self._acked: set = set()
        self._chunk_to_seq: Dict[Tuple[int, int], int] = {}
        self.stats = {"sent": 0, "retransmits": 0, "acked": 0,
                      "abandoned": 0, "fresh_retries": 0}

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Hand a packet to the flow; seq/flip are assigned in order."""
        packet.srrt = self.srrt
        packet.flow_id = self.flow_id
        packet.seq = self._next_seq
        packet.flip = (packet.seq // self.cal.w_max) % 2
        self._next_seq += 1
        self._chunk_to_seq[(packet.task_id, packet.offset)] = packet.seq
        self._queue.append(packet)
        self._pump()

    def _pump(self) -> None:
        # cwnd <= w_max, so the window check also enforces the flip-bit
        # invariant (seq - w_max must be ACKed before seq departs).
        queue = self._queue
        cc = self.cc
        while queue and queue[0].seq < self._send_base + cc.cwnd:
            self._transmit(queue.popleft(), first=True)

    def _transmit(self, packet: Packet, first: bool) -> None:
        now = self.sim.now
        packet.sent_at = now
        if first:
            wire = packet
        else:
            self._pending[packet.seq].restore_payload()
            wire = packet.copy()
        rto = max(self.cal.retransmit_timeout_s, 2.0 * self.cc.rtt_estimate)
        if not first:
            entry = self._pending[packet.seq]
            entry.attempts += 1
            rto *= min(8, 2 ** (entry.attempts - 1))  # exponential backoff
            entry.deadline = now + rto
            entry.sent_at = now
            self.stats["retransmits"] += 1
        else:
            self._pending[packet.seq] = _PendingEntry(packet, now + rto, now)
            self.stats["sent"] += 1
            if TRACE.enabled:
                TRACE.instant("flow.tx", now, self.host.name,
                              (self.flow_id, packet.seq))
        self.host.send(wire, self.next_hop)
        self._arm_timer(now + rto)

    # ------------------------------------------------------------------
    # RTO bookkeeping runs on one cancellable timer per flow instead of
    # one scheduled event per transmission: the flow keeps a single
    # wakeup at the earliest pending deadline.  Arming an earlier
    # deadline cancels the old wakeup in place (O(1) lazy cancellation —
    # the superseded entry is skipped by the dispatch loop, never popped
    # or dispatched as a tombstone).  ACKs never touch the timer; a
    # wakeup that finds nothing expired (entries acked or deadlines moved
    # by backoff) simply re-arms at the new minimum.  Expired entries are
    # processed in seq (insertion) order, which is exactly the order the
    # per-packet timers of the old scheme fired in for equal deadlines.
    def _arm_timer(self, deadline: float) -> None:
        if deadline < self._timer_at:
            self._timer_at = deadline
            if self._timer_handle is not None:
                self._timer_handle.cancel()
            self._timer_handle = self.sim.call_at(
                deadline, self._on_timer, deadline)

    def _on_timer(self, when: float) -> None:
        self._timer_at = _INF
        self._timer_handle = None
        now = self.sim.now
        pending = self._pending
        expired = [seq for seq, e in pending.items()
                   if now >= e.deadline - 1e-12]
        for seq in expired:
            # Processing one expiry can mutate _pending (abandon, pump,
            # fresh retries), so re-validate each candidate.
            entry = pending.get(seq)
            if entry is None or now < entry.deadline - 1e-12:
                continue
            self._expire(seq, entry)
        if pending:
            self._arm_timer(min(e.deadline for e in pending.values()))

    def _expire(self, seq: int, entry: _PendingEntry) -> None:
        self.cc.on_timeout(self.sim.now)
        if entry.attempts >= self.MAX_ATTEMPTS:
            self._abandon(seq, entry)
            return
        if TRACE.enabled:
            cause = "fresh" if self.retry_mode is RetryMode.FRESH else "rto"
            TRACE.instant("flow.retx", self.sim.now, self.host.name,
                          (self.flow_id, seq, cause))
        if self.retry_mode is RetryMode.FRESH:
            # The original was intentionally absorbed (test&set below
            # threshold); retry as a brand-new attempt so the counter
            # sees it again (spin-lock semantics), paced at the lock
            # polling interval rather than the transport RTO.
            self._abandon(seq, entry, give_up=False)
            if self.retry_filter is not None and \
                    not self.retry_filter(entry.packet):
                return
            entry.restore_payload()
            retry = entry.packet.copy()
            self.stats["fresh_retries"] += 1
            self.sim.schedule(self.cal.fresh_retry_delay_s,
                              self._fresh_enqueue, retry)
            return
        self._transmit(entry.packet, first=False)

    def _fresh_enqueue(self, packet: Packet) -> None:
        if self.retry_filter is not None and not self.retry_filter(packet):
            return
        self.enqueue(packet)

    def _abandon(self, seq: int, entry: _PendingEntry,
                 give_up: bool = True) -> None:
        del self._pending[seq]
        self._acked.add(seq)
        self._advance_base()
        self.stats["abandoned"] += 1
        if give_up and TRACE.enabled:
            TRACE.instant("flow.abandon", self.sim.now, self.host.name,
                          (self.flow_id, seq))
        if give_up and self.on_give_up is not None:
            self.on_give_up(entry.packet)
        self._pump()

    # ------------------------------------------------------------------
    # Out-of-order ACKs this far past the window head, with the head
    # older than an RTT, imply the head packet was lost (§6.4).
    REORDER_GAP = 8

    def ack(self, seq: int, ecn: bool = False) -> Optional[Packet]:
        """Acknowledge one sequence number; returns the original packet."""
        entry = self._pending.pop(seq, None)
        if entry is None:
            return None  # duplicate ACK
        self._acked.add(seq)
        self.stats["acked"] += 1
        self.cc.observe_rtt(self.sim.now - entry.sent_at)
        self.cc.on_ack(ecn, self.sim.now)
        if TRACE.enabled:
            now = self.sim.now
            TRACE.instant("flow.ack", now, self.host.name,
                          (self.flow_id, seq))
            TRACE.instant("cc.window", now, self.host.name,
                          (self.flow_id, self.cc.cwnd))
        packet = entry.packet
        self._chunk_to_seq.pop((packet.task_id, packet.offset), None)
        if seq == self._send_base:
            self._advance_base()
        if seq - self._send_base >= self.REORDER_GAP:
            self._fast_retransmit_check()
        if self._queue:
            self._pump()
        return packet

    def _fast_retransmit_check(self) -> None:
        """Selective-ACK loss inference: heal the window head early."""
        head = self._pending.get(self._send_base)
        if head is None:
            return
        if self.sim.now - head.sent_at <= self.cc.rtt_estimate:
            return
        self.cc.on_fast_loss(self.sim.now)
        self.stats["fast_retransmits"] = \
            self.stats.get("fast_retransmits", 0) + 1
        if TRACE.enabled:
            TRACE.instant("flow.retx", self.sim.now, self.host.name,
                          (self.flow_id, self._send_base, "fast"))
        self._transmit(head.packet, first=False)

    def ack_chunk(self, chunk_id: Tuple[int, int], ecn: bool = False
                  ) -> Optional[Packet]:
        """Acknowledge by chunk id (threshold-reached results, §5.1)."""
        seq = self._chunk_to_seq.get(chunk_id)
        if seq is None:
            return None
        return self.ack(seq, ecn=ecn)

    def _advance_base(self) -> None:
        # The base itself is never in _acked between calls, so ``ack``
        # calls this only when the seq it settles is the base.
        while self._send_base in self._acked:
            self._acked.discard(self._send_base)
            self._send_base += 1

    # ------------------------------------------------------------------
    def flip_resync_bits(self) -> int:
        """The switch-side SRRT bit array matching this flow's state.

        Failover path: after a switch reboot wiped the flip-bit table,
        the controller rebuilds each slot from the live sender so that
        the *next* packet to arrive at every window index classifies as
        a first appearance.  That is correct because the registers those
        packets fed were wiped by the same reboot — losses are coupled —
        and it is what lets in-flight retransmissions re-contribute
        instead of being skipped as already-seen (§5.1 + §5.2.2).

        For index ``i`` the next arrival is the smallest unsettled
        ``seq >= send_base`` with ``seq % w_max == i``; a seq ACKed out
        of order above the base is settled (never resent), so its index
        is armed for the following window instead.  Later windows then
        classify correctly by the same induction as a cold-start flow.
        """
        w = self.cal.w_max
        base = self._send_base
        bits = 0
        for index in range(w):
            nxt = base + ((index - base) % w)
            if nxt in self._acked:
                nxt += w
            if not (nxt // w) & 1:
                # Stored bit must differ from the arriving flip bit.
                bits |= 1 << index
        return bits
