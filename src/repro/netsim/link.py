"""Links, egress queues, and loss models.

A :class:`Link` is a unidirectional channel from one :class:`Node` to
another with a serialization rate, a propagation delay, a bounded
drop-tail queue, and an optional loss model.  :func:`duplex_link` wires
two symmetric directions.

Any object with a ``size_bytes`` attribute can be transmitted.  If the
queue occupancy exceeds the ECN threshold at enqueue time, the packet's
``ecn`` attribute is set (when the object has one), mirroring how the
NetRPC switch marks congestion on queue buildup (paper §5.1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.obs.tracer import TRACE

from .simulator import Simulator
from .trace import Counter

__all__ = [
    "LossModel",
    "NoLoss",
    "RandomLoss",
    "BurstLoss",
    "ScriptedLoss",
    "Link",
    "duplex_link",
    "ETHERNET_OVERHEAD_BYTES",
]

# Preamble (8) + FCS (4) + inter-frame gap (12): on-the-wire cost added to
# every frame beyond its declared size.
ETHERNET_OVERHEAD_BYTES = 24


class LossModel:
    """Decides whether a packet is dropped on the wire."""

    def drops(self, packet: Any, rng) -> bool:
        raise NotImplementedError


class NoLoss(LossModel):
    def drops(self, packet: Any, rng) -> bool:
        return False


class RandomLoss(LossModel):
    """Independent per-packet loss with probability ``rate``."""

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate

    def drops(self, packet: Any, rng) -> bool:
        return self.rate > 0.0 and rng.random() < self.rate


class BurstLoss(LossModel):
    """Two-state Gilbert-Elliott burst loss.

    ``p_enter`` is the chance of entering the bad state per packet,
    ``p_exit`` the chance of leaving it, and ``bad_rate`` the loss rate
    while in the bad state.
    """

    def __init__(self, p_enter: float, p_exit: float, bad_rate: float = 1.0):
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.bad_rate = bad_rate
        self._bad = False

    def drops(self, packet: Any, rng) -> bool:
        if self._bad:
            if rng.random() < self.p_exit:
                self._bad = False
        elif rng.random() < self.p_enter:
            self._bad = True
        return self._bad and rng.random() < self.bad_rate


class ScriptedLoss(LossModel):
    """Drops exactly the packets whose transmit ordinal is listed.

    Useful in tests that need a deterministic loss pattern.
    """

    def __init__(self, drop_ordinals):
        self.drop_ordinals = set(drop_ordinals)
        self._count = 0

    def drops(self, packet: Any, rng) -> bool:
        ordinal = self._count
        self._count += 1
        return ordinal in self.drop_ordinals


class Link:
    """Unidirectional link with a drop-tail queue and ECN marking.

    Lossless links (the overwhelmingly common case) take a *fused* fast
    path: the transmitter's busy-until time is tracked analytically in
    ``_free_at`` and a packet that finds the transmitter idle costs a
    single scheduled event (its delivery), instead of the classic
    serialization-done + propagation-done pair.  Packets that queue get
    one extra ``_start_next`` event at their serialization start, which
    keeps queue occupancy — and therefore drop-tail and ECN decisions —
    identical to the two-event model at every instant.  Links with a
    loss model installed fall back to the two-event path because the
    loss decision must be drawn from the simulator RNG at serialization
    end.
    """

    def __init__(self, sim: Simulator, src: Any, dst: Any,
                 bandwidth_bps: float, delay_s: float,
                 queue_capacity_pkts: int = 512,
                 ecn_threshold_pkts: Optional[int] = None,
                 loss: Optional[LossModel] = None,
                 name: str = ""):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("delay must be >= 0")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue_capacity_pkts = queue_capacity_pkts
        self.ecn_threshold_pkts = (ecn_threshold_pkts
                                   if ecn_threshold_pkts is not None
                                   else max(1, queue_capacity_pkts // 8))
        self.name = name or f"{getattr(src, 'name', src)}->" \
                            f"{getattr(dst, 'name', dst)}"
        self._queue: Deque[Any] = deque()
        self._busy = False          # legacy (lossy) path state
        self._free_at = 0.0         # fused path: transmitter busy until
        self._pop_pending = False   # fused path: _start_next scheduled
        self.stats = Counter()
        self.loss = loss or NoLoss()

    # ------------------------------------------------------------------
    @property
    def loss(self) -> LossModel:
        return self._loss

    @loss.setter
    def loss(self, model: LossModel) -> None:
        # The model's type selects the transmit path, so a swap while a
        # packet is queued or serializing would leave both state
        # machines live (packets stranded in _queue).  Every installer
        # (deployment loss injection, chaos schedules) swaps at setup.
        if self._queue or self._busy or self._pop_pending \
                or self.sim.now < self._free_at:
            raise RuntimeError(
                f"link {self.name}: loss model swapped while the "
                f"transmitter is busy; install it while the link is idle")
        self._loss = model
        self._fused = type(model) is NoLoss

    def send(self, packet: Any) -> bool:
        """Enqueue ``packet`` for transmission.

        Returns ``False`` if the packet was tail-dropped at the queue.
        """
        stats = self.stats
        stats["offered_pkts"] += 1
        queue = self._queue
        qlen = len(queue)
        if qlen >= self.queue_capacity_pkts:
            stats.add("queue_drops")
            if TRACE.enabled:
                TRACE.instant("link.drop", self.sim.now, self.name,
                              ("queue",))
            return False
        if qlen >= self.ecn_threshold_pkts and hasattr(packet, "ecn"):
            packet.ecn = True
            stats.add("ecn_marks")
            if TRACE.enabled:
                TRACE.instant("link.ecn", self.sim.now, self.name)
        if self._fused:
            sim = self.sim
            now = sim.now
            if not qlen and now >= self._free_at:
                # Idle transmitter: serialization starts immediately and
                # the single event is the delivery itself.  (size_bytes is
                # a caching property; read the cache slot directly.)
                size = getattr(packet, "_size", None) or packet.size_bytes
                wire_bytes = size + ETHERNET_OVERHEAD_BYTES
                free = now + wire_bytes * 8.0 / self.bandwidth_bps
                self._free_at = free
                sim.schedule_at(free + self.delay_s, self._deliver_fused,
                                packet)
                if TRACE.enabled:
                    TRACE.record("link.serialize", now, free, self.name)
                    TRACE.record("link.propagate", free,
                                 free + self.delay_s, self.name)
            else:
                queue.append(packet)
                if not self._pop_pending:
                    self._pop_pending = True
                    sim.schedule_at(self._free_at, self._start_next, None)
            return True
        queue.append(packet)
        if not self._busy:
            self._transmit_next()
        return True

    # -- fused (lossless) path -----------------------------------------
    def _start_next(self, _unused: Any) -> None:
        # Fires at a serialization start (== previous serialization end),
        # the same instant the two-event model pops the queue.  Assigning
        # delivery-event sequence numbers here (not at enqueue) keeps
        # same-timestamp tie-breaking identical to the two-event model;
        # scheduling every queued delivery at enqueue time was measurably
        # faster but reordered equal-time events.
        queue = self._queue
        packet = queue.popleft()
        sim = self.sim
        size = getattr(packet, "_size", None) or packet.size_bytes
        wire_bytes = size + ETHERNET_OVERHEAD_BYTES
        free = sim.now + wire_bytes * 8.0 / self.bandwidth_bps
        self._free_at = free
        sim.schedule_at(free + self.delay_s, self._deliver_fused, packet)
        if TRACE.enabled:
            TRACE.record("link.serialize", sim.now, free, self.name)
            TRACE.record("link.propagate", free, free + self.delay_s,
                         self.name)
        if queue:
            sim.schedule_at(free, self._start_next, None)
        else:
            self._pop_pending = False

    def _deliver_fused(self, packet: Any) -> None:
        size = getattr(packet, "_size", None) or packet.size_bytes
        stats = self.stats
        stats["sent_pkts"] += 1
        stats["sent_bytes"] += size
        stats["delivered_pkts"] += 1
        self.dst.receive(packet, self)

    # -- legacy (lossy) path -------------------------------------------
    def _transmit_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue.popleft()
        wire_bytes = packet.size_bytes + ETHERNET_OVERHEAD_BYTES
        tx_time = wire_bytes * 8.0 / self.bandwidth_bps
        self.sim.schedule(tx_time, self._tx_done, packet)
        if TRACE.enabled:
            now = self.sim.now
            TRACE.record("link.serialize", now, now + tx_time, self.name)

    def _tx_done(self, packet: Any) -> None:
        self.stats.add("sent_pkts")
        self.stats.add("sent_bytes", packet.size_bytes)
        plan = getattr(self._loss, "plan", None)
        if plan is not None:
            # Fault-model path: the model plans each packet's deliveries
            # as (extra_delay, packet) tuples — empty = dropped, two
            # entries = duplicated, positive extra delay = reordered.
            deliveries = list(plan(packet, self))
            if TRACE.enabled and not deliveries:
                TRACE.instant("link.drop", self.sim.now, self.name,
                              ("wire",))
            for extra, out in deliveries:
                self.sim.schedule(self.delay_s + extra, self._deliver, out)
                if TRACE.enabled:
                    now = self.sim.now
                    TRACE.record("link.propagate", now,
                                 now + self.delay_s + extra, self.name)
        elif self._loss.drops(packet, self.sim.rng):
            self.stats.add("wire_drops")
            if TRACE.enabled:
                TRACE.instant("link.drop", self.sim.now, self.name,
                              ("wire",))
        else:
            self.sim.schedule(self.delay_s, self._deliver, packet)
            if TRACE.enabled:
                now = self.sim.now
                TRACE.record("link.propagate", now, now + self.delay_s,
                             self.name)
        self._transmit_next()

    def _deliver(self, packet: Any) -> None:
        self.stats.add("delivered_pkts")
        self.dst.receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.bandwidth_bps / 1e9:g}Gbps>"


def duplex_link(sim: Simulator, a: Any, b: Any, bandwidth_bps: float,
                delay_s: float, **kwargs) -> Tuple[Link, Link]:
    """Create the two directions of a full-duplex link: (a->b, b->a)."""
    forward = Link(sim, a, b, bandwidth_bps, delay_s, **kwargs)
    backward = Link(sim, b, a, bandwidth_bps, delay_s, **kwargs)
    return forward, backward
