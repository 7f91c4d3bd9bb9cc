"""Links, egress queues, and loss models.

A :class:`Link` is a unidirectional channel from one :class:`Node` to
another with a serialization rate, a propagation delay, a bounded
drop-tail queue, and an optional loss model.  :func:`duplex_link` wires
two symmetric directions.

There is one transmit model: serialization and queueing are computed
at enqueue time, each accepted packet costs one scheduled event (its
delivery), and the loss model is applied inside that event.

Any object with a ``size_bytes`` attribute can be transmitted.  If the
queue occupancy exceeds the ECN threshold at enqueue time, the packet's
``ecn`` attribute is set (when the object has one), mirroring how the
NetRPC switch marks congestion on queue buildup (paper §5.1).  A packet
with a ``marked()`` method is marked through it instead: the link sends
what it returns, so a packet other receivers also hold (a multicast
group packet) can hand back a private marked copy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.obs.tracer import TRACE

from .simulator import Simulator

__all__ = [
    "LinkStats",
    "LINK_COUNTERS",
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


#: Every counter a link keeps: the closed set that ``Link``, the fault
#: models (:mod:`repro.netsim.faults`) and the shard boundary stubs write.
LINK_COUNTERS = ("offered_pkts", "queue_drops", "ecn_marks", "sent_pkts",
                 "sent_bytes", "delivered_pkts", "wire_drops",
                 "reordered_pkts", "dup_pkts", "corrupt_pkts", "flap_drops")
_LINK_COUNTER_SET = frozenset(LINK_COUNTERS)


class LinkStats:
    """A link's counters, one slot each (DESIGN.md §4.12).

    Links bump several counters per packet, and a slot ``+= 1`` costs
    well under half a :class:`~repro.netsim.trace.Counter` item ``+= 1``,
    so the transmit paths write ``stats.sent_pkts += 1``.  Everything
    else reads it the way it reads a ``Counter``: ``stats[key]``,
    ``add``, and :meth:`as_dict`, which — like a ``Counter``'s — holds
    only the counters that were bumped (non-zero).  Truthiness goes
    through that view; ``==`` does not (it is identity), so compare
    ``as_dict()``.  There is no ``get``.  A key outside
    :data:`LINK_COUNTERS` raises ``AttributeError`` rather than reading
    0, so a misspelt counter cannot pass silently.
    """

    __slots__ = LINK_COUNTERS

    def __init__(self):
        for key in LINK_COUNTERS:
            setattr(self, key, 0)

    def __getitem__(self, key: str) -> float:
        if key not in _LINK_COUNTER_SET:
            raise AttributeError(f"no link counter {key!r}; "
                                 f"link counters: {LINK_COUNTERS}")
        return getattr(self, key)

    def add(self, key: str, amount: float = 1) -> None:
        setattr(self, key, self[key] + amount)

    def as_dict(self) -> Dict[str, float]:
        return {key: getattr(self, key) for key in LINK_COUNTERS
                if getattr(self, key)}

    def __bool__(self) -> bool:
        return any(getattr(self, key) for key in LINK_COUNTERS)

    def __repr__(self) -> str:
        return f"LinkStats({self.as_dict()!r})"


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

    The transmitter is modelled analytically.  ``_free_at`` is the time
    the transmitter finishes its last accepted packet, so a packet sent
    at ``now`` starts serializing at ``max(now, _free_at)`` and its
    delivery is scheduled right away, at serialization end plus the
    propagation delay: one scheduled event per accepted packet.  Queue
    occupancy — what drop-tail and ECN decide on — is the number of
    accepted packets whose serialization has not started yet; their
    starts wait in ``_starts`` and leave it once the clock reaches them.

    A loss or fault model runs inside the delivery event, so it draws
    from the simulator RNG at the packet's arrival and a fault window is
    judged at arrival time.  ``NoLoss`` (the default) draws nothing.

    Where a finished ``(deliver_time, packet)`` goes is ``_post``, bound
    once: the simulator's ``schedule_at`` here, the outbox for the shard
    boundary stub (:class:`repro.shard.boundary.ShardEgressLink`).
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
        self._free_at = 0.0         # transmitter busy until
        # Serialization starts of accepted packets still waiting for the
        # transmitter: the queue occupancy.
        self._starts: Deque[float] = deque()
        self._post = sim.schedule_at
        self.stats = LinkStats()
        self.loss = loss or NoLoss()

    def send(self, packet: Any) -> bool:
        """Enqueue ``packet`` for transmission.

        Returns ``False`` if the packet was tail-dropped at the queue.
        """
        stats = self.stats
        stats.offered_pkts += 1
        now = self.sim.now
        starts = self._starts
        while starts and starts[0] <= now:
            starts.popleft()
        qlen = len(starts)
        if qlen >= self.queue_capacity_pkts:
            stats.queue_drops += 1
            if TRACE.enabled:
                TRACE.instant("link.drop", now, self.name, ("queue",))
            return False
        if qlen >= self.ecn_threshold_pkts and hasattr(packet, "ecn"):
            marked = getattr(packet, "marked", None)
            if marked is None:
                packet.ecn = True
            else:
                packet = marked()
            stats.ecn_marks += 1
            if TRACE.enabled:
                TRACE.instant("link.ecn", now, self.name)
        free_at = self._free_at
        start = free_at if free_at > now else now
        # size_bytes is a caching property; read the cache slot directly.
        size = getattr(packet, "_size", None) or packet.size_bytes
        free = start + (size + ETHERNET_OVERHEAD_BYTES) * 8.0 \
            / self.bandwidth_bps
        self._free_at = free
        if start > now:
            starts.append(start)
        self._post(free + self.delay_s, self._deliver, packet)
        if TRACE.enabled:
            TRACE.record("link.serialize", start, free, self.name,
                         self._stitch_key(packet))
            TRACE.record("link.propagate", free, free + self.delay_s,
                         self.name)
        return True

    def _stitch_key(self, _packet: Any) -> Optional[tuple]:
        """Args of the ``link.serialize`` span: none here; a cut link's
        spans carry a cross-shard stitch key."""
        return None

    def _deliver(self, packet: Any) -> None:
        stats = self.stats
        stats.sent_pkts += 1
        stats.sent_bytes += getattr(packet, "_size", None) \
            or packet.size_bytes
        loss = self.loss
        if type(loss) is not NoLoss:
            self._apply_loss(loss, packet)
            return
        stats.delivered_pkts += 1
        self.dst.receive(packet)

    def _apply_loss(self, loss: LossModel, packet: Any) -> None:
        # A fault model plans the arrival as (extra_delay, packet) tuples
        # — empty = dropped, two entries = duplicated, positive extra
        # delay = reordered; a plain loss model drops or passes.
        plan = getattr(loss, "plan", None)
        if plan is not None:
            deliveries = plan(packet, self)
        elif loss.drops(packet, self.sim.rng):
            self.stats.wire_drops += 1
            deliveries = ()
        else:
            deliveries = ((0.0, packet),)
        if TRACE.enabled and not deliveries:
            TRACE.instant("link.drop", self.sim.now, self.name, ("wire",))
        for extra, out in deliveries:
            if extra > 0.0:
                self.sim.schedule(extra, self._arrive, out)
            else:
                self._arrive(out)

    def _arrive(self, packet: Any) -> None:
        self.stats.delivered_pkts += 1
        self.dst.receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.bandwidth_bps / 1e9:g}Gbps>"


def duplex_link(sim: Simulator, a: Any, b: Any, bandwidth_bps: float,
                delay_s: float, **kwargs) -> Tuple[Link, Link]:
    """Create the two directions of a full-duplex link: (a->b, b->a)."""
    forward = Link(sim, a, b, bandwidth_bps, delay_s, **kwargs)
    backward = Link(sim, b, a, bandwidth_bps, delay_s, **kwargs)
    return forward, backward
