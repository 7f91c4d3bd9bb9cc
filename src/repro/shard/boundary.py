"""Boundary stubs for links that cross shard boundaries.

Every cut link becomes a pair: a :class:`ShardEgressLink` in the
sender's shard and an :class:`IngressBridge` in the receiver's shard.
The egress half keeps the *entire* transmitter model — drop-tail queue
occupancy, ECN marking, serialization timing — and emits finished
``(deliver_time, packet)`` records into an outbox instead of scheduling
local delivery events.  The ingress half replays those records with
``schedule_at``, so the receiver sees deliveries at the very same
float timestamps a same-simulator :class:`~repro.netsim.link.Link`
would have produced.

Timing identity is load-bearing and pinned by a differential test
(``tests/shard/test_boundary.py``): the serialization expression below
must stay *byte-identical* to ``Link``'s fused path —

* idle transmitter:   ``free = now + (size + OH) * 8.0 / bandwidth``
* queued packet:      same expression evaluated at ``now == _free_at``

both of which reduce to the single accumulation used here.  The stub is
analytic where ``Link`` is event-driven: a queued packet leaves no
``_start_next`` event behind, its serialization start is parked in the
virtual-occupancy deque and counts as queued until that instant passes.
Lookahead comes for free: the record for a packet is known at
serialization-*scheduling* time, a full propagation delay before its
delivery, so the barrier protocol always has ``delay_s`` of safe horizon
per channel.

That is also why a cut link must stay lossless: a loss or fault model
draws at serialization *end*, after the record would already have been
handed to the receiving shard.  The stub rejects one outright
(``_install_chaos`` already refuses a fault on a cut link).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from repro.netsim.link import (ETHERNET_OVERHEAD_BYTES, Link, LossModel,
                               NoLoss)
from repro.netsim.simulator import Simulator
from repro.netsim.trace import Counter
from repro.obs.tracer import TRACE

__all__ = ["RemoteNode", "ShardEgressLink", "IngressBridge"]


class RemoteNode:
    """Placeholder ``dst`` for an egress link whose receiver lives in
    another shard.  It must never receive anything locally."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def receive(self, packet: Any, link: Any) -> None:
        raise AssertionError(
            f"packet delivered locally to remote node {self.name!r}; "
            f"boundary egress must route through the outbox")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RemoteNode {self.name}>"


class ShardEgressLink(Link):
    """Sender half of a cut link: a full transmitter, no local delivery.

    ``outbox`` accumulates ``(deliver_time, packet)`` in emission order;
    the shard runner drains it at every barrier.  Counter split across
    the cut: this side counts ``offered_pkts``/``queue_drops``/
    ``ecn_marks``/``sent_pkts``/``sent_bytes``; the matching
    :class:`IngressBridge` counts ``delivered_pkts``.  Summing the two
    halves reproduces the counters a same-simulator ``Link`` reports.
    """

    def __init__(self, sim: Simulator, src: Any, dst_name: str,
                 bandwidth_bps: float, delay_s: float, **kwargs):
        if delay_s <= 0.0:
            raise ValueError(
                f"boundary link to {dst_name!r} needs positive delay "
                f"(it is the channel lookahead), got {delay_s!r}")
        super().__init__(sim, src, RemoteNode(dst_name), bandwidth_bps,
                         delay_s, **kwargs)
        # Serialization starts of packets still waiting for the
        # transmitter: the queue occupancy drop-tail and ECN decide on.
        self._virtual_starts: Deque[float] = deque()
        self.outbox: List[Tuple[float, Any]] = []
        # The receiving shard, set by build_fabric; lets the runner
        # group drained records into one frame per (channel, round).
        self.dst_shard: int = -1

    @Link.loss.setter
    def loss(self, model: LossModel) -> None:
        if type(model) is not NoLoss:
            raise ValueError(
                f"boundary link {self.name} must stay lossless: its "
                f"deliveries are handed to the receiving shard a full "
                f"propagation delay ahead (the channel lookahead), before "
                f"a loss model could draw; got {type(model).__name__}")
        self._loss = model

    def send(self, packet: Any) -> bool:
        stats = self.stats
        stats["offered_pkts"] += 1
        now = self.sim.now
        starts = self._virtual_starts
        while starts and starts[0] <= now:
            starts.popleft()
        qlen = len(starts)
        if qlen >= self.queue_capacity_pkts:
            stats.add("queue_drops")
            if TRACE.enabled:
                TRACE.instant("link.drop", now, self.name, ("queue",))
            return False
        if qlen >= self.ecn_threshold_pkts and hasattr(packet, "ecn"):
            packet.ecn = True
            stats.add("ecn_marks")
            if TRACE.enabled:
                TRACE.instant("link.ecn", now, self.name)
        free_at = self._free_at
        start = free_at if free_at > now else now
        size = getattr(packet, "_size", None) or packet.size_bytes
        free = start + (size + ETHERNET_OVERHEAD_BYTES) * 8.0 \
            / self.bandwidth_bps
        self._free_at = free
        if start > now:
            # A queued packet occupies the queue until its serialization
            # start passes: "start <= now means popped", the instant
            # Link._start_next pops it.
            starts.append(start)
        stats["sent_pkts"] += 1
        stats["sent_bytes"] += size
        self.outbox.append((free + self.delay_s, packet))
        if TRACE.enabled:
            # (flow, seq) is one half of the cross-shard stitch key —
            # the matching IngressBridge records the other half under
            # the same cut-link name (DESIGN.md §4.11).
            flow_id = getattr(packet, "flow_id", None)
            TRACE.record("link.serialize", start, free, self.name,
                         None if flow_id is None
                         else (flow_id, getattr(packet, "seq", -1)))
            TRACE.record("link.propagate", free, free + self.delay_s,
                         self.name)
        return True

    def _deliver_fused(self, packet: Any) -> None:  # pragma: no cover
        raise AssertionError("egress stub must never deliver locally")

    def _deliver(self, packet: Any) -> None:  # pragma: no cover
        raise AssertionError("egress stub must never deliver locally")


class IngressBridge:
    """Receiver half of a cut link: replays boundary deliveries.

    Quacks enough like a :class:`~repro.netsim.link.Link` (``name``,
    ``src``/``dst``, ``delay_s``, ``stats``) for receive handlers that
    inspect their ingress link.  ``inject`` is called by the shard
    runner at a barrier, always with ``when`` strictly ahead of this
    shard's clock — the conservative bound guarantees it, and
    ``schedule_at`` enforces it.
    """

    def __init__(self, sim: Simulator, dst: Any, src_name: str,
                 bandwidth_bps: float, delay_s: float):
        self.sim = sim
        self.src = RemoteNode(src_name)
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.name = f"{src_name}->{getattr(dst, 'name', dst)}"
        self.stats = Counter()

    def inject(self, when: float, packet: Any) -> None:
        self.sim.schedule_at(when, self._deliver, packet)

    def _deliver(self, packet: Any) -> None:
        self.stats["delivered_pkts"] += 1
        if TRACE.enabled:
            flow_id = getattr(packet, "flow_id", None)
            TRACE.instant("boundary.deliver", self.sim.now, self.name,
                          None if flow_id is None
                          else (flow_id, getattr(packet, "seq", -1)))
        self.dst.receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IngressBridge {self.name}>"
