"""Boundary stubs for links that cross shard boundaries.

Every cut link becomes a pair: a :class:`ShardEgressLink` in the
sender's shard and an :class:`IngressBridge` in the receiver's shard.
The egress half *is* a :class:`~repro.netsim.link.Link` — the same
drop-tail occupancy, ECN marking and serialization arithmetic, no copy
of it — except for where a finished ``(deliver_time, packet)`` goes:
into an outbox instead of a local delivery event.  The ingress half
replays those records with ``schedule_at``, so the receiver sees
deliveries at the very same float timestamps a same-simulator ``Link``
would have produced (pinned by ``tests/shard/test_boundary.py``).

Lookahead comes for free: ``Link`` knows a packet's delivery time when
it accepts the packet, a full propagation delay before the delivery,
so the barrier protocol always has ``delay_s`` of safe horizon per
channel.

That is also why a cut link must stay lossless: ``Link`` applies a
loss or fault model inside the delivery event, which for a cut link
runs in the receiving shard, after the record was handed over.  The
stub rejects one outright (``_install_chaos`` already refuses a fault
on a cut link).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.netsim.link import Link, LinkStats, LossModel, NoLoss
from repro.netsim.simulator import Simulator
from repro.obs.tracer import TRACE

__all__ = ["RemoteNode", "ShardEgressLink", "IngressBridge"]


class RemoteNode:
    """Placeholder ``dst`` for an egress link whose receiver lives in
    another shard.  It must never receive anything locally."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def receive(self, packet: Any) -> None:
        raise AssertionError(
            f"packet delivered locally to remote node {self.name!r}; "
            f"boundary egress must route through the outbox")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RemoteNode {self.name}>"


class ShardEgressLink(Link):
    """Sender half of a cut link: a ``Link`` with no local delivery.

    It changes only where ``Link`` posts a finished delivery (``_post``,
    bound once: the outbox instead of ``schedule_at``), refuses any loss
    model, and puts the stitch key on its serialize spans.  ``outbox``
    accumulates ``(deliver_time, packet)`` in emission order; the shard
    runner drains it at every barrier.  Counter split across
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
        self.outbox: List[Tuple[float, Any]] = []
        self._post = self._to_outbox
        # The receiving shard, set by build_fabric; lets the runner
        # group drained records into one frame per (channel, round).
        self.dst_shard: int = -1

    @property
    def loss(self) -> LossModel:
        return self._loss

    @loss.setter
    def loss(self, model: LossModel) -> None:
        if type(model) is not NoLoss:
            raise ValueError(
                f"boundary link {self.name} must stay lossless: its "
                f"deliveries are handed to the receiving shard a full "
                f"propagation delay ahead (the channel lookahead), before "
                f"a loss model could draw; got {type(model).__name__}")
        self._loss = model

    def _to_outbox(self, when: float, _deliver: Any, packet: Any) -> None:
        stats = self.stats
        stats.sent_pkts += 1
        stats.sent_bytes += getattr(packet, "_size", None) \
            or packet.size_bytes
        self.outbox.append((when, packet))

    def _stitch_key(self, packet: Any) -> Optional[tuple]:
        # (flow, seq) is one half of the cross-shard stitch key — the
        # matching IngressBridge records the other half under the same
        # cut-link name (DESIGN.md §4.11).
        flow_id = getattr(packet, "flow_id", None)
        if flow_id is None:
            return None
        return (flow_id, getattr(packet, "seq", -1))


class IngressBridge:
    """Receiver half of a cut link: replays boundary deliveries.

    Named and counted like a :class:`~repro.netsim.link.Link` (``name``,
    ``stats``), so the fabric's link results cover both halves of a cut
    link.  ``inject`` is called by the shard runner at a barrier, always
    with ``when`` strictly ahead of this shard's clock — the
    conservative bound guarantees it, and ``schedule_at`` enforces it.
    """

    def __init__(self, sim: Simulator, dst: Any, src_name: str):
        self.sim = sim
        self.dst = dst
        self.name = f"{src_name}->{getattr(dst, 'name', dst)}"
        self.stats = LinkStats()

    def inject(self, when: float, packet: Any) -> None:
        self.sim.schedule_at(when, self._deliver, packet)

    def _deliver(self, packet: Any) -> None:
        self.stats.delivered_pkts += 1
        if TRACE.enabled:
            flow_id = getattr(packet, "flow_id", None)
            TRACE.instant("boundary.deliver", self.sim.now, self.name,
                          None if flow_id is None
                          else (flow_id, getattr(packet, "seq", -1)))
        self.dst.receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IngressBridge {self.name}>"
