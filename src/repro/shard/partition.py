"""Partition a topology structure into shards along link boundaries.

The partitioning rule is *by rack*: every node carries a rack label
(assigned by the rack-scale builders in :mod:`repro.netsim.topology`),
racks are assigned whole to shards, and every edge whose endpoints land
in different shards becomes a *cut link*.  Cut links must have strictly
positive propagation delay — that delay is the conservative lookahead
the barrier protocol in :mod:`repro.shard.runner` runs on, and a
zero-delay cut would stall the simulation clock.

The partition is a pure function of ``(structure, n_shards, together)``
— no RNG, no dict-order dependence — so every worker process derives
the identical decomposition independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION
from repro.netsim.topology import Structure

__all__ = ["PartitionError", "CutLink", "Partition", "partition_structure"]


class PartitionError(ValueError):
    """The requested decomposition is invalid (zero-delay cut, unknown
    rack, empty shard...)."""


@dataclass(frozen=True)
class CutLink:
    """One *directed* link crossing a shard boundary."""

    src: str
    dst: str
    delay_s: float
    src_shard: int
    dst_shard: int

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class Partition:
    """A validated decomposition of a structure into shards.

    ``channels`` maps each directed shard pair that exchanges traffic to
    its cut links, sorted by name — the fixed order every injection and
    merge walks, which is what keeps ``workers=1`` and ``workers=N``
    byte-identical.  ``lookahead`` is the per-channel conservative bound:
    the minimum propagation delay over the channel's links.
    """

    n_shards: int
    shard_of: Tuple[Tuple[str, int], ...]          # (node, shard) pairs
    cut_links: Tuple[CutLink, ...]                 # sorted by name
    channels: Tuple[Tuple[Tuple[int, int], Tuple[CutLink, ...]], ...]
    lookahead: Tuple[Tuple[Tuple[int, int], float], ...]

    def shard_map(self) -> Dict[str, int]:
        return dict(self.shard_of)

    @property
    def min_lookahead(self) -> float:
        bounds = [la for _pair, la in self.lookahead]
        return min(bounds) if bounds else float("inf")


def _edge_delay(tier: str, cal: Calibration) -> float:
    return (cal.host_link_delay_s if tier == "host"
            else cal.switch_link_delay_s)


def partition_structure(structure: Structure, n_shards: int,
                        cal: Calibration = DEFAULT_CALIBRATION,
                        together: Sequence[Sequence[str]] = (),
                        ) -> Partition:
    """Assign racks to ``n_shards`` shards round-robin, cut the rest.

    Racks are taken in order of first appearance in the structure's node
    list (a deterministic order by construction) and grouped by the
    ``together`` affinity sets — every rack named in one affinity set
    lands in the same shard, which is how a controller's racks are kept
    co-resident (:mod:`repro.shard.placement`).  If there are fewer rack
    groups than requested shards, the shard count silently shrinks to
    the group count: an empty shard would add a barrier participant that
    can never do work.
    """
    if n_shards < 1:
        raise PartitionError(f"need >= 1 shard, got {n_shards}")
    nodes, edges = structure
    racks: List[str] = []
    rack_of: Dict[str, str] = {}
    for name, _role, rack in nodes:
        rack_of[name] = rack
        if rack not in racks:
            racks.append(rack)

    # Union racks through the affinity sets: each group keeps the
    # position of its earliest member rack.
    group_of: Dict[str, int] = {}
    groups: List[List[str]] = []
    for rack in racks:
        group_of[rack] = len(groups)
        groups.append([rack])
    for affinity in together:
        affinity = list(affinity)
        for rack in affinity:
            if rack not in group_of:
                raise PartitionError(f"together names unknown rack "
                                     f"{rack!r}")
        target = min(group_of[rack] for rack in affinity)
        for rack in affinity:
            src = group_of[rack]
            if src == target:
                continue
            for moved in groups[src]:
                group_of[moved] = target
            groups[target].extend(groups[src])
            groups[src] = []
    live_groups = [g for g in groups if g]

    n_shards = min(n_shards, len(live_groups))
    rack_shard: Dict[str, int] = {}
    for index, group in enumerate(live_groups):
        for rack in group:
            rack_shard[rack] = index % n_shards

    shard_of = {name: rack_shard[rack_of[name]] for name, _r, _k in nodes}

    cuts: List[CutLink] = []
    for a, b, tier in edges:
        sa, sb = shard_of[a], shard_of[b]
        if sa == sb:
            continue
        delay = _edge_delay(tier, cal)
        if delay <= 0.0:
            raise PartitionError(
                f"cut edge {a}<->{b} has non-positive delay {delay!r}; "
                f"zero-lookahead cuts cannot be synchronized "
                f"conservatively — keep racks {rack_of[a]!r} and "
                f"{rack_of[b]!r} together or give the link delay")
        cuts.append(CutLink(a, b, delay, sa, sb))
        cuts.append(CutLink(b, a, delay, sb, sa))
    cuts.sort(key=lambda c: (c.src, c.dst))

    channels: Dict[Tuple[int, int], List[CutLink]] = {}
    for cut in cuts:
        channels.setdefault((cut.src_shard, cut.dst_shard), []).append(cut)
    channel_items = tuple(
        (pair, tuple(channels[pair])) for pair in sorted(channels))
    lookahead = tuple(
        (pair, min(c.delay_s for c in links))
        for pair, links in channel_items)

    return Partition(
        n_shards=n_shards,
        shard_of=tuple(sorted(shard_of.items())),
        cut_links=tuple(cuts),
        channels=channel_items,
        lookahead=lookahead)
