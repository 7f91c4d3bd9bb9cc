"""Partition a topology structure into shards along link boundaries.

The partitioning rule is *by rack*: every node carries a rack label
(assigned by the rack-scale builders in :mod:`repro.netsim.topology`),
racks are assigned whole to shards, and every edge whose endpoints land
in different shards becomes a *cut link*.  Cut links must have strictly
positive propagation delay — that delay is the conservative lookahead
the barrier protocol in :mod:`repro.shard.runner` runs on, and a
zero-delay cut would stall the simulation clock.

The partition is a pure function of ``(structure, n_shards, together)``
— no RNG, no dict-order dependence — so every run derives the
identical decomposition.
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


@dataclass(frozen=True)
class Partition:
    """A validated decomposition of a structure into shards.

    ``lookahead`` holds, for each directed shard pair (*channel*) that
    exchanges traffic, in sorted order, its conservative bound: the
    minimum propagation delay over the channel's cut links.
    """

    n_shards: int
    shard_of: Tuple[Tuple[str, int], ...]          # (node, shard) pairs
    cut_links: Tuple[CutLink, ...]                 # sorted by name
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
    lands in the same shard, which is how racks that must share one
    simulator are kept co-resident.  If there are fewer rack
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

    bound: Dict[Tuple[int, int], float] = {}
    for cut in cuts:
        pair = (cut.src_shard, cut.dst_shard)
        bound[pair] = min(bound.get(pair, cut.delay_s), cut.delay_s)

    return Partition(
        n_shards=n_shards,
        shard_of=tuple(sorted(shard_of.items())),
        cut_links=tuple(cuts),
        lookahead=tuple(sorted(bound.items())))
