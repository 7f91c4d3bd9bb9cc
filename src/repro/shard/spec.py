"""Scenario specs for sharded runs.

A sharded run is built from *specifications*, never live objects: the
topology structure (names/roles/racks/edges from
:mod:`repro.netsim.topology`), a flow workload, and an optional chaos
schedule.  Everything here is a pure function of its inputs — the same
``(structure, seed)`` always yields the same workload and the same
chaos schedule, which is what makes runs byte-comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netsim import Calibration, ChaosSchedule, DEFAULT_CALIBRATION
from repro.netsim.faults import LinkFault
from repro.netsim.topology import Structure

__all__ = ["FlowSpec", "ShardScenario", "synth_workload",
           "rack_chaos_schedule"]


@dataclass(frozen=True)
class FlowSpec:
    """One unidirectional flow: ``n_pkts`` packets of ``pkt_bytes`` each,
    emitted back-to-back at ``start_s`` from ``src`` toward ``dst``."""

    flow_id: int
    src: str
    dst: str
    start_s: float
    n_pkts: int
    pkt_bytes: int


@dataclass(frozen=True)
class ShardScenario:
    """Everything a shard needs to build its part of the world.

    ``structure`` is the pure topology description; each shard builds
    only its own nodes from it, but routes are computed over the whole
    structure so forwarding decisions are globally consistent.
    """

    structure: Structure
    flows: Tuple[FlowSpec, ...]
    until: float
    seed: int
    cal: Calibration = DEFAULT_CALIBRATION
    chaos: Optional[ChaosSchedule] = None

    def chaos_fingerprint(self) -> Optional[str]:
        return self.chaos.fingerprint() if self.chaos is not None else None


def synth_workload(structure: Structure, n_flows: int, seed: int,
                   t0: float, t1: float,
                   intra_rack_frac: float = 0.3,
                   pkts_range: Tuple[int, int] = (1, 8),
                   bytes_range: Tuple[int, int] = (128, 1480),
                   ) -> Tuple[FlowSpec, ...]:
    """A workload that is a pure function of ``(structure, seed)``.

    Uses its own ``random.Random(seed)`` over rack-sorted host lists
    (mirroring :meth:`ChaosSchedule.random`), so construction order and
    simulator state never leak into the draw sequence.  A fraction
    ``intra_rack_frac`` of flows stays inside the source rack — those
    never cross a shard boundary under per-rack partitioning, which is
    the locality that makes sharding pay.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    nodes, _edges = structure
    hosts = [name for name, role, _rack in nodes if role == "host"]
    if len(hosts) < 2:
        raise ValueError("workload needs at least two hosts")
    by_rack: Dict[str, List[str]] = {}
    for name, role, rack in nodes:
        if role == "host":
            by_rack.setdefault(rack, []).append(name)
    rack_of = {name: rack for name, role, rack in nodes if role == "host"}
    rng = random.Random(seed)
    span = t1 - t0
    lo_p, hi_p = pkts_range
    lo_b, hi_b = bytes_range
    flows: List[FlowSpec] = []
    for flow_id in range(n_flows):
        src = hosts[rng.randrange(len(hosts))]
        mates = by_rack[rack_of[src]]
        if rng.random() < intra_rack_frac and len(mates) > 1:
            dst = src
            while dst == src:
                dst = mates[rng.randrange(len(mates))]
        else:
            dst = src
            while dst == src:
                dst = hosts[rng.randrange(len(hosts))]
        flows.append(FlowSpec(
            flow_id=flow_id, src=src, dst=dst,
            start_s=t0 + rng.random() * span,
            n_pkts=rng.randrange(lo_p, hi_p + 1),
            pkt_bytes=rng.randrange(lo_b, hi_b + 1)))
    return tuple(flows)


def rack_chaos_schedule(structure: Structure, shard_of: Dict[str, int],
                        seed: int, t0: float, t1: float,
                        n_link_faults: int = 4,
                        kinds: Sequence[str] = ("reorder", "duplicate",
                                                "corrupt", "flap"),
                        ) -> ChaosSchedule:
    """A chaos schedule restricted to *intra-shard* links.

    Cross-shard links are excluded by construction: their loss draws
    would come from the owning shard's RNG, which diverges from the
    single-simulator draw order, and the conservative lookahead bound
    assumes boundary deliveries are never jittered below the propagation
    delay.  The draw idiom mirrors :meth:`ChaosSchedule.random` (own
    ``Random(seed)``, sorted candidate list) so the schedule — and its
    fingerprint — is a pure function of ``(structure, shard_of, seed)``.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    _nodes, edges = structure
    candidates: List[Tuple[str, str]] = []
    for a, b, _tier in edges:
        if shard_of[a] == shard_of[b]:
            candidates.append((a, b))
            candidates.append((b, a))
    if not candidates:
        raise ValueError("no intra-shard links to fault")
    candidates.sort()
    rng = random.Random(seed)
    span = t1 - t0
    events: List[LinkFault] = []
    for _ in range(n_link_faults):
        src, dst = candidates[rng.randrange(len(candidates))]
        kind = kinds[rng.randrange(len(kinds))]
        at = t0 + rng.random() * span
        if kind == "flap":
            duration = span * (0.05 + 0.15 * rng.random())
        else:
            duration = span * (0.2 + 0.6 * rng.random())
        events.append(LinkFault(
            src=src, dst=dst, kind=kind, at=at, duration_s=duration,
            rate=0.05 + 0.25 * rng.random(),
            jitter_s=span * 0.1 * rng.random()))
    return ChaosSchedule(events)
