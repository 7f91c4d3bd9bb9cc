"""The rack-scale flow fabric that sharded runs execute.

Rack-scale scenarios push raw packet forwarding — tens of thousands of
flows over hundreds of switches — through the exact ``Link`` transmit
model, with :class:`FabricSwitch` doing zero-latency ECMP next-hop
lookup (the link delays carry all the time, as in the NetRPC testbed's
cut-through switches) and :class:`FabricHost` endpoints emitting and
accounting flows.  Every forwarding decision is a pure function of the
*global* structure — BFS equal-cost next-hop sets plus a CRC32 flow
hash — so each shard, rebuilding only its own nodes, still forwards
exactly as the single-simulator run does.  (``zlib.crc32``, never
builtin ``hash``: the latter is salted per process.)

:func:`build_fabric` builds either the whole structure (unsharded
reference runs) or one shard of it, replacing each cut link with the
boundary stubs from :mod:`repro.shard.boundary`.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.netsim import Calibration, DEFAULT_CALIBRATION
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Structure, Topology

from .boundary import IngressBridge, ShardEgressLink
from .partition import Partition
from .spec import FlowSpec

__all__ = ["FlowPacket", "FabricSwitch", "FabricHost", "compute_routes",
           "build_fabric", "ShardFabric"]


class FlowPacket:
    """A minimal forwarded unit: addressable, sized, ECN-markable, and
    cheap to pickle across shard channels."""

    __slots__ = ("flow_id", "seq", "src", "dst", "size_bytes", "ecn")

    def __init__(self, flow_id: int, seq: int, src: str, dst: str,
                 size_bytes: int, ecn: bool = False):
        self.flow_id = flow_id
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.ecn = ecn

    def copy(self) -> "FlowPacket":
        return FlowPacket(self.flow_id, self.seq, self.src, self.dst,
                          self.size_bytes, self.ecn)

    def __reduce__(self):
        return (FlowPacket, (self.flow_id, self.seq, self.src, self.dst,
                             self.size_bytes, self.ecn))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FlowPacket f{self.flow_id}#{self.seq} "
                f"{self.src}->{self.dst} {self.size_bytes}B>")


def compute_routes(structure: Structure
                   ) -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """Equal-cost next-hop sets toward every host, for every node.

    One BFS per destination host over the undirected structure graph;
    ``routes[node][dst_host]`` is the sorted tuple of neighbors that lie
    on some shortest path to ``dst_host``.  Everything is derived from
    sorted names and fixed edge order, so all processes agree.
    """
    nodes, edges = structure
    adjacency: Dict[str, List[str]] = {name: [] for name, _r, _k in nodes}
    for a, b, _tier in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for peers in adjacency.values():
        peers.sort()
    hosts = [name for name, role, _rack in nodes if role == "host"]

    routes: Dict[str, Dict[str, Tuple[str, ...]]] = {
        name: {} for name in adjacency}
    for dst in hosts:
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                d = dist[node] + 1
                for peer in adjacency[node]:
                    if peer not in dist:
                        dist[peer] = d
                        nxt.append(peer)
            frontier = nxt
        for node, peers in adjacency.items():
            if node == dst or node not in dist:
                continue
            here = dist[node]
            candidates = tuple(p for p in peers
                               if dist.get(p, here) == here - 1)
            routes[node][dst] = candidates
    return routes


class FabricSwitch(Node):
    """Zero-latency output-queued switch with per-flow ECMP.

    The next-hop choice hashes ``(flow_id, switch name)`` through CRC32
    so a flow pins one path per switch (no intra-flow reordering) while
    different flows spread across the equal-cost set.  The choice is
    cached per flow — forwarding is the hot path at rack scale.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.routes: Dict[str, Tuple[str, ...]] = {}
        self._flow_choice: Dict[int, str] = {}

    def receive(self, packet: Any, link: Any) -> None:
        flow_id = packet.flow_id
        peer = self._flow_choice.get(flow_id)
        if peer is None:
            hops = self.routes.get(packet.dst)
            if not hops:
                self.stats.add("no_route_drops")
                return
            if len(hops) == 1:
                peer = hops[0]
            else:
                key = f"{flow_id}:{self.name}".encode()
                peer = hops[zlib.crc32(key) % len(hops)]
            self._flow_choice[flow_id] = peer
        self.send(packet, peer)


class FabricHost(Node):
    """Flow endpoint: emits its flows and accounts what it receives.

    ``rx`` maps flow_id to ``[pkts, bytes, first_t, last_t]`` — the
    per-flow record the run fingerprint is built from.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.rx: Dict[int, List[float]] = {}
        self._uplink: Optional[str] = None

    def receive(self, packet: Any, link: Any) -> None:
        if packet.dst != self.name:
            self.stats.add("misrouted_pkts")
            return
        now = self.sim.now
        rec = self.rx.get(packet.flow_id)
        if rec is None:
            self.rx[packet.flow_id] = [1, packet.size_bytes, now, now]
        else:
            rec[0] += 1
            rec[1] += packet.size_bytes
            rec[3] = now

    def emit_flow(self, spec: FlowSpec) -> None:
        """Send the whole flow back-to-back into the uplink; the link's
        transmitter serializes (and drop-tails) it."""
        uplink = self._uplink
        if uplink is None:
            uplink = self._uplink = sorted(self.egress)[0]
        for seq in range(spec.n_pkts):
            self.send(FlowPacket(spec.flow_id, seq, spec.src, spec.dst,
                                 spec.pkt_bytes), uplink)


class ShardFabric:
    """One shard's live slice of the structure (or all of it).

    Holds the topology, the boundary stubs keyed by cut-link name, and
    the result-collection logic shared by sharded and unsharded runs.
    """

    def __init__(self, sim: Simulator, topo: Topology,
                 egress: Dict[str, ShardEgressLink],
                 ingress: Dict[str, IngressBridge]):
        self.sim = sim
        self.topo = topo
        self.egress = egress
        self.ingress = ingress
        self.egress_names: Tuple[str, ...] = tuple(sorted(egress))

    # -- workload -------------------------------------------------------
    def install_workload(self, flows: Sequence[FlowSpec]) -> int:
        """Schedule this shard's share of the flows (spec order —
        subset order is preserved, keeping same-timestamp cohort ties
        identical to the full-fabric installation)."""
        hosts = self.topo.nodes
        installed = 0
        for spec in flows:
            host = hosts.get(spec.src)
            if host is None:
                continue
            self.sim.schedule_at(spec.start_s, host.emit_flow, spec)
            installed += 1
        return installed

    # -- boundary draining ---------------------------------------------
    def drain_boundary(self) -> Dict[int, List[Tuple[str, float, Any]]]:
        """Drain every egress outbox into per-destination-shard message
        groups — exactly one group per directed channel this shard fed
        this round, each a frame's payload for the transport layer.

        Order is load-bearing: outboxes are walked in sorted link-name
        order (``egress_names``) and each keeps emission order, so a
        group's record sequence is identical no matter which pool or
        transport carries it — that is what keeps ``workers=1`` and
        ``workers=N`` injections byte-identical.
        """
        out: Dict[int, List[Tuple[str, float, Any]]] = {}
        egress = self.egress
        for name in self.egress_names:
            link = egress[name]
            outbox = link.outbox
            if outbox:
                group = out.get(link.dst_shard)
                if group is None:
                    group = out[link.dst_shard] = []
                group.extend((name, when, packet)
                             for when, packet in outbox)
                outbox.clear()
        return out

    # -- results --------------------------------------------------------
    def flow_results(self) -> Dict[int, Tuple[int, int, float, float]]:
        out: Dict[int, Tuple[int, int, float, float]] = {}
        for node in self.topo.nodes.values():
            if isinstance(node, FabricHost):
                for flow_id, rec in node.rx.items():
                    out[flow_id] = (int(rec[0]), int(rec[1]),
                                    float(rec[2]), float(rec[3]))
        return out

    def link_results(self) -> Dict[str, Dict[str, float]]:
        """Counters per link name; boundary halves report their split
        counters under the cut link's name, so summing the two shards'
        dicts key-wise reproduces the unsharded link's counters."""
        out: Dict[str, Dict[str, float]] = {}
        seen = set()
        for link in self.topo.links.values():
            if id(link) in seen:       # duplex registers both directions
                continue
            seen.add(id(link))
            if link.stats:
                out[link.name] = link.stats.as_dict()
        for name, link in self.egress.items():
            if link.stats:
                out[name] = link.stats.as_dict()
        for name, bridge in self.ingress.items():
            if bridge.stats:
                out[name] = bridge.stats.as_dict()
        return out


def _params(tier: str, cal: Calibration) -> Tuple[float, float, int, int]:
    delay = (cal.host_link_delay_s if tier == "host"
             else cal.switch_link_delay_s)
    return (cal.link_bandwidth_bps, delay, cal.switch_queue_capacity_pkts,
            cal.switch_ecn_threshold_pkts)


def build_fabric(sim: Simulator, structure: Structure,
                 cal: Calibration = DEFAULT_CALIBRATION,
                 partition: Optional[Partition] = None,
                 shard_id: Optional[int] = None,
                 routes: Optional[Dict[str, Dict[str, Tuple[str, ...]]]]
                 = None) -> ShardFabric:
    """Build the whole structure, or — given ``(partition, shard_id)`` —
    only that shard's slice with boundary stubs at every cut edge."""
    nodes, edges = structure
    shard_of = partition.shard_map() if partition is not None else None
    if routes is None:
        routes = compute_routes(structure)

    topo = Topology(sim)
    for name, role, rack in nodes:
        if shard_of is not None and shard_of[name] != shard_id:
            continue
        node: Node
        if role == "host":
            node = FabricHost(sim, name)
        else:
            node = FabricSwitch(sim, name)
            node.routes = routes[name]
        topo.add_node(node)
        topo.rack_of[name] = rack

    egress: Dict[str, ShardEgressLink] = {}
    ingress: Dict[str, IngressBridge] = {}
    for a, b, tier in edges:
        bandwidth, delay, capacity, ecn = _params(tier, cal)
        a_here = a in topo.nodes
        b_here = b in topo.nodes
        if a_here and b_here:
            topo.connect(topo.nodes[a], topo.nodes[b], bandwidth, delay,
                         queue_capacity_pkts=capacity,
                         ecn_threshold_pkts=ecn)
        elif a_here or b_here:
            local, remote = (a, b) if a_here else (b, a)
            node = topo.nodes[local]
            out = ShardEgressLink(sim, node, remote, bandwidth, delay,
                                  queue_capacity_pkts=capacity,
                                  ecn_threshold_pkts=ecn)
            out.dst_shard = shard_of[remote]
            node.attach_egress(out)
            egress[out.name] = out
            bridge = IngressBridge(sim, node, remote, bandwidth, delay)
            ingress[bridge.name] = bridge
    return ShardFabric(sim, topo, egress, ingress)
